#!/usr/bin/env python3
"""perfbench entry point: build fairflow from source, run one workload.

    python3 perfbench/run.py --workload tenant_churn --seed 1 --seconds 12 --trace 0

Run from the repository root. Configures and builds perfbench/ (which
compiles ../src) into $CARGO_TARGET_DIR or .bench_build/, then runs the
ffbench program in a fresh directory under .bench_run/. The last line of
standard output is the result object {"correct", "attempted", "failed",
"metrics"}; the full record (metadata, every workload metric, sample counts)
is written to .bench_out/. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("tenant_churn", "mega_campaign", "stream_fanout")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_revision(root):
    """The git revision when available, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha1:" + digest.hexdigest()


def build(root, build_dir):
    """Configure (once) and build the daemon and the benchmark program."""
    source = os.path.join(root, "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "fairflowd", "ffbench"], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no fairflow sources under ./src; run from the repository root")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_dir, "perfbench")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = os.path.join(root, ".bench_run", f"{tag}-{os.getpid()}")
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "ffbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--fairflowd", os.path.join(build_dir, "fairflow", "service", "fairflowd"),
        "--run-dir", run_dir,
        "--record", os.path.join(out_dir, f"{tag}.json"),
        "--revision", source_revision(root),
    ]
    sys.stdout.flush()
    try:
        code = subprocess.run(command, timeout=175).returncode
    except subprocess.TimeoutExpired:
        code = 3
        print("perfbench: the run exceeded its time limit", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".bench_run"))
        except OSError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
