#!/usr/bin/env bash
# List the library functions no shipped program links.
#
#   scripts/dead_code.sh [side-build-dir]
#
# Builds the shipped executables (fairflowd, fairflow-ctl, fairflow-lint,
# every bench under build/bench, every example) and perfbench's ffbench
# (from perfbench/CMakeLists.txt, unchanged) in a side build, default
# build/dead-code, at -O0 -fno-inline with one section per function and
# --gc-sections at link time. A function of a libff_*.a that none of those
# binaries keeps is reached only by tests, or by nothing. The script prints
# those functions' demangled names, minus the allowlist below, then their
# count. It reports and never fails on findings; it exits 0 with a notice
# when nm or c++filt is missing.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
side_dir="${1:-${repo_root}/build/dead-code}"

# Test seams: functions kept for tests on purpose (demangled-name prefixes).
allowlist=(
  "ff::savanna::CampaignJournal::set_test_write_hook("
)

for tool in nm c++filt; do
  if ! command -v "${tool}" >/dev/null 2>&1; then
    echo "dead_code: ${tool} not found on PATH — skipping"
    exit 0
  fi
done

jobs="$(nproc 2>/dev/null || echo 1)"
(( jobs > 4 )) && jobs=4

flags=(
  -DCMAKE_BUILD_TYPE=DeadCode
  "-DCMAKE_CXX_FLAGS_DEADCODE=-O0 -fno-inline -ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS_DEADCODE=-Wl,--gc-sections"
)
generator=()
command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)

# The shipped targets of the main project, read from where they are declared.
mapfile -t benches < <(sed -n 's/^ff_add_bench(\([A-Za-z0-9_]*\).*/\1/p' \
                         "${repo_root}/bench/benches.cmake")
mapfile -t examples < <(sed -n 's/^add_executable(\([A-Za-z0-9_-]*\).*/\1/p' \
                          "${repo_root}/examples/CMakeLists.txt")
targets=(fairflowd fairflow-ctl fairflow-lint "${benches[@]}" "${examples[@]}")

echo "dead_code: side build in ${side_dir}" \
     "(${#targets[@]} targets + ffbench, -j${jobs})" >&2
if [[ ! -f "${side_dir}/main/CMakeCache.txt" ]]; then
  cmake -S "${repo_root}" -B "${side_dir}/main" "${generator[@]}" "${flags[@]}" >&2
fi
cmake --build "${side_dir}/main" -j "${jobs}" --target "${targets[@]}" >&2
if [[ ! -f "${side_dir}/perfbench/CMakeCache.txt" ]]; then
  cmake -S "${repo_root}/perfbench" -B "${side_dir}/perfbench" "${generator[@]}" \
        "${flags[@]}" >&2
fi
cmake --build "${side_dir}/perfbench" -j "${jobs}" --target ffbench >&2

binaries=()
for target in fairflowd fairflow-ctl fairflow-lint "${examples[@]}"; do
  binaries+=("$(find "${side_dir}/main/src" "${side_dir}/main/examples" \
                  -type f -name "${target}" -perm -u+x | head -1)")
done
for bench in "${benches[@]}"; do binaries+=("${side_dir}/main/bench/${bench}"); done
binaries+=("${side_dir}/perfbench/ffbench")

scratch="$(mktemp -d)"
trap 'rm -rf "${scratch}"' EXIT

# Strong (T) text symbols the libraries define, and every text symbol the
# binaries kept, both mangled so overloads stay apart.
find "${side_dir}/main/src" -name 'libff_*.a' -print0 |
  xargs -0 nm --defined-only 2>/dev/null |
  awk '$2 == "T" { print $3 }' | sort -u > "${scratch}/defined"
for binary in "${binaries[@]}"; do
  [[ -x "${binary}" ]] || { echo "dead_code: missing ${binary}" >&2; exit 1; }
  nm --defined-only "${binary}" | awk '$2 ~ /^[TtWw]$/ { print $3 }'
done | sort -u > "${scratch}/linked"

comm -23 "${scratch}/defined" "${scratch}/linked" | c++filt | sort -u > "${scratch}/dead"
grep -v -F -f <(printf '%s\n' "${allowlist[@]}") "${scratch}/dead" \
  > "${scratch}/report" || true

cat "${scratch}/report"
echo "dead_code: $(wc -l < "${scratch}/report") function(s) in libff_*.a" \
     "linked by no shipped program"
