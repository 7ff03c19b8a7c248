// ffbench: one seeded run of one perfbench workload.
//
//   ffbench --workload tenant_churn|mega_campaign|stream_fanout --seed N
//           --seconds S --trace 0|1 --fairflowd PATH --run-dir DIR
//           [--record FILE] [--revision REV]
//
// Works inside --run-dir (created, and emptied at exit). Prints every
// workload metric with its unit, then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when a correctness
// gate fails. perfbench/run.py builds this binary and calls it.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/fs.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

ff::Json metadata(const Options& options, const std::string& revision) {
  ff::Json meta = ff::Json::object();
  meta["workload"] = options.workload;
  meta["seed"] = static_cast<int64_t>(options.seed);
  meta["seconds"] = options.seconds;
  meta["trace"] = options.trace;
  meta["nproc"] = static_cast<int64_t>(std::thread::hardware_concurrency());
  meta["cpu_model"] = cpu_model();
#ifdef __clang__
  meta["compiler"] = std::string("clang ") + __clang_version__;
#else
  meta["compiler"] = std::string("g++ ") + __VERSION__;
#endif
  meta["build_type"] = FFBENCH_BUILD_TYPE;
  meta["revision"] = revision;
  return meta;
}

int usage(const char* message) {
  std::fprintf(stderr, "ffbench: %s\n", message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string run_dir, record_path, revision = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--seed") options.seed = std::stoull(value);
    else if (key == "--seconds") options.seconds = std::stod(value);
    else if (key == "--trace") options.trace = value == "1";
    else if (key == "--fairflowd") options.fairflowd = value;
    else if (key == "--run-dir") run_dir = value;
    else if (key == "--record") record_path = value;
    else if (key == "--revision") revision = value;
    else return usage(("unknown option " + key).c_str());
  }
  if (run_dir.empty() || options.fairflowd.empty()) {
    return usage("--run-dir and --fairflowd are required");
  }
  if (options.seconds <= 0) return usage("--seconds must be positive");
  options.spans_base = record_path.empty() ? run_dir + "/trace"
                                           : record_path.substr(0, record_path.rfind('.'));
  std::filesystem::create_directories(run_dir);
  if (::chdir(run_dir.c_str()) != 0) return usage("cannot enter --run-dir");

  Result result;
  try {
    if (options.trace) {
      result = perfbench::run_traced(options);
    } else if (options.workload == "tenant_churn") {
      result = perfbench::run_tenant_churn(options);
    } else if (options.workload == "mega_campaign") {
      result = perfbench::run_mega_campaign(options);
    } else if (options.workload == "stream_fanout") {
      result = perfbench::run_stream_fanout(options);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& error) {
    result.problems.push_back(std::string("aborted: ") + error.what());
  }

  ff::Json record = ff::Json::object();
  record["meta"] = metadata(options, revision);
  record["detail"] = result.detail;
  ff::Json metrics = ff::Json::object();
  for (const auto& [name, value_unit] : result.metrics) {
    ff::Json entry = ff::Json::object();
    entry["value"] = value_unit.first;
    entry["unit"] = value_unit.second;
    metrics[name] = std::move(entry);
  }
  ff::Json problems = ff::Json::array();
  for (const std::string& problem : result.problems) problems.push_back(problem);
  record["problems"] = problems;
  record["failed_share"] =
      result.attempted > 0
          ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
          : 1.0;

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const auto& [name, entry] : result.detail.as_object()) {
    std::string extra;
    if (entry.contains("percentile")) {
      extra = "  (" + entry["percentile"].as_string() + " of " +
              std::to_string(entry["samples"].as_int()) + " samples)";
    }
    std::printf("  %-34s %14.6g %s%s\n", name.c_str(),
                entry["value"].as_double(), entry["unit"].as_string().c_str(),
                extra.c_str());
  }
  for (const std::string& problem : result.problems) {
    std::printf("  PROBLEM: %s\n", problem.c_str());
  }
  std::printf("  attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  std::printf("meta %s\n", record["meta"].dump().c_str());

  const bool correct = result.correct() && !result.metrics.empty();
  ff::Json out = ff::Json::object();
  out["correct"] = correct;
  out["attempted"] = static_cast<int64_t>(std::max<uint64_t>(result.attempted, 1));
  out["failed"] = static_cast<int64_t>(result.failed);
  out["metrics"] = std::move(metrics);
  record["result"] = out;
  if (!record_path.empty()) {
    std::ofstream(record_path) << record.pretty() << "\n";
  }
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
