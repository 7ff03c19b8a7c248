#pragma once

// What every workload receives and returns.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "helpers.hpp"
#include "util/json.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string fairflowd;   // the daemon binary
  std::string spans_base;  // traced runs write <spans_base>.<replay>.spans.jsonl
};

/// The outcome of one run. `metrics` are the gated metrics (end-to-end
/// for an untraced run, per-layer for a traced one); `detail` carries the
/// named workload metrics with units and the sample count behind each
/// percentile, and goes into the run record.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // correctness-gate violations
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  ff::Json detail = ff::Json::object();

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// A named workload metric, recorded in `detail` with its unit.
  void note(const std::string& name, double value, const std::string& unit);
  /// A median in `detail`, with the sample count behind it.
  void note_median(const std::string& name, const std::vector<double>& samples,
                   double scale, const std::string& unit);
  /// A tail percentile in `detail`: value plus which percentile it really
  /// is and the sample count behind it.
  void note_tail(const std::string& name, const Tail& tail, double scale,
                 const std::string& unit);
  /// Count one failed operation and remember why (first few only).
  void fail(const std::string& why);
  bool correct() const { return failed == 0 && problems.empty(); }
};

/// Correctness gate shared by the service workloads: run the campaign of
/// `submit` in-process through savanna::run_with_resubmission (the batch
/// path) under `scratch_root`, and compare its journal byte for byte with
/// the daemon's at `daemon_journal`. Returns "" on a match, else why not.
std::string batch_parity(const ff::Json& submit, const std::string& daemon_journal,
                         const std::string& scratch_root);

/// Whether a `status` reply's campaign object is fully done: state "done"
/// with every run done, so a "done but never started" campaign fails.
bool fully_done(const ff::Json& campaign_status);

void remove_tree(const std::string& path);

Result run_tenant_churn(const Options& options);
Result run_mega_campaign(const Options& options);
Result run_stream_fanout(const Options& options);
/// The traced run: every workload's generated operations replayed
/// in-process with spans around the public calls; per-layer metrics.
Result run_traced(const Options& options);

}  // namespace perfbench
