// Million-run campaign spine bench: the three rates that govern how far
// the Cheetah/Savanna stack scales (docs/scaling.md).
//
//  1. submit:   lazy SweepGroup iteration -> TaskSpec list. run_at() decode
//               cost per run; no O(campaign) vector is materialized.
//  2. journal:  allocation-record append throughput, fsync-per-record
//               (PR-3 default, group_commit=1) vs group commit of 64.
//  3. resume:   resume_campaign() on a finished, checkpointed journal —
//               the O(live runs) recovery path — on both the uncompacted
//               and the compacted form of the same campaign.
//  4. checkpoint: CampaignJournal::append_checkpoint (render, write, fsync)
//               of a tracker whose every run started and finished at
//               lognormal, non-integral times, as real durations are.
//
// Measured at 10^3 / 10^4 / 10^5 runs; writes the series, with the host,
// compiler, build type and revision, to BENCH_campaign.json (path =
// argv[1] or the default below) — the committed record of campaign-spine
// performance.
//
// `--smoke`: a ~2 s regression guard (the ctest `perf-smoke` label),
// best-of-3 at 10^4 runs: submit, group-commit journal append, checkpointed
// resume and checkpoint write must each clear a floor set ~10x below the
// rates a plain container build measures, so only an order-of-magnitude
// regression (an accidentally quadratic path) trips it. Exits 1 on
// regression, writes nothing.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "host_record.hpp"
#include "cheetah/sweep.hpp"
#include "cluster/workload.hpp"
#include "savanna/campaign_runner.hpp"
#include "savanna/journal.hpp"
#include "savanna/tracker.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

using namespace ff;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(const Clock::time_point& start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// A three-parameter sweep group decoding to exactly `n` runs (n must be a
// cube; 10^3/10^4/10^5 all are, with non-integer roots rounded by table).
cheetah::SweepGroup cube_group(size_t per_axis) {
  cheetah::SweepGroup group("bench");
  cheetah::Sweep sweep("s");
  using cheetah::ParamLayer;
  sweep.add(cheetah::Parameter::int_range("a", ParamLayer::Application, 0,
                                          static_cast<int64_t>(per_axis) - 1))
      .add(cheetah::Parameter::int_range("b", ParamLayer::Middleware, 0,
                                         static_cast<int64_t>(per_axis) - 1))
      .add(cheetah::Parameter::int_range("c", ParamLayer::System, 0,
                                         static_cast<int64_t>(per_axis) - 1));
  group.add(std::move(sweep));
  return group;
}

// --- 1. submit --------------------------------------------------------------

struct SubmitResult {
  double runs_per_s = 0;
  std::vector<sim::TaskSpec> tasks;  // reused by the journal/resume stages
};

SubmitResult bench_submit(size_t per_axis) {
  const cheetah::SweepGroup group = cube_group(per_axis);
  SubmitResult out;
  out.tasks.reserve(group.run_count());
  const auto start = Clock::now();
  group.for_each_run([&](const cheetah::RunSpec& run) {
    sim::TaskSpec task;
    task.id = run.id;
    task.duration_s = 1.0;
    out.tasks.push_back(std::move(task));
  });
  const double elapsed = seconds_since(start);
  out.runs_per_s = static_cast<double>(out.tasks.size()) / elapsed;
  return out;
}

// --- 2. journal append ------------------------------------------------------

Json alloc_record(size_t i) {
  Json record = Json::object();
  record["start"] = static_cast<double>(i);
  record["end"] = static_cast<double>(i) + 1.0;
  Json completed = Json::array();
  completed.push_back(Json("run-" + std::to_string(i)));
  record["completed"] = completed;
  return record;
}

double bench_journal_append(const std::string& dir, size_t records,
                            size_t group_commit) {
  const std::string path = dir + "/append.jsonl";
  savanna::RunSetDigest digest;
  digest.add("bench");
  auto journal = savanna::CampaignJournal::create(
      path, "bench", savanna::CampaignJournal::RunSetSummary{1, digest.hex()});
  journal.set_group_commit(group_commit);
  const auto start = Clock::now();
  for (size_t i = 0; i < records; ++i) journal.append_allocation(alloc_record(i));
  journal.flush();
  const double elapsed = seconds_since(start);
  journal.close();
  std::remove(path.c_str());
  return static_cast<double>(records) / elapsed;
}

// --- 3. resume --------------------------------------------------------------

savanna::CampaignRunOptions campaign_options(size_t runs, bool compacted) {
  savanna::CampaignRunOptions options;
  options.execution.nodes = 256;
  options.execution.walltime_s =
      static_cast<double>(runs) / 256.0 * 4.0 + 16.0;
  options.retry.max_attempts = 3;
  options.journal.checkpoint_every = 1;  // checkpoint every allocation
  options.journal.compact_after_checkpoint = compacted;
  options.journal.group_commit = 64;
  // The campaign itself is the fixture, not the measurement.
  options.preflight_lint = false;
  return options;
}

struct ResumeBench {
  double runs_per_s = 0;
  size_t journal_bytes = 0;
};

ResumeBench bench_resume(const std::string& dir,
                         const std::vector<sim::TaskSpec>& tasks,
                         bool compacted) {
  const std::string path =
      dir + (compacted ? "/resume_compact.jsonl" : "/resume.jsonl");
  savanna::CampaignRunOptions options =
      campaign_options(tasks.size(), compacted);
  std::hash<std::string> hasher;
  savanna::RunTracker build_tracker;
  options.execution.fails = [&](const sim::TaskSpec& task, int) {
    return hasher(task.id) % 97 == 0 && build_tracker.attempts(task.id) == 0;
  };
  {
    sim::Simulation sim;
    savanna::resume_campaign(sim, tasks, options, build_tracker, path, "bench");
  }
  // The measurement: recover the finished campaign from its journal.
  options.execution.fails = nullptr;
  ResumeBench out;
  savanna::RunTracker tracker;
  sim::Simulation sim;
  const auto start = Clock::now();
  savanna::resume_campaign(sim, tasks, options, tracker, path, "bench");
  const double elapsed = seconds_since(start);
  out.runs_per_s = static_cast<double>(tasks.size()) / elapsed;
  out.journal_bytes = read_file(path).size();
  std::remove(path.c_str());
  return out;
}

// --- 4. checkpoint write ----------------------------------------------------

/// Every task started and done once, at lognormal, non-integral times.
savanna::RunTracker finished_tracker(const std::vector<sim::TaskSpec>& tasks) {
  savanna::RunTracker tracker;
  const sim::DurationModel durations;
  Rng rng(7);
  double clock = 0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    tracker.add_run(tasks[i].id);
    clock += rng.uniform();
    tracker.mark_started(tasks[i].id, clock, static_cast<int>(i % 256));
    tracker.mark_done(tasks[i].id, clock + durations.sample(rng));
  }
  return tracker;
}

/// Started runs a checkpoint writes per second, best of `repeats`.
double bench_checkpoint(const std::string& dir,
                        const std::vector<sim::TaskSpec>& tasks, int repeats) {
  const std::string path = dir + "/checkpoint.jsonl";
  const savanna::RunTracker tracker = finished_tracker(tasks);
  savanna::RunSetDigest digest;
  digest.add("bench");
  auto journal = savanna::CampaignJournal::create(
      path, "bench", savanna::CampaignJournal::RunSetSummary{1, digest.hex()});
  double best = 1e300;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    journal.append_checkpoint(tracker, 1234.5 + i);
    best = std::min(best, seconds_since(start));
  }
  journal.close();
  std::remove(path.c_str());
  return static_cast<double>(tasks.size()) / best;
}

// --- harness ----------------------------------------------------------------

struct ScalePoint {
  size_t runs = 0;
  double submit = 0;
  double journal_fsync = 0;   // group_commit = 1
  double journal_group64 = 0; // group_commit = 64
  double resume = 0;
  double resume_compacted = 0;
  double checkpoint = 0;      // started runs written per second
  size_t journal_bytes = 0;
  size_t compacted_bytes = 0;
};

ScalePoint measure(const std::string& dir, size_t per_axis) {
  ScalePoint point;
  SubmitResult submit = bench_submit(per_axis);
  point.runs = submit.tasks.size();
  point.submit = submit.runs_per_s;
  // fsync-per-record is the slow mode by design; sample it on at most 10^4
  // appends so the 10^5 row does not spend its whole budget on fsyncs.
  const size_t fsync_sample = point.runs < 10000 ? point.runs : 10000;
  point.journal_fsync = bench_journal_append(dir, fsync_sample, 1);
  point.journal_group64 = bench_journal_append(dir, point.runs, 64);
  const ResumeBench plain = bench_resume(dir, submit.tasks, false);
  point.resume = plain.runs_per_s;
  point.journal_bytes = plain.journal_bytes;
  const ResumeBench compact = bench_resume(dir, submit.tasks, true);
  point.resume_compacted = compact.runs_per_s;
  point.compacted_bytes = compact.journal_bytes;
  point.checkpoint = bench_checkpoint(dir, submit.tasks, 3);
  return point;
}

Json to_json(const ScalePoint& point) {
  Json row = Json::object();
  row["runs"] = static_cast<int64_t>(point.runs);
  row["submit_runs_per_s"] = point.submit;
  row["journal_fsync_runs_per_s"] = point.journal_fsync;
  row["journal_group64_runs_per_s"] = point.journal_group64;
  row["resume_runs_per_s"] = point.resume;
  row["resume_compacted_runs_per_s"] = point.resume_compacted;
  row["checkpoint_runs_per_s"] = point.checkpoint;
  row["journal_bytes"] = static_cast<int64_t>(point.journal_bytes);
  row["compacted_journal_bytes"] = static_cast<int64_t>(point.compacted_bytes);
  return row;
}

// --- smoke mode -------------------------------------------------------------

/// Floors ~10x under a plain container build's measured rates: only an
/// order-of-magnitude regression (an accidentally O(n^2) path) trips them.
int run_smoke() {
  constexpr double kSubmitFloor = 20000.0;   // runs/s
  constexpr double kJournalFloor = 20000.0;  // group-commit appends/s
  constexpr double kResumeFloor = 5000.0;    // runs/s, checkpointed+compacted
  constexpr double kCheckpointFloor = 100000.0;  // started runs/s
  constexpr int kAttempts = 3;
  TempDir dir("bench_campaign_smoke");
  std::printf("perf-smoke(campaign): 10^4 runs, best of %d\n", kAttempts);
  double best_submit = 0, best_journal = 0, best_resume = 0,
         best_checkpoint = 0;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    SubmitResult submit = bench_submit(22);  // 22^3 ~= 10^4 runs
    best_submit = std::max(best_submit, submit.runs_per_s);
    best_journal = std::max(
        best_journal, bench_journal_append(dir.str(), submit.tasks.size(), 64));
    best_resume =
        std::max(best_resume, bench_resume(dir.str(), submit.tasks, true).runs_per_s);
    best_checkpoint = std::max(best_checkpoint,
                               bench_checkpoint(dir.str(), submit.tasks, 1));
    if (best_submit >= kSubmitFloor && best_journal >= kJournalFloor &&
        best_resume >= kResumeFloor && best_checkpoint >= kCheckpointFloor) {
      std::printf("perf-smoke(campaign): OK (submit %.0f/s, journal %.0f/s, "
                  "resume %.0f/s, checkpoint %.0f/s)\n",
                  best_submit, best_journal, best_resume, best_checkpoint);
      return 0;
    }
  }
  std::printf("perf-smoke(campaign): REGRESSION (submit %.0f/s vs %.0f, "
              "journal %.0f/s vs %.0f, resume %.0f/s vs %.0f, "
              "checkpoint %.0f/s vs %.0f)\n",
              best_submit, kSubmitFloor, best_journal, kJournalFloor,
              best_resume, kResumeFloor, best_checkpoint, kCheckpointFloor);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_campaign.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
    out_path = argv[i];
  }
  TempDir dir("bench_campaign");
  Json series = Json::array();
  for (size_t per_axis : {10, 22, 47}) {  // 10^3, ~10^4 (10648), ~10^5 (103823)
    const ScalePoint point = measure(dir.str(), per_axis);
    std::printf("%8zu runs: submit %.0f/s  journal fsync %.0f/s  "
                "group64 %.0f/s  resume %.0f/s  compacted %.0f/s  "
                "checkpoint %.0f/s (journal %zu B -> %zu B)\n",
                point.runs, point.submit, point.journal_fsync,
                point.journal_group64, point.resume, point.resume_compacted,
                point.checkpoint, point.journal_bytes, point.compacted_bytes);
    series.push_back(to_json(point));
  }
  Json out = Json::object();
  out["bench"] = "campaign_scale";
  out["meta"] = bench::host_record();
  out["series"] = series;
  write_file_atomic(out_path, out.dump() + "\n");
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
