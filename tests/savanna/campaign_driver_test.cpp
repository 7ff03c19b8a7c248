// Seeded equivalence battery for CampaignDriver. Each configuration draws a
// campaign (runs, nodes, walltime, duration tail, injected failures, retry
// budget and backoff, backend, journal policy) and executes it four ways:
//
//  1. a persistent driver stepped under fairflowd's cross-slice stop rule,
//     against a loop of run_with_resubmission(max_allocations = 1) calls
//     under the same rule — how the service sliced campaigns before it kept
//     a driver per campaign;
//  2. run_with_resubmission (the driver's batch mode), against
//     reference_run_with_resubmission below: the per-call loop the driver
//     replaced, kept verbatim.
//
// Each pair must agree byte for byte on the journal and the tracker export.
// A failure names the configuration's seed.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "savanna/campaign_runner.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace ff::savanna {
namespace {

// ---- The reference: the re-submission loop as it was before the driver.

std::map<std::string, double> interval_end_times(const ExecutionReport& report,
                                                 double allocation_start) {
  std::map<std::string, double> end_time;
  for (const auto& node : report.node_timeline) {
    for (const Interval& interval : node) {
      end_time[interval.run_id] = allocation_start + interval.end;
    }
  }
  return end_time;
}

double end_or_fallback(const std::map<std::string, double>& end_time,
                       const std::string& id, double fallback) {
  auto it = end_time.find(id);
  return it == end_time.end() ? fallback : it->second;
}

void mark_run_exhausted(RunTracker* tracker, const std::string& id, double time,
                        size_t attempts) {
  if (tracker) tracker->mark_exhausted(id, time, "retry budget exhausted");
  if (obs::tracing_enabled()) {
    obs::trace_instant_at(time, "savanna", "savanna.job.exhausted",
                          {{"run", id}, {"attempts", attempts}});
  }
}

Json ids_to_json(const std::vector<std::string>& ids) {
  Json out = Json::array();
  for (const std::string& id : ids) out.push_back(id);
  return out;
}

Json report_to_json(const ExecutionReport& report) {
  Json out = Json::object();
  out["makespan"] = report.makespan_s;
  Json intervals = Json::array();
  for (size_t node = 0; node < report.node_timeline.size(); ++node) {
    for (const Interval& interval : report.node_timeline[node]) {
      Json entry = Json::object();
      entry["run"] = interval.run_id;
      entry["node"] = static_cast<int64_t>(node);
      entry["start"] = interval.start;
      entry["end"] = interval.end;
      intervals.push_back(std::move(entry));
    }
  }
  out["intervals"] = std::move(intervals);
  out["completed"] = ids_to_json(report.completed);
  out["failed"] = ids_to_json(report.failed);
  out["killed"] = ids_to_json(report.killed);
  return out;
}

CampaignRunResult reference_run_with_resubmission(
    sim::Simulation& sim, const std::vector<sim::TaskSpec>& tasks,
    const CampaignRunOptions& options, RunTracker* tracker = nullptr,
    CampaignJournal* journal = nullptr) {
  CampaignRunResult result;
  if (journal) journal->set_group_commit(options.journal.group_commit);

  // Retry bookkeeping: failures so far and when the last one ended. Seeded
  // from the tracker so a resumed campaign schedules retries (backoff,
  // exhaustion) exactly as the uninterrupted one would have.
  struct RetryState {
    size_t failures = 0;
    double last_end = 0;
  };
  std::map<std::string, RetryState> retry_state;
  // Per-run submission count, read only by the savanna.job.submit/retry
  // events: built only when tracing is on at entry.
  const bool trace_jobs = obs::tracing_enabled();
  std::map<std::string, int> submissions;

  std::vector<sim::TaskSpec> remaining;
  remaining.reserve(tasks.size());
  for (const sim::TaskSpec& task : tasks) {
    if (tracker) {
      if (!tracker->has_run(task.id)) tracker->add_run(task.id);
      const RunTracker::RunStatus status = tracker->status(task.id);
      if (status.state == "done" || status.state == "exhausted") continue;
      if (trace_jobs) submissions[task.id] = static_cast<int>(status.attempts);
      if (status.state == "failed" || status.state == "killed") {
        retry_state[task.id] = RetryState{status.attempts, status.last_time};
      }
    }
    remaining.push_back(task);
  }

  while (!remaining.empty()) {
    if (options.max_allocations > 0 &&
        result.allocations_used >= options.max_allocations) {
      break;
    }

    // Partition by backoff eligibility: a run that failed n times is held
    // back until last_end + backoff(n).
    std::vector<sim::TaskSpec> eligible;
    eligible.reserve(remaining.size());
    double next_ready = std::numeric_limits<double>::infinity();
    for (const sim::TaskSpec& task : remaining) {
      double ready_at = 0;
      auto it = retry_state.find(task.id);
      if (it != retry_state.end() && it->second.failures > 0) {
        ready_at = it->second.last_end +
                   options.retry.backoff_after(it->second.failures);
      }
      if (ready_at > sim.now()) {
        next_ready = std::min(next_ready, ready_at);
      } else {
        eligible.push_back(task);
      }
    }
    if (eligible.empty()) {
      // Everything is backing off: advance the virtual clock to the first
      // retry-eligible instant instead of burning an allocation.
      sim.run_until(next_ready);
      continue;
    }
    const bool all_eligible = eligible.size() == remaining.size();

    const double allocation_start = sim.now();
    if (trace_jobs && obs::tracing_enabled()) {
      // Everything entering this allocation is a submission; a run seen
      // before is a retry (its earlier attempt failed, was killed, or never
      // started).
      for (const sim::TaskSpec& task : eligible) {
        const int attempt = submissions[task.id]++;
        if (attempt > 0) {
          obs::trace_instant_at(allocation_start, "savanna",
                                "savanna.job.retry",
                                {{"run", task.id}, {"attempt", attempt}});
        }
        obs::trace_instant_at(allocation_start, "savanna", "savanna.job.submit",
                              {{"run", task.id}, {"attempt", attempt}});
      }
    }
    ExecutionReport report =
        options.backend == Backend::Pilot
            ? run_pilot(sim, eligible, options.execution)
            : run_set_synchronized(sim, eligible, options.execution);
    // A walltime-killed run leaves no completion event, so the pilot can
    // return with the clock short of the allocation's recorded end; advance
    // it so allocation N+1 starts where N's provenance says N ended (and so
    // no run's last_end sits in the future, which would defer it forever).
    sim.run_until(allocation_start + report.makespan_s);
    const double allocation_end = sim.now();
    ++result.allocations_used;
    result.completed_runs += report.completed.size();
    result.total_node_seconds += report.allocation_node_seconds;
    result.total_busy_node_seconds += report.busy_node_seconds;

    if (tracker) apply_report_to_tracker(*tracker, report, allocation_start);

    // Charge each failure against the run's retry budget; a spent budget is
    // terminal (`exhausted`) and the run is never re-submitted.
    const double fallback_end = allocation_start + report.makespan_s;
    const std::map<std::string, double> end_time =
        interval_end_times(report, allocation_start);
    std::vector<std::string> newly_exhausted;
    auto charge_failure = [&](const std::string& id) {
      RetryState& state = retry_state[id];
      ++state.failures;
      state.last_end = end_or_fallback(end_time, id, fallback_end);
      if (options.retry.max_attempts > 0 &&
          state.failures >= options.retry.max_attempts) {
        newly_exhausted.push_back(id);
        mark_run_exhausted(tracker, id, state.last_end, state.failures);
      }
    };
    for (const std::string& id : report.failed) charge_failure(id);
    for (const std::string& id : report.killed) charge_failure(id);
    result.exhausted.insert(result.exhausted.end(), newly_exhausted.begin(),
                            newly_exhausted.end());

    // Commit point: once this append returns, the allocation's provenance
    // is durable and a crash-resume will not re-execute it.
    if (journal) {
      Json record = report_to_json(report);
      record["start"] = allocation_start;
      record["end"] = allocation_end;
      record["exhausted"] = ids_to_json(newly_exhausted);
      journal->append_allocation(std::move(record));
      // Checkpoint cadence: every N committed allocations, summarize the
      // live-run state so a future resume replays O(live tail) instead of
      // the whole history — optionally folding that history away on the
      // spot. append_checkpoint flushes any group-commit batch first.
      if (tracker && options.journal.checkpoint_every > 0 &&
          journal->next_allocation_index() % options.journal.checkpoint_every ==
              0) {
        journal->append_checkpoint(tracker->to_json_started(), sim.now());
        if (options.journal.compact_after_checkpoint) journal->compact();
      }
    }

    // Everything neither completed nor exhausted goes into the next
    // allocation, preserving original order (failed and killed runs retry;
    // unstarted runs start).
    std::set<std::string> finished(report.completed.begin(),
                                   report.completed.end());
    finished.insert(newly_exhausted.begin(), newly_exhausted.end());
    std::vector<sim::TaskSpec> next;
    next.reserve(remaining.size());
    for (const sim::TaskSpec& task : remaining) {
      if (!finished.count(task.id)) next.push_back(task);
    }

    // Zero-progress guards (an identical re-submission can only repeat
    // itself): if nothing even started, stop unconditionally; if attempts
    // were made but nothing completed or exhausted, stop unless retry
    // budgets are set — with budgets, repeated failures are progress toward
    // exhaustion, which terminates the loop on its own.
    const bool nothing_ran = report.completed.empty() &&
                             report.failed.empty() && report.killed.empty();
    const bool zero_progress = finished.empty();
    result.reports.push_back(std::move(report));
    remaining = std::move(next);
    if (all_eligible && nothing_ran) break;
    if (all_eligible && zero_progress && options.retry.max_attempts == 0) break;
  }
  result.remaining_runs = remaining.size();
  // Durably commit any group-commit tail before handing the journal back.
  if (journal) journal->flush();
  return result;
}

// ---- The battery.

constexpr size_t kBatchAllocationCap = 300;
// Far above any configuration's allocation count under the stop rule;
// reaching it fails the test.
constexpr size_t kSliceCap = 5000;

struct Campaign {
  std::vector<sim::TaskSpec> tasks;
  CampaignRunOptions options;
};

/// Injected failures depend only on (run, node), so every execution of a
/// configuration sees the same ones.
bool injected_failure(const sim::TaskSpec& task, int node, double share) {
  uint64_t hash = 1469598103934665603ull;
  for (const char c : task.id) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  hash = splitmix64(hash ^ static_cast<uint64_t>(node));
  return static_cast<double>(hash >> 11) * 0x1.0p-53 < share;
}

Campaign draw_campaign(uint64_t seed) {
  Rng rng(seed);
  Campaign out;
  sim::DurationModel model;
  model.straggler_fraction = rng.uniform(0, 0.3);
  const size_t runs = 1 + rng.below(300);
  out.tasks = sim::make_ensemble(runs, model, seed);
  CampaignRunOptions& options = out.options;
  options.execution.nodes = 1 + static_cast<int>(rng.below(8));
  options.execution.walltime_s = rng.uniform(200, 3000);
  if (rng.chance(0.3)) {
    const double share = rng.uniform(0.05, 0.3);
    options.execution.fails = [share](const sim::TaskSpec& task, int node) {
      return injected_failure(task, node, share);
    };
  }
  options.retry.max_attempts = rng.below(5);
  options.retry.base_backoff_s = rng.chance(0.5) ? 0.0 : rng.uniform(10, 900);
  options.backend = rng.chance(0.5) ? Backend::Pilot : Backend::SetSynchronized;
  options.journal.checkpoint_every = rng.below(5);
  options.journal.compact_after_checkpoint = rng.chance(0.5);
  options.journal.group_commit = 1 + rng.below(8);
  return out;
}

std::string describe(uint64_t seed, const Campaign& campaign) {
  const CampaignRunOptions& options = campaign.options;
  return "seed " + std::to_string(seed) + ": " +
         std::to_string(campaign.tasks.size()) + " runs, " +
         std::to_string(options.execution.nodes) + " nodes, walltime " +
         std::to_string(options.execution.walltime_s) + " s, failures " +
         (options.execution.fails ? "on" : "off") + ", max_attempts " +
         std::to_string(options.retry.max_attempts) + ", backoff " +
         std::to_string(options.retry.base_backoff_s) + " s, " +
         (options.backend == Backend::Pilot ? "pilot" : "sets") +
         ", checkpoint_every " + std::to_string(options.journal.checkpoint_every) +
         (options.journal.compact_after_checkpoint ? " + compaction" : "") +
         ", group_commit " + std::to_string(options.journal.group_commit);
}

/// One execution's observable output.
struct Outcome {
  std::string journal;
  std::string tracker;
  size_t allocations = 0;
  size_t remaining = 0;
};

/// What a slice loop needs: one allocation per call, then the runs left.
using Slice = std::function<size_t(sim::Simulation&, RunTracker&,
                                   CampaignJournal&)>;

/// fairflowd's cross-slice stop rule around `slice`, as ServiceCore::
/// run_slice applies it: stop when nothing remains, or when a slice made
/// no terminal progress and either attempted nothing or has no retry
/// budget to spend.
Outcome sliced(const Campaign& campaign, const std::string& journal_path,
               const Slice& slice) {
  sim::Simulation sim;
  RunTracker tracker;
  std::vector<std::string> ids;
  for (const sim::TaskSpec& task : campaign.tasks) ids.push_back(task.id);
  CampaignJournal journal = CampaignJournal::create(journal_path, "battery", ids);
  Outcome out;
  size_t last_terminal = 0;
  size_t last_attempts = 0;
  for (; out.allocations < kSliceCap; ++out.allocations) {
    out.remaining = slice(sim, tracker, journal);
    const RunTracker::Counts counts = tracker.counts();
    const size_t terminal = counts.done + counts.exhausted;
    const bool terminal_progress = terminal != last_terminal;
    const bool attempted = tracker.total_attempts() != last_attempts;
    last_terminal = terminal;
    last_attempts = tracker.total_attempts();
    if (out.remaining == 0) break;
    if (!terminal_progress &&
        (!attempted || campaign.options.retry.max_attempts == 0)) {
      break;
    }
  }
  journal.close();
  out.journal = read_file(journal_path);
  out.tracker = tracker.to_json().dump();
  return out;
}

using BatchRunner = CampaignRunResult (*)(sim::Simulation&,
                                          const std::vector<sim::TaskSpec>&,
                                          const CampaignRunOptions&,
                                          RunTracker*, CampaignJournal*);

Outcome batch(const Campaign& campaign, const std::string& journal_path,
              BatchRunner runner) {
  sim::Simulation sim;
  RunTracker tracker;
  std::vector<std::string> ids;
  for (const sim::TaskSpec& task : campaign.tasks) ids.push_back(task.id);
  CampaignJournal journal = CampaignJournal::create(journal_path, "battery", ids);
  CampaignRunOptions options = campaign.options;
  options.max_allocations = kBatchAllocationCap;
  const CampaignRunResult result =
      runner(sim, campaign.tasks, options, &tracker, &journal);
  journal.close();
  Outcome out;
  out.journal = read_file(journal_path);
  out.tracker = tracker.to_json().dump();
  out.allocations = result.allocations_used;
  out.remaining = result.remaining_runs;
  return out;
}

void expect_same(const Outcome& actual, const Outcome& expected) {
  EXPECT_EQ(actual.allocations, expected.allocations);
  EXPECT_EQ(actual.remaining, expected.remaining);
  EXPECT_EQ(actual.journal, expected.journal);
  EXPECT_EQ(actual.tracker, expected.tracker);
}

constexpr uint64_t kShards = 8;
constexpr uint64_t kConfigsPerShard = 25;

class DriverEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DriverEquivalence, PersistentDriverMatchesPerCallSlices) {
  for (uint64_t k = 0; k < kConfigsPerShard; ++k) {
    const uint64_t seed = GetParam() * kConfigsPerShard + k;
    const Campaign campaign = draw_campaign(seed);
    SCOPED_TRACE(describe(seed, campaign));
    TempDir dir;

    // ServiceCore::run_slice: the driver is built by the first slice.
    std::optional<CampaignDriver> driver;
    const Outcome persistent = sliced(
        campaign, dir.file("persistent.jsonl"),
        [&](sim::Simulation& sim, RunTracker& tracker, CampaignJournal& journal) {
          if (!driver) {
            driver.emplace(sim, campaign.tasks, campaign.options, &tracker,
                           &journal);
          }
          if (driver->remaining() > 0) driver->step();
          journal.flush();
          return driver->remaining();
        });
    const Outcome per_call = sliced(
        campaign, dir.file("per_call.jsonl"),
        [&](sim::Simulation& sim, RunTracker& tracker, CampaignJournal& journal) {
          CampaignRunOptions slice = campaign.options;
          slice.max_allocations = 1;
          return run_with_resubmission(sim, campaign.tasks, slice, &tracker,
                                       &journal)
              .remaining_runs;
        });
    ASSERT_LT(persistent.allocations, kSliceCap);
    expect_same(persistent, per_call);
    if (HasFailure()) return;
  }
}

TEST_P(DriverEquivalence, BatchModeMatchesTheLoopItReplaced) {
  for (uint64_t k = 0; k < kConfigsPerShard; ++k) {
    const uint64_t seed = GetParam() * kConfigsPerShard + k;
    const Campaign campaign = draw_campaign(seed);
    SCOPED_TRACE(describe(seed, campaign));
    TempDir dir;
    expect_same(batch(campaign, dir.file("driver.jsonl"), run_with_resubmission),
                batch(campaign, dir.file("reference.jsonl"),
                      reference_run_with_resubmission));
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, DriverEquivalence,
                         ::testing::Range<uint64_t>(0, kShards));

}  // namespace
}  // namespace ff::savanna
