#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "savanna/executor.hpp"
#include "savanna/journal.hpp"
#include "savanna/tracker.hpp"

namespace ff::savanna {

/// Which executor backend drives the allocation. The paper's comparison in
/// Figs. 6–7 is exactly SetSynchronized (original workflow) vs Pilot
/// (Cheetah-Savanna).
enum class Backend { SetSynchronized, Pilot };

/// Per-run retry budget with exponential backoff — what replaces the old
/// retry-forever loop. A run that fails or is killed at walltime is retried
/// until `max_attempts`, then marked terminally `exhausted`; between
/// attempts it is held back for backoff(n) = min(max_backoff_s,
/// base_backoff_s * growth^(n-1)) virtual seconds after its n-th failure.
struct RetryPolicy {
  /// Attempts allowed per run; 0 = unlimited (the legacy behaviour).
  size_t max_attempts = 0;
  /// Backoff after the first failure; 0 disables backoff entirely.
  double base_backoff_s = 0;
  double growth = 2.0;
  double max_backoff_s = 3600;

  double backoff_after(size_t failures) const {
    if (base_backoff_s <= 0 || failures == 0) return 0;
    double delay = base_backoff_s;
    for (size_t i = 1; i < failures && delay < max_backoff_s; ++i) {
      delay *= growth;
    }
    return std::min(delay, max_backoff_s);
  }
};

/// Journal durability/scale policy (see docs/journal_format.md for the
/// on-disk format and docs/scaling.md for how to pick these at 10^5+ runs).
/// The defaults reproduce the conservative PR-3 behaviour: fsync every
/// record, never checkpoint, never compact.
struct JournalPolicy {
  /// Append a checkpoint record summarizing live-run state every N
  /// committed allocations; 0 disables checkpointing. With checkpoints,
  /// resume replays O(live tail) records instead of the whole history.
  size_t checkpoint_every = 0;
  /// Compact the journal right after every checkpoint (and once at resume
  /// open), folding the summarized alloc history into the checkpoint. Keeps
  /// the journal file O(live state) instead of O(campaign history).
  bool compact_after_checkpoint = false;
  /// Group commit: batch up to this many allocation records into one
  /// write+fsync. 1 (default) fsyncs every record; a crash can lose at most
  /// the unflushed batch, which resume then re-executes.
  size_t group_commit = 1;
};

struct CampaignRunOptions {
  ExecutionOptions execution;
  Backend backend = Backend::Pilot;
  /// Max allocations (re-submissions) to attempt; 0 = until done.
  size_t max_allocations = 0;
  RetryPolicy retry;
  JournalPolicy journal;
  /// recover_campaign() lints the journal before replaying it (schema
  /// drift, corrupt interior lines, a second header, ...) and throws
  /// ValidationError listing every finding instead of failing midway
  /// through replay on the first one. Torn tails stay notes — resume
  /// handles those. Set false to skip straight to replay.
  bool preflight_lint = true;
};

struct CampaignRunResult {
  size_t allocations_used = 0;
  size_t completed_runs = 0;
  size_t remaining_runs = 0;  // incomplete and still retryable
  /// Runs whose retry budget was spent — terminal, never re-submitted.
  std::vector<std::string> exhausted;
  double total_node_seconds = 0;  // across all allocations
  double total_busy_node_seconds = 0;
  std::vector<ExecutionReport> reports;  // one per allocation

  double utilization() const {
    return total_node_seconds > 0 ? total_busy_node_seconds / total_node_seconds
                                  : 0.0;
  }
};

/// Record one allocation's provenance in `tracker`: a start per recorded
/// interval, then the terminal mark for every completed/failed/killed run.
/// A run reported failed or killed *without* a recorded interval (so no
/// per-run end time exists) falls back to the allocation end time,
/// `allocation_start + report.makespan_s`, instead of crashing.
void apply_report_to_tracker(RunTracker& tracker, const ExecutionReport& report,
                             double allocation_start);

/// One campaign's execution state, held across allocations: the runs
/// still pending, in manifest order, and the retry state of the failed and
/// killed ones. The constructor reads the tracker once, so a resumed
/// campaign skips what is done or exhausted and keeps its attempt counts
/// and backoff. Each step() then runs one allocation and touches only the
/// runs that allocation launches. run_with_resubmission and
/// run_campaign_through_batch are loops over step_into(); fairflowd keeps
/// one driver per campaign across its slices.
///
/// `sim`, `tasks`, `tracker` and `journal` must outlive the driver.
class CampaignDriver {
 public:
  CampaignDriver(sim::Simulation& sim, const std::vector<sim::TaskSpec>& tasks,
                 CampaignRunOptions options, RunTracker* tracker = nullptr,
                 CampaignJournal* journal = nullptr);

  CampaignDriver(const CampaignDriver&) = delete;
  CampaignDriver& operator=(const CampaignDriver&) = delete;

  /// What one step did.
  struct Step {
    ExecutionReport report;
    std::vector<std::string> exhausted;  // runs whose budget this step spent
    /// A zero-progress break: every pending run was eligible, and the
    /// allocation started nothing, or (without retry budgets) finished
    /// nothing. Re-submitting the same runs can only repeat it.
    bool stalled = false;
    /// Pending entries this step visited; about the runs it launched.
    size_t walked = 0;
  };

  /// One allocation, as one turn of the re-submission loop: wait out the
  /// backoff when every pending run is held back, launch the eligible runs
  /// in manifest order, apply the report to the tracker, charge failures
  /// (exhausting spent budgets), append the journal record (plus the
  /// checkpoint/compaction its cadence owes), and drop the runs that
  /// finished. Throws StateError when nothing is pending.
  Step step();

  /// step(), with its totals added to `result`. Returns whether the
  /// campaign takes another allocation: runs remain, this one did not
  /// stall, and `max_allocations` (0 = no cap, counted in `result`) allows
  /// one more.
  bool step_into(CampaignRunResult& result);

  /// Runs neither done nor exhausted.
  size_t remaining() const noexcept { return pending_.size(); }

 private:
  struct RetryState {
    size_t failures = 0;
    double last_end = 0;
  };
  double ready_at(const RetryState& state) const {
    return state.last_end + options_.retry.backoff_after(state.failures);
  }

  sim::Simulation& sim_;
  const std::vector<sim::TaskSpec>& tasks_;
  const CampaignRunOptions options_;
  RunTracker* const tracker_;
  CampaignJournal* const journal_;
  /// Task indices of the pending runs, the front of the queue at the back,
  /// so the runs an allocation pulls come off the end.
  std::vector<uint32_t> pending_;
  /// Failures so far and when the last one ended: failed and killed runs
  /// only, by task index.
  std::unordered_map<uint32_t, RetryState> retry_;
  /// Per-run submission counts for savanna.job.submit/retry, kept only
  /// when tracing is on at construction.
  const bool trace_jobs_;
  std::vector<uint32_t> submissions_;
};

/// Execute a task ensemble with re-submission semantics: each allocation
/// runs whatever is still incomplete; "the SweepGroup is simply
/// re-submitted, and Savanna resumes execution of the experiments". The
/// optional tracker receives full provenance. Virtual time accumulates in
/// `sim` across allocations (queue wait is not modelled here; see
/// sim::BatchSystem for that).
///
/// With a journal, every allocation is committed (append + fsync) after it
/// is applied to the tracker, making the campaign crash-consistent: kill
/// the process at any instant and resume_campaign() continues from the
/// last committed allocation. Runs already tracked in `tracker` (the
/// resume path) keep their attempt counts and backoff eligibility.
/// This is a CampaignDriver stepped up to `max_allocations` times (until a
/// zero-progress break when 0), then a journal flush.
CampaignRunResult run_with_resubmission(sim::Simulation& sim,
                                        const std::vector<sim::TaskSpec>& tasks,
                                        const CampaignRunOptions& options,
                                        RunTracker* tracker = nullptr,
                                        CampaignJournal* journal = nullptr);

/// What recover_campaign recovered before the runner re-enters.
struct ResumeReport {
  size_t allocations_replayed = 0;  // alloc records replayed (checkpoint tail)
  size_t checkpoint_runs = 0;       // runs restored from a checkpoint record
  bool torn_tail = false;          // a torn final journal line was dropped
  size_t incomplete = 0;           // runs handed back to the runner
  double resumed_at_s = 0;         // virtual clock restored to this time
  CampaignRunResult result;        // the re-entered runner's result
};

/// The recovery half of resume_campaign: lint the journal at
/// `journal_path` (unless `options.preflight_lint` is off), replay it into
/// `tracker`, reconcile it against the campaign's task list (from the
/// manifest), restore the virtual clock in `sim`, re-establish the
/// checkpoint cadence, and return the journal open for append. What was
/// recovered goes to `report` when given (its `result` stays empty).
/// run_with_resubmission on the same sim/tracker/journal then continues
/// the campaign; fairflowd recovers an adopted campaign once this way and
/// runs every later slice in memory.
///
/// A missing or headerless journal means the campaign never started: the
/// journal is (re)created. A journal referencing runs absent from
/// `manifest_tasks` throws ValidationError — the journal and manifest
/// belong to different campaigns.
CampaignJournal recover_campaign(sim::Simulation& sim,
                                 const std::vector<sim::TaskSpec>& manifest_tasks,
                                 const CampaignRunOptions& options,
                                 RunTracker& tracker,
                                 const std::string& journal_path,
                                 const std::string& campaign_name = "campaign",
                                 ResumeReport* report = nullptr);

/// Crash-consistent campaign resumption: recover_campaign, then
/// run_with_resubmission over the incomplete runs.
/// The combined provenance in `tracker` is byte-identical to an
/// uninterrupted run (enforced by tests/savanna/crash_resume_test).
ResumeReport resume_campaign(sim::Simulation& sim,
                             const std::vector<sim::TaskSpec>& manifest_tasks,
                             const CampaignRunOptions& options,
                             RunTracker& tracker,
                             const std::string& journal_path,
                             const std::string& campaign_name = "campaign");

}  // namespace ff::savanna
