#include "savanna/campaign_runner.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string_view>
#include <unordered_set>

#include "lint/rules.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace ff::savanna {

namespace {

/// Absolute per-run end times implied by the recorded intervals.
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

/// Terminal give-up, applied identically on the live path and on journal
/// replay so the combined provenance stays byte-identical.
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

std::vector<std::string> ids_from_json(const Json& record,
                                       std::string_view key) {
  std::vector<std::string> out;
  if (!record.contains(key)) return out;
  for (const Json& id : record[key].as_array()) out.push_back(id.as_string());
  return out;
}

/// The journal stores exactly what apply_report_to_tracker consumes; these
/// two are inverses modulo the fields the tracker never reads.
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

ExecutionReport report_from_json(const Json& record) {
  ExecutionReport report;
  report.makespan_s = record["makespan"].as_double();
  for (const Json& entry : record["intervals"].as_array()) {
    const size_t node = static_cast<size_t>(entry["node"].as_int());
    if (report.node_timeline.size() <= node) {
      report.node_timeline.resize(node + 1);
    }
    Interval interval;
    interval.run_id = entry["run"].as_string();
    interval.start = entry["start"].as_double();
    interval.end = entry["end"].as_double();
    report.node_timeline[node].push_back(std::move(interval));
  }
  report.completed = ids_from_json(record, "completed");
  report.failed = ids_from_json(record, "failed");
  report.killed = ids_from_json(record, "killed");
  return report;
}

}  // namespace

void apply_report_to_tracker(RunTracker& tracker, const ExecutionReport& report,
                             double allocation_start) {
  const double allocation_end = allocation_start + report.makespan_s;
  std::map<std::string, double> end_time;
  for (size_t node = 0; node < report.node_timeline.size(); ++node) {
    for (const Interval& interval : report.node_timeline[node]) {
      tracker.mark_started(interval.run_id, allocation_start + interval.start,
                           static_cast<int>(node));
      end_time[interval.run_id] = allocation_start + interval.end;
    }
  }
  // A run reported terminal without a recorded interval still needs a
  // start/end pair in the provenance; pin it to the allocation bounds
  // rather than crashing on a missing end time.
  auto finish = [&](const std::string& id, auto mark) {
    auto it = end_time.find(id);
    if (it == end_time.end()) {
      tracker.mark_started(id, allocation_start, -1);
      mark(allocation_end);
    } else {
      mark(it->second);
    }
  };
  for (const std::string& id : report.completed) {
    finish(id, [&](double t) { tracker.mark_done(id, t); });
  }
  for (const std::string& id : report.failed) {
    finish(id, [&](double t) { tracker.mark_failed(id, t, "injected failure"); });
  }
  for (const std::string& id : report.killed) {
    finish(id, [&](double t) { tracker.mark_killed(id, t); });
  }
}

CampaignDriver::CampaignDriver(sim::Simulation& sim,
                               const std::vector<sim::TaskSpec>& tasks,
                               CampaignRunOptions options, RunTracker* tracker,
                               CampaignJournal* journal)
    : sim_(sim),
      tasks_(tasks),
      options_(std::move(options)),
      tracker_(tracker),
      journal_(journal),
      trace_jobs_(obs::tracing_enabled()) {
  if (tasks.size() > std::numeric_limits<uint32_t>::max()) {
    throw ValidationError("campaign driver: too many tasks");
  }
  if (journal_) journal_->set_group_commit(options_.journal.group_commit);
  if (trace_jobs_) submissions_.assign(tasks.size(), 0);
  // The one full read of the tracker. Retry state is seeded from it, so a
  // resumed campaign schedules retries (backoff, exhaustion) exactly as the
  // uninterrupted one would have.
  pending_.reserve(tasks.size());
  for (uint32_t index = 0; index < tasks.size(); ++index) {
    const std::string& id = tasks[index].id;
    if (tracker_) {
      if (!tracker_->has_run(id)) tracker_->add_run(id);
      const RunTracker::RunStatus status = tracker_->status(id);
      if (status.state == "done" || status.state == "exhausted") continue;
      if (trace_jobs_) submissions_[index] = static_cast<uint32_t>(status.attempts);
      if (status.state == "failed" || status.state == "killed") {
        retry_[index] = RetryState{status.attempts, status.last_time};
      }
    }
    pending_.push_back(index);
  }
  std::reverse(pending_.begin(), pending_.end());
}

CampaignDriver::Step CampaignDriver::step() {
  if (pending_.empty()) throw StateError("campaign driver: no pending runs");
  Step out;

  // Backoff eligibility: a run that failed n times is held back until
  // last_end + backoff(n). Only runs with retry state can be held back.
  size_t held_back = 0;
  double next_ready = std::numeric_limits<double>::infinity();
  auto count_held_back = [&] {
    held_back = 0;
    for (const auto& [index, state] : retry_) {
      const double at = ready_at(state);
      if (at > sim_.now()) {
        ++held_back;
        next_ready = std::min(next_ready, at);
      }
    }
  };
  count_held_back();
  if (held_back == pending_.size()) {
    // Everything is backing off: advance the virtual clock to the first
    // retry-eligible instant instead of burning an allocation.
    sim_.run_until(next_ready);
    count_held_back();
  }
  const bool all_eligible = held_back == 0;
  const double allocation_start = sim_.now();
  auto eligible = [&](uint32_t index) {
    if (held_back == 0) return true;
    auto it = retry_.find(index);
    return it == retry_.end() || ready_at(it->second) <= allocation_start;
  };

  if (trace_jobs_ && obs::tracing_enabled()) {
    // Everything entering this allocation is a submission; a run seen
    // before is a retry (its earlier attempt failed, was killed, or never
    // started).
    for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
      ++out.walked;
      if (!eligible(*it)) continue;
      const std::string& id = tasks_[*it].id;
      const int64_t attempt = submissions_[*it]++;
      if (attempt > 0) {
        obs::trace_instant_at(allocation_start, "savanna", "savanna.job.retry",
                              {{"run", id}, {"attempt", attempt}});
      }
      obs::trace_instant_at(allocation_start, "savanna", "savanna.job.submit",
                            {{"run", id}, {"attempt", attempt}});
    }
  }

  // The executor pulls eligible runs off the front of the queue; entries
  // [cursor, end) of pending_ are the ones it walked.
  size_t cursor = pending_.size();
  std::unordered_map<std::string_view, uint32_t> launched;
  const TaskSource next_task = [&]() -> const sim::TaskSpec* {
    while (cursor > 0) {
      const uint32_t index = pending_[--cursor];
      ++out.walked;
      if (!eligible(index)) continue;
      launched.emplace(tasks_[index].id, index);
      return &tasks_[index];
    }
    return nullptr;
  };
  ExecutionReport report =
      options_.backend == Backend::Pilot
          ? run_pilot(sim_, next_task, options_.execution)
          : run_set_synchronized(sim_, next_task, options_.execution);
  // A walltime-killed run leaves no completion event, so the pilot can
  // return with the clock short of the allocation's recorded end; advance
  // it so allocation N+1 starts where N's provenance says N ended (and so
  // no run's last_end sits in the future, which would defer it forever).
  sim_.run_until(allocation_start + report.makespan_s);
  const double allocation_end = sim_.now();

  if (tracker_) apply_report_to_tracker(*tracker_, report, allocation_start);

  // Charge each failure against the run's retry budget; a spent budget is
  // terminal (`exhausted`) and the run is never re-submitted.
  const double fallback_end = allocation_start + report.makespan_s;
  const std::map<std::string, double> end_time =
      interval_end_times(report, allocation_start);
  std::unordered_set<uint32_t> finished;
  auto charge_failure = [&](const std::string& id) {
    const uint32_t index = launched.at(id);
    RetryState& state = retry_[index];
    ++state.failures;
    state.last_end = end_or_fallback(end_time, id, fallback_end);
    if (options_.retry.max_attempts > 0 &&
        state.failures >= options_.retry.max_attempts) {
      out.exhausted.push_back(id);
      mark_run_exhausted(tracker_, id, state.last_end, state.failures);
      retry_.erase(index);
      finished.insert(index);
    }
  };
  for (const std::string& id : report.failed) charge_failure(id);
  for (const std::string& id : report.killed) charge_failure(id);

  // Commit point: once this append returns, the allocation's provenance
  // is durable and a crash-resume will not re-execute it.
  if (journal_) {
    Json record = report_to_json(report);
    record["start"] = allocation_start;
    record["end"] = allocation_end;
    record["exhausted"] = ids_to_json(out.exhausted);
    journal_->append_allocation(std::move(record));
    // Checkpoint cadence: every N committed allocations, summarize the
    // live-run state so a future resume replays O(live tail) instead of
    // the whole history — optionally folding that history away on the
    // spot. append_checkpoint flushes any group-commit batch first.
    if (tracker_ && options_.journal.checkpoint_every > 0 &&
        journal_->next_allocation_index() % options_.journal.checkpoint_every ==
            0) {
      journal_->append_checkpoint(*tracker_, sim_.now());
      if (options_.journal.compact_after_checkpoint) journal_->compact();
    }
  }

  // Everything neither completed nor exhausted stays queued, in manifest
  // order (failed and killed runs retry; unstarted runs start). Only the
  // walked entries can have finished.
  for (const std::string& id : report.completed) {
    const uint32_t index = launched.at(id);
    retry_.erase(index);
    finished.insert(index);
  }
  size_t kept = cursor;
  for (size_t at = cursor; at < pending_.size(); ++at) {
    if (!finished.count(pending_[at])) pending_[kept++] = pending_[at];
  }
  pending_.resize(kept);

  // Zero-progress guards (an identical re-submission can only repeat
  // itself): if nothing even started, stop unconditionally; if attempts
  // were made but nothing completed or exhausted, stop unless retry
  // budgets are set — with budgets, repeated failures are progress toward
  // exhaustion, which terminates the loop on its own.
  const bool nothing_ran = report.completed.empty() && report.failed.empty() &&
                           report.killed.empty();
  out.stalled = all_eligible &&
                (nothing_ran ||
                 (finished.empty() && options_.retry.max_attempts == 0));
  out.report = std::move(report);
  return out;
}

bool CampaignDriver::step_into(CampaignRunResult& result) {
  Step step = this->step();
  ++result.allocations_used;
  result.completed_runs += step.report.completed.size();
  result.total_node_seconds += step.report.allocation_node_seconds;
  result.total_busy_node_seconds += step.report.busy_node_seconds;
  result.exhausted.insert(result.exhausted.end(), step.exhausted.begin(),
                          step.exhausted.end());
  result.reports.push_back(std::move(step.report));
  return !step.stalled && remaining() > 0 &&
         (options_.max_allocations == 0 ||
          result.allocations_used < options_.max_allocations);
}

CampaignRunResult run_with_resubmission(sim::Simulation& sim,
                                        const std::vector<sim::TaskSpec>& tasks,
                                        const CampaignRunOptions& options,
                                        RunTracker* tracker,
                                        CampaignJournal* journal) {
  CampaignRunResult result;
  CampaignDriver driver(sim, tasks, options, tracker, journal);
  bool more = driver.remaining() > 0;
  while (more) more = driver.step_into(result);
  result.remaining_runs = driver.remaining();
  // Durably commit any group-commit tail before handing the journal back.
  if (journal) journal->flush();
  return result;
}

CampaignJournal recover_campaign(sim::Simulation& sim,
                                 const std::vector<sim::TaskSpec>& manifest_tasks,
                                 const CampaignRunOptions& options,
                                 RunTracker& tracker,
                                 const std::string& journal_path,
                                 const std::string& campaign_name,
                                 ResumeReport* report) {
  if (options.preflight_lint) {
    // Lint the journal text before committing to a replay: every problem
    // is reported at once with file:line locations, instead of replay()
    // aborting on the first. A missing file is "never started", not an
    // error, and torn tails are notes (resume truncates those itself).
    std::string journal_text;
    bool journal_exists = true;
    try {
      journal_text = read_file(journal_path);
    } catch (const IoError&) {
      journal_exists = false;
    }
    if (journal_exists) {
      const lint::LintReport preflight =
          lint::lint_journal_text(journal_text, journal_path, Json(), "");
      if (preflight.has_errors()) {
        throw ValidationError("journal " + journal_path +
                              " failed its preflight lint:\n" +
                              preflight.render_text());
      }
    }
  }

  ResumeReport out;
  std::set<std::string> manifest_ids;
  std::vector<std::string> run_ids;
  run_ids.reserve(manifest_tasks.size());
  for (const sim::TaskSpec& task : manifest_tasks) {
    manifest_ids.insert(task.id);
    run_ids.push_back(task.id);
  }
  auto require_known = [&](const std::string& id) {
    if (!manifest_ids.count(id)) {
      throw ValidationError("journal " + journal_path + " references run '" +
                            id + "' absent from the campaign manifest");
    }
  };

  CampaignJournal::Replay state = CampaignJournal::replay(journal_path);
  CampaignJournal journal;
  if (!state.has_header()) {
    // No journal (or an atomically-created one never got its header): the
    // campaign never started. Begin it now.
    journal = CampaignJournal::create(journal_path, campaign_name, run_ids);
  } else {
    out.torn_tail = state.torn_tail;
    out.allocations_replayed = state.allocations.size();
    // Reconcile the journal's run set against the manifest. Small journals
    // inline the exact ids; at scale the header carries only a count +
    // streaming digest, compared without materializing either side's set.
    if (state.header.contains("runs") && state.header["runs"].is_array()) {
      for (const Json& id : state.header["runs"].as_array()) {
        require_known(id.as_string());
      }
    }
    if (state.header.contains("runs_digest")) {
      RunSetDigest digest;
      for (const std::string& id : run_ids) digest.add(id);
      const std::string journal_digest =
          state.header["runs_digest"].as_string();
      const int64_t journal_count = state.header.get_or(
          "run_count", static_cast<int64_t>(digest.count()));
      if (journal_digest != digest.hex() ||
          journal_count != static_cast<int64_t>(digest.count())) {
        throw ValidationError(
            "journal " + journal_path + ": run-set digest mismatch (journal " +
            std::to_string(journal_count) + " runs/" + journal_digest +
            ", manifest " + std::to_string(digest.count()) + " runs/" +
            digest.hex() + ") — journal and manifest are different campaigns");
      }
    }
    // Restore the newest checkpoint first: it carries the full provenance
    // of every run that had started by checkpoint time, so only the alloc
    // tail after it needs replaying — O(live), not O(history).
    double clock = 0;
    if (state.has_checkpoint()) {
      const Json& snapshot = state.checkpoint["tracker"];
      for (const auto& [id, record] : snapshot.as_object()) {
        (void)record;
        require_known(id);
      }
      tracker.restore(snapshot);
      out.checkpoint_runs = snapshot.size();
      clock = state.checkpoint.get_or("clock", 0.0);
    }
    for (const sim::TaskSpec& task : manifest_tasks) {
      if (!tracker.has_run(task.id)) tracker.add_run(task.id);
    }
    // Replay committed allocations through the same code path the live run
    // used, so the rebuilt provenance is byte-identical.
    for (const Json& record : state.allocations) {
      const ExecutionReport report = report_from_json(record);
      const double start = record["start"].as_double();
      for (const auto& node : report.node_timeline) {
        for (const Interval& interval : node) require_known(interval.run_id);
      }
      for (const std::string& id : report.completed) require_known(id);
      for (const std::string& id : report.failed) require_known(id);
      for (const std::string& id : report.killed) require_known(id);
      apply_report_to_tracker(tracker, report, start);
      const std::map<std::string, double> end_time =
          interval_end_times(report, start);
      const double fallback_end = start + report.makespan_s;
      for (const std::string& id : ids_from_json(record, "exhausted")) {
        require_known(id);
        mark_run_exhausted(&tracker, id, end_or_fallback(end_time, id, fallback_end),
                           tracker.attempts(id));
      }
      clock = record.get_or("end", fallback_end);
    }
    // Restore the virtual clock: allocation N+1 starts where N ended, so
    // resumed runs get the timestamps the uninterrupted campaign would have.
    sim.run_until(clock);
    journal = CampaignJournal::open_for_append(journal_path, state);
    // The previous process may have died between committing an allocation
    // batch and the checkpoint the cadence owed for it — if the campaign is
    // already complete, no future append will ever trigger that checkpoint.
    // Re-establish the cadence invariant here: the replayed tracker and
    // clock are exactly what the uninterrupted process would have
    // checkpointed at this index.
    const size_t cadence = options.journal.checkpoint_every;
    const size_t next_index = journal.next_allocation_index();
    const bool checkpoint_on_disk =
        state.has_checkpoint() &&
        static_cast<size_t>(
            state.checkpoint.get_or("next_index", int64_t{0})) == next_index;
    if (cadence > 0 && next_index > 0 && next_index % cadence == 0 &&
        !checkpoint_on_disk) {
      journal.append_checkpoint(tracker, sim.now());
    }
    // With compaction policy on, compact at open (idempotent): whether the
    // previous process died before, during, or after its own compaction,
    // the journal converges to the same bytes — which is what keeps the
    // crash harness's byte-parity check meaningful across kill points.
    if (options.journal.compact_after_checkpoint) journal.compact();
  }

  for (const sim::TaskSpec& task : manifest_tasks) {
    if (tracker.has_run(task.id)) {
      const RunTracker::RunStatus status = tracker.status(task.id);
      if (status.state == "done" || status.state == "exhausted") continue;
    }
    ++out.incomplete;
  }
  out.resumed_at_s = sim.now();
  if (obs::tracing_enabled()) {
    obs::trace_instant("savanna", "savanna.journal.resume",
                       {{"incomplete", out.incomplete},
                        {"replayed", out.allocations_replayed},
                        {"torn", out.torn_tail}});
  }
  if (report) *report = std::move(out);
  return journal;
}

ResumeReport resume_campaign(sim::Simulation& sim,
                             const std::vector<sim::TaskSpec>& manifest_tasks,
                             const CampaignRunOptions& options,
                             RunTracker& tracker,
                             const std::string& journal_path,
                             const std::string& campaign_name) {
  ResumeReport out;
  CampaignJournal journal = recover_campaign(
      sim, manifest_tasks, options, tracker, journal_path, campaign_name, &out);
  // The runner skips every run the replayed tracker holds as done/exhausted.
  out.result =
      run_with_resubmission(sim, manifest_tasks, options, &tracker, &journal);
  return out;
}

}  // namespace ff::savanna
