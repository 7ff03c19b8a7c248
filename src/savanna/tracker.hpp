#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "util/json.hpp"

namespace ff::savanna {

/// Structured per-run provenance: every state transition with its virtual
/// timestamp and attempt number. This is the ComponentRecords tier of the
/// Provenance gauge made concrete — and what frees researchers from
/// "manually curating a list of failed runs" (paper Section II-B).
///
/// State is sharded into a fixed array of hash buckets so the hot
/// operations stay flat as campaigns grow to 10^6 runs: a status update is
/// one hash-map touch, counts() reads incrementally maintained aggregates
/// in O(1), and the terminal-state sweep behind needing_rerun() skips every
/// shard whose live-run counter has reached zero instead of scanning all
/// history. Exported provenance (to_json) is sorted by run id, so it stays
/// byte-identical to the old ordered-map implementation.
class RunTracker {
 public:
  static constexpr size_t kDefaultShardCount = 64;

  explicit RunTracker(size_t shard_count = kDefaultShardCount);

  /// Register a run (attempt counter starts at 0).
  void add_run(const std::string& run_id);
  bool has_run(const std::string& run_id) const noexcept;

  void mark_started(const std::string& run_id, double time, int node);
  void mark_done(const std::string& run_id, double time);
  void mark_failed(const std::string& run_id, double time, const std::string& reason);
  void mark_killed(const std::string& run_id, double time);
  /// Terminal give-up: the run's retry budget is spent. Only legal from
  /// `failed` or `killed`; an exhausted run is never re-submitted.
  void mark_exhausted(const std::string& run_id, double time,
                      const std::string& reason);

  /// Runs whose latest attempt did not finish (never started, failed, or
  /// killed) — exactly the set a re-submission must execute. Excludes
  /// `done` and the terminal `exhausted` state. Sorted by run id.
  std::vector<std::string> needing_rerun() const;

  /// Runs not yet in a terminal state (`done`/`exhausted`) — O(1).
  size_t live_runs() const noexcept { return live_; }

  size_t attempts(const std::string& run_id) const;
  /// Sum of attempts() over every run — O(1), kept by mark_started and
  /// restore.
  size_t total_attempts() const noexcept { return total_attempts_; }

  /// Snapshot of one run's current position in the lifecycle — what the
  /// retry/backoff scheduler needs to decide eligibility after a resume.
  struct RunStatus {
    std::string state;      // pending|running|done|failed|killed|exhausted
    size_t attempts = 0;
    double last_time = 0;   // time of the latest event (0 if none)
  };
  RunStatus status(const std::string& run_id) const;

  struct Counts {
    size_t total = 0;
    size_t done = 0;
    size_t failed = 0;
    size_t killed = 0;
    size_t exhausted = 0;
    size_t never_started = 0;
  };
  /// O(1): aggregates are maintained incrementally by the mark_* calls.
  Counts counts() const { return counts_; }

  /// Full provenance export (one record per run with its event list),
  /// sorted by run id.
  Json to_json() const;
  /// Sparse export: only runs with at least one recorded event. This is the
  /// journal checkpoint payload — pending runs carry no state a resume
  /// could not recreate from the manifest, so a checkpoint's size tracks
  /// the started population, not the sweep size.
  Json to_json_started() const;
  /// Load records (the to_json/to_json_started shape) into this tracker.
  /// Throws ValidationError on a run id already present.
  void restore(const Json& records);
  static RunTracker from_json(const Json& json);

 private:
  struct EventRecord {
    std::string kind;  // "start", "done", "failed", "killed", "exhausted"
    double time = 0;
    int node = -1;
    std::string detail;
  };
  struct RunRecord {
    std::vector<EventRecord> events;
    // pending|running|done|failed|killed|exhausted
    std::string last_state = "pending";
    size_t attempts = 0;
  };
  struct Shard {
    std::unordered_map<std::string, RunRecord> runs;
    size_t live = 0;  // runs in this shard not yet done/exhausted
  };

  size_t shard_of(const std::string& run_id) const noexcept;
  RunRecord& require(const std::string& run_id);
  const RunRecord& require(const std::string& run_id) const;
  /// Counter bookkeeping shared by the terminal transitions.
  void on_terminal(const std::string& run_id);
  static Json record_to_json(const RunRecord& run);

  std::vector<Shard> shards_;
  Counts counts_;
  size_t live_ = 0;
  size_t total_attempts_ = 0;
};

}  // namespace ff::savanna
