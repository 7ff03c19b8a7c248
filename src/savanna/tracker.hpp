#pragma once

#include <cstdint>
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
/// One hash map from run id to record, so a status update is one hash and
/// one lookup. States and event kinds are a closed, typed vocabulary; their
/// names appear only where bytes leave the tracker (status(), the exports
/// and the savanna.run.state trace event), and restore() rejects a name
/// outside it. counts() reads aggregates the transitions keep up to date.
/// Exported provenance is sorted by run id; append_json() writes it as
/// text, which is how a journal checkpoint gets it.
class RunTracker {
 public:
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

  /// Runs per state; a running run is counted in `total` only.
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

  /// Which runs an export carries: every run, or only the runs with at
  /// least one recorded event. The started runs are the journal checkpoint
  /// payload — pending runs carry no state a resume could not recreate
  /// from the manifest, so a checkpoint's size tracks the started
  /// population, not the sweep size.
  enum class Export : uint8_t { All, Started };
  /// The one provenance renderer: append the selected runs' records to
  /// `out` as one JSON object sorted by run id, byte for byte what
  /// Json::dump() gives for the same records, without building a Json
  /// value. Returns the number of runs written.
  size_t append_json(std::string& out, Export which) const;

  /// Full provenance export (one record per run with its event list),
  /// sorted by run id: append_json(Export::All), parsed.
  Json to_json() const;
  /// Sparse export: append_json(Export::Started), parsed.
  Json to_json_started() const;
  /// Load records (the to_json/to_json_started shape) into this tracker.
  /// Throws ValidationError, naming the run, on a run id already present
  /// or on a state or event kind outside the vocabulary.
  void restore(const Json& records);
  static RunTracker from_json(const Json& json);

 private:
  /// A run's lifecycle position. An event records the state it entered, so
  /// the same values are the event kinds (Running is entered by "start").
  /// tracker.cpp holds the one name table, indexed by these values.
  enum class State : uint8_t { Pending, Running, Done, Failed, Killed, Exhausted };
  struct EventRecord {
    double time = 0;
    std::string detail;
    int node = -1;
    State kind = State::Running;
  };
  struct RunRecord {
    std::vector<EventRecord> events;
    size_t attempts = 0;
    State state = State::Pending;
  };

  RunRecord& require(const std::string& run_id);
  const RunRecord& require(const std::string& run_id) const;
  /// The one transition: move the counts, record the event, trace it.
  void enter(const std::string& run_id, RunRecord& run, State to, double time,
             int node, std::string detail);

  std::unordered_map<std::string, RunRecord> runs_;
  Counts counts_;
  size_t total_attempts_ = 0;
};

}  // namespace ff::savanna
