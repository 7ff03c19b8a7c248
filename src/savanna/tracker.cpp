#include "savanna/tracker.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace ff::savanna {

namespace {

/// The tracker is the ComponentRecords tier made concrete, so its state
/// transitions are themselves trace events: one savanna.run.state per
/// mark_* call, at the transition's virtual time.
void trace_state(const std::string& run_id, const char* state, double time,
                 int node, size_t attempt) {
  if (!obs::tracing_enabled()) return;
  obs::trace_instant_at(time, "savanna", "savanna.run.state",
                        {{"run", run_id},
                         {"state", state},
                         {"node", node},
                         {"attempt", attempt}});
}

}  // namespace

RunTracker::RunTracker(size_t shard_count)
    : shards_(shard_count == 0 ? 1 : shard_count) {}

size_t RunTracker::shard_of(const std::string& run_id) const noexcept {
  return std::hash<std::string>{}(run_id) % shards_.size();
}

void RunTracker::add_run(const std::string& run_id) {
  Shard& shard = shards_[shard_of(run_id)];
  if (!shard.runs.emplace(run_id, RunRecord{}).second) {
    throw ValidationError("RunTracker: duplicate run '" + run_id + "'");
  }
  ++shard.live;
  ++live_;
  ++counts_.total;
  ++counts_.never_started;
}

bool RunTracker::has_run(const std::string& run_id) const noexcept {
  return shards_[shard_of(run_id)].runs.count(run_id) > 0;
}

RunTracker::RunRecord& RunTracker::require(const std::string& run_id) {
  Shard& shard = shards_[shard_of(run_id)];
  auto it = shard.runs.find(run_id);
  if (it == shard.runs.end()) {
    throw NotFoundError("RunTracker: unknown run '" + run_id + "'");
  }
  return it->second;
}

const RunTracker::RunRecord& RunTracker::require(const std::string& run_id) const {
  const Shard& shard = shards_[shard_of(run_id)];
  auto it = shard.runs.find(run_id);
  if (it == shard.runs.end()) {
    throw NotFoundError("RunTracker: unknown run '" + run_id + "'");
  }
  return it->second;
}

void RunTracker::on_terminal(const std::string& run_id) {
  --shards_[shard_of(run_id)].live;
  --live_;
}

void RunTracker::mark_started(const std::string& run_id, double time, int node) {
  RunRecord& run = require(run_id);
  if (run.last_state == "running") {
    throw StateError("RunTracker: run '" + run_id + "' already running");
  }
  // Counter bookkeeping: the run leaves whichever non-running bucket it was in.
  if (run.last_state == "pending") --counts_.never_started;
  else if (run.last_state == "failed") --counts_.failed;
  else if (run.last_state == "killed") --counts_.killed;
  else if (run.last_state == "done") --counts_.done;
  else if (run.last_state == "exhausted") --counts_.exhausted;
  if (run.last_state == "done" || run.last_state == "exhausted") {
    // Restarting a terminal run (legal, if unusual) makes it live again.
    ++shards_[shard_of(run_id)].live;
    ++live_;
  }
  run.events.push_back(EventRecord{"start", time, node, ""});
  run.last_state = "running";
  ++run.attempts;
  ++total_attempts_;
  trace_state(run_id, "start", time, node, run.attempts - 1);
}

void RunTracker::mark_done(const std::string& run_id, double time) {
  RunRecord& run = require(run_id);
  if (run.last_state != "running") {
    throw StateError("RunTracker: run '" + run_id + "' is not running");
  }
  run.events.push_back(EventRecord{"done", time, -1, ""});
  run.last_state = "done";
  ++counts_.done;
  on_terminal(run_id);
  trace_state(run_id, "done", time, -1, run.attempts - 1);
}

void RunTracker::mark_failed(const std::string& run_id, double time,
                             const std::string& reason) {
  RunRecord& run = require(run_id);
  if (run.last_state != "running") {
    throw StateError("RunTracker: run '" + run_id + "' is not running");
  }
  run.events.push_back(EventRecord{"failed", time, -1, reason});
  run.last_state = "failed";
  ++counts_.failed;
  trace_state(run_id, "failed", time, -1, run.attempts - 1);
}

void RunTracker::mark_killed(const std::string& run_id, double time) {
  RunRecord& run = require(run_id);
  if (run.last_state != "running") {
    throw StateError("RunTracker: run '" + run_id + "' is not running");
  }
  run.events.push_back(EventRecord{"killed", time, -1, "walltime"});
  run.last_state = "killed";
  ++counts_.killed;
  trace_state(run_id, "killed", time, -1, run.attempts - 1);
}

void RunTracker::mark_exhausted(const std::string& run_id, double time,
                                const std::string& reason) {
  RunRecord& run = require(run_id);
  if (run.last_state != "failed" && run.last_state != "killed") {
    throw StateError("RunTracker: run '" + run_id +
                     "' cannot be exhausted from state '" + run.last_state + "'");
  }
  if (run.last_state == "failed") --counts_.failed;
  else --counts_.killed;
  run.events.push_back(EventRecord{"exhausted", time, -1, reason});
  run.last_state = "exhausted";
  ++counts_.exhausted;
  on_terminal(run_id);
  trace_state(run_id, "exhausted", time, -1, run.attempts - 1);
}

std::vector<std::string> RunTracker::needing_rerun() const {
  std::vector<std::string> out;
  for (const Shard& shard : shards_) {
    if (shard.live == 0) continue;  // every run here is done/exhausted
    for (const auto& [run_id, run] : shard.runs) {
      if (run.last_state != "done" && run.last_state != "exhausted") {
        out.push_back(run_id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t RunTracker::attempts(const std::string& run_id) const {
  return require(run_id).attempts;
}

RunTracker::RunStatus RunTracker::status(const std::string& run_id) const {
  const RunRecord& run = require(run_id);
  RunStatus status;
  status.state = run.last_state;
  status.attempts = run.attempts;
  status.last_time = run.events.empty() ? 0 : run.events.back().time;
  return status;
}

Json RunTracker::record_to_json(const RunRecord& run) {
  Json record = Json::object();
  record["state"] = run.last_state;
  record["attempts"] = static_cast<int64_t>(run.attempts);
  Json events = Json::array();
  for (const EventRecord& event : run.events) {
    Json entry = Json::object();
    entry["kind"] = event.kind;
    entry["time"] = event.time;
    if (event.node >= 0) entry["node"] = static_cast<int64_t>(event.node);
    if (!event.detail.empty()) entry["detail"] = event.detail;
    events.push_back(std::move(entry));
  }
  record["events"] = std::move(events);
  return record;
}

Json RunTracker::to_json() const {
  // Json objects are sorted maps, so insertion order does not matter: the
  // export is deterministic (and byte-identical to the pre-sharding layout).
  Json out = Json::object();
  for (const Shard& shard : shards_) {
    for (const auto& [run_id, run] : shard.runs) {
      out[run_id] = record_to_json(run);
    }
  }
  return out;
}

Json RunTracker::to_json_started() const {
  Json out = Json::object();
  for (const Shard& shard : shards_) {
    for (const auto& [run_id, run] : shard.runs) {
      if (!run.events.empty()) out[run_id] = record_to_json(run);
    }
  }
  return out;
}

void RunTracker::restore(const Json& records) {
  for (const auto& [run_id, record] : records.as_object()) {
    RunRecord run;
    run.last_state = record["state"].as_string();
    run.attempts = static_cast<size_t>(record.get_or("attempts", int64_t{0}));
    for (const Json& entry : record["events"].as_array()) {
      EventRecord event;
      event.kind = entry["kind"].as_string();
      event.time = entry["time"].as_double();
      event.node = static_cast<int>(entry.get_or("node", int64_t{-1}));
      event.detail = entry.get_or("detail", "");
      run.events.push_back(std::move(event));
    }
    Shard& shard = shards_[shard_of(run_id)];
    const std::string state = run.last_state;
    const size_t attempts = run.attempts;
    if (!shard.runs.emplace(run_id, std::move(run)).second) {
      throw ValidationError("RunTracker: duplicate run '" + run_id + "'");
    }
    ++counts_.total;
    total_attempts_ += attempts;
    if (state == "done") ++counts_.done;
    else if (state == "failed") ++counts_.failed;
    else if (state == "killed") ++counts_.killed;
    else if (state == "exhausted") ++counts_.exhausted;
    else if (state == "pending") ++counts_.never_started;
    if (state == "done" || state == "exhausted") {
      // terminal on arrival: never counted live
    } else {
      ++shard.live;
      ++live_;
    }
  }
}

RunTracker RunTracker::from_json(const Json& json) {
  RunTracker tracker;
  tracker.restore(json);
  return tracker;
}

}  // namespace ff::savanna
