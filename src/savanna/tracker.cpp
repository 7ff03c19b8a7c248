#include "savanna/tracker.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace ff::savanna {

namespace {

/// The one name table, indexed by RunTracker::State: the state's name, the
/// kind of the event that enters it, and the Counts bucket it is counted in.
struct StateNames {
  const char* name;
  const char* event;                   // nullptr: no event enters it
  size_t RunTracker::Counts::*bucket;  // nullptr: counted in total only
};
constexpr StateNames kStates[] = {
    {"pending", nullptr, &RunTracker::Counts::never_started},
    {"running", "start", nullptr},
    {"done", "done", &RunTracker::Counts::done},
    {"failed", "failed", &RunTracker::Counts::failed},
    {"killed", "killed", &RunTracker::Counts::killed},
    {"exhausted", "exhausted", &RunTracker::Counts::exhausted},
};

/// The row of `state`, a RunTracker::State (private to the class).
template <typename State>
const StateNames& names(State state) {
  return kStates[static_cast<size_t>(state)];
}

/// The row whose `column` reads `name`. A name outside the vocabulary is a
/// ValidationError naming the run it came with.
size_t find_row(const std::string& run_id, const std::string& name,
                const char* StateNames::*column, const char* what) {
  for (size_t row = 0; row < std::size(kStates); ++row) {
    const char* candidate = kStates[row].*column;
    if (candidate && name == candidate) return row;
  }
  throw ValidationError("RunTracker: run '" + run_id + "' has unknown " + what +
                        " '" + name + "'");
}

void append_int(std::string& out, int64_t value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

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

void RunTracker::add_run(const std::string& run_id) {
  if (!runs_.emplace(run_id, RunRecord{}).second) {
    throw ValidationError("RunTracker: duplicate run '" + run_id + "'");
  }
  ++counts_.total;
  ++counts_.never_started;
}

bool RunTracker::has_run(const std::string& run_id) const noexcept {
  return runs_.count(run_id) > 0;
}

RunTracker::RunRecord& RunTracker::require(const std::string& run_id) {
  auto it = runs_.find(run_id);
  if (it == runs_.end()) {
    throw NotFoundError("RunTracker: unknown run '" + run_id + "'");
  }
  return it->second;
}

const RunTracker::RunRecord& RunTracker::require(const std::string& run_id) const {
  auto it = runs_.find(run_id);
  if (it == runs_.end()) {
    throw NotFoundError("RunTracker: unknown run '" + run_id + "'");
  }
  return it->second;
}

void RunTracker::enter(const std::string& run_id, RunRecord& run, State to,
                       double time, int node, std::string detail) {
  if (auto from = names(run.state).bucket) --(counts_.*from);
  if (auto into = names(to).bucket) ++(counts_.*into);
  run.state = to;
  run.events.push_back(EventRecord{time, std::move(detail), node, to});
  trace_state(run_id, names(to).event, time, node, run.attempts - 1);
}

void RunTracker::mark_started(const std::string& run_id, double time, int node) {
  RunRecord& run = require(run_id);
  if (run.state == State::Running) {
    throw StateError("RunTracker: run '" + run_id + "' already running");
  }
  // Restarting a terminal run is legal, if unusual.
  ++run.attempts;
  ++total_attempts_;
  enter(run_id, run, State::Running, time, node, "");
}

void RunTracker::mark_done(const std::string& run_id, double time) {
  RunRecord& run = require(run_id);
  if (run.state != State::Running) {
    throw StateError("RunTracker: run '" + run_id + "' is not running");
  }
  enter(run_id, run, State::Done, time, -1, "");
}

void RunTracker::mark_failed(const std::string& run_id, double time,
                             const std::string& reason) {
  RunRecord& run = require(run_id);
  if (run.state != State::Running) {
    throw StateError("RunTracker: run '" + run_id + "' is not running");
  }
  enter(run_id, run, State::Failed, time, -1, reason);
}

void RunTracker::mark_killed(const std::string& run_id, double time) {
  RunRecord& run = require(run_id);
  if (run.state != State::Running) {
    throw StateError("RunTracker: run '" + run_id + "' is not running");
  }
  enter(run_id, run, State::Killed, time, -1, "walltime");
}

void RunTracker::mark_exhausted(const std::string& run_id, double time,
                                const std::string& reason) {
  RunRecord& run = require(run_id);
  if (run.state != State::Failed && run.state != State::Killed) {
    throw StateError("RunTracker: run '" + run_id +
                     "' cannot be exhausted from state '" +
                     names(run.state).name + "'");
  }
  enter(run_id, run, State::Exhausted, time, -1, reason);
}

size_t RunTracker::attempts(const std::string& run_id) const {
  return require(run_id).attempts;
}

RunTracker::RunStatus RunTracker::status(const std::string& run_id) const {
  const RunRecord& run = require(run_id);
  RunStatus status;
  status.state = names(run.state).name;
  status.attempts = run.attempts;
  status.last_time = run.events.empty() ? 0 : run.events.back().time;
  return status;
}

size_t RunTracker::append_json(std::string& out, Export which) const {
  // The map has no order. Sort with std::string's <, the order in which
  // Json's std::map keys dump.
  using Entry = const std::pair<const std::string, RunRecord>*;
  std::vector<Entry> sorted;
  sorted.reserve(which == Export::All ? runs_.size()
                                      : counts_.total - counts_.never_started);
  for (const auto& entry : runs_) {
    if (which == Export::All || !entry.second.events.empty()) {
      sorted.push_back(&entry);
    }
  }
  std::sort(sorted.begin(), sorted.end(),
            [](Entry a, Entry b) { return a->first < b->first; });
  // Keys in Json's sorted order: a record's attempts, events, state; an
  // event's detail (when set), kind, node (when >= 0), time.
  out += '{';
  for (size_t i = 0; i < sorted.size(); ++i) {
    const auto& [run_id, run] = *sorted[i];
    if (i > 0) out += ',';
    append_json_string(out, run_id);
    out += ":{\"attempts\":";
    append_int(out, static_cast<int64_t>(run.attempts));
    out += ",\"events\":[";
    for (size_t e = 0; e < run.events.size(); ++e) {
      const EventRecord& event = run.events[e];
      out += e > 0 ? ",{" : "{";
      if (!event.detail.empty()) {
        out += "\"detail\":";
        append_json_string(out, event.detail);
        out += ',';
      }
      out += "\"kind\":\"";
      out += names(event.kind).event;
      out += '"';
      if (event.node >= 0) {
        out += ",\"node\":";
        append_int(out, event.node);
      }
      out += ",\"time\":";
      append_double(out, event.time);
      out += '}';
    }
    out += "],\"state\":\"";
    out += names(run.state).name;
    out += "\"}";
  }
  out += '}';
  return sorted.size();
}

Json RunTracker::to_json() const {
  std::string text;
  append_json(text, Export::All);
  return Json::parse(text);
}

Json RunTracker::to_json_started() const {
  std::string text;
  append_json(text, Export::Started);
  return Json::parse(text);
}

void RunTracker::restore(const Json& records) {
  for (const auto& [run_id, record] : records.as_object()) {
    RunRecord run;
    run.state = static_cast<State>(
        find_row(run_id, record["state"].as_string(), &StateNames::name, "state"));
    run.attempts = static_cast<size_t>(record.get_or("attempts", int64_t{0}));
    for (const Json& entry : record["events"].as_array()) {
      EventRecord event;
      event.kind = static_cast<State>(find_row(
          run_id, entry["kind"].as_string(), &StateNames::event, "event kind"));
      event.time = entry["time"].as_double();
      event.node = static_cast<int>(entry.get_or("node", int64_t{-1}));
      event.detail = entry.get_or("detail", "");
      run.events.push_back(std::move(event));
    }
    const State state = run.state;
    const size_t attempts = run.attempts;
    if (!runs_.emplace(run_id, std::move(run)).second) {
      throw ValidationError("RunTracker: duplicate run '" + run_id + "'");
    }
    ++counts_.total;
    if (auto bucket = names(state).bucket) ++(counts_.*bucket);
    total_attempts_ += attempts;
  }
}

RunTracker RunTracker::from_json(const Json& json) {
  RunTracker tracker;
  tracker.restore(json);
  return tracker;
}

}  // namespace ff::savanna
