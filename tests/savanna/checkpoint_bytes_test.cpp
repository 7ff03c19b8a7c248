// The journal checkpoint is rendered as text straight from the tracker
// (RunTracker::append_json), without a Json value. These tests hold its
// bytes to the DOM path it replaced:
//
//   * a property battery: random trackers (ids and details with quotes,
//     backslashes, control bytes and UTF-8; NaN, infinite, negative-zero,
//     integral, huge and subnormal times; nodes -1, 0 and large; pending,
//     restarted and restored runs) render exactly what the old
//     record_to_json, kept verbatim below, dumps — for both exports, and
//     for the whole ckpt line from either append_checkpoint overload;
//   * a golden digest: a seeded, checkpointed, compacted, group-committed
//     campaign, run uninterrupted and resumed after a kill mid-checkpoint,
//     must end in journals whose FNV-1a digest and size equal constants
//     recorded with the DOM-based writer.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/workload.hpp"
#include "obs/trace.hpp"
#include "savanna/campaign_runner.hpp"
#include "savanna/journal.hpp"
#include "savanna/tracker.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace ff::savanna {
namespace {

// ---------------------------------------------------------------------------
// The reference: a model of the tracker's records and the DOM export that
// RunTracker used before it rendered text.
// ---------------------------------------------------------------------------

enum class State : uint8_t { Pending, Running, Done, Failed, Killed, Exhausted };
struct StateNames {
  const char* name;
  const char* event;
};
constexpr StateNames kStates[] = {
    {"pending", nullptr}, {"running", "start"}, {"done", "done"},
    {"failed", "failed"}, {"killed", "killed"}, {"exhausted", "exhausted"},
};
const StateNames& names(State state) {
  return kStates[static_cast<size_t>(state)];
}

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
using Model = std::unordered_map<std::string, RunRecord>;

// Verbatim from the DOM-based RunTracker::record_to_json.
Json record_to_json(const RunRecord& run) {
  Json record = Json::object();
  record["state"] = names(run.state).name;
  record["attempts"] = static_cast<int64_t>(run.attempts);
  Json events = Json::array();
  for (const EventRecord& event : run.events) {
    Json entry = Json::object();
    entry["kind"] = names(event.kind).event;
    entry["time"] = event.time;
    if (event.node >= 0) entry["node"] = static_cast<int64_t>(event.node);
    if (!event.detail.empty()) entry["detail"] = event.detail;
    events.push_back(std::move(entry));
  }
  record["events"] = std::move(events);
  return record;
}

// Verbatim from the DOM-based to_json() / to_json_started().
Json reference_to_json(const Model& runs_) {
  Json out = Json::object();
  for (const auto& [run_id, run] : runs_) out[run_id] = record_to_json(run);
  return out;
}

Json reference_to_json_started(const Model& runs_) {
  Json out = Json::object();
  for (const auto& [run_id, run] : runs_) {
    if (!run.events.empty()) out[run_id] = record_to_json(run);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Random trackers
// ---------------------------------------------------------------------------

/// Pieces ids and details are built from: JSON's escapes, raw control
/// bytes (NUL included), DEL, multi-byte UTF-8, and plain text.
const std::vector<std::string>& text_pieces() {
  static const std::vector<std::string> kPieces = {
      "\"", "\\", "/", std::string(1, '\0'), "\x01", "\b", "\t", "\n",
      "\f", "\r", "\x1f", "\x7f", "\xc3\xa9", "\xe6\xbc\xa2",
      "\xf0\x9f\x9a\x80", "\xff", "a", "run-", "0", "Z", " ", "~"};
  return kPieces;
}

std::string random_text(Rng& rng, size_t max_pieces) {
  const auto& pieces = text_pieces();
  std::string out;
  const size_t count = rng.below(max_pieces + 1);
  for (size_t i = 0; i < count; ++i) out += pieces[rng.below(pieces.size())];
  return out;
}

double random_time(Rng& rng) {
  switch (rng.below(14)) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return std::numeric_limits<double>::infinity();
    case 2: return -std::numeric_limits<double>::infinity();
    case 3: return -0.0;
    case 4: return 0.0;
    case 5: return static_cast<double>(rng.below(100000));  // integral
    case 6: return 1e15;
    case 7: return 1234567890123456.0;
    case 8: return std::ldexp(1.0, 53) + 2.0;
    case 9: return 1e300 * (1.0 + rng.uniform());
    case 10: return std::numeric_limits<double>::denorm_min();
    case 11: return std::numeric_limits<double>::min() / 3.0;  // subnormal
    case 12: return -rng.uniform() * 1e4;
    default: return rng.lognormal(5.7, 0.4) + rng.uniform();
  }
}

int random_node(Rng& rng) {
  switch (rng.below(5)) {
    case 0: return -1;
    case 1: return 0;
    case 2: return INT_MAX;
    default: return static_cast<int>(rng.below(512));
  }
}

/// A tracker driven through its mark_* calls, and the model of what those
/// calls record: pending runs, runs that end in every state, runs
/// restarted after a terminal state.
void random_tracker(Rng& rng, size_t runs, RunTracker& tracker, Model& model) {
  std::set<std::string> ids;
  while (ids.size() < runs) ids.insert(random_text(rng, 4));
  for (const std::string& id : ids) {
    tracker.add_run(id);
    RunRecord& run = model[id];
    const size_t steps = rng.below(7);
    for (size_t step = 0; step < steps; ++step) {
      const double time = random_time(rng);
      if (run.state != State::Running) {
        if ((run.state == State::Failed || run.state == State::Killed) &&
            rng.below(3) == 0) {
          const std::string reason = random_text(rng, 3);
          tracker.mark_exhausted(id, time, reason);
          run.events.push_back({time, reason, -1, State::Exhausted});
          run.state = State::Exhausted;
          continue;
        }
        const int node = random_node(rng);
        tracker.mark_started(id, time, node);
        ++run.attempts;
        run.events.push_back({time, "", node, State::Running});
        run.state = State::Running;
        continue;
      }
      switch (rng.below(3)) {
        case 0:
          tracker.mark_done(id, time);
          run.events.push_back({time, "", -1, State::Done});
          run.state = State::Done;
          break;
        case 1: {
          const std::string reason = random_text(rng, 3);
          tracker.mark_failed(id, time, reason);
          run.events.push_back({time, reason, -1, State::Failed});
          run.state = State::Failed;
          break;
        }
        default:
          tracker.mark_killed(id, time);
          run.events.push_back({time, "walltime", -1, State::Killed});
          run.state = State::Killed;
      }
    }
  }
}

/// Records no mark_* sequence produces — zero attempts with events, events
/// that disagree with the state, a pending run with events — loaded
/// through restore().
Model random_restorable_model(Rng& rng, size_t runs) {
  Model model;
  std::set<std::string> ids;
  while (ids.size() < runs) ids.insert(random_text(rng, 4));
  for (const std::string& id : ids) {
    RunRecord& run = model[id];
    run.state = static_cast<State>(rng.below(6));
    run.attempts = rng.below(3) == 0 ? 0 : rng.below(1000);
    const size_t events = rng.below(4);
    for (size_t e = 0; e < events; ++e) {
      EventRecord event;
      event.kind = static_cast<State>(1 + rng.below(5));
      event.time = random_time(rng);
      event.node = random_node(rng);
      event.detail = random_text(rng, 3);
      run.events.push_back(std::move(event));
    }
  }
  return model;
}

std::string rendered(const RunTracker& tracker, RunTracker::Export which,
                     size_t* runs = nullptr) {
  std::string out = "prefix:";  // the renderer appends, it does not assign
  const size_t written = tracker.append_json(out, which);
  if (runs) *runs = written;
  EXPECT_EQ(out.compare(0, 7, "prefix:"), 0);
  return out.substr(7);
}

void expect_exports_match(const RunTracker& tracker, const Model& model) {
  const Json full = reference_to_json(model);
  const Json started = reference_to_json_started(model);
  size_t full_runs = 0;
  size_t started_runs = 0;
  EXPECT_EQ(rendered(tracker, RunTracker::Export::All, &full_runs), full.dump());
  EXPECT_EQ(rendered(tracker, RunTracker::Export::Started, &started_runs),
            started.dump());
  EXPECT_EQ(full_runs, full.size());
  EXPECT_EQ(started_runs, started.size());
  EXPECT_EQ(tracker.to_json().dump(), full.dump());
  EXPECT_EQ(tracker.to_json_started().dump(), started.dump());
}

TEST(CheckpointBytes, RendererMatchesTheDomExportOnRandomTrackers) {
  Rng rng(0x5EEDC4E7u);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    RunTracker tracker;
    Model model;
    random_tracker(rng, rng.below(40), tracker, model);
    expect_exports_match(tracker, model);
  }
}

TEST(CheckpointBytes, RendererMatchesTheDomExportOnRestoredRecords) {
  Rng rng(0xBADC0DEu);
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Model model = random_restorable_model(rng, rng.below(30));
    const RunTracker tracker = RunTracker::from_json(reference_to_json(model));
    expect_exports_match(tracker, model);
  }
}

TEST(CheckpointBytes, EmptyTrackerRendersAnEmptyObject) {
  RunTracker tracker;
  EXPECT_EQ(rendered(tracker, RunTracker::Export::All), "{}");
  tracker.add_run("never-started");
  EXPECT_EQ(rendered(tracker, RunTracker::Export::Started), "{}");
  EXPECT_EQ(rendered(tracker, RunTracker::Export::All),
            R"({"never-started":{"attempts":0,"events":[],"state":"pending"}})");
}

// ---------------------------------------------------------------------------
// The ckpt line, from both overloads
// ---------------------------------------------------------------------------

const obs::Arg* find_arg(const obs::TraceEvent& event, const char* key) {
  for (size_t i = 0; i < event.arg_count; ++i) {
    if (std::strcmp(event.args[i].key, key) == 0) return &event.args[i];
  }
  return nullptr;
}

std::string last_line(const std::string& text) {
  const size_t start = text.rfind('\n', text.size() - 2);
  return text.substr(start == std::string::npos ? 0 : start + 1);
}

/// The `runs` argument of the one savanna.journal.checkpoint event traced
/// since the recorder was cleared.
int64_t traced_checkpoint_runs() {
  int64_t runs = -1;
  size_t seen = 0;
  for (const auto& event : obs::TraceRecorder::instance().flush()) {
    if (std::strcmp(event.name, "savanna.journal.checkpoint") != 0) continue;
    ++seen;
    if (const obs::Arg* arg = find_arg(event, "runs")) runs = arg->int_value;
  }
  EXPECT_EQ(seen, 1u);
  return runs;
}

TEST(CheckpointBytes, CheckpointLineEqualsTheDomRecordFromBothOverloads) {
  obs::TraceRecorder::instance().set_ring_capacity(8192);
  obs::set_tracing(true);
  Rng rng(0xC4EC4u);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    RunTracker tracker;
    Model model;
    random_tracker(rng, rng.below(25), tracker, model);
    const Json started = reference_to_json_started(model);
    const double clock = random_time(rng);
    const size_t allocations = rng.below(5);

    Json expected_record = Json::object();
    expected_record["kind"] = "ckpt";
    expected_record["next_index"] = static_cast<int64_t>(allocations);
    expected_record["clock"] = clock;
    expected_record["tracker"] = started;
    const std::string expected = expected_record.dump() + "\n";

    for (const bool from_tracker : {true, false}) {
      SCOPED_TRACE(from_tracker ? "tracker overload" : "Json overload");
      TempDir dir("ckpt-bytes");
      const std::string path = dir.file("journal.jsonl");
      CampaignJournal journal =
          CampaignJournal::create(path, "c", std::vector<std::string>{"x"});
      journal.set_group_commit(1 + rng.below(3));
      for (size_t i = 0; i < allocations; ++i) {
        journal.append_allocation(Json::object({{"start", 1.5 * i}}));
      }
      obs::TraceRecorder::instance().clear();
      if (from_tracker) {
        journal.append_checkpoint(tracker, clock);
      } else {
        journal.append_checkpoint(started, clock);
      }
      EXPECT_EQ(traced_checkpoint_runs(), static_cast<int64_t>(started.size()));
      journal.close();
      EXPECT_EQ(last_line(read_file(path)), expected);
    }
  }
  obs::set_tracing(false);
  obs::TraceRecorder::instance().clear();
}

// ---------------------------------------------------------------------------
// Golden journal digest
// ---------------------------------------------------------------------------

/// FNV-1a/64 over a whole file's bytes.
std::string fnv1a_hex(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

std::vector<sim::TaskSpec> golden_tasks() {
  sim::DurationModel model;
  model.straggler_fraction = 0.2;
  return sim::make_ensemble(300, model, 20211);
}

CampaignRunOptions golden_options(const RunTracker& tracker) {
  CampaignRunOptions options;
  options.execution.nodes = 8;
  options.execution.walltime_s = 1500;  // the longest stragglers never fit
  options.retry.max_attempts = 3;
  options.retry.base_backoff_s = 60;
  options.journal.checkpoint_every = 4;
  options.journal.compact_after_checkpoint = true;
  options.journal.group_commit = 8;
  // Every 13th run fails its first attempt; keyed off durable state only,
  // so a resumed process decides the same fates.
  options.execution.fails = [&tracker](const sim::TaskSpec& task, int) {
    return std::hash<std::string>{}(task.id) % 13 == 0 &&
           tracker.attempts(task.id) == 0;
  };
  return options;
}

void drive_golden(const std::string& journal_path) {
  sim::Simulation sim;
  RunTracker tracker;
  const auto tasks = golden_tasks();
  resume_campaign(sim, tasks, golden_options(tracker), tracker, journal_path,
                  "golden");
}

// Recorded by building the commit before the checkpoint renderer (the DOM
// writer: to_json_started() + Json::dump()), linking this campaign against
// its libraries, and printing the final journal's size and FNV-1a digest.
// Both runs end in the same bytes: resume compacts at open.
constexpr size_t kGoldenBytes = 58798;
constexpr const char* kGoldenDigest = "55aa2eb3da4b2381";

TEST(CheckpointBytes, GoldenJournalUninterruptedAndResumedAfterAKillMidCheckpoint) {
  TempDir dir("ckpt-golden");
  const std::string uninterrupted = dir.file("uninterrupted.jsonl");
  drive_golden(uninterrupted);
  const std::string bytes = read_file(uninterrupted);
  EXPECT_EQ(bytes.size(), kGoldenBytes);
  EXPECT_EQ(fnv1a_hex(bytes), kGoldenDigest);
  {
    // The campaign exercises what a checkpoint renders: failures with a
    // detail, walltime kills, exhausted budgets, and several compactions.
    const CampaignJournal::Replay replay = CampaignJournal::replay(uninterrupted);
    ASSERT_TRUE(replay.has_checkpoint());
    EXPECT_EQ(replay.compactions, 1u);
    const std::string snapshot = replay.checkpoint["tracker"].dump();
    EXPECT_NE(snapshot.find("\"detail\":\"injected failure\""), std::string::npos);
    EXPECT_NE(snapshot.find("\"detail\":\"walltime\""), std::string::npos);
    EXPECT_NE(snapshot.find("\"state\":\"exhausted\""), std::string::npos);
  }

  // Kill the second checkpoint half-written, then resume.
  const std::string resumed = dir.file("resumed.jsonl");
  const pid_t pid = fork();
  if (pid == 0) {
    size_t checkpoints = 0;
    CampaignJournal::set_test_write_hook(
        [&checkpoints](CampaignJournal::WriteKind kind,
                       CampaignJournal::WritePhase phase, size_t) {
          if (kind == CampaignJournal::WriteKind::Checkpoint &&
              phase == CampaignJournal::WritePhase::MidWrite &&
              checkpoints++ == 1) {
            ::kill(::getpid(), SIGKILL);
          }
        });
    drive_golden(resumed);
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  ASSERT_TRUE(CampaignJournal::replay(resumed).torn_tail);
  drive_golden(resumed);
  const std::string resumed_bytes = read_file(resumed);
  EXPECT_EQ(resumed_bytes.size(), kGoldenBytes);
  EXPECT_EQ(fnv1a_hex(resumed_bytes), kGoldenDigest);
}

}  // namespace
}  // namespace ff::savanna
