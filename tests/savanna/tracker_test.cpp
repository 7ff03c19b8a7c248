#include "savanna/tracker.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.hpp"

namespace ff::savanna {
namespace {

/// Runs not yet done or exhausted: the ones a re-submission still owes.
size_t live(const RunTracker& tracker) {
  const RunTracker::Counts counts = tracker.counts();
  return counts.total - counts.done - counts.exhausted;
}

TEST(RunTracker, LifecycleHappyPath) {
  RunTracker tracker;
  tracker.add_run("r1");
  EXPECT_TRUE(tracker.has_run("r1"));
  tracker.mark_started("r1", 0.0, 3);
  tracker.mark_done("r1", 10.0);
  EXPECT_EQ(tracker.attempts("r1"), 1u);
  EXPECT_EQ(tracker.status("r1").state, "done");
  const auto counts = tracker.counts();
  EXPECT_EQ(counts.total, 1u);
  EXPECT_EQ(counts.done, 1u);
}

TEST(RunTracker, DuplicateAddThrows) {
  RunTracker tracker;
  tracker.add_run("r1");
  EXPECT_THROW(tracker.add_run("r1"), ValidationError);
}

TEST(RunTracker, UnknownRunThrows) {
  RunTracker tracker;
  EXPECT_THROW(tracker.mark_started("ghost", 0, 0), NotFoundError);
  EXPECT_THROW(tracker.attempts("ghost"), NotFoundError);
}

TEST(RunTracker, IllegalTransitionsThrow) {
  RunTracker tracker;
  tracker.add_run("r1");
  EXPECT_THROW(tracker.mark_done("r1", 1.0), StateError);  // not running
  tracker.mark_started("r1", 0.0, 0);
  EXPECT_THROW(tracker.mark_started("r1", 1.0, 0), StateError);  // double start
  tracker.mark_failed("r1", 2.0, "oom");
  EXPECT_THROW(tracker.mark_killed("r1", 3.0), StateError);
}

TEST(RunTracker, RetryAfterFailureCountsAttempts) {
  RunTracker tracker;
  tracker.add_run("r1");
  tracker.mark_started("r1", 0.0, 0);
  tracker.mark_failed("r1", 5.0, "node crash");
  EXPECT_EQ(tracker.status("r1").state, "failed");
  EXPECT_EQ(tracker.counts().failed, 1u);
  tracker.mark_started("r1", 10.0, 1);  // re-submission
  tracker.mark_done("r1", 20.0);
  EXPECT_EQ(tracker.attempts("r1"), 2u);
  EXPECT_EQ(tracker.counts().failed, 0u);
  EXPECT_EQ(live(tracker), 0u);
}

TEST(RunTracker, NeedingRerunCoversAllIncompleteStates) {
  RunTracker tracker;
  const std::vector<std::string> ids = {"pending", "failed", "killed", "done",
                                        "running"};
  for (const std::string& id : ids) tracker.add_run(id);
  tracker.mark_started("failed", 0, 0);
  tracker.mark_failed("failed", 1, "x");
  tracker.mark_started("killed", 0, 1);
  tracker.mark_killed("killed", 1);
  tracker.mark_started("done", 0, 2);
  tracker.mark_done("done", 1);
  tracker.mark_started("running", 0, 3);
  for (const std::string& id : ids) {
    // Each run reports the state it is named after.
    EXPECT_EQ(tracker.status(id).state, id);
  }
  EXPECT_EQ(live(tracker), 4u);  // everything but "done"
  const auto counts = tracker.counts();
  EXPECT_EQ(counts.never_started, 1u);
  EXPECT_EQ(counts.failed, 1u);
  EXPECT_EQ(counts.killed, 1u);
  EXPECT_EQ(counts.done, 1u);
}

TEST(RunTracker, JsonRoundTripPreservesProvenance) {
  RunTracker tracker;
  tracker.add_run("r1");
  tracker.mark_started("r1", 1.5, 7);
  tracker.mark_failed("r1", 9.0, "segfault");
  tracker.mark_started("r1", 12.0, 2);
  tracker.mark_done("r1", 30.0);

  const Json json = tracker.to_json();
  EXPECT_EQ(json["r1"]["state"].as_string(), "done");
  EXPECT_EQ(json["r1"]["attempts"].as_int(), 2);
  EXPECT_EQ(json["r1"]["events"].size(), 4u);
  EXPECT_EQ(json["r1"]["events"][size_t{1}]["detail"].as_string(), "segfault");

  const RunTracker reparsed = RunTracker::from_json(json);
  EXPECT_EQ(reparsed.attempts("r1"), 2u);
  EXPECT_EQ(reparsed.status("r1").state, "done");
  EXPECT_EQ(reparsed.to_json(), json);
}

TEST(RunTracker, LiveRunsTracksTerminalTransitions) {
  RunTracker tracker;
  tracker.add_run("a");
  tracker.add_run("b");
  EXPECT_EQ(live(tracker), 2u);
  tracker.mark_started("a", 0, 0);
  EXPECT_EQ(live(tracker), 2u);  // running is still live
  tracker.mark_done("a", 1);
  EXPECT_EQ(live(tracker), 1u);
  tracker.mark_started("b", 0, 1);
  tracker.mark_failed("b", 1, "oom");
  EXPECT_EQ(live(tracker), 1u);  // failed runs await a retry decision
  tracker.mark_exhausted("b", 2, "retry budget spent");
  EXPECT_EQ(live(tracker), 0u);
  EXPECT_EQ(tracker.status("b").state, "exhausted");
  EXPECT_EQ(tracker.counts().exhausted, 1u);
}

TEST(RunTracker, StatusReportsLatestPosition) {
  RunTracker tracker;
  tracker.add_run("r1");
  EXPECT_EQ(tracker.status("r1").state, "pending");
  tracker.mark_started("r1", 3.5, 2);
  tracker.mark_failed("r1", 8.0, "segfault");
  const auto status = tracker.status("r1");
  EXPECT_EQ(status.state, "failed");
  EXPECT_EQ(status.attempts, 1u);
  EXPECT_DOUBLE_EQ(status.last_time, 8.0);
  EXPECT_THROW(tracker.status("ghost"), NotFoundError);
}

TEST(RunTracker, ToJsonStartedOmitsPendingRuns) {
  RunTracker tracker;
  tracker.add_run("pending-run");
  tracker.add_run("started-run");
  tracker.mark_started("started-run", 1.0, 0);
  const Json sparse = tracker.to_json_started();
  EXPECT_EQ(sparse.size(), 1u);
  EXPECT_TRUE(sparse.contains("started-run"));
  EXPECT_FALSE(sparse.contains("pending-run"));
  // The full export still carries everything.
  EXPECT_EQ(tracker.to_json().size(), 2u);
}

TEST(RunTracker, RestoreRebuildsCountersFromSnapshot) {
  RunTracker original;
  for (const std::string id : {"done", "failed", "running", "exhausted"}) {
    original.add_run(id);
    original.mark_started(id, 0, 0);
  }
  original.mark_done("done", 1);
  original.mark_failed("failed", 1, "x");
  original.mark_killed("exhausted", 1);
  original.mark_exhausted("exhausted", 2, "budget");

  RunTracker restored;
  restored.restore(original.to_json_started());
  EXPECT_EQ(live(restored), live(original));
  for (const std::string id : {"done", "failed", "running", "exhausted"}) {
    EXPECT_EQ(restored.status(id).state, original.status(id).state);
  }
  const auto counts = restored.counts();
  EXPECT_EQ(counts.total, 4u);
  EXPECT_EQ(counts.done, 1u);
  EXPECT_EQ(counts.failed, 1u);
  EXPECT_EQ(counts.exhausted, 1u);
  EXPECT_EQ(restored.to_json().dump(), original.to_json().dump());
  EXPECT_EQ(restored.attempts("failed"), 1u);
  // A snapshot may not collide with runs already present.
  EXPECT_THROW(restored.restore(original.to_json_started()), ValidationError);
}

TEST(RunTracker, TotalAttemptsEqualsThePerRunSum) {
  RunTracker tracker;
  const std::vector<std::string> ids = {"a", "b", "c", "pending"};
  for (const std::string& id : ids) tracker.add_run(id);
  auto per_run_sum = [&ids](const RunTracker& t) {
    size_t sum = 0;
    for (const std::string& id : ids) sum += t.attempts(id);
    return sum;
  };
  EXPECT_EQ(tracker.total_attempts(), 0u);

  tracker.mark_started("a", 0, 0);
  tracker.mark_done("a", 1);
  tracker.mark_started("b", 0, 1);
  tracker.mark_killed("b", 1);
  tracker.mark_started("b", 2, 0);  // retry
  tracker.mark_failed("b", 3, "x");
  tracker.mark_started("b", 4, 0);  // second retry, still running
  tracker.mark_started("c", 0, 2);
  tracker.mark_killed("c", 1);
  tracker.mark_exhausted("c", 1, "budget");
  EXPECT_EQ(tracker.total_attempts(), 5u);
  EXPECT_EQ(tracker.total_attempts(), per_run_sum(tracker));

  RunTracker restored;
  restored.restore(tracker.to_json_started());
  restored.add_run("pending");
  EXPECT_EQ(restored.total_attempts(), 5u);
  EXPECT_EQ(restored.total_attempts(), per_run_sum(restored));
  // Marks after a restore keep adding to the restored total.
  restored.mark_started("pending", 5, 0);
  EXPECT_EQ(restored.total_attempts(), 6u);
  EXPECT_EQ(restored.total_attempts(), per_run_sum(restored));
  // A rejected restore leaves the total untouched.
  EXPECT_THROW(restored.restore(tracker.to_json_started()), ValidationError);
  EXPECT_EQ(restored.total_attempts(), per_run_sum(restored));
}

TEST(RunTracker, ManyRunsKeepAggregatesConsistent) {
  RunTracker tracker;
  const size_t n = 10000;
  for (size_t i = 0; i < n; ++i) {
    tracker.add_run("r" + std::to_string(i));
  }
  for (size_t i = 0; i < n; i += 2) {
    const std::string id = "r" + std::to_string(i);
    tracker.mark_started(id, 0, 0);
    tracker.mark_done(id, 1);
  }
  const auto counts = tracker.counts();
  EXPECT_EQ(counts.total, n);
  EXPECT_EQ(counts.done, n / 2);
  EXPECT_EQ(counts.never_started, n / 2);
  EXPECT_EQ(live(tracker), n / 2);
  size_t pending = 0;
  for (size_t i = 0; i < n; ++i) {
    if (tracker.status("r" + std::to_string(i)).state == "pending") ++pending;
  }
  EXPECT_EQ(pending, n / 2);
  // The export is sorted by run id whatever the hash order.
  const Json exported = tracker.to_json();
  EXPECT_EQ(exported.size(), n);
  EXPECT_EQ(exported.as_object().begin()->first, "r0");
}

// States and event kinds are a closed vocabulary: a record naming anything
// else is rejected, naming the run, before it can skew the counts.
TEST(RunTracker, RestoreRejectsNamesOutsideTheVocabulary) {
  RunTracker source;
  source.add_run("r1");
  source.mark_started("r1", 1.0, 0);
  source.mark_failed("r1", 2.0, "oom");
  const Json good = source.to_json_started();
  ASSERT_EQ(good["r1"]["state"].as_string(), "failed");

  Json misspelled_state = good;
  misspelled_state["r1"]["state"] = "runing";
  Json unknown_kind = good;
  unknown_kind["r1"]["events"][size_t{0}]["kind"] = "begin";
  for (const Json& bad : {misspelled_state, unknown_kind}) {
    RunTracker tracker;
    try {
      tracker.restore(bad);
      ADD_FAILURE() << "restored " << bad.dump();
    } catch (const ValidationError& error) {
      EXPECT_NE(std::string(error.what()).find("'r1'"), std::string::npos)
          << error.what();
    }
    const auto counts = tracker.counts();
    EXPECT_EQ(counts.total, counts.done + counts.failed + counts.killed +
                                counts.exhausted + counts.never_started);
    EXPECT_FALSE(tracker.has_run("r1"));
  }

  RunTracker restored;
  restored.restore(good);
  EXPECT_EQ(restored.to_json().dump(), source.to_json().dump());
  EXPECT_EQ(restored.counts().failed, 1u);
}

}  // namespace
}  // namespace ff::savanna
