#include "savanna/tracker.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/error.hpp"

namespace ff::savanna {
namespace {

TEST(RunTracker, LifecycleHappyPath) {
  RunTracker tracker;
  tracker.add_run("r1");
  EXPECT_TRUE(tracker.has_run("r1"));
  tracker.mark_started("r1", 0.0, 3);
  tracker.mark_done("r1", 10.0);
  EXPECT_EQ(tracker.attempts("r1"), 1u);
  EXPECT_TRUE(tracker.needing_rerun().empty());
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
  EXPECT_EQ(tracker.needing_rerun(), std::vector<std::string>{"r1"});
  tracker.mark_started("r1", 10.0, 1);  // re-submission
  tracker.mark_done("r1", 20.0);
  EXPECT_EQ(tracker.attempts("r1"), 2u);
  EXPECT_TRUE(tracker.needing_rerun().empty());
}

TEST(RunTracker, NeedingRerunCoversAllIncompleteStates) {
  RunTracker tracker;
  for (const std::string id : {"pending", "failed", "killed", "done", "running"}) {
    tracker.add_run(id);
  }
  tracker.mark_started("failed", 0, 0);
  tracker.mark_failed("failed", 1, "x");
  tracker.mark_started("killed", 0, 1);
  tracker.mark_killed("killed", 1);
  tracker.mark_started("done", 0, 2);
  tracker.mark_done("done", 1);
  tracker.mark_started("running", 0, 3);
  const auto rerun = tracker.needing_rerun();
  EXPECT_EQ(rerun.size(), 4u);  // everything but "done"
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
  EXPECT_TRUE(reparsed.needing_rerun().empty());
  EXPECT_EQ(reparsed.to_json(), json);
}

TEST(RunTracker, ShardCountIsInvisibleInExports) {
  auto drive = [](RunTracker& tracker) {
    for (int i = 0; i < 200; ++i) {
      const std::string id = "run-" + std::to_string(i);
      tracker.add_run(id);
      if (i % 3 == 0) {
        tracker.mark_started(id, i, i % 7);
        tracker.mark_done(id, i + 1);
      } else if (i % 3 == 1) {
        tracker.mark_started(id, i, i % 7);
        tracker.mark_failed(id, i + 1, "flake");
      }
    }
  };
  RunTracker sharded;  // kDefaultShardCount
  RunTracker single(1);
  drive(sharded);
  drive(single);
  EXPECT_EQ(sharded.to_json().dump(), single.to_json().dump());
  EXPECT_EQ(sharded.needing_rerun(), single.needing_rerun());
  EXPECT_EQ(sharded.live_runs(), single.live_runs());
}

TEST(RunTracker, LiveRunsTracksTerminalTransitions) {
  RunTracker tracker;
  tracker.add_run("a");
  tracker.add_run("b");
  EXPECT_EQ(tracker.live_runs(), 2u);
  tracker.mark_started("a", 0, 0);
  EXPECT_EQ(tracker.live_runs(), 2u);  // running is still live
  tracker.mark_done("a", 1);
  EXPECT_EQ(tracker.live_runs(), 1u);
  tracker.mark_started("b", 0, 1);
  tracker.mark_failed("b", 1, "oom");
  EXPECT_EQ(tracker.live_runs(), 1u);  // failed runs await a retry decision
  tracker.mark_exhausted("b", 2, "retry budget spent");
  EXPECT_EQ(tracker.live_runs(), 0u);
  EXPECT_TRUE(tracker.needing_rerun().empty());
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
  EXPECT_EQ(restored.live_runs(), original.live_runs());
  EXPECT_EQ(restored.needing_rerun(), original.needing_rerun());
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
  EXPECT_EQ(tracker.live_runs(), n / 2);
  EXPECT_EQ(tracker.needing_rerun().size(), n / 2);
  // needing_rerun is sorted by id regardless of shard layout.
  const auto rerun = tracker.needing_rerun();
  EXPECT_TRUE(std::is_sorted(rerun.begin(), rerun.end()));
}

}  // namespace
}  // namespace ff::savanna
