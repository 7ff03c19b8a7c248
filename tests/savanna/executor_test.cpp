#include "savanna/executor.hpp"

#include <gtest/gtest.h>

#include "savanna/timeline.hpp"
#include "util/error.hpp"

namespace ff::savanna {
namespace {

std::vector<sim::TaskSpec> tasks_with_durations(const std::vector<double>& durations) {
  std::vector<sim::TaskSpec> tasks;
  for (size_t i = 0; i < durations.size(); ++i) {
    sim::TaskSpec task;
    task.id = "t" + std::to_string(i);
    task.duration_s = durations[i];
    task.feature_index = static_cast<int>(i);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

size_t launched(const ExecutionReport& report) {
  size_t count = 0;
  for (const auto& intervals : report.node_timeline) count += intervals.size();
  return count;
}

TEST(SetSynchronized, BarriersWaitForSlowestMember) {
  sim::Simulation sim;
  ExecutionOptions options;
  options.nodes = 2;
  // Sets: {10, 100}, {10, 10} — first set barrier at 100.
  const auto report = run_set_synchronized(
      sim, tasks_with_durations({10, 100, 10, 10}), options);
  EXPECT_EQ(report.completed.size(), 4u);
  EXPECT_DOUBLE_EQ(report.makespan_s, 110.0);
  // Node 0 idles from 10 to 100 — that is the paper's straggler problem.
  EXPECT_DOUBLE_EQ(report.busy_node_seconds, 130.0);
  EXPECT_NEAR(report.utilization(), 130.0 / 220.0, 1e-12);
}

TEST(Pilot, NoBarriersPacksWork) {
  sim::Simulation sim;
  ExecutionOptions options;
  options.nodes = 2;
  // Pilot: node0 runs 10 then 10 then 10 (t=30); node1 runs 100.
  const auto report = run_pilot(sim, tasks_with_durations({10, 100, 10, 10}), options);
  EXPECT_EQ(report.completed.size(), 4u);
  EXPECT_DOUBLE_EQ(report.makespan_s, 100.0);
  EXPECT_DOUBLE_EQ(report.busy_node_seconds, 130.0);
  EXPECT_GT(report.utilization(), 0.6);
}

TEST(PilotBeatsSetSynchronizedOnSkewedWork, Property) {
  // Property: for any workload, the pilot's makespan never exceeds the
  // set-synchronized makespan (both unbounded walltime, same order).
  const sim::DurationModel model;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const auto tasks = sim::make_ensemble(60, model, seed);
    ExecutionOptions options;
    options.nodes = 8;
    sim::Simulation sim_a;
    sim::Simulation sim_b;
    const auto set_report = run_set_synchronized(sim_a, tasks, options);
    const auto pilot_report = run_pilot(sim_b, tasks, options);
    EXPECT_LE(pilot_report.makespan_s, set_report.makespan_s + 1e-9) << seed;
    EXPECT_EQ(pilot_report.completed.size(), 60u);
    EXPECT_EQ(set_report.completed.size(), 60u);
  }
}

TEST(SetSynchronized, WalltimeKillsRunningAndSkipsRest) {
  sim::Simulation sim;
  ExecutionOptions options;
  options.nodes = 1;
  options.walltime_s = 25.0;
  const auto report =
      run_set_synchronized(sim, tasks_with_durations({10, 10, 10, 10}), options);
  EXPECT_EQ(report.completed.size(), 2u);  // t0, t1 finish by 20
  EXPECT_EQ(report.killed.size(), 1u);     // t2 running at 25
  EXPECT_EQ(launched(report), 3u);         // t3 never launched
  EXPECT_LE(report.makespan_s, 25.0);
}

TEST(Pilot, WalltimeKillsRunningAndSkipsRest) {
  sim::Simulation sim;
  ExecutionOptions options;
  options.nodes = 2;
  options.walltime_s = 15.0;
  const auto report =
      run_pilot(sim, tasks_with_durations({10, 20, 10, 10}), options);
  // node0: t0 (0-10) then t2 (10-20 -> killed at 15). node1: t1 killed.
  EXPECT_EQ(report.completed.size(), 1u);
  EXPECT_EQ(report.killed.size(), 2u);
  EXPECT_EQ(launched(report), 3u);  // t3 never launched
  EXPECT_LE(report.makespan_s, 15.0);
}

TEST(Executors, StartupCostDelaysCompletions) {
  ExecutionOptions options;
  options.nodes = 1;
  options.startup_cost_s = 5.0;
  sim::Simulation sim;
  const auto report = run_pilot(sim, tasks_with_durations({10, 10}), options);
  EXPECT_DOUBLE_EQ(report.makespan_s, 30.0);
}

TEST(Executors, FailureInjectionMarksFailed) {
  ExecutionOptions options;
  options.nodes = 2;
  options.fails = [](const sim::TaskSpec& task, int) { return task.id == "t1"; };
  sim::Simulation sim;
  const auto report = run_pilot(sim, tasks_with_durations({5, 5, 5}), options);
  EXPECT_EQ(report.completed.size(), 2u);
  ASSERT_EQ(report.failed.size(), 1u);
  EXPECT_EQ(report.failed[0], "t1");
  // Failed run still consumed its node time.
  EXPECT_DOUBLE_EQ(report.busy_node_seconds, 15.0);
}

TEST(Executors, EmptyTaskListIsTrivial) {
  ExecutionOptions options;
  options.nodes = 4;
  sim::Simulation sim_a;
  sim::Simulation sim_b;
  const std::vector<sim::TaskSpec> none;
  EXPECT_EQ(run_pilot(sim_a, none, options).makespan_s, 0.0);
  EXPECT_EQ(run_set_synchronized(sim_b, none, options).makespan_s, 0.0);
}

TEST(Executors, OptionValidation) {
  sim::Simulation sim;
  const std::vector<sim::TaskSpec> none;
  ExecutionOptions bad;
  bad.nodes = 0;
  EXPECT_THROW(run_pilot(sim, none, bad), Error);
  bad.nodes = 1;
  bad.walltime_s = 0;
  EXPECT_THROW(run_set_synchronized(sim, none, bad), Error);
  bad.walltime_s = 10;
  bad.startup_cost_s = -1;
  EXPECT_THROW(run_pilot(sim, none, bad), Error);
}

TEST(Executors, SetSizeSmallerThanNodes) {
  sim::Simulation sim;
  ExecutionOptions options;
  options.nodes = 4;
  options.set_size = 2;
  const auto report =
      run_set_synchronized(sim, tasks_with_durations({10, 10, 10, 10}), options);
  // Two sets of two, serial: makespan 20 even though 4 nodes exist.
  EXPECT_DOUBLE_EQ(report.makespan_s, 20.0);
}

TEST(Executors, TimelineIntervalsAreDisjointPerNode) {
  const auto tasks = sim::make_ensemble(40, sim::DurationModel{}, 11);
  ExecutionOptions options;
  options.nodes = 5;
  sim::Simulation sim;
  const auto report = run_pilot(sim, tasks, options);
  for (const auto& node_intervals : report.node_timeline) {
    for (size_t i = 1; i < node_intervals.size(); ++i) {
      EXPECT_GE(node_intervals[i].start, node_intervals[i - 1].end - 1e-9);
    }
  }
}

TEST(Executors, RenderTimelineShowsBusyAndIdle) {
  sim::Simulation sim;
  ExecutionOptions options;
  options.nodes = 2;
  const auto report =
      run_set_synchronized(sim, tasks_with_durations({10, 100}), options);
  const std::string text =
      render_timeline(report.node_timeline, report.makespan_s, 20);
  EXPECT_NE(text.find("node   0 |"), std::string::npos);
  EXPECT_NE(text.find('#'), std::string::npos);
  EXPECT_NE(text.find('.'), std::string::npos);  // node 0 idles after t=10
}

TEST(Executors, VirtualTimeAdvancesInSim) {
  sim::Simulation sim;
  ExecutionOptions options;
  options.nodes = 1;
  run_pilot(sim, tasks_with_durations({10, 10}), options);
  EXPECT_DOUBLE_EQ(sim.now(), 20.0);
  run_set_synchronized(sim, tasks_with_durations({5}), options);
  EXPECT_DOUBLE_EQ(sim.now(), 25.0);
}

}  // namespace
}  // namespace ff::savanna
