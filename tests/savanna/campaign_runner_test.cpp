#include "savanna/campaign_runner.hpp"

#include <gtest/gtest.h>

namespace ff::savanna {
namespace {

std::vector<sim::TaskSpec> uniform_tasks(size_t count, double duration) {
  std::vector<sim::TaskSpec> tasks;
  for (size_t i = 0; i < count; ++i) {
    sim::TaskSpec task;
    task.id = "t" + std::to_string(i);
    task.duration_s = duration;
    tasks.push_back(std::move(task));
  }
  return tasks;
}

TEST(CampaignRunner, SingleAllocationCompletesEverything) {
  sim::Simulation sim;
  CampaignRunOptions options;
  options.execution.nodes = 4;
  const auto result = run_with_resubmission(sim, uniform_tasks(8, 10), options);
  EXPECT_EQ(result.allocations_used, 1u);
  EXPECT_EQ(result.completed_runs, 8u);
  EXPECT_EQ(result.remaining_runs, 0u);
}

TEST(CampaignRunner, ResubmissionFinishesWorkAcrossAllocations) {
  sim::Simulation sim;
  CampaignRunOptions options;
  options.execution.nodes = 2;
  options.execution.walltime_s = 25.0;  // 2 nodes * 2 runs of 10 per allocation
  const auto result = run_with_resubmission(sim, uniform_tasks(10, 10), options);
  EXPECT_EQ(result.completed_runs, 10u);
  EXPECT_EQ(result.remaining_runs, 0u);
  EXPECT_GT(result.allocations_used, 1u);
  EXPECT_EQ(result.reports.size(), result.allocations_used);
}

TEST(CampaignRunner, MaxAllocationsCapsWork) {
  sim::Simulation sim;
  CampaignRunOptions options;
  options.execution.nodes = 1;
  options.execution.walltime_s = 10.5;
  options.max_allocations = 3;
  const auto result = run_with_resubmission(sim, uniform_tasks(10, 10), options);
  EXPECT_EQ(result.allocations_used, 3u);
  EXPECT_EQ(result.completed_runs, 3u);
  EXPECT_EQ(result.remaining_runs, 7u);
}

TEST(CampaignRunner, ImpossibleTaskDoesNotLoopForever) {
  sim::Simulation sim;
  CampaignRunOptions options;
  options.execution.nodes = 1;
  options.execution.walltime_s = 5.0;  // task needs 10
  const auto result = run_with_resubmission(sim, uniform_tasks(1, 10), options);
  EXPECT_EQ(result.completed_runs, 0u);
  EXPECT_EQ(result.remaining_runs, 1u);
  EXPECT_GE(result.allocations_used, 1u);
}

TEST(CampaignRunner, TrackerReceivesFullProvenance) {
  sim::Simulation sim;
  CampaignRunOptions options;
  options.execution.nodes = 2;
  options.execution.walltime_s = 25.0;
  RunTracker tracker;
  const auto result =
      run_with_resubmission(sim, uniform_tasks(6, 10), options, &tracker);
  EXPECT_EQ(result.completed_runs, 6u);
  const auto counts = tracker.counts();
  EXPECT_EQ(counts.total, 6u);
  EXPECT_EQ(counts.done, 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(tracker.status("t" + std::to_string(i)).state, "done");
  }
}

TEST(CampaignRunner, FailedRunsRetryInNextAllocation) {
  sim::Simulation sim;
  CampaignRunOptions options;
  options.execution.nodes = 2;
  int failures_left = 1;
  options.execution.fails = [&](const sim::TaskSpec& task, int) {
    if (task.id == "t0" && failures_left > 0) {
      --failures_left;
      return true;
    }
    return false;
  };
  RunTracker tracker;
  const auto result =
      run_with_resubmission(sim, uniform_tasks(4, 10), options, &tracker);
  EXPECT_EQ(result.completed_runs, 4u);
  EXPECT_EQ(result.allocations_used, 2u);  // retry allocation for t0
  EXPECT_EQ(tracker.attempts("t0"), 2u);
  EXPECT_EQ(tracker.attempts("t1"), 1u);
}

TEST(CampaignRunner, SetBackendUsesBarriers) {
  CampaignRunOptions set_options;
  set_options.backend = Backend::SetSynchronized;
  set_options.execution.nodes = 2;
  CampaignRunOptions pilot_options = set_options;
  pilot_options.backend = Backend::Pilot;

  std::vector<sim::TaskSpec> skewed;
  for (size_t i = 0; i < 6; ++i) {
    sim::TaskSpec task;
    task.id = "t" + std::to_string(i);
    task.duration_s = (i % 2 == 0) ? 10.0 : 50.0;
    skewed.push_back(std::move(task));
  }
  sim::Simulation sim_a;
  sim::Simulation sim_b;
  const auto set_result = run_with_resubmission(sim_a, skewed, set_options);
  const auto pilot_result = run_with_resubmission(sim_b, skewed, pilot_options);
  EXPECT_EQ(set_result.completed_runs, 6u);
  EXPECT_EQ(pilot_result.completed_runs, 6u);
  EXPECT_GT(pilot_result.utilization(), set_result.utilization());
}

}  // namespace
}  // namespace ff::savanna
