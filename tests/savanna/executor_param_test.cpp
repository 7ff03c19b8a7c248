// Property-style sweeps over the executors: for many (nodes, ensemble
// size, seed, walltime) combinations, both backends must satisfy the
// scheduling invariants, and the pilot must never lose to the barrier
// runner.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "savanna/executor.hpp"

namespace ff::savanna {
namespace {

struct ExecutorCase {
  int nodes;
  size_t tasks;
  uint64_t seed;
  double walltime;  // 0 = unlimited
};

class ExecutorProperties : public ::testing::TestWithParam<ExecutorCase> {
 protected:
  std::vector<sim::TaskSpec> make_tasks() const {
    sim::DurationModel model;
    model.median_s = 120;
    model.sigma = 0.6;
    model.straggler_fraction = 0.1;
    return sim::make_ensemble(GetParam().tasks, model, GetParam().seed);
  }

  ExecutionOptions make_options() const {
    ExecutionOptions options;
    options.nodes = GetParam().nodes;
    if (GetParam().walltime > 0) options.walltime_s = GetParam().walltime;
    return options;
  }

  static void check_invariants(const ExecutionReport& report,
                               const std::vector<sim::TaskSpec>& tasks,
                               const ExecutionOptions& options) {
    // Every launched task is accounted for exactly once, and the launched
    // tasks are a prefix of the list: the rest never left the caller.
    size_t launched = 0;
    for (const auto& intervals : report.node_timeline) launched += intervals.size();
    EXPECT_EQ(report.completed.size() + report.failed.size() +
                  report.killed.size(),
              launched);
    ASSERT_LE(launched, tasks.size());
    std::set<std::string> seen;
    for (const auto& list : {report.completed, report.failed, report.killed}) {
      for (const auto& id : list) EXPECT_TRUE(seen.insert(id).second) << id;
    }
    for (size_t i = 0; i < launched; ++i) EXPECT_TRUE(seen.count(tasks[i].id));
    // Without a walltime every task is launched.
    if (!std::isfinite(options.walltime_s)) {
      EXPECT_EQ(launched, tasks.size());
    }
    // Node accounting.
    EXPECT_EQ(report.node_timeline.size(), static_cast<size_t>(options.nodes));
    EXPECT_LE(report.busy_node_seconds, report.allocation_node_seconds + 1e-6);
    EXPECT_LE(report.makespan_s, options.walltime_s + 1e-9);
    // Intervals are disjoint, ordered, inside [0, makespan].
    for (const auto& intervals : report.node_timeline) {
      for (size_t i = 0; i < intervals.size(); ++i) {
        EXPECT_LE(intervals[i].start, intervals[i].end);
        EXPECT_GE(intervals[i].start, 0.0);
        EXPECT_LE(intervals[i].end, report.makespan_s + 1e-9);
        if (i > 0) {
          EXPECT_GE(intervals[i].start, intervals[i - 1].end - 1e-9);
        }
      }
    }
    // Utilization is a fraction.
    EXPECT_GE(report.utilization(), 0.0);
    EXPECT_LE(report.utilization(), 1.0 + 1e-9);
  }
};

TEST_P(ExecutorProperties, SetSynchronizedInvariantsHold) {
  const auto tasks = make_tasks();
  const auto options = make_options();
  sim::Simulation sim;
  const auto report = run_set_synchronized(sim, tasks, options);
  check_invariants(report, tasks, options);
}

TEST_P(ExecutorProperties, PilotInvariantsHold) {
  const auto tasks = make_tasks();
  const auto options = make_options();
  sim::Simulation sim;
  const auto report = run_pilot(sim, tasks, options);
  check_invariants(report, tasks, options);
}

TEST_P(ExecutorProperties, PilotNeverSlowerAndNeverLessComplete) {
  const auto tasks = make_tasks();
  const auto options = make_options();
  sim::Simulation sim_a;
  sim::Simulation sim_b;
  const auto set_report = run_set_synchronized(sim_a, tasks, options);
  const auto pilot_report = run_pilot(sim_b, tasks, options);
  // Without a walltime the pilot strictly dominates on makespan; with one,
  // both clip at the walltime so only completions are comparable.
  if (!std::isfinite(options.walltime_s)) {
    EXPECT_LE(pilot_report.makespan_s, set_report.makespan_s + 1e-9);
  }
  // Within a walltime the pilot completes at least as many runs.
  EXPECT_GE(pilot_report.completed.size(), set_report.completed.size());
}

TEST_P(ExecutorProperties, DeterministicAcrossRuns) {
  const auto tasks = make_tasks();
  const auto options = make_options();
  sim::Simulation sim_a;
  sim::Simulation sim_b;
  const auto a = run_pilot(sim_a, tasks, options);
  const auto b = run_pilot(sim_b, tasks, options);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExecutorProperties,
    ::testing::Values(ExecutorCase{1, 1, 1, 0}, ExecutorCase{1, 17, 2, 0},
                      ExecutorCase{4, 16, 3, 0}, ExecutorCase{8, 64, 4, 0},
                      ExecutorCase{16, 50, 5, 0}, ExecutorCase{20, 200, 6, 0},
                      ExecutorCase{8, 64, 7, 900}, ExecutorCase{4, 40, 8, 300},
                      ExecutorCase{20, 300, 9, 7200},
                      ExecutorCase{32, 32, 10, 0}),
    [](const ::testing::TestParamInfo<ExecutorCase>& info) {
      return "n" + std::to_string(info.param.nodes) + "_t" +
             std::to_string(info.param.tasks) + "_s" +
             std::to_string(info.param.seed) + "_w" +
             std::to_string(static_cast<int>(info.param.walltime));
    });

}  // namespace
}  // namespace ff::savanna
