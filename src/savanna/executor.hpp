#pragma once

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "cluster/sim.hpp"
#include "cluster/workload.hpp"

namespace ff::savanna {

/// One busy interval on one node — the raw material of the Fig. 6
/// utilization timelines.
struct Interval {
  double start = 0;
  double end = 0;
  std::string run_id;
};

struct ExecutionOptions {
  int nodes = 1;
  /// Allocation walltime; tasks cannot start after it and running tasks are
  /// killed at it. Infinite by default (run to completion).
  double walltime_s = std::numeric_limits<double>::infinity();
  /// Set-synchronized runner only: runs per set (0 = one per node).
  int set_size = 0;
  /// Fixed launch overhead added to every run (jsrun/aprun startup).
  double startup_cost_s = 0;
  /// Optional failure injection: return true if this run fails on `node`.
  /// A failed run occupies its node for the full duration, then must be
  /// re-run (it is reported in `failed`, not `completed`).
  std::function<bool(const sim::TaskSpec&, int node)> fails;
};

/// What happened when an ensemble was executed inside one allocation.
struct ExecutionReport {
  double makespan_s = 0;  // last node-release time (<= walltime)
  std::vector<std::vector<Interval>> node_timeline;  // [node] -> intervals
  std::vector<std::string> completed;
  std::vector<std::string> failed;
  std::vector<std::string> killed;  // running at walltime

  double busy_node_seconds = 0;
  double allocation_node_seconds = 0;  // nodes * min(makespan, walltime)

  double utilization() const {
    return allocation_node_seconds > 0 ? busy_node_seconds / allocation_node_seconds
                                       : 0.0;
  }

  // The ASCII Gantt rendering lives in savanna/timeline.hpp
  // (render_timeline), which also rebuilds timelines from the structured
  // trace stream — the executors emit savanna.job.* events for that.
};

/// Where an executor takes its runs from: each call returns the next run
/// to launch, or nullptr when none is left (and keeps returning nullptr).
/// An executor calls it only when a node can launch, so every run it hands
/// out is launched, and runs it never hands out stay with the caller. The
/// task must stay alive until the executor returns.
using TaskSource = std::function<const sim::TaskSpec*()>;

/// The *original* iRF-LOOP workflow of Section V-D: runs are submitted in
/// static sets "with explicit synchronization at the end of a set", so
/// every set waits for its slowest member ("straggler processes can
/// severely limit the performance of the overall workflow").
ExecutionReport run_set_synchronized(sim::Simulation& sim,
                                     const TaskSource& next_task,
                                     const ExecutionOptions& options);
ExecutionReport run_set_synchronized(sim::Simulation& sim,
                                     const std::vector<sim::TaskSpec>& tasks,
                                     const ExecutionOptions& options);

/// The Savanna pilot runner: a resource manager that "dynamically schedules
/// and tracks runs on the allocated nodes", assigning the next pending run
/// to whichever node frees first. No set barriers, no idle tails except the
/// final drain.
ExecutionReport run_pilot(sim::Simulation& sim, const TaskSource& next_task,
                          const ExecutionOptions& options);
ExecutionReport run_pilot(sim::Simulation& sim,
                          const std::vector<sim::TaskSpec>& tasks,
                          const ExecutionOptions& options);

}  // namespace ff::savanna
