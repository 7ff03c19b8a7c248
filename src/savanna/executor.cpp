#include "savanna/executor.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace ff::savanna {

namespace {

void validate(const ExecutionOptions& options) {
  if (options.nodes <= 0) throw Error("executor: nodes must be positive");
  if (options.walltime_s <= 0) throw Error("executor: walltime must be positive");
  if (options.startup_cost_s < 0) throw Error("executor: negative startup cost");
  if (options.set_size < 0) throw Error("executor: negative set size");
}

/// Shared bookkeeping for both runners. Times passed to record() are
/// *absolute* virtual times (so emitted trace events order correctly across
/// re-submitted allocations); intervals are stored relative to t0 as before.
struct Recorder {
  Recorder(const ExecutionOptions& options, double t0, const char* backend)
      : options(options), t0(t0), backend(backend) {
    report.node_timeline.resize(static_cast<size_t>(options.nodes));
    obs::trace_instant_at(t0, "savanna", "savanna.allocation.begin",
                          {{"backend", backend}, {"nodes", options.nodes}});
  }

  /// Record a run occupying `node` over absolute [start, end_nominal),
  /// clipped at walltime, emitting savanna.job.start/end trace events.
  /// Returns true if the run finished before the walltime.
  bool record(int node, double start, double end_nominal,
              const std::string& id, bool failed) {
    const double end = std::min(end_nominal, t0 + options.walltime_s);
    report.node_timeline[static_cast<size_t>(node)].push_back(
        Interval{start - t0, end - t0, id});
    report.busy_node_seconds += end - start;
    report.makespan_s = std::max(report.makespan_s, end - t0);
    const bool fits = end_nominal <= t0 + options.walltime_s;
    if (obs::tracing_enabled()) {
      obs::trace_instant_at(start, "savanna", "savanna.job.start",
                            {{"run", id}, {"node", node}});
      obs::trace_instant_at(
          end, "savanna", "savanna.job.end",
          {{"run", id},
           {"node", node},
           {"outcome", !fits ? "killed" : (failed ? "failed" : "done")}});
    }
    return fits;
  }

  void finalize() {
    const double horizon = std::isfinite(options.walltime_s)
                               ? std::min(report.makespan_s, options.walltime_s)
                               : report.makespan_s;
    report.allocation_node_seconds = horizon * options.nodes;
    if (obs::tracing_enabled()) {
      obs::trace_instant_at(t0 + report.makespan_s, "savanna",
                            "savanna.allocation.end",
                            {{"backend", backend},
                             {"completed", report.completed.size()},
                             {"failed", report.failed.size()},
                             {"killed", report.killed.size()}});
    }
  }

  const ExecutionOptions& options;
  const double t0;
  const char* backend;
  ExecutionReport report;
};

}  // namespace

ExecutionReport run_set_synchronized(sim::Simulation& sim,
                                     const TaskSource& next_task,
                                     const ExecutionOptions& options) {
  validate(options);
  const int set_size =
      options.set_size > 0 ? std::min(options.set_size, options.nodes)
                           : options.nodes;
  const double t0 = sim.now();
  const double deadline = t0 + options.walltime_s;
  Recorder recorder(options, t0, "set");
  double set_start = t0;
  // A set launches only while the allocation has walltime left. Compared on
  // the absolute clock, as record() clips: after a set ends at the deadline,
  // (t0 + walltime) - t0 may round below the walltime and launch a set
  // whose runs are killed the instant they start.
  while (set_start < deadline) {
    double barrier = set_start;
    int node = 0;
    for (; node < set_size; ++node) {
      const sim::TaskSpec* task = next_task();
      if (!task) break;
      const double start = set_start;
      const double end = start + options.startup_cost_s + task->duration_s;
      const bool failed = options.fails && options.fails(*task, node);
      const bool fits = recorder.record(node, start, end, task->id, failed);
      if (!fits) {
        recorder.report.killed.push_back(task->id);
      } else if (failed) {
        recorder.report.failed.push_back(task->id);
      } else {
        recorder.report.completed.push_back(task->id);
      }
      barrier = std::max(barrier, std::min(end, deadline));
    }
    if (node == 0) break;  // the source ran dry
    // The explicit end-of-set synchronization: the whole set waits for its
    // slowest member before the next set is launched.
    set_start = barrier;
  }
  // Advance virtual time to the end of the allocation's activity.
  sim.run_until(t0 + recorder.report.makespan_s);
  recorder.finalize();
  return recorder.report;
}

ExecutionReport run_set_synchronized(sim::Simulation& sim,
                                     const std::vector<sim::TaskSpec>& tasks,
                                     const ExecutionOptions& options) {
  size_t next = 0;
  return run_set_synchronized(
      sim, [&] { return next < tasks.size() ? &tasks[next++] : nullptr; },
      options);
}

ExecutionReport run_pilot(sim::Simulation& sim, const TaskSource& next_task,
                          const ExecutionOptions& options) {
  validate(options);
  const double t0 = sim.now();
  Recorder recorder(options, t0, "pilot");

  // Event-driven greedy list scheduling: every node pulls the next pending
  // task the moment it frees.
  std::function<void(int)> assign = [&](int node) {
    // Cannot launch anymore (on the absolute clock, as the set runner).
    if (sim.now() >= t0 + options.walltime_s) return;
    const sim::TaskSpec* task = next_task();
    if (!task) return;
    const double start = sim.now();
    const double end = start + options.startup_cost_s + task->duration_s;
    const bool failed = options.fails && options.fails(*task, node);
    const bool fits = recorder.record(node, start, end, task->id, failed);
    if (!fits) {
      // Node is lost to the walltime; no completion event needed.
      recorder.report.killed.push_back(task->id);
      return;
    }
    sim.schedule_at(end, [&, node, failed, task] {
      if (failed) {
        recorder.report.failed.push_back(task->id);
      } else {
        recorder.report.completed.push_back(task->id);
      }
      assign(node);
    });
  };

  for (int node = 0; node < options.nodes; ++node) assign(node);
  sim.run();
  recorder.finalize();
  return recorder.report;
}

ExecutionReport run_pilot(sim::Simulation& sim,
                          const std::vector<sim::TaskSpec>& tasks,
                          const ExecutionOptions& options) {
  size_t next = 0;
  return run_pilot(
      sim, [&] { return next < tasks.size() ? &tasks[next++] : nullptr; },
      options);
}

}  // namespace ff::savanna
