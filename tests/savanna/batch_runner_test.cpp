#include "savanna/batch_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ff::savanna {
namespace {

sim::MachineSpec quiet_machine(int nodes, double queue_wait = 0) {
  sim::MachineSpec spec = sim::institutional_cluster();
  spec.nodes = nodes;
  spec.queue_wait_mean_s = queue_wait;
  return spec;
}

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

TEST(BatchRunner, SingleJobCompletesEverything) {
  sim::Simulation sim;
  sim::BatchSystem batch(sim, quiet_machine(8), 1);
  CampaignRunOptions options;
  options.execution.nodes = 4;
  options.execution.walltime_s = 100;
  const auto report =
      run_campaign_through_batch(sim, batch, uniform_tasks(8, 10), options);
  EXPECT_EQ(report.jobs_submitted, 1u);
  EXPECT_EQ(report.inner.completed_runs, 8u);
  EXPECT_EQ(report.inner.remaining_runs, 0u);
  EXPECT_DOUBLE_EQ(report.total_queue_wait_s, 0.0);
  EXPECT_DOUBLE_EQ(report.total_wall_s, 20.0);  // two waves of 10s on 4 nodes
}

TEST(BatchRunner, ResubmissionGoesBackThroughTheQueue) {
  sim::Simulation sim;
  sim::BatchSystem batch(sim, quiet_machine(2), 1);
  CampaignRunOptions options;
  options.execution.nodes = 2;
  options.execution.walltime_s = 25;  // 4 completions per allocation
  const auto report =
      run_campaign_through_batch(sim, batch, uniform_tasks(10, 10), options);
  EXPECT_EQ(report.inner.completed_runs, 10u);
  EXPECT_EQ(report.jobs_submitted, 3u);
  EXPECT_EQ(report.inner.allocations_used, 3u);
  // Three back-to-back allocations; killed third-wave runs hold each
  // full allocation to its 25 s walltime: 25 + 25 + 10.
  EXPECT_DOUBLE_EQ(report.total_wall_s, 60.0);
}

TEST(BatchRunner, QueueWaitsAccumulatePerSubmission) {
  sim::Simulation sim;
  sim::BatchSystem batch(sim, quiet_machine(2, /*queue_wait=*/300), 7);
  CampaignRunOptions options;
  options.execution.nodes = 2;
  options.execution.walltime_s = 25;
  const auto report =
      run_campaign_through_batch(sim, batch, uniform_tasks(10, 10), options);
  EXPECT_EQ(report.inner.completed_runs, 10u);
  EXPECT_GT(report.total_queue_wait_s, 0.0);
  // Wall includes the waits on top of the 60 s of allocations.
  EXPECT_GT(report.total_wall_s, 60.0);
  EXPECT_NEAR(report.total_wall_s, 60.0 + report.total_queue_wait_s, 1e-6);
}

TEST(BatchRunner, ImpossibleTaskStopsAfterOneAllocation) {
  sim::Simulation sim;
  sim::BatchSystem batch(sim, quiet_machine(2), 1);
  CampaignRunOptions options;
  options.execution.nodes = 1;
  options.execution.walltime_s = 5;  // task needs 10
  const auto report =
      run_campaign_through_batch(sim, batch, uniform_tasks(1, 10), options);
  EXPECT_EQ(report.inner.completed_runs, 0u);
  EXPECT_EQ(report.inner.remaining_runs, 1u);
  EXPECT_EQ(report.jobs_submitted, 1u);
}

TEST(BatchRunner, MaxAllocationsRespected) {
  sim::Simulation sim;
  sim::BatchSystem batch(sim, quiet_machine(1), 1);
  CampaignRunOptions options;
  options.execution.nodes = 1;
  options.execution.walltime_s = 10.5;
  options.max_allocations = 2;
  const auto report =
      run_campaign_through_batch(sim, batch, uniform_tasks(10, 10), options);
  EXPECT_EQ(report.inner.allocations_used, 2u);
  EXPECT_EQ(report.inner.completed_runs, 2u);
  EXPECT_EQ(report.inner.remaining_runs, 8u);
}

TEST(BatchRunner, TrackerSeesBatchTimeline) {
  sim::Simulation sim;
  sim::BatchSystem batch(sim, quiet_machine(2, 100), 3);
  CampaignRunOptions options;
  options.execution.nodes = 2;
  options.execution.walltime_s = 1000;
  RunTracker tracker;
  const auto report = run_campaign_through_batch(sim, batch, uniform_tasks(4, 10),
                                                 options, &tracker);
  EXPECT_EQ(report.inner.completed_runs, 4u);
  EXPECT_EQ(tracker.counts().done, 4u);
  // Start times in the tracker reflect the queue wait (allocation start).
  const Json provenance = tracker.to_json();
  const double start =
      provenance["t0"]["events"][size_t{0}]["time"].as_double();
  EXPECT_GT(start, 0.0);  // waited in the queue before starting
}

TEST(BatchRunner, InfiniteWalltimeRejected) {
  sim::Simulation sim;
  sim::BatchSystem batch(sim, quiet_machine(2), 1);
  CampaignRunOptions options;  // default walltime is infinite
  EXPECT_THROW(
      run_campaign_through_batch(sim, batch, uniform_tasks(1, 1), options),
      Error);
}

TEST(BatchRunner, BaselineSetBackendSuffersMoreSubmissions) {
  // With the same walltime, the set-synchronized backend completes less
  // per allocation, so it needs more trips through the queue — the cost
  // the paper's Fig. 7 ratio includes.
  sim::DurationModel durations;
  durations.median_s = 50;
  durations.sigma = 0.8;
  const auto tasks = sim::make_ensemble(60, durations, 5);

  auto run_with_backend = [&](Backend backend) {
    sim::Simulation sim;
    sim::BatchSystem batch(sim, quiet_machine(8, 600), 11);
    CampaignRunOptions options;
    options.backend = backend;
    options.execution.nodes = 8;
    options.execution.walltime_s = 400;
    return run_campaign_through_batch(sim, batch, tasks, options);
  };
  const auto set_report = run_with_backend(Backend::SetSynchronized);
  const auto pilot_report = run_with_backend(Backend::Pilot);
  EXPECT_EQ(pilot_report.inner.remaining_runs, 0u);
  EXPECT_LE(pilot_report.jobs_submitted, set_report.jobs_submitted);
  EXPECT_LE(pilot_report.total_wall_s, set_report.total_wall_s);
}

// ---- The reference: the batch-queue loop as it was before it stepped a
// CampaignDriver, kept verbatim.

/// Mutable driver state shared by the event callbacks. Lives on the stack
/// of run_campaign_through_batch, which outlives sim.run().
struct Driver {
  sim::Simulation* sim = nullptr;
  sim::BatchSystem* batch = nullptr;
  const CampaignRunOptions* options = nullptr;
  RunTracker* tracker = nullptr;
  std::vector<sim::TaskSpec> remaining;
  BatchCampaignReport report;
  double first_submit_time = 0;
  double last_completion_time = 0;

  void submit_next() {
    if (remaining.empty()) return;
    if (options->max_allocations > 0 &&
        report.inner.allocations_used >= options->max_allocations) {
      return;
    }
    sim::BatchSystem::JobRequest request;
    request.name = "campaign-alloc-" + std::to_string(report.jobs_submitted);
    request.nodes = options->execution.nodes;
    request.walltime_s = options->execution.walltime_s;
    const double submitted_at = sim->now();
    request.on_start = [this, submitted_at](const sim::Allocation& allocation) {
      on_allocation(allocation, submitted_at);
    };
    ++report.jobs_submitted;
    batch->submit(std::move(request));
  }

  void on_allocation(const sim::Allocation& allocation, double submitted_at) {
    report.total_queue_wait_s += allocation.start_time - submitted_at;

    // Execute this allocation's share on a private clock; only its elapsed
    // time is charged to the outer simulation.
    sim::Simulation inner;
    ExecutionReport exec =
        options->backend == Backend::Pilot
            ? run_pilot(inner, remaining, options->execution)
            : run_set_synchronized(inner, remaining, options->execution);

    if (tracker) {
      apply_report_to_tracker(*tracker, exec, allocation.start_time);
    }

    const std::set<std::string> done(exec.completed.begin(), exec.completed.end());
    const bool progressed = !exec.completed.empty();
    std::vector<sim::TaskSpec> next;
    for (const sim::TaskSpec& task : remaining) {
      if (!done.count(task.id)) next.push_back(task);
    }

    ++report.inner.allocations_used;
    report.inner.completed_runs += exec.completed.size();
    report.inner.total_node_seconds += exec.allocation_node_seconds;
    report.inner.total_busy_node_seconds += exec.busy_node_seconds;
    const double used = std::min(exec.makespan_s, options->execution.walltime_s);
    report.inner.reports.push_back(std::move(exec));
    remaining = std::move(next);

    sim->schedule_after(used, [this, allocation, progressed] {
      last_completion_time = sim->now();
      batch->complete(allocation);
      // No-progress guard: a remainder that cannot fit any allocation
      // (e.g. one task longer than the walltime) must not loop forever.
      if (progressed) submit_next();
    });
  }
};

BatchCampaignReport reference_run_campaign_through_batch(
    sim::Simulation& sim, sim::BatchSystem& batch,
    const std::vector<sim::TaskSpec>& tasks, const CampaignRunOptions& options,
    RunTracker* tracker) {
  if (!std::isfinite(options.execution.walltime_s)) {
    throw Error("run_campaign_through_batch: walltime must be finite");
  }
  Driver driver;
  driver.sim = &sim;
  driver.batch = &batch;
  driver.options = &options;
  driver.tracker = tracker;
  driver.remaining = tasks;
  driver.first_submit_time = sim.now();
  if (tracker) {
    for (const sim::TaskSpec& task : tasks) tracker->add_run(task.id);
  }
  driver.submit_next();
  sim.run();
  driver.report.inner.remaining_runs = driver.remaining.size();
  driver.report.total_wall_s =
      driver.last_completion_time - driver.first_submit_time;
  return driver.report;
}

// ---- The battery.

/// Injected failures depend only on (run, node), so both executions of a
/// configuration see the same ones.
bool injected_failure(const sim::TaskSpec& task, int node, double share) {
  uint64_t hash = 1469598103934665603ull;
  for (const char c : task.id) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  hash = splitmix64(hash ^ static_cast<uint64_t>(node));
  return static_cast<double>(hash >> 11) * 0x1.0p-53 < share;
}

struct QueueCampaign {
  std::vector<sim::TaskSpec> tasks;
  CampaignRunOptions options;
  sim::MachineSpec machine;
  std::string description;
};

QueueCampaign draw_queue_campaign(uint64_t seed) {
  Rng rng(seed);
  QueueCampaign out;
  sim::DurationModel model;
  model.sigma = rng.uniform(0.1, 1.0);
  model.straggler_fraction = rng.chance(0.5) ? 0.0 : rng.uniform(0.01, 0.3);
  out.tasks = sim::make_ensemble(1 + rng.below(200), model, seed);
  CampaignRunOptions& options = out.options;
  options.backend = rng.chance(0.5) ? Backend::Pilot : Backend::SetSynchronized;
  options.execution.nodes = 1 + static_cast<int>(rng.below(8));
  options.execution.walltime_s = rng.uniform(200, 3000);
  const double share = rng.chance(0.3) ? rng.uniform(0.05, 0.3) : 0.0;
  if (share > 0) {
    options.execution.fails = [share](const sim::TaskSpec& task, int node) {
      return injected_failure(task, node, share);
    };
  }
  options.max_allocations = rng.chance(0.5) ? 0 : 1 + rng.below(20);
  const int spare_nodes = static_cast<int>(rng.below(8));
  const double queue_wait = rng.chance(0.3) ? 0.0 : rng.uniform(60, 3600);
  out.machine = quiet_machine(options.execution.nodes + spare_nodes, queue_wait);
  out.description =
      "seed " + std::to_string(seed) + ": " + std::to_string(out.tasks.size()) +
      " runs, sigma " + std::to_string(model.sigma) + ", stragglers " +
      std::to_string(model.straggler_fraction) + ", " +
      (options.backend == Backend::Pilot ? "pilot" : "sets") + ", " +
      std::to_string(options.execution.nodes) + " nodes, walltime " +
      std::to_string(options.execution.walltime_s) + " s, failures " +
      std::to_string(share) + ", max_allocations " +
      std::to_string(options.max_allocations) + ", queue wait mean " +
      std::to_string(out.machine.queue_wait_mean_s) + " s";
  return out;
}

using QueueRunner = BatchCampaignReport (*)(sim::Simulation&, sim::BatchSystem&,
                                            const std::vector<sim::TaskSpec>&,
                                            const CampaignRunOptions&,
                                            RunTracker*);

struct QueueOutcome {
  BatchCampaignReport report;
  Json provenance;
};

QueueOutcome run_through_queue(const QueueCampaign& campaign, uint64_t seed,
                               QueueRunner runner) {
  sim::Simulation sim;
  sim::BatchSystem batch(sim, campaign.machine, seed);
  RunTracker tracker;
  QueueOutcome out;
  out.report = runner(sim, batch, campaign.tasks, campaign.options, &tracker);
  out.provenance = tracker.to_json();
  return out;
}

void expect_close(double actual, double expected, const std::string& what) {
  EXPECT_LE(std::abs(actual - expected),
            1e-9 * std::max(std::abs(actual), std::abs(expected)))
      << what << ": " << actual << " vs " << expected;
}

// The batch-queue runner is a loop over CampaignDriver::step(); across
// pilot and set backends, injected failures, lognormal and straggler
// durations, queue waits and allocation caps it does what the loop it
// replaced did. Runs now execute on the absolute clock, so recorded times
// may move in the last ulp.
TEST(BatchRunner, QueueRunnerMatchesTheLoopItReplaced) {
  for (uint64_t seed = 0; seed < 240; ++seed) {
    const QueueCampaign campaign = draw_queue_campaign(seed);
    SCOPED_TRACE(campaign.description);
    const QueueOutcome actual =
        run_through_queue(campaign, seed, &run_campaign_through_batch);
    const QueueOutcome expected =
        run_through_queue(campaign, seed, &reference_run_campaign_through_batch);
    const BatchCampaignReport& got = actual.report;
    const BatchCampaignReport& want = expected.report;
    EXPECT_EQ(got.jobs_submitted, want.jobs_submitted);
    EXPECT_EQ(got.inner.allocations_used, want.inner.allocations_used);
    EXPECT_EQ(got.inner.completed_runs, want.inner.completed_runs);
    EXPECT_EQ(got.inner.remaining_runs, want.inner.remaining_runs);
    EXPECT_TRUE(got.inner.exhausted.empty());
    expect_close(got.total_wall_s, want.total_wall_s, "total wall");
    expect_close(got.total_queue_wait_s, want.total_queue_wait_s, "queue wait");
    expect_close(got.inner.total_node_seconds, want.inner.total_node_seconds,
                 "node seconds");
    expect_close(got.inner.total_busy_node_seconds,
                 want.inner.total_busy_node_seconds, "busy node seconds");

    EXPECT_EQ(actual.provenance.size(), expected.provenance.size());
    for (const auto& [id, want_run] : expected.provenance.as_object()) {
      const Json& got_run = actual.provenance[id];
      EXPECT_EQ(got_run["state"].as_string(), want_run["state"].as_string())
          << id << ": " << got_run.dump() << " vs " << want_run.dump();
      EXPECT_EQ(got_run["attempts"].as_int(), want_run["attempts"].as_int())
          << id << ": " << got_run.dump() << " vs " << want_run.dump();
      const Json::Array& got_events = got_run["events"].as_array();
      const Json::Array& want_events = want_run["events"].as_array();
      EXPECT_EQ(got_events.size(), want_events.size()) << id;
      for (size_t i = 0; i < std::min(got_events.size(), want_events.size());
           ++i) {
        EXPECT_EQ(got_events[i]["kind"].as_string(),
                  want_events[i]["kind"].as_string())
            << id;
        EXPECT_EQ(got_events[i].get_or("node", int64_t{-1}),
                  want_events[i].get_or("node", int64_t{-1}))
            << id;
        expect_close(got_events[i]["time"].as_double(),
                     want_events[i]["time"].as_double(), id);
      }
    }
  }
}

// Through the queue as in batch, a retry budget turns an always-killed run
// into a terminal `exhausted` after its budget of jobs, and a backoff wait
// inside a step is paid by that allocation.
TEST(BatchRunner, RetryBudgetExhaustsAnAlwaysKilledRunThroughTheQueue) {
  for (const double backoff : {0.0, 100.0}) {
    SCOPED_TRACE("backoff " + std::to_string(backoff));
    sim::Simulation sim;
    sim::BatchSystem batch(sim, quiet_machine(2), 1);
    CampaignRunOptions options;
    options.execution.nodes = 1;
    options.execution.walltime_s = 5;  // the run needs 10
    options.retry.max_attempts = 2;
    options.retry.base_backoff_s = backoff;
    RunTracker tracker;
    const auto report = run_campaign_through_batch(
        sim, batch, uniform_tasks(1, 10), options, &tracker);
    EXPECT_EQ(report.jobs_submitted, 2u);
    EXPECT_EQ(report.inner.allocations_used, 2u);
    EXPECT_EQ(report.inner.exhausted, std::vector<std::string>{"t0"});
    EXPECT_EQ(report.inner.remaining_runs, 0u);
    EXPECT_EQ(tracker.status("t0").state, "exhausted");
    EXPECT_EQ(tracker.attempts("t0"), 2u);
    // The second job starts when the first ends (5 s), waits out the
    // backoff, then holds its node to the walltime.
    const Json events = tracker.to_json()["t0"]["events"];
    EXPECT_DOUBLE_EQ(events[size_t{2}]["time"].as_double(), 5 + backoff);
    EXPECT_DOUBLE_EQ(report.total_wall_s, 10 + backoff);
  }
}

}  // namespace
}  // namespace ff::savanna
