#include "savanna/batch_runner.hpp"

#include <cmath>
#include <functional>

#include "util/error.hpp"

namespace ff::savanna {

BatchCampaignReport run_campaign_through_batch(sim::Simulation& sim,
                                               sim::BatchSystem& batch,
                                               const std::vector<sim::TaskSpec>& tasks,
                                               const CampaignRunOptions& options,
                                               RunTracker* tracker) {
  if (!std::isfinite(options.execution.walltime_s)) {
    throw Error("run_campaign_through_batch: walltime must be finite");
  }
  // The runs execute on a clock of their own, which each allocation
  // advances to its start on the batch clock; the batch clock is then
  // charged what the allocation's step advanced it (a backoff wait
  // included), so queue waits and compute interleave on one timeline.
  sim::Simulation inner;
  CampaignDriver driver(inner, tasks, options, tracker);
  BatchCampaignReport report;
  const double first_submit_time = sim.now();
  double last_completion_time = first_submit_time;

  std::function<void()> submit = [&] {
    sim::BatchSystem::JobRequest request;
    request.name = "campaign-alloc-" + std::to_string(report.jobs_submitted);
    request.nodes = options.execution.nodes;
    request.walltime_s = options.execution.walltime_s;
    const double submitted_at = sim.now();
    request.on_start = [&, submitted_at](const sim::Allocation& allocation) {
      report.total_queue_wait_s += allocation.start_time - submitted_at;
      inner.run_until(allocation.start_time);
      const bool more = driver.step_into(report.inner);
      const double used = inner.now() - allocation.start_time;
      sim.schedule_after(used, [&, allocation, more] {
        last_completion_time = sim.now();
        batch.complete(allocation);
        if (more) submit();
      });
    };
    ++report.jobs_submitted;
    batch.submit(std::move(request));
  };
  if (driver.remaining() > 0) submit();
  sim.run();
  report.inner.remaining_runs = driver.remaining();
  report.total_wall_s = last_completion_time - first_submit_time;
  return report;
}

}  // namespace ff::savanna
