#pragma once

#include "cluster/batch.hpp"
#include "savanna/campaign_runner.hpp"

namespace ff::savanna {

/// End-to-end execution through the batch system: each (re-)submission is
/// a real batch job that waits in the queue before its allocation starts.
/// This is the full user experience the paper's baseline suffers — queue
/// wait × number of submissions — and what Savanna amortizes by finishing
/// more work per allocation.
struct BatchCampaignReport {
  CampaignRunResult inner;        // per-allocation execution results
  double total_wall_s = 0;        // submit of first job -> last completion
  double total_queue_wait_s = 0;  // sum of per-job queue waits
  size_t jobs_submitted = 0;
};

/// Run `tasks` on `batch` the way run_with_resubmission runs them: one
/// CampaignDriver step per batch job, re-submitting the remainder after
/// each allocation ends for as long as the driver goes on (runs remain, no
/// zero-progress break, `options.max_allocations` not reached), with
/// `options.retry` applied. The runs execute on an inner virtual clock
/// that each allocation advances to its start; the outer simulation is
/// charged what the step advanced it, so queue waits and compute
/// interleave correctly on one timeline.
BatchCampaignReport run_campaign_through_batch(sim::Simulation& sim,
                                               sim::BatchSystem& batch,
                                               const std::vector<sim::TaskSpec>& tasks,
                                               const CampaignRunOptions& options,
                                               RunTracker* tracker = nullptr);

}  // namespace ff::savanna
