// Clock-free complexity guard (ctest -L complexity): the work of one
// allocation is counted, not timed, so the check holds on any host. A
// CampaignDriver step must visit about the runs it launches, whatever the
// campaign's size: campaigns of 10^3, 10^4 and 10^5 runs with the same
// allocation footprint must walk the same number of pending entries per
// step, within 2x.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "savanna/campaign_runner.hpp"

namespace ff::savanna {
namespace {

constexpr size_t kSteps = 4;

struct StepCounts {
  size_t min_walked = static_cast<size_t>(-1);
  size_t max_walked = 0;
};

/// The first kSteps allocations of a `runs`-run campaign on the footprint
/// perfbench's mega_campaign uses: 16 nodes, 3600 s walltime, no stragglers.
StepCounts first_steps(size_t runs) {
  sim::DurationModel model;
  model.straggler_fraction = 0;
  const std::vector<sim::TaskSpec> tasks = sim::make_ensemble(runs, model, 7);
  CampaignRunOptions options;
  options.execution.nodes = 16;
  options.execution.walltime_s = 3600;
  sim::Simulation sim;
  RunTracker tracker;
  CampaignDriver driver(sim, tasks, options, &tracker);
  StepCounts out;
  for (size_t k = 0; k < kSteps; ++k) {
    const CampaignDriver::Step step = driver.step();
    size_t launched = 0;
    for (const auto& intervals : step.report.node_timeline) {
      launched += intervals.size();
    }
    // Nothing is backing off here, so the walk is exactly the launches.
    EXPECT_EQ(step.walked, launched) << runs << " runs, step " << k;
    out.min_walked = std::min(out.min_walked, step.walked);
    out.max_walked = std::max(out.max_walked, step.walked);
  }
  return out;
}

TEST(CampaignDriverComplexity, StepWalksTheSameEntriesAtAnyCampaignSize) {
  size_t low = static_cast<size_t>(-1);
  size_t high = 0;
  std::string summary;
  for (const size_t runs : {size_t{1000}, size_t{10000}, size_t{100000}}) {
    const StepCounts counts = first_steps(runs);
    summary += std::to_string(runs) + " runs: " +
               std::to_string(counts.min_walked) + ".." +
               std::to_string(counts.max_walked) + " entries per step\n";
    low = std::min(low, counts.min_walked);
    high = std::max(high, counts.max_walked);
  }
  ASSERT_GT(low, 0u) << summary;
  EXPECT_LE(high, 2 * low) << summary;
}

}  // namespace
}  // namespace ff::savanna
