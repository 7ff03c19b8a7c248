#include "bench.hpp"

#include <filesystem>

#include "cheetah/campaign.hpp"
#include "cheetah/endpoint.hpp"
#include "savanna/campaign_runner.hpp"
#include "service/core.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace perfbench {

void Result::note(const std::string& name, double value, const std::string& unit) {
  ff::Json entry = ff::Json::object();
  entry["value"] = value;
  entry["unit"] = unit;
  detail[name] = std::move(entry);
}

void Result::note_median(const std::string& name, const std::vector<double>& samples,
                         double scale, const std::string& unit) {
  ff::Json entry = ff::Json::object();
  entry["value"] = median(samples) * scale;
  entry["unit"] = unit;
  entry["percentile"] = "p50";
  entry["samples"] = static_cast<int64_t>(samples.size());
  detail[name] = std::move(entry);
}

void Result::note_tail(const std::string& name, const Tail& tail, double scale,
                       const std::string& unit) {
  ff::Json entry = ff::Json::object();
  entry["value"] = tail.value * scale;
  entry["unit"] = unit;
  entry["percentile"] = tail.name();
  entry["samples"] = static_cast<int64_t>(tail.samples);
  entry["beyond"] = static_cast<int64_t>(tail.beyond);
  if (!tail.sufficient) entry["too_few_samples"] = true;
  detail[name] = std::move(entry);
}

void Result::fail(const std::string& why) {
  ++failed;
  if (problems.size() < 8) problems.push_back(why);
}

bool fully_done(const ff::Json& campaign) {
  if (!campaign.is_object() || campaign.get_or("state", "") != "done") return false;
  const ff::Json& counts = campaign["counts"];
  return counts.get_or("done", int64_t{-1}) == counts.get_or("total", int64_t{-2}) &&
         counts.get_or("never_started", int64_t{1}) == 0;
}

void remove_tree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

std::string batch_parity(const ff::Json& submit, const std::string& daemon_journal,
                         const std::string& scratch_root) {
  using namespace ff;
  const service::CampaignConfig config = service::campaign_config_from_request(submit);
  const cheetah::Campaign campaign = cheetah::Campaign::from_json(config.manifest);
  const cheetah::SweepGroup& group = campaign.groups().front();
  std::filesystem::create_directories(scratch_root);
  cheetah::CampaignEndpoint::CreateOptions create;
  create.sparse_above_runs = savanna::kInlineRunListMax;
  cheetah::CampaignEndpoint endpoint =
      cheetah::CampaignEndpoint::create(campaign, scratch_root, create);

  std::vector<sim::TaskSpec> tasks;
  std::vector<std::string> run_ids;
  savanna::RunSetDigest digest;
  group.for_each_run([&](const cheetah::RunSpec& run) {
    sim::TaskSpec task;
    task.id = run.id;
    digest.add(run.id);
    run_ids.push_back(run.id);
    tasks.push_back(std::move(task));
  });
  Rng rng(config.duration_seed);
  for (sim::TaskSpec& task : tasks) task.duration_s = config.durations.sample(rng);

  savanna::CampaignRunOptions options;
  options.execution.nodes = group.nodes();
  options.execution.walltime_s = group.walltime_s();
  options.retry = config.retry;
  options.journal = config.journal;
  sim::Simulation sim;
  savanna::RunTracker tracker;
  savanna::CampaignJournal journal;
  if (run_ids.size() <= savanna::kInlineRunListMax) {
    journal = savanna::CampaignJournal::create(endpoint.journal_path(),
                                               campaign.name(), run_ids);
  } else {
    savanna::CampaignJournal::RunSetSummary run_set;
    run_set.count = digest.count();
    run_set.digest = digest.hex();
    journal = savanna::CampaignJournal::create(endpoint.journal_path(),
                                               campaign.name(), run_set);
  }
  savanna::run_with_resubmission(sim, tasks, options, &tracker, &journal);
  journal.close();

  std::string expected;
  std::string actual;
  try {
    expected = read_file(endpoint.journal_path());
    actual = read_file(daemon_journal);
  } catch (const std::exception& error) {
    return std::string("journal unreadable: ") + error.what();
  }
  if (expected != actual) {
    return "journal of '" + campaign.name() + "' differs from the batch path (" +
           std::to_string(actual.size()) + " vs " +
           std::to_string(expected.size()) + " bytes)";
  }
  return "";
}

}  // namespace perfbench
