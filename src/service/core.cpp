#include "service/core.hpp"

#include <algorithm>
#include <utility>

#include "cheetah/campaign.hpp"
#include "obs/trace.hpp"
#include "savanna/journal.hpp"
#include "service/stream.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace ff::service {

namespace {

/// Service events the `trace` command can return.
constexpr size_t kTraceTail = 256;

void apply_duration(CampaignConfig& config, const Json& duration) {
  sim::DurationModel& model = config.durations;
  model.median_s = duration.get_or("median_s", model.median_s);
  model.sigma = duration.get_or("sigma", model.sigma);
  model.straggler_fraction =
      duration.get_or("straggler_fraction", model.straggler_fraction);
  model.straggler_scale =
      duration.get_or("straggler_scale", model.straggler_scale);
  model.straggler_alpha =
      duration.get_or("straggler_alpha", model.straggler_alpha);
  config.duration_seed = static_cast<uint64_t>(
      duration.get_or("seed", static_cast<int64_t>(config.duration_seed)));
  if (model.median_s <= 0) {
    throw ValidationError("submit: duration.median_s must be positive");
  }
}

void apply_execution(CampaignConfig& config, const Json& execution) {
  if (execution.contains("nodes")) {
    const int64_t nodes = execution["nodes"].as_int();
    if (nodes <= 0) throw ValidationError("submit: execution.nodes must be positive");
    config.nodes = nodes;
  }
  if (execution.contains("walltime_s")) {
    const double walltime_s = execution["walltime_s"].as_double();
    if (walltime_s <= 0) {
      throw ValidationError("submit: execution.walltime_s must be positive");
    }
    config.walltime_s = walltime_s;
  }
}

void apply_retry(CampaignConfig& config, const Json& retry) {
  savanna::RetryPolicy& policy = config.retry;
  policy.max_attempts = static_cast<size_t>(
      retry.get_or("max_attempts", static_cast<int64_t>(policy.max_attempts)));
  policy.base_backoff_s = retry.get_or("base_backoff_s", policy.base_backoff_s);
  policy.growth = retry.get_or("growth", policy.growth);
  policy.max_backoff_s = retry.get_or("max_backoff_s", policy.max_backoff_s);
}

void apply_journal(CampaignConfig& config, const Json& journal) {
  savanna::JournalPolicy& policy = config.journal;
  policy.checkpoint_every = static_cast<size_t>(journal.get_or(
      "checkpoint_every", static_cast<int64_t>(policy.checkpoint_every)));
  policy.compact_after_checkpoint = journal.get_or(
      "compact_after_checkpoint", policy.compact_after_checkpoint);
  const int64_t group_commit = journal.get_or(
      "group_commit", static_cast<int64_t>(policy.group_commit));
  if (group_commit < 1) {
    throw ValidationError("submit: journal.group_commit must be >= 1");
  }
  policy.group_commit = static_cast<size_t>(group_commit);
}

/// The knobs submit() accepted, persisted to .campaign/service.json so a
/// restarted daemon can resume the campaign with the *same* task durations
/// and policies (the journal records what ran; this records how to rebuild
/// the task list that byte-matches it).
Json config_sidecar(const CampaignConfig& config) {
  Json out = Json::object();
  out["group"] = config.group;
  Json duration = Json::object();
  duration["median_s"] = config.durations.median_s;
  duration["sigma"] = config.durations.sigma;
  duration["straggler_fraction"] = config.durations.straggler_fraction;
  duration["straggler_scale"] = config.durations.straggler_scale;
  duration["straggler_alpha"] = config.durations.straggler_alpha;
  duration["seed"] = static_cast<int64_t>(config.duration_seed);
  out["duration"] = std::move(duration);
  Json execution = Json::object();
  if (config.nodes) execution["nodes"] = *config.nodes;
  if (config.walltime_s) execution["walltime_s"] = *config.walltime_s;
  out["execution"] = std::move(execution);
  Json retry = Json::object();
  retry["max_attempts"] = static_cast<int64_t>(config.retry.max_attempts);
  retry["base_backoff_s"] = config.retry.base_backoff_s;
  retry["growth"] = config.retry.growth;
  retry["max_backoff_s"] = config.retry.max_backoff_s;
  out["retry"] = std::move(retry);
  Json journal = Json::object();
  journal["checkpoint_every"] =
      static_cast<int64_t>(config.journal.checkpoint_every);
  journal["compact_after_checkpoint"] = config.journal.compact_after_checkpoint;
  journal["group_commit"] = static_cast<int64_t>(config.journal.group_commit);
  out["journal"] = std::move(journal);
  return out;
}

/// A fresh journal whose header registers `tasks` as the run set: ids
/// inlined up to kInlineRunListMax, count + streaming digest beyond, so a
/// 10^6-run submit never copies its id list.
savanna::CampaignJournal create_journal(const std::string& path,
                                        const std::string& name,
                                        const std::vector<sim::TaskSpec>& tasks) {
  if (tasks.size() <= savanna::kInlineRunListMax) {
    std::vector<std::string> run_ids;
    run_ids.reserve(tasks.size());
    for (const sim::TaskSpec& task : tasks) run_ids.push_back(task.id);
    return savanna::CampaignJournal::create(path, name, run_ids);
  }
  savanna::RunSetDigest digest;
  for (const sim::TaskSpec& task : tasks) digest.add(task.id);
  return savanna::CampaignJournal::create(
      path, name,
      savanna::CampaignJournal::RunSetSummary{digest.count(), digest.hex()});
}

}  // namespace

CampaignConfig campaign_config_from_request(const Json& request) {
  CampaignConfig config;
  if (!request.contains("manifest") || !request["manifest"].is_object()) {
    throw ValidationError("submit: \"manifest\" object is required");
  }
  config.manifest = request["manifest"];
  config.group = request.get_or("group", "");
  if (request.contains("duration")) apply_duration(config, request["duration"]);
  if (request.contains("execution")) apply_execution(config, request["execution"]);
  if (request.contains("retry")) apply_retry(config, request["retry"]);
  if (request.contains("journal")) apply_journal(config, request["journal"]);
  return config;
}

Json CampaignInfo::to_json() const {
  Json out = Json::object();
  out["campaign"] = name;
  out["state"] = state;
  out["directory"] = directory;
  out["owner"] = owner;
  out["runs"] = static_cast<int64_t>(run_count);
  out["allocations"] = static_cast<int64_t>(allocations);
  Json count_json = Json::object();
  count_json["total"] = static_cast<int64_t>(counts.total);
  count_json["done"] = static_cast<int64_t>(counts.done);
  count_json["failed"] = static_cast<int64_t>(counts.failed);
  count_json["killed"] = static_cast<int64_t>(counts.killed);
  count_json["exhausted"] = static_cast<int64_t>(counts.exhausted);
  count_json["never_started"] = static_cast<int64_t>(counts.never_started);
  out["counts"] = std::move(count_json);
  if (!error.empty()) out["error"] = error;
  return out;
}

/// One multiplexed campaign: endpoint + deterministic task list + the
/// persistent simulation/tracker/journal its slices accumulate into, and
/// the driver that steps it one allocation per slice. A campaign without
/// an open journal (adopted from disk, or whose journal closed on a
/// failure) is rebuilt from that journal by its next slice, once, and runs
/// in memory from then on — byte-identical either way (the runner's resume
/// equivalence).
struct ServiceCore::CampaignState {
  /// The one builder, for submit and adoption alike: walk the chosen group
  /// lazily into the task list (a RunSpec lives only for its loop turn, so
  /// a 10^6-run manifest never materializes its RunSpec vector), sample
  /// durations with the campaign's seed — the determinism that makes
  /// service and batch executions byte-identical — and fix the run options.
  /// Throws ValidationError without sweep groups, NotFoundError for an
  /// unknown `config.group`.
  CampaignState(const cheetah::Campaign& campaign, const CampaignConfig& config)
      : name(campaign.name()) {
    if (campaign.groups().empty()) {
      throw ValidationError("campaign '" + name + "' has no sweep groups");
    }
    const cheetah::SweepGroup& group = campaign.group(
        config.group.empty() ? campaign.groups().front().name() : config.group);
    tasks.reserve(group.run_count());
    group.for_each_run([&](const cheetah::RunSpec& run) {
      sim::TaskSpec task;
      task.id = run.id;
      tasks.push_back(std::move(task));
    });
    Rng rng(config.duration_seed);
    for (sim::TaskSpec& task : tasks) {
      task.duration_s = config.durations.sample(rng);
    }
    options.backend = config.backend;
    options.retry = config.retry;
    options.journal = config.journal;
    options.execution.nodes =
        config.nodes ? static_cast<int>(*config.nodes) : group.nodes();
    options.execution.walltime_s =
        config.walltime_s ? *config.walltime_s : group.walltime_s();
  }

  std::string name;
  std::string owner;  // "" when adopted: no live session owns it
  std::optional<cheetah::CampaignEndpoint> endpoint;
  std::vector<sim::TaskSpec> tasks;
  savanna::CampaignRunOptions options;
  std::unique_ptr<sim::Simulation> sim = std::make_unique<sim::Simulation>();
  std::unique_ptr<savanna::RunTracker> tracker =
      std::make_unique<savanna::RunTracker>();
  savanna::CampaignJournal journal;
  // Built by the first slice (after recovery for an adopted campaign);
  // declared after what it references, so it is destroyed first.
  std::optional<savanna::CampaignDriver> driver;
  std::string state = "queued";
  size_t allocations = 0;
  std::string error;
  bool in_flight = false;
  bool cancel_requested = false;
  size_t last_terminal_runs = 0;  // done+exhausted after the previous slice
  size_t last_attempts = 0;       // total attempts after the previous slice
  // Counts as of the moment the current slice was granted. While in_flight,
  // the slice thread owns sim/tracker/journal off-lock (a recovering slice
  // even replaces the tracker), so status/list must read this snapshot
  // instead of touching the live tracker. Without a driver, the tracker is
  // empty or, after a failed slice, holds what the journal lost: the
  // snapshot then keeps the failed slice's grant until a recovering slice
  // rebuilds the tracker. Every slice ends with a flush, and a failed one
  // drops its unwritten records, so unless the slice failed after its
  // allocation was committed (in a checkpoint, say) the journal holds
  // exactly those counts.
  savanna::RunTracker::Counts counts_snapshot;
  bool tracker_current() const { return !in_flight && driver.has_value(); }

  CampaignInfo to_info() const {
    CampaignInfo info;
    info.name = name;
    info.state = state;
    info.directory = endpoint ? endpoint->directory() : "";
    info.owner = owner;
    info.run_count = tasks.size();
    info.allocations = allocations;
    info.counts = tracker_current() ? tracker->counts() : counts_snapshot;
    info.error = error;
    return info;
  }
};

ServiceCore::ServiceCore(Options options)
    : options_(std::move(options)),
      pool_(options_.workers > 0 ? options_.workers : 1) {
  if (options_.root.empty()) {
    throw ValidationError("service: a campaign root directory is required");
  }
  if (options_.workers == 0) options_.workers = 1;
}

ServiceCore::~ServiceCore() { stop(); }

std::string ServiceCore::submit(const CampaignConfig& config,
                                const std::string& session) {
  cheetah::Campaign campaign = cheetah::Campaign::from_json(config.manifest);
  const std::string name = campaign.name();
  if (name.empty()) throw ValidationError("submit: manifest has no name");

  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) throw StateError("service: shutting down");
  if (campaigns_.count(name)) {
    throw StateError("service: campaign '" + name + "' already exists");
  }
  size_t owned = 0;
  for (const auto& [_, existing] : campaigns_) {
    if (existing->owner == session) ++owned;
  }
  if (owned >= options_.max_campaigns_per_session) {
    throw QuotaError("service: session '" + session + "' reached its quota of " +
                     std::to_string(options_.max_campaigns_per_session) +
                     " campaigns");
  }

  // Lint-then-create: error findings throw before any directory exists, so
  // a rejected submission leaves no trace on disk. The rule run goes
  // through the shared workspace analyzer — resubmitting an already-vetted
  // manifest is a digest hit, and `fairflow-ctl lint` sees the same cache.
  const std::string manifest_file =
      options_.root + "/" + name + "/.campaign/manifest.json";
  const lint::LintReport preflight =
      analyzer_.lint_manifest_cached(campaign.to_json(), manifest_file);
  if (preflight.has_errors()) {
    throw ValidationError("campaign '" + name +
                          "' failed its preflight lint — nothing was "
                          "created:\n" +
                          preflight.render_text());
  }
  auto state = std::make_unique<CampaignState>(campaign, config);
  state->owner = session;
  cheetah::CampaignEndpoint::CreateOptions create_options;
  create_options.lint = false;  // the analyzer just did it
  create_options.sparse_above_runs = options_.sparse_endpoint_runs;
  state->endpoint.emplace(
      cheetah::CampaignEndpoint::create(campaign, options_.root, create_options));
  state->journal =
      create_journal(state->endpoint->journal_path(), name, state->tasks);
  write_file_atomic(state->endpoint->directory() + "/.campaign/service.json",
                    config_sidecar(config).pretty() + "\n");

  const size_t runs = state->tasks.size();
  campaigns_.emplace(name, std::move(state));
  emit_locked("service.campaign.submit",
              {{"campaign", name},
               {"runs", static_cast<int64_t>(runs)},
               {"session", session}});
  enqueue_locked(name);
  pump_locked();
  return name;
}

CampaignInfo ServiceCore::info(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = campaigns_.find(name);
  if (it == campaigns_.end()) {
    throw NotFoundError("service: no campaign '" + name + "'");
  }
  return it->second->to_info();
}

std::vector<CampaignInfo> ServiceCore::list() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CampaignInfo> infos;
  infos.reserve(campaigns_.size());
  for (const auto& [_, campaign] : campaigns_) {
    infos.push_back(campaign->to_info());
  }
  return infos;  // map order: sorted by campaign name
}

bool ServiceCore::cancel(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = campaigns_.find(name);
  if (it == campaigns_.end()) {
    throw NotFoundError("service: no campaign '" + name + "'");
  }
  CampaignState& campaign = *it->second;
  if (campaign.state == "done" || campaign.state == "cancelled" ||
      campaign.state == "failed") {
    return false;
  }
  if (campaign.in_flight) {
    // The in-flight slice finishes its allocation (the journal commit
    // point), then parks the campaign instead of re-queueing it.
    campaign.cancel_requested = true;
    return true;
  }
  for (auto queued = round_robin_.begin(); queued != round_robin_.end();) {
    queued = *queued == name ? round_robin_.erase(queued) : queued + 1;
  }
  set_state_locked(campaign, "cancelled");
  idle_cv_.notify_all();
  return true;
}

void ServiceCore::resume(const std::string& name) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) throw StateError("service: shutting down");
  auto it = campaigns_.find(name);
  if (it != campaigns_.end()) {
    CampaignState& campaign = *it->second;
    if (campaign.state == "queued" || campaign.state == "running") {
      throw StateError("service: campaign '" + name + "' is already scheduled");
    }
    if (campaign.state == "done") {
      throw StateError("service: campaign '" + name + "' already finished");
    }
    campaign.error.clear();
    set_state_locked(campaign, "queued");
    enqueue_locked(name);
    pump_locked();
    return;
  }

  // Adopt a campaign this process never saw: its manifest plus the
  // service.json sidecar, parsed like a submit request, rebuild the
  // deterministic task list; the first slice replays the on-disk journal
  // and continues exactly where the previous daemon stopped.
  cheetah::CampaignEndpoint endpoint =
      cheetah::CampaignEndpoint::open(options_.root, name);
  const cheetah::Campaign campaign = endpoint.campaign();
  Json request =
      Json::parse_file(endpoint.directory() + "/.campaign/service.json");
  request["manifest"] = campaign.to_json();
  auto state = std::make_unique<CampaignState>(
      campaign, campaign_config_from_request(request));
  state->endpoint.emplace(std::move(endpoint));
  campaigns_.emplace(name, std::move(state));
  enqueue_locked(name);
  pump_locked();
}

void ServiceCore::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] {
    return stopping_ || (slices_in_flight_ == 0 && round_robin_.empty());
  });
}

void ServiceCore::stop() {
  std::unique_lock<std::mutex> lock(mutex_);
  stopping_ = true;
  idle_cv_.notify_all();
  idle_cv_.wait(lock, [this] { return slices_in_flight_ == 0; });
}

Json ServiceCore::lint_workspace(const std::string& root, bool werror) {
  std::error_code probe;
  if (!std::filesystem::is_directory(root, probe)) {
    throw NotFoundError("service: no workspace directory '" + root + "'");
  }
  // Same cache file (and tolerant I/O) as the CLI, so daemon and CLI runs
  // warm each other's digest cache.
  const std::string cache_file =
      (std::filesystem::path(root) / ".fairflow-lint-cache.json").string();
  analyzer_.load_cache(cache_file);
  lint::WorkspaceStats stats;
  lint::LintReport report = analyzer_.analyze(root, &stats);
  try {
    analyzer_.save_cache(cache_file);
  } catch (const IoError&) {
    // read-only workspace: findings still flow, just uncached next time
  }
  if (werror) report.promote_warnings();
  report.sort();

  Json diagnostics = Json::array();
  for (const lint::Diagnostic& diagnostic : report.diagnostics()) {
    diagnostics.push_back(diagnostic.to_json());
  }
  Json out = Json::object();
  out["workspace"] = root;
  out["diagnostics"] = std::move(diagnostics);
  out["errors"] =
      static_cast<int64_t>(report.count(lint::Severity::Error));
  out["warnings"] =
      static_cast<int64_t>(report.count(lint::Severity::Warning));
  out["notes"] = static_cast<int64_t>(report.count(lint::Severity::Note));
  out["artifacts"] = static_cast<int64_t>(stats.artifacts);
  out["reparsed"] = static_cast<int64_t>(stats.reparsed);
  out["cached"] = static_cast<int64_t>(stats.cached);
  return out;
}

std::vector<Json> ServiceCore::trace_tail(size_t count) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t n = std::min(count, events_.size());
  return std::vector<Json>(events_.end() - static_cast<ptrdiff_t>(n),
                           events_.end());
}

void ServiceCore::enqueue_locked(const std::string& name) {
  round_robin_.push_back(name);
}

void ServiceCore::pump_locked() {
  while (!stopping_ && slices_in_flight_ < options_.workers &&
         !round_robin_.empty()) {
    const std::string name = round_robin_.front();
    round_robin_.pop_front();
    auto it = campaigns_.find(name);
    if (it == campaigns_.end() || it->second->in_flight) continue;
    if (it->second->tracker_current()) {
      it->second->counts_snapshot = it->second->tracker->counts();
    }
    it->second->in_flight = true;
    ++slices_in_flight_;
    pool_.post([this, name] { run_slice(name); });
  }
}

void ServiceCore::run_slice(const std::string& name) {
  CampaignState* campaign = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    campaign = campaigns_.at(name).get();
    if (campaign->state != "running") set_state_locked(*campaign, "running");
  }

  // One allocation grant. Outside the lock: the slice touches only this
  // campaign's state, and in_flight guarantees exclusivity.
  bool allocated = false;
  std::string failure;
  // Attribute this thread's savanna.* trace events (which carry no campaign
  // arg of their own) to this campaign for subscribe streaming.
  CampaignScope stream_scope(name);
  try {
    if (!campaign->journal.is_open()) {
      // Adopted, or the journal closed on a failure: rebuild simulation and
      // tracker from the journal (O(live tail) with checkpoints), once —
      // the journal stays open, so every later slice runs in memory.
      campaign->driver.reset();
      campaign->sim = std::make_unique<sim::Simulation>();
      campaign->tracker = std::make_unique<savanna::RunTracker>();
      campaign->journal = savanna::recover_campaign(
          *campaign->sim, campaign->tasks, campaign->options, *campaign->tracker,
          campaign->endpoint->journal_path(), name);
    }
    if (!campaign->driver) {
      campaign->driver.emplace(*campaign->sim, campaign->tasks,
                               campaign->options, campaign->tracker.get(),
                               &campaign->journal);
    }
    if (campaign->driver->remaining() > 0) {
      campaign->driver->step();
      allocated = true;
    }
    campaign->journal.flush();
  } catch (const std::exception& error) {
    failure = error.what();
    // The tracker may now hold what the journal lost. Close the journal
    // (quietly: the slice has already failed) and drop the driver, so the
    // next slice rebuilds the campaign from what the journal holds.
    campaign->driver.reset();
    campaign->journal = savanna::CampaignJournal();
  }

  std::lock_guard<std::mutex> lock(mutex_);
  --slices_in_flight_;
  campaign->in_flight = false;
  if (!failure.empty()) {
    campaign->error = failure;
    set_state_locked(*campaign, "failed");
  } else {
    if (allocated) ++campaign->allocations;
    emit_locked("service.slice",
                {{"campaign", name},
                 {"alloc", static_cast<int64_t>(campaign->allocations)}});

    const auto counts = campaign->tracker->counts();
    const size_t terminal = counts.done + counts.exhausted;
    const size_t attempts = campaign->tracker->total_attempts();
    const bool terminal_progress = terminal != campaign->last_terminal_runs;
    const bool attempted = attempts != campaign->last_attempts;
    campaign->last_terminal_runs = terminal;
    campaign->last_attempts = attempts;

    if (campaign->driver->remaining() == 0) {
      finalize_locked(*campaign);
    } else if (campaign->cancel_requested) {
      campaign->cancel_requested = false;
      set_state_locked(*campaign, "cancelled");
    } else if (!terminal_progress &&
               (!attempted || campaign->options.retry.max_attempts == 0)) {
      // The batch runner's zero-progress breaks, mirrored across slices:
      // an allocation where nothing ran, or where attempts were made but
      // nothing completed or exhausted with no retry budget to consume,
      // ends the campaign exactly where batch would end it (runs that
      // cannot fit the walltime stay Killed/Pending). Byte-parity with
      // batch depends on stopping after the *same* allocation — and
      // without this an impossible run would be re-granted forever.
      finalize_locked(*campaign);
    } else {
      enqueue_locked(name);
    }
  }
  pump_locked();
  idle_cv_.notify_all();
}

void ServiceCore::finalize_locked(CampaignState& campaign) {
  // Write execution results back into the endpoint — the batch epilogue.
  // A run that never started stays Pending (unmarked in a sparse endpoint).
  for (const sim::TaskSpec& task : campaign.tasks) {
    if (!campaign.tracker->has_run(task.id)) continue;
    const std::string state = campaign.tracker->status(task.id).state;
    if (state == "pending") continue;
    cheetah::RunState mark = cheetah::RunState::Killed;
    if (state == "done") {
      mark = cheetah::RunState::Done;
    } else if (state == "failed" || state == "exhausted") {
      mark = cheetah::RunState::Failed;
    }
    campaign.endpoint->mark(task.id, mark);
  }
  campaign.endpoint->save();
  if (campaign.journal.is_open()) {
    try {
      campaign.journal.close();  // the last durability point — may throw
    } catch (const std::exception& error) {
      campaign.error = std::string("journal close failed: ") + error.what();
      set_state_locked(campaign, "failed");
      return;
    }
  }
  set_state_locked(campaign, "done");
}

void ServiceCore::set_state_locked(CampaignState& campaign,
                                   const std::string& state) {
  campaign.state = state;
  emit_locked("service.campaign.state",
              {{"campaign", campaign.name}, {"state", state}});
}

void ServiceCore::emit(const char* name, std::initializer_list<obs::Arg> args) {
  std::lock_guard<std::mutex> lock(mutex_);
  emit_locked(name, args);
}

void ServiceCore::emit_locked(const char* name,
                              std::initializer_list<obs::Arg> args) {
  obs::trace_instant("service", name, args);
  events_.push_back(event_json(name, args.begin(), args.size()));
  if (events_.size() > kTraceTail) events_.pop_front();
}

}  // namespace ff::service
