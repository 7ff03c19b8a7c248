// The traced run. Each workload's generated operations are replayed
// in-process with spans (the benchmark's own SpanRecorder, not the
// program's obs::TraceRecorder) around the public calls of each layer:
//
//  - service pass: every request as a frame through service::encode_frame /
//    decode_frame and Dispatcher::handle, with ServiceCore::drain between;
//  - decomposed pass: the same submits as the sequence of lower-layer calls
//    ServiceCore::submit makes, the same allocations as
//    run_with_resubmission(max_allocations = 1) calls.
//
// Core self time is the service pass minus the decomposed pass. Tracing
// overhead: the stream plane's phase A also runs with the recorder
// disabled, and the difference is its overhead (its consumers time every
// delivery). The service replays record only spans, so their overhead is
// the spans recorded times the cost of one span, measured in the same run,
// over the traced wall time. Every traced run replays all three workloads,
// so every per-layer metric is measured in every traced run;
// perfbench/README.md says which replay each metric comes from.

#include <atomic>
#include <filesystem>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "cheetah/campaign.hpp"
#include "cheetah/endpoint.hpp"
#include "generate.hpp"
#include "gwas/workflow.hpp"
#include "savanna/campaign_runner.hpp"
#include "service/core.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "stream/pipeline.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

using ff::Json;

constexpr uint64_t kChurnCampaigns = 24;
constexpr size_t kStatusSamples = 400;
constexpr uint64_t kStreamRecords = 40000;
constexpr int kStreamRounds = 3;
constexpr size_t kQueues = 8;
constexpr double kPhaseBSeconds = 2.0;
constexpr double kPhaseBRate = 2000;
/// Allocations of the mega campaign re-appended to a fresh journal (four
/// checkpoint + compaction cycles at the campaign's cadence of 16).
constexpr size_t kJournalReplayAllocations = 64;

double ms(double seconds) { return seconds * 1e3; }
double us(double seconds) { return seconds * 1e6; }

double sum(const std::vector<double>& values) {
  double total = 0;
  for (double value : values) total += value;
  return total;
}

std::unique_ptr<ff::service::ServiceCore> make_core(const std::string& root) {
  std::filesystem::create_directories(root);
  auto core = std::make_unique<ff::service::ServiceCore>(
      ff::service::ServiceCore::Options{.root = root});
  core->analyzer().engine.register_model({"gwas-paste",
                                          ff::gwas::paste_model_schema(),
                                          ff::gwas::make_paste_generator()});
  return core;
}

/// One request the way the server moves it: encode, decode, handle,
/// encode the reply, decode it on the client side.
Json roundtrip(ff::service::Dispatcher::Session& session, SpanRecorder& spans,
               const Json& request, const std::string& layer) {
  std::string frame;
  Json decoded, reply, back;
  {
    Scoped span(spans, "protocol.encode");
    frame = ff::service::encode_frame(request);
  }
  {
    Scoped span(spans, "protocol.decode");
    decoded = ff::service::decode_frame(std::string_view(frame).substr(0, frame.size() - 1));
  }
  {
    Scoped span(spans, layer);
    reply = session.handle(decoded);
  }
  {
    Scoped span(spans, "protocol.encode");
    frame = ff::service::encode_frame(reply);
  }
  {
    Scoped span(spans, "protocol.decode");
    back = ff::service::decode_frame(std::string_view(frame).substr(0, frame.size() - 1));
  }
  return back;
}

/// Samples ServiceCore::info of the newest campaign from a second thread
/// every `interval` while the owning pass runs.
class InfoProbe {
 public:
  InfoProbe(ff::service::ServiceCore& core, double interval)
      : core_(core), interval_(interval), thread_([this] { loop(); }) {}
  ~InfoProbe() { stop(); }
  InfoProbe(const InfoProbe&) = delete;
  InfoProbe& operator=(const InfoProbe&) = delete;

  void watch(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    newest_ = name;
  }
  std::vector<double> stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return samples_;
  }

 private:
  void loop() {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval_));
      std::string name;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        name = newest_;
      }
      if (name.empty()) continue;
      const double start = now_s();
      try {
        core_.info(name);
      } catch (const std::exception&) {
        continue;
      }
      samples_.push_back(now_s() - start);
    }
  }

  ff::service::ServiceCore& core_;
  double interval_;
  std::mutex mutex_;
  std::string newest_;
  std::atomic<bool> stop_{false};
  std::vector<double> samples_;  // owned by the probe thread until stop()
  std::thread thread_;
};

/// What ServiceCore::submit builds for one campaign, produced by its
/// lower-layer calls one by one (each under its own span), plus the
/// allocation loop of the scheduler, one run_with_resubmission call per
/// allocation.
struct Decomposed {
  size_t allocations = 0;
  size_t endpoint_files = 0;
  ff::savanna::RunTracker::Counts counts;
  std::vector<ff::savanna::ExecutionReport> reports;
  std::vector<std::pair<double, double>> windows;  // allocation start/end
  std::vector<std::vector<std::string>> exhausted;
  std::string journal_path;
};

Decomposed decomposed_campaign(const Json& submit, const std::string& root,
                               ff::lint::WorkspaceAnalyzer& analyzer,
                               SpanRecorder& spans, bool cancel_after_first,
                               bool keep_reports) {
  using namespace ff;
  Decomposed out;
  service::CampaignConfig config;
  {
    Scoped span(spans, "session.config");
    config = service::campaign_config_from_request(submit);
  }
  std::optional<cheetah::Campaign> campaign;
  {
    Scoped span(spans, "cheetah.manifest_parse");
    campaign.emplace(cheetah::Campaign::from_json(config.manifest));
  }
  const cheetah::SweepGroup& group = campaign->groups().front();
  const std::string name = campaign->name();
  {
    Scoped span(spans, "lint.preflight");
    const lint::LintReport report = analyzer.lint_manifest_cached(
        campaign->to_json(), root + "/" + name + "/.campaign/manifest.json");
    if (report.has_errors()) throw ValidationError("preflight rejected " + name);
  }
  std::optional<cheetah::CampaignEndpoint> endpoint;
  {
    Scoped span(spans, "cheetah.endpoint_create");
    cheetah::CampaignEndpoint::CreateOptions create;
    create.lint = false;
    create.sparse_above_runs = savanna::kInlineRunListMax;
    endpoint.emplace(cheetah::CampaignEndpoint::create(*campaign, root, create));
  }
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(endpoint->directory())) {
    if (entry.is_regular_file()) ++out.endpoint_files;
  }
  const size_t total_runs = group.run_count();
  const bool keep_ids = total_runs <= savanna::kInlineRunListMax;
  std::vector<sim::TaskSpec> tasks;
  std::vector<std::string> run_ids;
  savanna::RunSetDigest digest;
  {
    Scoped span(spans, "cheetah.sweep_walk");
    tasks.reserve(total_runs);
    group.for_each_run([&](const cheetah::RunSpec& run) {
      digest.add(run.id);
      if (keep_ids) run_ids.push_back(run.id);
      sim::TaskSpec task;
      task.id = run.id;
      tasks.push_back(std::move(task));
    });
  }
  {
    Scoped span(spans, "core.task_setup");
    Rng rng(config.duration_seed);
    for (sim::TaskSpec& task : tasks) task.duration_s = config.durations.sample(rng);
  }
  savanna::CampaignRunOptions options;
  options.retry = config.retry;
  options.journal = config.journal;
  options.execution.nodes = group.nodes();
  options.execution.walltime_s = group.walltime_s();
  savanna::CampaignJournal journal;
  out.journal_path = endpoint->journal_path();
  {
    Scoped span(spans, "savanna.journal_create");
    if (keep_ids) {
      journal = savanna::CampaignJournal::create(out.journal_path, name, run_ids);
    } else {
      savanna::CampaignJournal::RunSetSummary run_set;
      run_set.count = digest.count();
      run_set.digest = digest.hex();
      journal = savanna::CampaignJournal::create(out.journal_path, name, run_set);
    }
  }
  {
    Scoped span(spans, "core.sidecar");
    Json sidecar = submit;
    sidecar.as_object().erase("manifest");
    write_file_atomic(endpoint->directory() + "/.campaign/service.json",
                      sidecar.pretty() + "\n");
  }

  // The scheduler's loop: one allocation per call, the service's
  // zero-progress rule between calls.
  sim::Simulation sim;
  savanna::RunTracker tracker;
  savanna::CampaignRunOptions slice = options;
  slice.max_allocations = 1;
  size_t last_terminal = 0, last_attempts = 0;
  bool finished = false;
  for (;;) {
    const double start = sim.now();
    savanna::CampaignRunResult result;
    {
      Scoped span(spans, "savanna.allocation");
      result = savanna::run_with_resubmission(sim, tasks, slice, &tracker, &journal);
    }
    out.allocations += result.allocations_used;
    if (keep_reports) {
      for (auto& report : result.reports) out.reports.push_back(std::move(report));
      out.windows.emplace_back(start, sim.now());
      out.exhausted.push_back(result.exhausted);
    }
    if (result.remaining_runs == 0) {
      finished = true;
      break;
    }
    if (cancel_after_first) break;
    Scoped span(spans, "core.progress");
    const auto counts = tracker.counts();
    const size_t terminal = counts.done + counts.exhausted;
    size_t attempts = 0;
    for (const sim::TaskSpec& task : tasks) attempts += tracker.attempts(task.id);
    const bool progress = terminal != last_terminal;
    const bool attempted = attempts != last_attempts;
    last_terminal = terminal;
    last_attempts = attempts;
    if (!progress && (!attempted || options.retry.max_attempts == 0)) {
      finished = true;
      break;
    }
  }
  if (finished) {
    Scoped span(spans, "cheetah.endpoint_save");
    for (const sim::TaskSpec& task : tasks) {
      const std::string state = tracker.status(task.id).state;
      endpoint->mark(task.id, state == "done" ? cheetah::RunState::Done
                              : state == "failed" || state == "exhausted"
                                  ? cheetah::RunState::Failed
                                  : cheetah::RunState::Killed);
    }
    endpoint->save();
  }
  {
    Scoped span(spans, "savanna.journal_close");
    journal.close();
  }
  out.counts = tracker.counts();
  return out;
}

/// The share of the wall time of every span called `root` that its child
/// spans (the layer calls of the pass) cover: 1 - self time / duration.
double coverage_of(const std::vector<Span>& spans, const std::string& root) {
  double covered = 0, total = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != root) continue;
    total += spans[i].duration();
    covered += spans[i].duration() - self_time(spans, i);
  }
  return total > 0 ? covered / total : 0;
}

/// Seconds one begin/end pair costs on this host, now.
double span_cost() {
  constexpr int kSpans = 20000;
  SpanRecorder probe;
  const double start = now_s();
  for (int i = 0; i < kSpans; ++i) Scoped span(probe, "probe");
  return (now_s() - start) / kSpans;
}

/// Tracing overhead of a replay that records only spans: spans recorded
/// times the cost of one, over the wall time of its "replay.*" roots.
double span_overhead(const std::vector<Span>& spans, double per_span) {
  double wall = 0;
  for (const Span& span : spans) {
    if (span.name.rfind("replay.", 0) == 0 && span.parent < 0) wall += span.duration();
  }
  return wall > 0 ? static_cast<double>(spans.size()) * per_span / wall : 0;
}

double median_of(const SpanRecorder& spans, const std::string& name) {
  return median(spans.durations(name));
}

bool same_file(const std::string& a, const std::string& b) {
  try {
    return ff::read_file(a) == ff::read_file(b);
  } catch (const std::exception&) {
    return false;
  }
}

// --------------------------------------------------------------------------
// tenant_churn
// --------------------------------------------------------------------------

std::string churn_name(uint64_t seed, uint64_t index) {
  return "churn-" + std::to_string(seed % 100000) + "-" + std::to_string(index);
}

struct ChurnPass {
  double wall = 0;
  std::vector<double> info;
};

/// The service pass of the tenant_churn operations: submit, cancel every
/// 8th, drain, status; every 4th campaign the operator's list + touch +
/// lint.
ChurnPass churn_service_pass(const Options& options, const std::string& root,
                             const std::string& workspace,
                             const std::vector<std::string>& artifacts,
                             SpanRecorder& spans, Result& result) {
  ChurnPass pass;
  std::filesystem::remove(workspace + "/.fairflow-lint-cache.json");
  auto core = make_core(root);
  ff::service::Dispatcher dispatcher(*core);
  InfoProbe probe(*core, 0.001);
  const double start = now_s();
  {
    Scoped pass_span(spans, "replay.churn.service");
    for (uint64_t i = 0; i < kChurnCampaigns; ++i) {
      // A fresh session per campaign, as each tenant connection is one.
      ff::service::Dispatcher::Session session(dispatcher);
      const std::string name = churn_name(options.seed, i);
      result.attempted += 2;
      const Json ack = roundtrip(session, spans, dense_submit(options.seed, i, name),
                                 "session.submit");
      if (!ack.get_or("ok", false)) {
        result.fail("replay submit " + name + ": " + ack.dump());
        continue;
      }
      probe.watch(name);
      const bool cancel = i % 8 == 7;
      if (cancel) {
        Json request = perfbench::request("cancel");
        request["campaign"] = name;
        result.attempted += 1;
        if (!roundtrip(session, spans, request, "session.cancel").get_or("ok", false)) {
          result.fail("replay cancel " + name);
        }
      }
      {
        Scoped span(spans, "core.drain");
        core->drain();
      }
      Json status = perfbench::request("status");
      status["campaign"] = name;
      result.attempted += 1;
      const Json reply = roundtrip(session, spans, status, "session.status");
      const Json& campaign = reply.contains("campaign") ? reply["campaign"] : reply;
      const bool cancelled = cancel && campaign.is_object() &&
                             campaign.get_or("state", "") == "cancelled";
      if (!fully_done(campaign) && !cancelled) {
        result.fail("replay campaign " + name + " ended " + campaign.dump());
      }
      if (i % 4 == 3) {
        result.attempted += 2;
        if (!roundtrip(session, spans, perfbench::request("list"), "session.list")
                 .get_or("ok", false)) {
          result.fail("replay list");
        }
        touch_artifact(artifacts[1 + i % (artifacts.size() - 1)], i);
        Json lint = perfbench::request("lint");
        lint["workspace"] = workspace;
        const Json linted = roundtrip(session, spans, lint, "session.lint");
        if (!linted.get_or("ok", false) || linted.get_or("errors", int64_t{1}) != 0) {
          result.fail("replay lint: " + linted.dump().substr(0, 200));
        }
      }
    }
  }
  pass.wall = now_s() - start;
  pass.info = probe.stop();
  return pass;
}

void replay_tenant_churn(const Options& options, Result& result,
                         const std::string& spans_base) {
  const std::string dir = "replay-churn";
  const std::string workspace = dir + "/workspace";
  const std::vector<std::string> artifacts =
      generate_workspace(workspace, options.seed, 300);
  SpanRecorder spans;

  // Whole-workspace lint, cold and after one rewrite.
  {
    ff::lint::WorkspaceAnalyzer analyzer;
    ff::lint::WorkspaceStats cold, touched;
    {
      Scoped span(spans, "lint.cold");
      analyzer.analyze(workspace, &cold);
    }
    touch_artifact(artifacts[1], 7);
    {
      Scoped span(spans, "lint.touch_one");
      analyzer.analyze(workspace, &touched);
    }
    result.metric("lint.cold_ms", ms(median_of(spans, "lint.cold")), "ms");
    result.metric("lint.touch_one_ms", ms(median_of(spans, "lint.touch_one")), "ms");
    result.metric("lint.reparsed", static_cast<double>(touched.reparsed), "count");
  }

  const ChurnPass traced = churn_service_pass(options, dir + "/svc1", workspace,
                                              artifacts, spans, result);

  // ServiceCore::submit called directly, for the core's own share.
  {
    auto core = make_core(dir + "/core");
    for (uint64_t i = 0; i < kChurnCampaigns; ++i) {
      const ff::service::CampaignConfig config = ff::service::campaign_config_from_request(
          dense_submit(options.seed, i, churn_name(options.seed, i)));
      {
        Scoped span(spans, "core.submit");
        core->submit(config, "s" + std::to_string(i));
      }
      core->drain();
    }
  }

  // Decomposed pass over the same campaigns.
  ff::lint::WorkspaceAnalyzer analyzer;
  std::vector<double> files;
  std::vector<std::pair<std::string, std::string>> journals;  // decomposed, service
  {
    const std::string root = dir + "/decomposed";
    std::filesystem::create_directories(root);
    Scoped pass_span(spans, "replay.churn.decomposed");
    for (uint64_t i = 0; i < kChurnCampaigns; ++i) {
      const std::string name = churn_name(options.seed, i);
      const Json submit = dense_submit(options.seed, i, name);
      const bool cancel = i % 8 == 7;
      const Decomposed campaign =
          decomposed_campaign(submit, root, analyzer, spans, cancel, false);
      files.push_back(static_cast<double>(campaign.endpoint_files));
      if (!cancel) {
        journals.emplace_back(campaign.journal_path,
                              dir + "/svc1/" + name + "/.campaign/journal.jsonl");
      }
    }
  }
  const double decomposed_s = sum(spans.durations("replay.churn.decomposed"));
  for (const auto& [decomposed, service] : journals) {
    if (!same_file(decomposed, service)) {
      result.problems.push_back("replay: decomposed journal " + decomposed +
                                " differs from the service pass");
    }
  }

  // server.overhead_us: the same status request over the wire.
  double wire_p50 = 0, local_p50 = 0;
  {
    std::filesystem::create_directories(dir + "/wire/campaigns");
    Daemon daemon(options.fairflowd, dir + "/wire/ff.sock", dir + "/wire/campaigns",
                  dir + "/wire/fairflowd.log");
    const std::string name = churn_name(options.seed, 0);
    Json status = perfbench::request("status");
    status["campaign"] = name;
    std::vector<double> wire;
    if (daemon.wait_ready()) {
      Conn conn(daemon.socket_path());
      conn.call(dense_submit(options.seed, 0, name));
      for (int tries = 0; tries < 5000; ++tries) {
        const Json reply = conn.call(status);
        if (reply.contains("campaign") &&
            reply["campaign"].get_or("state", "") == "done") {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (size_t i = 0; i < kStatusSamples; ++i) {
        const double start = now_s();
        const Json reply = conn.call(status);
        wire.push_back(now_s() - start);
        if (!reply.get_or("ok", false)) {
          result.fail("replay wire status");
          break;
        }
      }
    } else {
      result.problems.push_back("replay: fairflowd did not become ready");
    }
    daemon.stop();
    auto core = make_core(dir + "/local");
    ff::service::Dispatcher dispatcher(*core);
    ff::service::Dispatcher::Session session(dispatcher);
    session.handle(dense_submit(options.seed, 0, name));
    core->drain();
    std::vector<double> local;
    for (size_t i = 0; i < kStatusSamples; ++i) {
      const double start = now_s();
      session.handle(status);
      local.push_back(now_s() - start);
    }
    wire_p50 = median(wire);
    local_p50 = median(local);
  }

  const double service_submits = sum(spans.durations("session.submit")) +
                                 sum(spans.durations("session.cancel")) +
                                 sum(spans.durations("core.drain"));
  result.metric("protocol.decode_us", us(median_of(spans, "protocol.decode")), "us");
  result.metric("protocol.encode_us", us(median_of(spans, "protocol.encode")), "us");
  result.metric("server.overhead_us", us(wire_p50 - local_p50), "us");
  result.metric("session.submit_ms", ms(median_of(spans, "session.submit")), "ms");
  result.metric("session.status_us", us(median_of(spans, "session.status")), "us");
  result.metric("core.submit_ms", ms(median_of(spans, "core.submit")), "ms");
  result.metric("core.self_ms.churn",
                ms((service_submits - decomposed_s) /
                   static_cast<double>(kChurnCampaigns)),
                "ms");
  result.metric("core.info_p99_us", us(pick_tail(traced.info, 0.99).value), "us");
  result.metric("lint.preflight_ms", ms(median_of(spans, "lint.preflight")), "ms");
  result.metric("cheetah.manifest_parse_ms",
                ms(median_of(spans, "cheetah.manifest_parse")), "ms");
  result.metric("cheetah.endpoint_create_ms",
                ms(median_of(spans, "cheetah.endpoint_create")), "ms");
  result.metric("cheetah.endpoint_files", median(files), "count");
  result.metric("cheetah.endpoint_save_ms",
                ms(median_of(spans, "cheetah.endpoint_save")), "ms");
  result.metric("savanna.journal_create_ms",
                ms(median_of(spans, "savanna.journal_create")), "ms");
  result.metric("savanna.allocation_ms.churn",
                ms(median_of(spans, "savanna.allocation")), "ms");
  const std::vector<Span> all = spans.spans();
  result.metric("trace.coverage.tenant_churn",
                std::min(coverage_of(all, "replay.churn.service"),
                         coverage_of(all, "replay.churn.decomposed")),
                "share");
  result.metric("trace.overhead.tenant_churn", span_overhead(all, span_cost()), "share");
  result.note_tail("core.info_p99_us", pick_tail(traced.info, 0.99), 1e6, "us");
  result.note("wire_status_p50_us", us(wire_p50), "us");
  result.note("local_status_p50_us", us(local_p50), "us");
  result.note("churn_service_pass_s", traced.wall, "s");
  result.note("churn_decomposed_pass_s", decomposed_s, "s");
  spans.write_jsonl(spans_base + ".tenant_churn.spans.jsonl");
  remove_tree(dir);
}

// --------------------------------------------------------------------------
// mega_campaign
// --------------------------------------------------------------------------

struct MegaPass {
  double wall = 0;
  double drain = 0;
  size_t allocations = 0;
  std::vector<double> info;
};

MegaPass mega_service_pass(const Json& submit, const std::string& name,
                           const std::string& root, SpanRecorder& spans,
                           Result& result) {
  MegaPass pass;
  auto core = make_core(root);
  ff::service::Dispatcher dispatcher(*core);
  ff::service::Dispatcher::Session session(dispatcher);
  InfoProbe probe(*core, 0.005);
  const double start = now_s();
  {
    Scoped pass_span(spans, "replay.mega.service");
    result.attempted += 2;
    const Json ack = roundtrip(session, spans, submit, "session.submit");
    if (!ack.get_or("ok", false)) result.fail("replay mega submit: " + ack.dump());
    probe.watch(name);
    const double drain_start = now_s();
    {
      Scoped span(spans, "core.drain");
      core->drain();
    }
    pass.drain = now_s() - drain_start;
    Json status = perfbench::request("status");
    status["campaign"] = name;
    const Json reply = roundtrip(session, spans, status, "session.status");
    const Json& campaign = reply.contains("campaign") ? reply["campaign"] : reply;
    if (!fully_done(campaign)) result.fail("replay mega ended " + campaign.dump());
    pass.allocations = static_cast<size_t>(campaign.get_or("allocations", int64_t{0}));
  }
  pass.wall = now_s() - start;
  pass.info = probe.stop();
  return pass;
}

/// The decomposed pass's first kJournalReplayAllocations committed
/// allocation records, appended to a fresh journal with the campaign's
/// checkpoint/compaction cadence.
void replay_journal(const Json& submit, const Decomposed& campaign,
                    const std::string& dir, SpanRecorder& spans) {
  using namespace ff;
  const service::CampaignConfig config = service::campaign_config_from_request(submit);
  const cheetah::Campaign manifest = cheetah::Campaign::from_json(config.manifest);
  savanna::RunTracker tracker;
  savanna::RunSetDigest digest;
  manifest.groups().front().for_each_run([&](const cheetah::RunSpec& run) {
    tracker.add_run(run.id);
    digest.add(run.id);
  });
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/journal.jsonl";
  savanna::CampaignJournal::RunSetSummary run_set;
  run_set.count = digest.count();
  run_set.digest = digest.hex();
  savanna::CampaignJournal journal =
      savanna::CampaignJournal::create(path, manifest.name(), run_set);
  journal.set_group_commit(config.journal.group_commit);
  Scoped root(spans, "replay.mega.journal");
  const size_t count = std::min(campaign.reports.size(), kJournalReplayAllocations);
  for (size_t k = 0; k < count; ++k) {
    const savanna::ExecutionReport& report = campaign.reports[k];
    const auto [start, end] = campaign.windows[k];
    Json record = Json::object();
    {
      Scoped span(spans, "savanna.tracker_apply");
      // Retry budgets are unlimited in these campaigns, so no run is ever
      // exhausted and the report alone rebuilds the tracker.
      savanna::apply_report_to_tracker(tracker, report, start);
      record["makespan"] = report.makespan_s;
      Json intervals = Json::array();
      for (size_t node = 0; node < report.node_timeline.size(); ++node) {
        for (const savanna::Interval& interval : report.node_timeline[node]) {
          Json entry = Json::object();
          entry["run"] = interval.run_id;
          entry["node"] = static_cast<int64_t>(node);
          entry["start"] = interval.start;
          entry["end"] = interval.end;
          intervals.push_back(std::move(entry));
        }
      }
      record["intervals"] = std::move(intervals);
      auto ids = [](const std::vector<std::string>& list) {
        Json out = Json::array();
        for (const std::string& id : list) out.push_back(id);
        return out;
      };
      record["completed"] = ids(report.completed);
      record["failed"] = ids(report.failed);
      record["killed"] = ids(report.killed);
      record["start"] = start;
      record["end"] = end;
      record["exhausted"] = ids(campaign.exhausted[k]);
    }
    {
      Scoped span(spans, "savanna.journal_append");
      journal.append_allocation(std::move(record));
      journal.flush();  // each service slice commits its allocation
    }
    if (config.journal.checkpoint_every > 0 &&
        journal.next_allocation_index() % config.journal.checkpoint_every == 0) {
      {
        Scoped span(spans, "savanna.checkpoint");
        journal.append_checkpoint(tracker.to_json_started(), end);
      }
      if (config.journal.compact_after_checkpoint) {
        Scoped span(spans, "savanna.compact");
        journal.compact();
      }
    }
  }
  journal.close();
}

void replay_mega_campaign(const Options& options, Result& result,
                          const std::string& spans_base) {
  const std::string dir = "replay-mega";
  const std::string name = "mega-" + std::to_string(options.seed % 100000) + "-0";
  const Json submit = mega_submit(options.seed, 0, name);
  SpanRecorder spans;
  const MegaPass traced = mega_service_pass(submit, name, dir + "/svc1", spans, result);

  ff::lint::WorkspaceAnalyzer analyzer;
  std::filesystem::create_directories(dir + "/decomposed");
  double decomposed_wall = 0;
  Decomposed campaign;
  {
    const double start = now_s();
    Scoped pass_span(spans, "replay.mega.decomposed");
    campaign = decomposed_campaign(submit, dir + "/decomposed", analyzer, spans,
                                   false, true);
    decomposed_wall = now_s() - start;
  }
  const std::string service_journal = dir + "/svc1/" + name + "/.campaign/journal.jsonl";
  if (!same_file(campaign.journal_path, service_journal)) {
    result.problems.push_back("replay: decomposed mega journal differs from the service pass");
  }
  replay_journal(submit, campaign, dir + "/journal", spans);
  size_t journal_bytes = 0;
  try {
    journal_bytes = ff::read_file(campaign.journal_path).size();
  } catch (const std::exception&) {
  }

  const Tail info = pick_tail(traced.info, 0.99);
  result.metric("cheetah.sweep_walk_ms", ms(median_of(spans, "cheetah.sweep_walk")), "ms");
  result.metric("core.per_allocation_ms",
                ms(traced.drain / static_cast<double>(std::max<size_t>(traced.allocations, 1))),
                "ms");
  result.metric("core.self_ms", ms(traced.wall - decomposed_wall), "ms");
  result.metric("core.info_p99_us.mega", us(info.value), "us");
  result.metric("savanna.allocation_ms", ms(median_of(spans, "savanna.allocation")), "ms");
  result.metric("savanna.journal_append_us",
                us(median_of(spans, "savanna.journal_append")), "us");
  result.metric("savanna.checkpoint_ms", ms(median_of(spans, "savanna.checkpoint")), "ms");
  result.metric("savanna.compact_ms", ms(median_of(spans, "savanna.compact")), "ms");
  result.metric("savanna.allocations", static_cast<double>(campaign.allocations), "count");
  result.metric("savanna.runs_done", static_cast<double>(campaign.counts.done), "count");
  result.metric("savanna.runs_never_started",
                static_cast<double>(campaign.counts.never_started), "count");
  result.metric("savanna.journal_bytes", static_cast<double>(journal_bytes), "bytes");
  const std::vector<Span> all = spans.spans();
  result.metric("trace.coverage.mega_campaign",
                std::min({coverage_of(all, "replay.mega.service"),
                          coverage_of(all, "replay.mega.decomposed"),
                          coverage_of(all, "replay.mega.journal")}),
                "share");
  result.metric("trace.overhead.mega_campaign", span_overhead(all, span_cost()), "share");
  result.note_tail("core.info_p99_us.mega", info, 1e6, "us");
  result.note("mega_service_pass_s", traced.wall, "s");
  result.note("mega_decomposed_pass_s", decomposed_wall, "s");
  result.note("mega_service_allocations", static_cast<double>(traced.allocations), "count");
  spans.write_jsonl(spans_base + ".mega_campaign.spans.jsonl");
  remove_tree(dir);
}

// --------------------------------------------------------------------------
// stream_fanout
// --------------------------------------------------------------------------

struct StreamPass {
  double wall = 0;
  double busy = 0;  // seconds inside consumer callbacks (traced only)
  ff::stream::StreamPipeline::QueueReport totals;
  bool lossless = true;
};

/// Phase A once: publish kStreamRecords in batches of 64 to counting
/// consumers, then wait for quiescence.
StreamPass stream_phase_a(const std::vector<std::vector<ff::stream::Record>>& batches,
                          SpanRecorder& spans) {
  StreamPass pass;
  std::atomic<uint64_t> delivered{0};
  std::atomic<int64_t> busy_ns{0};
  const bool traced = spans.enabled();
  ff::stream::StreamPipeline pipeline(2);
  pipeline.subscribe([&](const std::string&, const ff::stream::Record&) {
    if (!traced) {
      delivered.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const auto entered = Clock::now();
    delivered.fetch_add(1, std::memory_order_relaxed);
    busy_ns.fetch_add((Clock::now() - entered).count(), std::memory_order_relaxed);
  });
  for (size_t q = 0; q < kQueues; ++q) {
    pipeline.install_queue("q" + std::to_string(q),
                           std::make_unique<ff::stream::ForwardAllPolicy>());
  }
  const double start = now_s();
  {
    Scoped root(spans, "replay.stream.phase_a");
    for (const auto& batch : batches) {
      Scoped span(spans, "stream.publish");
      pipeline.publish_batch(batch);
    }
    Scoped span(spans, "stream.quiesce");
    pipeline.wait_quiescent();
  }
  pass.wall = now_s() - start;
  pass.busy = static_cast<double>(busy_ns.load()) * 1e-9;
  for (size_t q = 0; q < kQueues; ++q) {
    const auto report = pipeline.report("q" + std::to_string(q));
    pass.totals.released += report.released;
    pass.totals.delivered += report.delivered;
    pass.totals.dropped += report.dropped;
  }
  pass.lossless = delivered.load() == kStreamRecords * kQueues &&
                  pass.totals.dropped == 0;
  pipeline.shutdown();
  return pass;
}

void replay_stream_fanout(const Options& options, Result& result,
                          const std::string& spans_base) {
  std::vector<std::vector<ff::stream::Record>> batches;
  for (uint64_t i = 0; i < kStreamRecords; i += 64) {
    std::vector<ff::stream::Record> batch;
    for (uint64_t j = i; j < std::min(i + 64, kStreamRecords); ++j) {
      batch.push_back(make_record(options.seed, j, 0));
    }
    batches.push_back(std::move(batch));
  }
  SpanRecorder spans;
  SpanRecorder off(false);
  std::vector<double> traced_walls, untraced_walls;
  StreamPass last;
  double busy_share = 0;
  for (int round = 0; round < kStreamRounds; ++round) {
    const StreamPass plain = stream_phase_a(batches, off);
    untraced_walls.push_back(plain.wall);
    last = stream_phase_a(batches, spans);
    traced_walls.push_back(last.wall);
    busy_share = last.busy / (last.wall * 2);
    result.attempted += 2 * kStreamRecords;
    if (!plain.lossless || !last.lossless) result.fail("replay phase A lost records");
  }

  // Phase B: open loop at kPhaseBRate with 50 us consumers; generator
  // lateness only (latency is the untraced run's metric).
  std::vector<double> lateness;
  {
    ff::stream::StreamPipeline pipeline(2);
    pipeline.subscribe([](const std::string&, const ff::stream::Record&) {
      wait_until(now_s() + 50e-6);
    });
    for (size_t q = 0; q < kQueues; ++q) {
      pipeline.install_queue("q" + std::to_string(q),
                             std::make_unique<ff::stream::ForwardAllPolicy>());
    }
    const OpenLoop loop(now_s() + 0.001, 1.0 / kPhaseBRate);
    const uint64_t count = static_cast<uint64_t>(kPhaseBSeconds * kPhaseBRate);
    for (uint64_t i = 0; i < count; ++i) {
      wait_until(loop.due(i));
      lateness.push_back(now_s() - loop.due(i));
      pipeline.publish(make_record(options.seed, i, loop.due(i)));
    }
    pipeline.wait_quiescent();
    pipeline.shutdown();
    result.attempted += count;
  }

  // 1-producer/1-consumer transfer through one Spsc channel.
  double channel_rate = 0;
  {
    auto channel = ff::stream::make_channel(ff::stream::ChannelKind::Spsc, 1024);
    constexpr uint64_t kTransfer = 400000;
    const double start = now_s();
    Scoped root(spans, "stream.channel");
    std::thread producer([&] {
      for (uint64_t i = 0; i < kTransfer; ++i) {
        ff::stream::Record record;
        record.sequence = i;
        channel->send(std::move(record));
      }
      channel->close();
    });
    uint64_t received = 0;
    std::vector<ff::stream::Record> batch;
    for (;;) {
      batch.clear();
      if (channel->drain_into(batch, 64) == 0) {
        if (channel->closed() && channel->size() == 0) break;
        std::this_thread::yield();
        continue;
      }
      received += batch.size();
    }
    producer.join();
    channel_rate = static_cast<double>(received) / (now_s() - start);
    if (received != kTransfer) result.fail("channel transfer lost records");
  }

  // The single-threaded baseline: inline DataScheduler delivery of phase A.
  double sync_rate = 0;
  {
    ff::stream::DataScheduler scheduler;
    uint64_t delivered = 0;
    scheduler.subscribe([&](const std::string&, const ff::stream::Record&) { ++delivered; });
    for (size_t q = 0; q < kQueues; ++q) {
      scheduler.install_queue("q" + std::to_string(q),
                              std::make_unique<ff::stream::ForwardAllPolicy>());
    }
    const double start = now_s();
    {
      Scoped root(spans, "stream.sync");
      for (const auto& batch : batches) scheduler.publish_batch(batch);
    }
    sync_rate = static_cast<double>(kStreamRecords) / (now_s() - start);
    if (delivered != kStreamRecords * kQueues) result.fail("inline delivery lost records");
  }

  const std::vector<double> publish = spans.durations("stream.publish");
  const Tail publish_p99 = pick_tail(publish, 0.99);
  const Tail late_p99 = pick_tail(lateness, 0.99);
  result.metric("stream.publish_p50_us", us(median(publish)), "us");
  result.metric("stream.publish_p99_us", us(publish_p99.value), "us");
  result.metric("stream.quiesce_ms", ms(median_of(spans, "stream.quiesce")), "ms");
  result.metric("stream.consumer_busy_share", busy_share, "share");
  result.metric("stream.channel_rec_per_s", channel_rate, "1/s");
  result.metric("stream.sync_rec_per_s", sync_rate, "1/s");
  result.metric("stream.released", static_cast<double>(last.totals.released), "count");
  result.metric("stream.delivered", static_cast<double>(last.totals.delivered), "count");
  result.metric("stream.dropped", static_cast<double>(last.totals.dropped), "count");
  result.metric("stream.generator_lateness_us", us(late_p99.value), "us");
  result.metric("trace.coverage.stream_fanout",
                coverage_of(spans.spans(), "replay.stream.phase_a"), "share");
  result.metric("trace.overhead.stream_fanout",
                median(traced_walls) / median(untraced_walls) - 1, "share");
  result.note_tail("stream.publish_p99_us", publish_p99, 1e6, "us");
  result.note_tail("stream.generator_lateness_us", late_p99, 1e6, "us");
  result.note("stream_phase_a_traced_s", median(traced_walls), "s");
  result.note("stream_phase_a_untraced_s", median(untraced_walls), "s");
  spans.write_jsonl(spans_base + ".stream_fanout.spans.jsonl");
}

}  // namespace

Result run_traced(const Options& options) {
  Result result;
  replay_tenant_churn(options, result, options.spans_base);
  replay_mega_campaign(options, result, options.spans_base);
  replay_stream_fanout(options, result, options.spans_base);
  return result;
}

}  // namespace perfbench
