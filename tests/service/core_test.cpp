#include "service/core.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "savanna/journal.hpp"
#include "service/session.hpp"
#include "service_test_util.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace ff::service {
namespace {

using testing::run_batch_reference;
using testing::sliced_manifest;

CampaignConfig config_for(const Json& manifest) {
  CampaignConfig config;
  config.manifest = manifest;
  return config;  // defaults: first group, seed 5, default model/policies
}

void expect_byte_identical_to_batch(
    const std::string& service_dir, const Json& manifest,
    const std::string& scratch_root,
    const savanna::JournalPolicy& journal_policy = {}) {
  const std::string batch_dir =
      run_batch_reference(manifest, scratch_root, journal_policy);
  EXPECT_EQ(read_file(service_dir + "/.campaign/journal.jsonl"),
            read_file(batch_dir + "/.campaign/journal.jsonl"))
      << service_dir;
  EXPECT_EQ(read_file(service_dir + "/.campaign/status.json"),
            read_file(batch_dir + "/.campaign/status.json"))
      << service_dir;
}

TEST(ServiceCore, SingleCampaignMatchesBatchByteForByte) {
  TempDir dir;
  const Json manifest = sliced_manifest("solo");
  ServiceCore::Options options;
  options.root = dir.file("service");
  options.workers = 1;
  ServiceCore core(options);

  const std::string name = core.submit(config_for(manifest), "s1");
  EXPECT_EQ(name, "solo");
  core.drain();

  const CampaignInfo info = core.info(name);
  EXPECT_EQ(info.state, "done");
  EXPECT_EQ(info.run_count, 6u);
  EXPECT_EQ(info.counts.done, 6u);
  EXPECT_GT(info.allocations, 1u);  // the walltime really forced slicing
  EXPECT_EQ(info.owner, "s1");

  expect_byte_identical_to_batch(info.directory, manifest, dir.file("batch"));
}

TEST(ServiceCore, ConcurrentCampaignsStayByteIdentical) {
  TempDir dir;
  ServiceCore::Options options;
  options.root = dir.file("service");
  options.workers = 2;
  ServiceCore core(options);

  // Four tenants, four campaigns, one shared cluster. Each campaign's
  // provenance must come out exactly as if it ran alone in batch.
  std::vector<Json> manifests;
  for (int i = 0; i < 4; ++i) {
    manifests.push_back(sliced_manifest("tenant-" + std::to_string(i)));
    core.submit(config_for(manifests.back()), "s" + std::to_string(i + 1));
  }
  core.drain();

  for (int i = 0; i < 4; ++i) {
    const CampaignInfo info = core.info("tenant-" + std::to_string(i));
    EXPECT_EQ(info.state, "done") << info.name << ": " << info.error;
    EXPECT_EQ(info.counts.done, 6u);
    expect_byte_identical_to_batch(info.directory, manifests[i],
                                   dir.file("batch-" + std::to_string(i)));
  }
  EXPECT_EQ(core.list().size(), 4u);
}

TEST(ServiceCore, NeverStartedRunsStayPendingInTheEndpoint) {
  // Walltime-killed stragglers fill the only node for two allocations and
  // the campaign stops (the stall itself is ROADMAP item 1). The runs it
  // never started must read pending, not killed.
  TempDir dir;
  ServiceCore::Options options;
  options.root = dir.file("service");
  options.workers = 1;
  ServiceCore core(options);
  CampaignConfig config = config_for(sliced_manifest("stalled", 24));
  config.durations.straggler_fraction = 0.3;
  config.retry.base_backoff_s = 300;
  const std::string name = core.submit(config, "s1");
  core.drain();

  const CampaignInfo info = core.info(name);
  ASSERT_EQ(info.state, "done");
  EXPECT_EQ(info.allocations, 2u);
  EXPECT_EQ(info.counts.done, 2u);
  EXPECT_EQ(info.counts.killed, 2u);
  EXPECT_EQ(info.counts.never_started, 20u);
  const auto status =
      cheetah::CampaignEndpoint::open(options.root, name).status();
  EXPECT_EQ(status.done, 2u);
  EXPECT_EQ(status.killed, 2u);
  EXPECT_EQ(status.pending, 20u);
}

TEST(ServiceCore, LintRejectionLeavesNoDirectory) {
  TempDir dir;
  ServiceCore::Options options;
  options.root = dir.file("service");
  ServiceCore core(options);

  // An args_template referencing an undeclared parameter is FF201 — a
  // manifest the Campaign constructor accepts but the preflight lint in
  // CampaignEndpoint::create rejects, *before* any directory exists.
  Json manifest = sliced_manifest("rejected");
  manifest["app"]["args_template"] = "--y {{undeclared}}";
  EXPECT_THROW(core.submit(config_for(manifest), "s1"), ValidationError);
  EXPECT_FALSE(std::filesystem::exists(dir.file("service/rejected")));
  EXPECT_THROW(core.info("rejected"), NotFoundError);

  // A manifest the Campaign constructor itself refuses (empty value list)
  // is equally invisible on disk.
  Json broken = sliced_manifest("broken");
  broken["groups"][0]["sweeps"][0]["parameters"][0]["values"] = Json::array();
  EXPECT_THROW(core.submit(config_for(broken), "s1"), ValidationError);
  EXPECT_FALSE(std::filesystem::exists(dir.file("service/broken")));
}

TEST(ServiceCore, DuplicateNameIsConflict) {
  TempDir dir;
  ServiceCore::Options options;
  options.root = dir.file("service");
  ServiceCore core(options);
  core.submit(config_for(sliced_manifest("dup")), "s1");
  EXPECT_THROW(core.submit(config_for(sliced_manifest("dup")), "s2"),
               StateError);
  core.drain();
}

TEST(ServiceCore, QuotaBoundsCampaignsPerSession) {
  TempDir dir;
  ServiceCore::Options options;
  options.root = dir.file("service");
  options.max_campaigns_per_session = 2;
  ServiceCore core(options);

  core.submit(config_for(sliced_manifest("q0")), "s1");
  core.submit(config_for(sliced_manifest("q1")), "s1");
  EXPECT_THROW(core.submit(config_for(sliced_manifest("q2")), "s1"),
               QuotaError);
  // The quota is per session, not global.
  core.submit(config_for(sliced_manifest("q2")), "s2");
  core.drain();
  EXPECT_EQ(core.list().size(), 3u);
}

/// Holds every journal allocation append until open() is called, so a test
/// can act while a slice is known to be unfinished. Uninstalls on scope exit.
class AppendGate {
 public:
  AppendGate() {
    savanna::CampaignJournal::set_test_write_hook(
        [this](savanna::CampaignJournal::WriteKind kind,
               savanna::CampaignJournal::WritePhase phase, size_t) {
          if (kind != savanna::CampaignJournal::WriteKind::Append ||
              phase != savanna::CampaignJournal::WritePhase::BeforeWrite) {
            return;
          }
          std::unique_lock<std::mutex> lock(mutex_);
          opened_cv_.wait(lock, [this] { return opened_; });
        });
  }
  ~AppendGate() {
    open();
    savanna::CampaignJournal::set_test_write_hook(nullptr);
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      opened_ = true;
    }
    opened_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable opened_cv_;
  bool opened_ = false;
};

TEST(ServiceCore, CancelThenResumeStillMatchesBatch) {
  TempDir dir;
  const Json manifest = sliced_manifest("comeback");
  ServiceCore::Options options;
  options.root = dir.file("service");
  options.workers = 1;
  ServiceCore core(options);

  {
    // The first slice cannot commit its allocation until the cancel is in,
    // so the campaign cannot finish first.
    AppendGate gate;
    core.submit(config_for(manifest), "s1");
    // Lands either while the first slice is in flight (parks after its
    // allocation — the journal commit point) or while queued; both paths
    // must leave a resumable campaign.
    EXPECT_TRUE(core.cancel("comeback"));
    gate.open();
    core.drain();
  }
  const std::string state_after_cancel = core.info("comeback").state;
  ASSERT_TRUE(state_after_cancel == "cancelled" ||
              state_after_cancel == "done")
      << state_after_cancel;

  if (state_after_cancel == "cancelled") {
    EXPECT_FALSE(core.cancel("comeback"));  // already parked
    core.resume("comeback");
    core.drain();
  }
  const CampaignInfo info = core.info("comeback");
  EXPECT_EQ(info.state, "done") << info.error;
  // The interruption must be invisible in the provenance.
  expect_byte_identical_to_batch(info.directory, manifest, dir.file("batch"));
}

/// Throws IoError from the `nth` allocation append, before any of its bytes
/// reach the disk. Uninstalls on scope exit.
class FailNthAppend {
 public:
  explicit FailNthAppend(size_t nth) {
    savanna::CampaignJournal::set_test_write_hook(
        [this, nth](savanna::CampaignJournal::WriteKind kind,
                    savanna::CampaignJournal::WritePhase phase, size_t) {
          if (kind == savanna::CampaignJournal::WriteKind::Append &&
              phase == savanna::CampaignJournal::WritePhase::BeforeWrite &&
              ++appends_ == nth) {
            throw IoError("injected journal append failure");
          }
        });
  }
  ~FailNthAppend() { savanna::CampaignJournal::set_test_write_hook(nullptr); }

 private:
  size_t appends_ = 0;  // touched only by the one slice thread
};

/// The counts of a tracker rebuilt from the campaign journal in
/// `directory`. The journal is copied first, so the campaign's own stays
/// untouched.
savanna::RunTracker::Counts journal_counts(const std::string& directory,
                                           const Json& manifest,
                                           const std::string& scratch_path) {
  write_file(scratch_path, read_file(directory + "/.campaign/journal.jsonl"));
  const cheetah::Campaign campaign = cheetah::Campaign::from_json(manifest);
  std::vector<sim::TaskSpec> tasks;
  campaign.groups().front().for_each_run([&](const cheetah::RunSpec& run) {
    sim::TaskSpec task;
    task.id = run.id;
    tasks.push_back(std::move(task));
  });
  sim::Simulation sim;
  savanna::RunTracker tracker;
  savanna::recover_campaign(sim, tasks, savanna::CampaignRunOptions(), tracker,
                            scratch_path, campaign.name());
  return tracker.counts();
}

// A slice that throws after its allocation reached the tracker but not the
// journal must not leave that allocation in memory: status reports what the
// journal holds, resume continues from there, and the finished campaign
// equals batch.
TEST(ServiceCore, FailedSliceResumesFromItsJournal) {
  for (const size_t group_commit : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("group_commit " + std::to_string(group_commit));
    TempDir dir;
    const Json manifest = sliced_manifest("flaky");
    savanna::JournalPolicy policy;
    policy.group_commit = group_commit;
    ServiceCore::Options options;
    options.root = dir.file("service");
    options.workers = 1;
    ServiceCore core(options);
    CampaignConfig config = config_for(manifest);
    config.journal = policy;
    {
      FailNthAppend failure(2);
      core.submit(config, "s1");
      core.drain();
    }
    const CampaignInfo failed = core.info("flaky");
    ASSERT_EQ(failed.state, "failed");
    EXPECT_NE(failed.error.find("injected"), std::string::npos);
    const savanna::RunTracker::Counts journal =
        journal_counts(failed.directory, manifest, dir.file("copy.jsonl"));
    EXPECT_EQ(failed.counts.total, journal.total);
    EXPECT_EQ(failed.counts.done, journal.done);
    EXPECT_EQ(failed.counts.failed, journal.failed);
    EXPECT_EQ(failed.counts.killed, journal.killed);
    EXPECT_EQ(failed.counts.exhausted, journal.exhausted);
    EXPECT_EQ(failed.counts.never_started, journal.never_started);

    core.resume("flaky");
    core.drain();
    const CampaignInfo info = core.info("flaky");
    EXPECT_EQ(info.state, "done") << info.error;
    EXPECT_EQ(info.counts.done, 6u);
    expect_byte_identical_to_batch(info.directory, manifest, dir.file("batch"),
                                   policy);
  }
}

/// The savanna.job.submit/retry events in emission order, as
/// "name run@attempt", drained from the trace recorder.
std::vector<std::string> job_submissions() {
  std::vector<std::string> out;
  for (const obs::TraceEvent& event : obs::TraceRecorder::instance().flush()) {
    if (std::strcmp(event.name, "savanna.job.submit") != 0 &&
        std::strcmp(event.name, "savanna.job.retry") != 0) {
      continue;
    }
    std::string line = event.name;
    for (size_t i = 0; i < event.arg_count; ++i) {
      const obs::Arg& arg = event.args[i];
      if (std::strcmp(arg.key, "run") == 0) line += " " + arg.str_value;
      if (std::strcmp(arg.key, "attempt") == 0) {
        line += "@" + std::to_string(arg.int_value);
      }
    }
    out.push_back(std::move(line));
  }
  return out;
}

// A run that waits through a slice unstarted was submitted in it: its next
// submission is a retry with the next attempt number, in fairflowd as in
// batch.
TEST(ServiceCore, JobTraceMatchesBatch) {
  TempDir dir;
  const Json manifest = sliced_manifest("jobs");
  obs::TraceRecorder::instance().clear();
  obs::set_tracing(true);
  {
    ServiceCore::Options options;
    options.root = dir.file("service");
    options.workers = 1;
    ServiceCore core(options);
    core.submit(config_for(manifest), "s1");
    core.drain();
    EXPECT_EQ(core.info("jobs").state, "done");
  }
  const std::vector<std::string> service = job_submissions();
  run_batch_reference(manifest, dir.file("batch"));
  const std::vector<std::string> batch = job_submissions();
  obs::set_tracing(false);
  EXPECT_EQ(obs::TraceRecorder::instance().dropped(), 0u);
  EXPECT_TRUE(std::any_of(batch.begin(), batch.end(), [](const std::string& line) {
    return line.rfind("savanna.job.retry ", 0) == 0;
  }));
  EXPECT_EQ(service, batch);
}

TEST(ServiceCore, ResumeRejectsTerminalAndScheduledStates) {
  TempDir dir;
  ServiceCore::Options options;
  options.root = dir.file("service");
  ServiceCore core(options);
  core.submit(config_for(sliced_manifest("r")), "s1");
  core.drain();
  EXPECT_THROW(core.resume("r"), StateError);       // done
  EXPECT_THROW(core.resume("ghost"), NotFoundError);  // nowhere on disk
}

/// Submit `manifest` to a first core that then stops (the SIGTERM drain:
/// at most the slice already granted runs) and goes away, leaving the
/// campaign mid-way on disk. Returns the campaign directory.
std::string leave_orphan_on_disk(const Json& manifest, const std::string& root,
                                 const savanna::JournalPolicy& journal_policy) {
  ServiceCore::Options options;
  options.root = root;
  options.workers = 1;
  ServiceCore first(options);
  CampaignConfig config = config_for(manifest);
  config.journal = journal_policy;
  const std::string name = first.submit(config, "s1");
  first.stop();
  return first.info(name).directory;
}

TEST(ServiceCore, AdoptsCampaignFromDiskAfterRestart) {
  savanna::JournalPolicy checkpointed;
  checkpointed.checkpoint_every = 2;
  checkpointed.compact_after_checkpoint = true;
  checkpointed.group_commit = 4;
  for (const savanna::JournalPolicy& policy :
       {savanna::JournalPolicy{}, checkpointed}) {
    SCOPED_TRACE("checkpoint_every " + std::to_string(policy.checkpoint_every));
    TempDir dir;
    const Json manifest = sliced_manifest("orphan");
    const std::string root = dir.file("service");
    leave_orphan_on_disk(manifest, root, policy);

    ServiceCore::Options options;
    options.root = root;
    options.workers = 1;
    ServiceCore second(options);
    EXPECT_THROW(second.info("orphan"), NotFoundError);  // not in memory
    second.resume("orphan");  // adopted: endpoint + service.json sidecar
    second.drain();
    const CampaignInfo info = second.info("orphan");
    EXPECT_EQ(info.state, "done") << info.error;
    EXPECT_EQ(info.owner, "");  // recovered; no live session owns it
    EXPECT_EQ(info.counts.done, 6u);
    // Even across a process boundary the journal is byte-identical to an
    // uninterrupted batch run under the same journal policy (the
    // crash_resume guarantee, via the service).
    expect_byte_identical_to_batch(info.directory, manifest, dir.file("batch"),
                                   policy);
  }
}

// An adopted campaign replays its journal once, on its first slice; every
// later slice continues from the rebuilt state in memory.
TEST(ServiceCore, AdoptedCampaignReplaysItsJournalOnce) {
  TempDir dir;
  Json manifest = sliced_manifest("replayed", 200);
  manifest["groups"][0]["nodes"] = int64_t{4};
  manifest["groups"][0]["walltime_s"] = 1500.0;
  savanna::JournalPolicy policy;
  policy.checkpoint_every = 16;
  policy.compact_after_checkpoint = true;
  policy.group_commit = 64;
  const std::string root = dir.file("service");
  leave_orphan_on_disk(manifest, root, policy);

  ServiceCore::Options options;
  options.root = root;
  options.workers = 1;
  ServiceCore second(options);
  obs::TraceRecorder::instance().clear();
  obs::set_tracing(true);
  second.resume("replayed");
  second.drain();
  obs::set_tracing(false);
  size_t replays = 0;
  for (const obs::TraceEvent& event : obs::TraceRecorder::instance().flush()) {
    if (std::strcmp(event.name, "savanna.journal.replay") == 0) ++replays;
  }
  EXPECT_EQ(obs::TraceRecorder::instance().dropped(), 0u);

  const CampaignInfo info = second.info("replayed");
  EXPECT_EQ(info.state, "done") << info.error;
  EXPECT_GT(info.allocations, 1u);  // several slices after the adoption
  EXPECT_EQ(replays, 1u) << info.allocations << " slices";
  expect_byte_identical_to_batch(info.directory, manifest, dir.file("batch"),
                                 policy);
}

TEST(ServiceCore, AdoptingAManifestWithoutGroupsIsRejected) {
  TempDir dir;
  const std::string root = dir.file("service");
  const std::string directory =
      leave_orphan_on_disk(sliced_manifest("hollow"), root, {});
  const std::string manifest_file = directory + "/.campaign/manifest.json";
  Json manifest = Json::parse_file(manifest_file);
  manifest.as_object().erase("groups");
  write_file(manifest_file, manifest.pretty() + "\n");

  ServiceCore::Options options;
  options.root = root;
  options.workers = 1;
  ServiceCore core(options);
  EXPECT_THROW(core.resume("hollow"), ValidationError);
  EXPECT_THROW(core.info("hollow"), NotFoundError);  // nothing was adopted
  // The core keeps serving.
  core.submit(config_for(sliced_manifest("after")), "s1");
  core.drain();
  EXPECT_EQ(core.info("after").state, "done");
}

TEST(ServiceCore, SubmitAfterStopIsRefused) {
  TempDir dir;
  ServiceCore::Options options;
  options.root = dir.file("service");
  ServiceCore core(options);
  core.stop();
  EXPECT_THROW(core.submit(config_for(sliced_manifest("late")), "s1"),
               StateError);
}

TEST(ServiceCore, TraceTailRecordsLifecycleEvents) {
  TempDir dir;
  ServiceCore::Options options;
  options.root = dir.file("service");
  options.workers = 1;
  ServiceCore core(options);
  Dispatcher dispatcher(core);
  Dispatcher::Session session(dispatcher);
  auto request = [](const std::string& cmd) {
    Json out = Json::object();
    out["cmd"] = cmd;
    out["id"] = int64_t{1};
    return out;
  };
  auto trace = [&](int64_t count) {
    Json ask = request("trace");
    ask["count"] = count;
    const Json reply = session.handle(ask);
    EXPECT_TRUE(reply.get_or("ok", false)) << reply.dump();
    return reply["events"].as_array();
  };

  Json submit = request("submit");
  submit["manifest"] = sliced_manifest("traced");
  ASSERT_TRUE(session.handle(submit).get_or("ok", false));
  core.drain();
  ASSERT_TRUE(session.handle(request("ping")).get_or("ok", false));

  bool saw_submit = false, saw_done = false, saw_slice = false;
  const std::vector<Json> events = trace(64);
  for (const Json& event : events) {
    const std::string kind = event.get_or("event", "");
    if (kind == "service.campaign.submit") saw_submit = true;
    if (kind == "service.slice") saw_slice = true;
    if (kind == "service.campaign.state" &&
        event.get_or("state", "") == "done") {
      saw_done = true;
    }
  }
  EXPECT_TRUE(saw_submit);
  EXPECT_TRUE(saw_slice);
  EXPECT_TRUE(saw_done);
  // Newest last: the ping's request event, with `ok` as 0/1.
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().get_or("event", ""), "service.request");
  EXPECT_EQ(events.back().get_or("cmd", ""), "ping");
  EXPECT_EQ(events.back()["ok"].as_int(), 1);
  EXPECT_EQ(events.back().get_or("session", ""), session.id());

  // `count` keeps the newest events: the ping, then the trace just served.
  const std::vector<Json> newest = trace(2);
  ASSERT_EQ(newest.size(), 2u);
  EXPECT_EQ(newest[0].get_or("cmd", ""), "ping");
  EXPECT_EQ(newest[1].get_or("cmd", ""), "trace");
  EXPECT_TRUE(trace(0).empty());
  Json negative = request("trace");
  negative["count"] = int64_t{-1};
  EXPECT_FALSE(session.handle(negative).get_or("ok", true));

  // The tail is bounded: past 256 events the oldest fall off.
  for (int i = 0; i < 300; ++i) session.handle(request("ping"));
  const std::vector<Json> all = trace(1000);
  EXPECT_EQ(all.size(), 256u);
  for (const Json& event : all) {
    EXPECT_EQ(event.get_or("event", ""), "service.request") << event.dump();
  }
}

TEST(CampaignConfigFromRequest, ParsesKnobsAndValidates) {
  Json request = Json::parse(R"({
    "cmd": "submit", "manifest": {"name": "m"},
    "group": "g1",
    "duration": {"median_s": 120.0, "sigma": 0.2, "seed": 11},
    "execution": {"nodes": 3, "walltime_s": 900.0},
    "retry": {"max_attempts": 2},
    "journal": {"group_commit": 4, "checkpoint_every": 2}
  })");
  const CampaignConfig config = campaign_config_from_request(request);
  EXPECT_EQ(config.group, "g1");
  EXPECT_DOUBLE_EQ(config.durations.median_s, 120.0);
  EXPECT_DOUBLE_EQ(config.durations.sigma, 0.2);
  EXPECT_EQ(config.duration_seed, 11u);
  ASSERT_TRUE(config.nodes.has_value());
  EXPECT_EQ(*config.nodes, 3);
  ASSERT_TRUE(config.walltime_s.has_value());
  EXPECT_DOUBLE_EQ(*config.walltime_s, 900.0);
  EXPECT_EQ(config.retry.max_attempts, 2u);
  EXPECT_EQ(config.journal.group_commit, 4u);
  EXPECT_EQ(config.journal.checkpoint_every, 2u);

  EXPECT_THROW(campaign_config_from_request(Json::parse(R"({"cmd":"submit"})")),
               ValidationError);
  EXPECT_THROW(campaign_config_from_request(Json::parse(
                   R"({"manifest": {}, "duration": {"median_s": -1}})")),
               ValidationError);
  EXPECT_THROW(campaign_config_from_request(Json::parse(
                   R"({"manifest": {}, "execution": {"nodes": 0}})")),
               ValidationError);
  EXPECT_THROW(campaign_config_from_request(Json::parse(
                   R"({"manifest": {}, "journal": {"group_commit": 0}})")),
               ValidationError);
}

// The `lint` command is the CLI's workspace engine behind the wire: the
// dispatcher's diagnostics, dumped compact one per line (what fairflow-ctl
// prints), must be byte-identical to `fairflow-lint --workspace
// --format=jsonl` over the same tree.
TEST(ServiceCore, LintWorkspaceMatchesTheCliEngineByteForByte) {
  TempDir dir;
  const std::string workspace = dir.file("ws");
  std::filesystem::create_directories(workspace);
  Json manifest = sliced_manifest("wsdemo");
  manifest["model"] = std::string("nowhere-model");  // FF601 in workspace mode
  write_file(workspace + "/campaign.json", manifest.pretty() + "\n");
  write_file(workspace + "/plane.json", R"({
    "graph": {
      "name": "ws-plane",
      "components": [
        {"id": "src", "kind": "executable",
         "ports": [{"name": "out", "direction": "out", "rate_hz": 100}]},
        {"id": "worker", "kind": "service", "service_hz": 50,
         "ports": [{"name": "in", "direction": "in"}]}
      ],
      "edges": [{"from": "src.out", "to": "worker.in"}]
    },
    "queues": []
  })");

  ServiceCore::Options options;
  options.root = dir.file("service");
  ServiceCore core(options);
  Dispatcher dispatcher(core);
  Json request = Json::object();
  request["cmd"] = std::string("lint");
  request["id"] = int64_t{7};
  request["workspace"] = workspace;
  const Json reply = dispatcher.handle("s1", request);
  ASSERT_TRUE(reply.get_or("ok", false)) << reply.pretty();

  std::string over_the_wire;
  for (const Json& diagnostic : reply["diagnostics"].as_array()) {
    over_the_wire += diagnostic.dump() + "\n";
  }

  lint::WorkspaceAnalyzer analyzer;  // what the CLI runs
  lint::LintReport report = analyzer.analyze(workspace);
  report.sort();
  EXPECT_EQ(over_the_wire, report.render_jsonl());
  EXPECT_EQ(reply["errors"].as_int(),
            static_cast<int64_t>(report.count(lint::Severity::Error)));
  EXPECT_EQ(reply["warnings"].as_int(),
            static_cast<int64_t>(report.count(lint::Severity::Warning)));
  EXPECT_EQ(reply["artifacts"].as_int(), 2);

  // A second request replays everything from the shared digest cache.
  const Json again = dispatcher.handle("s1", request);
  EXPECT_EQ(again["cached"].as_int(), 2) << again.pretty();
  EXPECT_EQ(again["reparsed"].as_int(), 0);

  Json missing = request;
  missing["workspace"] = dir.file("nope");
  const Json error = dispatcher.handle("s1", missing);
  EXPECT_FALSE(error.get_or("ok", false));
  EXPECT_EQ(error["error"].get_or("code", std::string{}), "not-found");
}

TEST(ServiceCore, SubmitPreflightLintRejectsBeforeCreatingAnything) {
  TempDir dir;
  ServiceCore::Options options;
  options.root = dir.file("service");
  ServiceCore core(options);

  Json manifest = sliced_manifest("badcase");
  // Reference a parameter no sweep declares: the template can never render
  // (FF201) — a defect only the lint catches, not manifest deserialization.
  std::string text = manifest.dump();
  const size_t at = text.find("--x {{x}}");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 9, "--x {{x}} --y {{y}}");
  manifest = Json::parse(text);

  try {
    core.submit(config_for(manifest), "s1");
    FAIL() << "expected the preflight lint to reject the manifest";
  } catch (const ValidationError& error) {
    EXPECT_NE(std::string(error.what()).find("preflight lint"),
              std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("FF201"), std::string::npos)
        << error.what();
  }
  // Nothing was created: no endpoint directory, no campaign registered.
  EXPECT_FALSE(std::filesystem::exists(dir.file("service") + "/badcase"));
  EXPECT_THROW(core.info("badcase"), NotFoundError);
  // The memoized verdict rejects the resubmission too.
  EXPECT_THROW(core.submit(config_for(manifest), "s1"), ValidationError);
}

}  // namespace
}  // namespace ff::service
