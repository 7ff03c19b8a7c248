// tenant_churn: many small dense campaigns through the real fairflowd.
//
//  - 2 tenants in a closed loop: connect, submit a 32-run campaign, poll
//    `status` every 2 ms until terminal, disconnect, think 50 ms. Every 8th
//    campaign is cancelled right after its ack.
//  - 1 operator connection: `list`, rewrite one artifact of the ~300-artifact
//    workspace, `lint` it, think 100 ms.
//  - 1 watcher: subscribes to the newest campaign and checks event `seq` has
//    no gaps.

#include <atomic>
#include <filesystem>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "generate.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

constexpr int kTenants = 2;
constexpr size_t kWorkspaceArtifacts = 300;
constexpr int kSetups = 3;
constexpr double kPollInterval = 0.002;
constexpr double kOperatorThink = 0.100;
constexpr double kTenantThink = 0.050;
/// The daemon's peak RSS is read once this many campaigns are done, so it
/// does not grow with however many campaigns a run manages to finish.
constexpr size_t kRssAfterCampaigns = 24;
constexpr double kCampaignTimeout = 60.0;

struct Shared {
  std::mutex mutex;
  Result result;
  std::vector<double> submit_s, status_s, done_s, list_s, lint_s;
  size_t campaigns_done = 0;
  size_t campaigns_cancelled = 0;
  size_t watch_episodes = 0;
  size_t watch_events = 0;
  std::string newest;
  pid_t daemon = -1;
  double rss_mb = 0;
  int64_t parity_index = -1;  // a fully done, never-cancelled campaign
  std::string parity_name;

  void fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mutex);
    result.fail(why);
  }
  void attempt(uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mutex);
    result.attempted += n;
  }
};

std::string campaign_name(uint64_t seed, uint64_t index) {
  return "churn-" + std::to_string(seed % 100000) + "-" + std::to_string(index);
}

void tenant_loop(Shared& shared, const std::string& socket, uint64_t seed,
                 int tenant, double deadline) {
  for (uint64_t k = 0; now_s() < deadline; ++k) {
    if (k > 0) std::this_thread::sleep_for(std::chrono::duration<double>(kTenantThink));
    const uint64_t index = k * kTenants + static_cast<uint64_t>(tenant);
    const std::string name = campaign_name(seed, index);
    const ff::Json submit = dense_submit(seed, index, name);
    shared.attempt(2);  // the submit request and the campaign itself
    Conn conn(socket);
    if (!conn.ok()) {
      shared.fail("tenant connect failed");
      shared.fail("campaign " + name + " never submitted");
      continue;
    }
    const double sent = now_s();
    const ff::Json ack = conn.call(submit);
    const double acked = now_s();
    if (!ack.get_or("ok", false)) {
      shared.fail("submit " + name + ": " + ack.dump());
      shared.fail("campaign " + name + " never submitted");
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(shared.mutex);
      shared.submit_s.push_back(acked - sent);
      shared.newest = name;
    }
    const bool cancel = index % 8 == 7;
    if (cancel) {
      ff::Json request = perfbench::request("cancel", 2);
      request["campaign"] = name;
      shared.attempt();
      if (!conn.call(request).get_or("ok", false)) shared.fail("cancel " + name);
    }
    ff::Json status = perfbench::request("status", 3);
    status["campaign"] = name;
    for (;;) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kPollInterval));
      const double asked = now_s();
      const ff::Json reply = conn.call(status);
      const double answered = now_s();
      shared.attempt();
      if (!reply.get_or("ok", false)) {
        shared.fail("status " + name + ": " + reply.dump());
        shared.fail("campaign " + name + " lost");
        break;
      }
      const ff::Json& campaign = reply["campaign"];
      const std::string state = campaign.get_or("state", "");
      std::lock_guard<std::mutex> lock(shared.mutex);
      shared.status_s.push_back(answered - asked);
      if (state == "done") {
        if (!fully_done(campaign)) {
          shared.result.fail("campaign " + name + " done with runs not done: " +
                             campaign["counts"].dump());
        } else {
          shared.done_s.push_back(answered - sent);
          if (++shared.campaigns_done == kRssAfterCampaigns) {
            shared.rss_mb = vm_hwm_mb(shared.daemon);
          }
          if (!cancel && shared.parity_index < 0) {
            shared.parity_index = static_cast<int64_t>(index);
            shared.parity_name = name;
          }
        }
        break;
      }
      if (state == "cancelled" && cancel) {
        ++shared.campaigns_cancelled;
        break;
      }
      if (state == "cancelled" || state == "failed" ||
          answered - sent > kCampaignTimeout) {
        shared.result.fail("campaign " + name + " ended " + state);
        break;
      }
    }
  }
}

void operator_loop(Shared& shared, const std::string& socket,
                   const std::string& workspace,
                   const std::vector<std::string>& artifacts,
                   int64_t cold_diagnostics, double deadline) {
  Conn conn(socket);
  shared.attempt();
  if (!conn.ok()) {
    shared.fail("operator connect failed");
    return;
  }
  ff::Json lint = request("lint", 2);
  lint["workspace"] = workspace;
  for (uint64_t version = 0; now_s() < deadline; ++version) {
    double start = now_s();
    const ff::Json listed = conn.call(request("list", 1));
    double end = now_s();
    shared.attempt(2);
    if (!listed.get_or("ok", false)) {
      shared.fail("list: " + listed.dump());
    } else {
      std::lock_guard<std::mutex> lock(shared.mutex);
      shared.list_s.push_back(end - start);
    }
    touch_artifact(artifacts[1 + version % (artifacts.size() - 1)], version);
    start = now_s();
    const ff::Json linted = conn.call(lint);
    end = now_s();
    if (!linted.get_or("ok", false) || linted.get_or("errors", int64_t{1}) != 0 ||
        static_cast<int64_t>(linted["diagnostics"].size()) != cold_diagnostics) {
      shared.fail("lint: unexpected reply " + linted.dump().substr(0, 200));
    } else {
      std::lock_guard<std::mutex> lock(shared.mutex);
      shared.lint_s.push_back(end - start);
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(kOperatorThink));
  }
}

void watcher_loop(Shared& shared, const std::string& socket, double deadline) {
  std::string last;
  while (now_s() < deadline) {
    std::string name;
    {
      std::lock_guard<std::mutex> lock(shared.mutex);
      name = shared.newest;
    }
    if (name.empty() || name == last) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    last = name;
    Conn conn(socket);
    ff::Json subscribe = request("subscribe", 1);
    subscribe["campaign"] = name;
    shared.attempt();
    const ff::Json reply = conn.call(subscribe);
    if (!reply.get_or("ok", false)) {
      shared.fail("subscribe " + name + ": " + reply.dump());
      continue;
    }
    int64_t previous = -1;
    size_t events = 0;
    bool gap = false;
    // Follow the campaign until it reaches a terminal state, or until it
    // has been quiet for 300 ms (it may have finished before we attached).
    while (now_s() < deadline + 5.0) {
      const std::optional<std::string> line = conn.read_line(0.3);
      if (!line) break;
      ff::Json frame;
      try {
        frame = ff::Json::parse(*line);
      } catch (const std::exception&) {
        gap = true;  // an unreadable frame is a lost event
        break;
      }
      const int64_t seq = frame.get_or("seq", int64_t{-1});
      if (seq < 0 || (previous >= 0 && seq != previous + 1)) gap = true;
      previous = seq;
      ++events;
      if (!frame.contains("event")) continue;
      const ff::Json& event = frame["event"];
      if (event.get_or("event", "") == "service.campaign.state") {
        const std::string state = event.get_or("state", "");
        if (state == "done" || state == "cancelled" || state == "failed") break;
      }
    }
    std::lock_guard<std::mutex> lock(shared.mutex);
    ++shared.watch_episodes;
    shared.watch_events += events;
    if (gap) shared.result.fail("watcher saw a seq gap on " + name);
  }
}

}  // namespace

Result run_tenant_churn(const Options& options) {
  Shared shared;
  Result& result = shared.result;

  // Set-up, several times: daemon spawn to socket ready, workspace
  // generation, and the cold `lint` that warms the daemon's digest cache.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  std::string dir;
  std::vector<std::string> artifacts;
  int64_t cold_diagnostics = -1;
  for (int k = 0; k < kSetups; ++k) {
    if (daemon) {
      daemon->stop();
      daemon.reset();
      remove_tree(dir);
    }
    dir = "churn" + std::to_string(k);
    std::filesystem::create_directories(dir + "/campaigns");
    const double start = now_s();
    daemon = std::make_unique<Daemon>(options.fairflowd, dir + "/ff.sock",
                                      dir + "/campaigns", dir + "/fairflowd.log");
    if (!daemon->wait_ready()) {
      result.problems.push_back("fairflowd did not become ready");
      return result;
    }
    artifacts = generate_workspace(dir + "/workspace", options.seed,
                                   kWorkspaceArtifacts);
    Conn conn(dir + "/ff.sock");
    ff::Json lint = request("lint");
    lint["workspace"] = dir + "/workspace";
    const ff::Json reply = conn.call(lint);
    setups.push_back(now_s() - start);
    if (!reply.get_or("ok", false) || reply.get_or("errors", int64_t{1}) != 0) {
      result.problems.push_back("cold workspace lint failed: " +
                                reply.dump().substr(0, 300));
      return result;
    }
    cold_diagnostics = static_cast<int64_t>(reply["diagnostics"].size());
  }
  const std::string socket = dir + "/ff.sock";
  shared.daemon = daemon->pid();

  const double start = now_s();
  const double deadline = start + options.seconds;
  std::vector<std::thread> threads;
  for (int tenant = 0; tenant < kTenants; ++tenant) {
    threads.emplace_back(tenant_loop, std::ref(shared), socket, options.seed,
                         tenant, deadline);
  }
  threads.emplace_back(operator_loop, std::ref(shared), socket,
                       dir + "/workspace", std::cref(artifacts),
                       cold_diagnostics, deadline);
  threads.emplace_back(watcher_loop, std::ref(shared), socket, deadline);
  for (std::thread& thread : threads) thread.join();
  const double wall = now_s() - start;
  const double rss = shared.rss_mb > 0 ? shared.rss_mb : daemon->peak_rss_mb();

  if (shared.parity_index < 0) {
    result.problems.push_back("no campaign completed; nothing to check");
  } else {
    const std::string why = batch_parity(
        dense_submit(options.seed, static_cast<uint64_t>(shared.parity_index),
                     shared.parity_name),
        dir + "/campaigns/" + shared.parity_name + "/.campaign/journal.jsonl",
        "parity");
    if (!why.empty()) result.problems.push_back("batch parity: " + why);
  }
  if (!daemon->stop()) result.problems.push_back("fairflowd did not drain cleanly");
  remove_tree(dir);
  remove_tree("parity");

  const Tail submit_p90 = pick_tail(shared.submit_s, 0.90);
  const Tail submit_p99 = pick_tail(shared.submit_s, 0.99);
  const Tail status_p99 = pick_tail(shared.status_s, 0.99);
  const double campaigns_per_s = static_cast<double>(shared.campaigns_done) / wall;
  result.metric("setup_s", median(setups), "s");
  result.metric("latency_p50_ms", median(shared.submit_s) * 1e3, "ms");
  result.metric("throughput_per_s", campaigns_per_s, "1/s");

  result.note("setup_s", median(setups), "s");
  result.note_median("submit_p50_ms", shared.submit_s, 1e3, "ms");
  result.note_tail("submit_p90_ms", submit_p90, 1e3, "ms");
  result.note_tail("submit_p99_ms", submit_p99, 1e3, "ms");
  result.note_median("campaign_done_p50_ms", shared.done_s, 1e3, "ms");
  result.note("campaigns_per_s", campaigns_per_s, "1/s");
  result.note_median("status_p50_ms", shared.status_s, 1e3, "ms");
  result.note_tail("status_p99_ms", status_p99, 1e3, "ms");
  result.note_median("lint_p50_ms", shared.lint_s, 1e3, "ms");
  result.note_median("list_p50_ms", shared.list_s, 1e3, "ms");
  result.note("peak_rss_mb", rss, "MB");
  result.note("campaigns_done", static_cast<double>(shared.campaigns_done), "count");
  result.note("campaigns_cancelled",
              static_cast<double>(shared.campaigns_cancelled), "count");
  result.note("lints", static_cast<double>(shared.lint_s.size()), "count");
  result.note("watch_episodes", static_cast<double>(shared.watch_episodes), "count");
  result.note("watch_events", static_cast<double>(shared.watch_events), "count");
  result.note("workspace_artifacts", static_cast<double>(artifacts.size()), "count");
  result.note("wall_s", wall, "s");
  return std::move(shared.result);
}

}  // namespace perfbench
