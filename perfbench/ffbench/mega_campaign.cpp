// mega_campaign: one tenant submits one sparse 16k-run campaign to a fresh
// fairflowd; a poller sends `status` on a fixed 5 ms schedule (open loop,
// pipelined on one connection; latency from the due time) until the
// campaign is done. Rounds repeat while another one fits in the run's time.

#include <atomic>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "generate.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

constexpr double kPollInterval = 0.005;
constexpr double kCampaignTimeout = 150.0;
constexpr size_t kMinSetups = 3;

struct Round {
  double ack_s = 0;
  double runs_per_s = 0;
  double rss_mb = 0;
  size_t allocations = 0;
};

/// The open-loop poller: a sender thread keeps the 5 ms schedule however
/// late replies are; this thread matches replies to their due times.
/// Returns the `status` campaign object that first read done (null if none).
ff::Json poll_until_done(const std::string& socket, const std::string& name,
                         Result& result, std::vector<double>& latency,
                         std::vector<double>& lateness, double& done_at) {
  Conn conn(socket);
  result.attempted += 1;
  if (!conn.ok()) {
    result.fail("poller connect failed");
    return ff::Json();
  }
  const double start = now_s();
  OpenLoop loop(start, kPollInterval);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> sent_count{0};
  std::mutex sent_mutex;
  std::unordered_map<uint64_t, double> sent_at;
  std::thread sender([&] {
    ff::Json status = request("status");
    status["campaign"] = name;
    for (uint64_t i = 0; !stop.load(); ++i) {
      wait_until(loop.due(i));
      if (stop.load()) break;
      status["id"] = static_cast<int64_t>(i);
      {
        std::lock_guard<std::mutex> lock(sent_mutex);
        sent_at[i] = now_s();
      }
      if (!conn.send(status)) break;
      sent_count.store(i + 1);
    }
  });

  ff::Json done;
  uint64_t received = 0;
  bool broken = false;
  while (!broken) {
    if (stop.load() && received >= sent_count.load()) break;
    if (now_s() - start > kCampaignTimeout) {
      result.fail("campaign " + name + " not done after " +
                  std::to_string(kCampaignTimeout) + " s");
      stop.store(true);
      break;
    }
    const std::optional<std::string> line = conn.read_line(0.5);
    if (!line) {
      if (conn.eof()) {
        result.fail("poller connection dropped");
        broken = true;
      }
      continue;
    }
    const double arrived = now_s();
    ff::Json reply;
    try {
      reply = ff::Json::parse(*line);
    } catch (const std::exception&) {
      result.fail("unreadable status reply");
      continue;
    }
    ++received;
    const uint64_t id = static_cast<uint64_t>(reply.get_or("id", int64_t{0}));
    double sent = arrived;
    {
      std::lock_guard<std::mutex> lock(sent_mutex);
      auto it = sent_at.find(id);
      if (it != sent_at.end()) sent = it->second;
    }
    loop.record(id, sent, arrived);
    if (!reply.get_or("ok", false)) {
      result.fail("status " + name + ": " + reply.dump());
      continue;
    }
    const ff::Json& campaign = reply["campaign"];
    const std::string state = campaign.get_or("state", "");
    if (done.is_null() && state != "queued" && state != "running") {
      done = campaign;
      done_at = arrived;
      stop.store(true);
    }
  }
  stop.store(true);
  sender.join();
  result.attempted += sent_count.load();
  latency.insert(latency.end(), loop.latencies().begin(), loop.latencies().end());
  lateness.insert(lateness.end(), loop.lateness().begin(), loop.lateness().end());
  return done;
}

}  // namespace

Result run_mega_campaign(const Options& options) {
  Result result;
  std::vector<Round> rounds;
  std::vector<double> setups;
  std::vector<double> latency, lateness;
  const double deadline = now_s() + options.seconds;

  // Another round starts only if one more fits before the deadline.
  double round_s = 0;
  for (uint64_t k = 0; rounds.empty() || now_s() + round_s <= deadline; ++k) {
    const double round_start = now_s();
    const std::string dir = "mega" + std::to_string(k);
    std::filesystem::create_directories(dir + "/campaigns");
    Round round;
    const double spawned = now_s();
    Daemon daemon(options.fairflowd, dir + "/ff.sock", dir + "/campaigns",
                  dir + "/fairflowd.log");
    if (!daemon.wait_ready()) {
      result.problems.push_back("fairflowd did not become ready");
      return result;
    }
    setups.push_back(now_s() - spawned);

    const std::string name = "mega-" + std::to_string(options.seed % 100000) +
                             "-" + std::to_string(k);
    const ff::Json submit = mega_submit(options.seed, k, name);
    Conn tenant(daemon.socket_path());
    result.attempted += 2;  // the submit request and the campaign
    const double sent = now_s();
    const ff::Json ack = tenant.call(submit, 120.0);
    round.ack_s = now_s() - sent;
    if (!ack.get_or("ok", false)) {
      result.fail("submit " + name + ": " + ack.dump());
      result.fail("campaign " + name + " never submitted");
      break;
    }
    double done_at = 0;
    const ff::Json campaign = poll_until_done(daemon.socket_path(), name, result,
                                              latency, lateness, done_at);
    if (!fully_done(campaign)) {
      result.fail("campaign " + name + " did not finish with every run done: " +
                  campaign.dump());
      break;
    }
    round.allocations = static_cast<size_t>(campaign.get_or("allocations", int64_t{0}));
    round.runs_per_s =
        static_cast<double>(campaign["counts"].get_or("done", int64_t{0})) /
        (done_at - sent);
    round.rss_mb = daemon.peak_rss_mb();
    if (k == 0) {
      const std::string why = batch_parity(
          submit, dir + "/campaigns/" + name + "/.campaign/journal.jsonl",
          "parity");
      if (!why.empty()) result.problems.push_back("batch parity: " + why);
      remove_tree("parity");
    }
    if (!daemon.stop()) result.problems.push_back("fairflowd did not drain cleanly");
    remove_tree(dir);
    rounds.push_back(round);
    round_s = now_s() - round_start;
  }
  // Set-up is reported as a median of several spawns even when only one
  // round fit the run.
  while (setups.size() < kMinSetups) {
    const std::string dir = "mega-setup";
    std::filesystem::create_directories(dir + "/campaigns");
    const double start = now_s();
    Daemon daemon(options.fairflowd, dir + "/ff.sock", dir + "/campaigns",
                  dir + "/fairflowd.log");
    if (!daemon.wait_ready()) {
      result.problems.push_back("fairflowd did not become ready");
      return result;
    }
    setups.push_back(now_s() - start);
    daemon.stop();
    remove_tree(dir);
  }
  if (rounds.empty()) return result;

  std::vector<double> acks, rates, rss, allocations;
  for (const Round& round : rounds) {
    acks.push_back(round.ack_s);
    rates.push_back(round.runs_per_s);
    rss.push_back(round.rss_mb);
    allocations.push_back(static_cast<double>(round.allocations));
  }
  const Tail status_p90 = pick_tail(latency, 0.90);
  const Tail status_p99 = pick_tail(latency, 0.99);
  const Tail late_p99 = pick_tail(lateness, 0.99);
  result.metric("setup_s", median(setups), "s");
  result.metric("latency_p50_ms", median(latency) * 1e3, "ms");
  result.metric("throughput_per_s", median(rates), "1/s");

  result.note("setup_s", median(setups), "s");
  result.note_median("status_p50_ms", latency, 1e3, "ms");
  result.note_tail("status_p90_ms", status_p90, 1e3, "ms");
  result.note_tail("status_p99_ms", status_p99, 1e3, "ms");
  result.note("submit_ack_s", median(acks), "s");
  result.note("campaign_runs_per_s", median(rates), "runs/s");
  result.note("peak_rss_mb", median(rss), "MB");
  result.note("rounds", static_cast<double>(rounds.size()), "count");
  result.note("allocations", median(allocations), "count");
  result.note_tail("generator_lateness_p99_ms", late_p99, 1e3, "ms");
  return result;
}

}  // namespace perfbench
