#pragma once

// Shared helpers for the fairflowd test battery: a manifest factory whose
// walltime forces multi-slice execution, the batch-path reference runner
// (the byte-parity oracle), and a minimal blocking socket client.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include "cheetah/campaign.hpp"
#include "cheetah/endpoint.hpp"
#include "savanna/campaign_runner.hpp"
#include "service/protocol.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace ff::service::testing {

/// `runs` runs of ~300 s against an 800 s walltime: every allocation fits
/// only a couple of runs, so campaigns take several scheduler slices. 800
/// (not lower) because seed-5 sampling throws the occasional ~765 s
/// straggler — every run must still fit one allocation, or the campaign
/// legitimately ends with killed runs.
inline Json sliced_manifest(const std::string& name, int64_t runs = 6) {
  cheetah::AppSpec app;
  app.name = "toy";
  app.executable = "toy_exe";
  app.args_template = "--x {{x}}";
  cheetah::Campaign campaign(name, app);
  cheetah::Sweep sweep("xs");
  sweep.add(cheetah::Parameter::int_range("x", cheetah::ParamLayer::Application,
                                          0, runs - 1));
  cheetah::SweepGroup group("g1");
  group.add(std::move(sweep));
  group.set_nodes(1);
  group.set_walltime_s(800.0);
  campaign.add_group(std::move(group));
  return campaign.to_json();
}

/// The batch path, verbatim (the irf_census idiom): one uncapped
/// run_with_resubmission against a private simulation/tracker/journal,
/// identical duration sampling (seed 5) and journal policy. Returns the
/// endpoint directory.
inline std::string run_batch_reference(
    const Json& manifest, const std::string& root,
    const savanna::JournalPolicy& journal_policy = {}) {
  cheetah::Campaign campaign = cheetah::Campaign::from_json(manifest);
  cheetah::CampaignEndpoint endpoint =
      cheetah::CampaignEndpoint::create(campaign, root);
  const cheetah::SweepGroup& group = campaign.groups().front();

  std::vector<sim::TaskSpec> tasks;
  std::vector<std::string> run_ids;
  for (const cheetah::RunSpec& run : group.generate()) {
    sim::TaskSpec task;
    task.id = run.id;
    run_ids.push_back(run.id);
    tasks.push_back(std::move(task));
  }
  sim::DurationModel durations;
  Rng rng(5);
  for (sim::TaskSpec& task : tasks) task.duration_s = durations.sample(rng);

  savanna::CampaignRunOptions options;
  options.execution.nodes = group.nodes();
  options.execution.walltime_s = group.walltime_s();
  options.journal = journal_policy;

  sim::Simulation sim;
  savanna::RunTracker tracker;
  savanna::CampaignJournal journal = savanna::CampaignJournal::create(
      endpoint.journal_path(), campaign.name(), run_ids);
  savanna::run_with_resubmission(sim, tasks, options, &tracker, &journal);

  for (const sim::TaskSpec& task : tasks) {
    if (!tracker.has_run(task.id)) continue;
    const std::string state = tracker.status(task.id).state;
    if (state == "pending") continue;  // never started: stays Pending
    cheetah::RunState mark = cheetah::RunState::Killed;
    if (state == "done") {
      mark = cheetah::RunState::Done;
    } else if (state == "failed" || state == "exhausted") {
      mark = cheetah::RunState::Failed;
    }
    endpoint.mark(task.id, mark);
  }
  endpoint.save();
  journal.close();
  return endpoint.directory();
}

/// Blocking client for subscription streams: same transport as WireClient
/// plus buffered line reading, because a watcher receives frames it never
/// asked for (pushed `event` frames) and a one-request/one-reply call()
/// would eat them. Also used by the hostile-input tests, which need raw
/// byte-level control plus the fd for socket-option abuse.
class StreamClient {
 public:
  explicit StreamClient(const std::string& unix_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, unix_path.c_str(), sizeof(addr.sun_path) - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~StreamClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  StreamClient(const StreamClient&) = delete;
  StreamClient& operator=(const StreamClient&) = delete;

  bool connected() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  bool send_raw(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool send(const Json& request) { return send_raw(encode_frame(request)); }

  /// Next newline-terminated frame (without the newline); false on EOF or
  /// transport error. Blocks until a full frame arrives.
  bool next_line(std::string& line) {
    for (;;) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        line.assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Next frame parsed as JSON; a null Json on EOF/transport error.
  Json next_json() {
    std::string line;
    if (!next_line(line)) return Json();
    return Json::parse(line);
  }

  /// Subscribe round-trip: sends the request, returns the reply frame
  /// (event frames only start after an ok reply, so this cannot misread).
  Json subscribe(const std::string& campaign, int64_t id = 1) {
    Json request = Json::object();
    request["cmd"] = "subscribe";
    request["id"] = id;
    request["campaign"] = campaign;
    if (!send(request)) return Json();
    return next_json();
  }

  void close_now() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Minimal blocking client for a fairflowd Unix socket: one request frame
/// out, one reply frame back.
class WireClient {
 public:
  explicit WireClient(const std::string& unix_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, unix_path.c_str(), sizeof(addr.sun_path) - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~WireClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  bool connected() const noexcept { return fd_ >= 0; }

  /// Send raw bytes without framing (for mid-frame disconnect tests).
  bool send_raw(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Round-trip one request; returns a null Json on transport failure.
  Json call(const Json& request) {
    if (!send_raw(encode_frame(request))) return Json();
    std::string line;
    char byte;
    for (;;) {
      const ssize_t n = ::recv(fd_, &byte, 1, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Json();
      if (byte == '\n') break;
      line.push_back(byte);
    }
    return Json::parse(line);
  }

  void close_now() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

}  // namespace ff::service::testing
