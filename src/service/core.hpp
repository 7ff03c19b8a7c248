#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cheetah/endpoint.hpp"
#include "cluster/workload.hpp"
#include "lint/workspace.hpp"
#include "obs/trace.hpp"
#include "savanna/campaign_runner.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace ff::service {

/// A session exceeded its campaign quota (ServiceCore::Options::
/// max_campaigns_per_session). Mapped to the `quota-exceeded` wire error.
struct QuotaError : Error {
  using Error::Error;
};

/// Everything one "submit" carries: the manifest plus the knobs the batch
/// path used to hard-code. campaign_config_from_request() parses the wire
/// shape; in-process clients (the batch example, tests) fill it directly.
struct CampaignConfig {
  Json manifest;
  /// Which sweep group to execute; "" = the manifest's first group.
  std::string group;
  /// Virtual run times are sampled per task id from this model with
  /// `duration_seed` — same seed + same manifest ⇒ same durations, which is
  /// what makes a service execution byte-identical to the batch path.
  sim::DurationModel durations;
  uint64_t duration_seed = 5;
  /// nodes/walltime default to the chosen group's footprint; a request's
  /// "execution" object may pin them instead.
  std::optional<int64_t> nodes;
  std::optional<double> walltime_s;
  savanna::RetryPolicy retry;
  savanna::JournalPolicy journal;
  savanna::Backend backend = savanna::Backend::Pilot;
};

/// Parse the wire "submit" fields (manifest/group/duration/execution/
/// retry/journal) into a config. Throws ValidationError on bad values.
CampaignConfig campaign_config_from_request(const Json& request);

/// A point-in-time campaign summary, as `status`/`list` report it.
struct CampaignInfo {
  std::string name;
  std::string state;  // queued | running | done | cancelled | failed
  std::string directory;
  std::string owner;  // session id that submitted it
  size_t run_count = 0;
  size_t allocations = 0;
  savanna::RunTracker::Counts counts;
  std::string error;  // non-empty iff state == failed

  Json to_json() const;
};

/// The engine behind fairflowd — and, via drain(), behind the in-process
/// batch path: `CampaignEndpoint` submission, preflight lint, and a fair
/// round-robin scheduler multiplexing every accepted campaign onto one
/// shared simulated cluster.
///
/// Sharing model: the service owns the cluster's node-hours and grants them
/// as *allocation slices* — one allocation per grant, campaigns taken in
/// round-robin order, at most `workers` slices in flight and never two for
/// the same campaign. Each campaign's provenance clock stays campaign-local
/// (allocations accumulate virtual time exactly as in the batch runner), so
/// a campaign's journal and tracker are byte-identical to an uninterrupted
/// batch execution: each campaign keeps one savanna::CampaignDriver over
/// its persistent simulation, tracker, and journal, and a slice is one
/// step() of it — one turn of the batch loop. A campaign adopted from disk
/// is first rebuilt from its journal, once (savanna::recover_campaign), and
/// then sliced the same way.
class ServiceCore {
 public:
  struct Options {
    /// Campaign endpoints are created under this directory.
    std::string root;
    /// Slice executor threads (concurrent allocation grants).
    size_t workers = 2;
    /// Quota stub: campaigns one session may own at once.
    size_t max_campaigns_per_session = 8;
    /// Campaigns with more runs than this get a *sparse* endpoint (no
    /// per-run directories; see CampaignEndpoint::CreateOptions) and a
    /// digest-only journal header — the submit path for million-run
    /// manifests. Matches savanna::kInlineRunListMax by default so the
    /// endpoint goes sparse exactly when the journal stops inlining ids.
    size_t sparse_endpoint_runs = 4096;
  };

  explicit ServiceCore(Options options);
  ~ServiceCore();

  ServiceCore(const ServiceCore&) = delete;
  ServiceCore& operator=(const ServiceCore&) = delete;

  /// Lint (through the shared workspace analyzer — error findings throw
  /// ValidationError *before any directory exists*, and a resubmitted
  /// already-vetted manifest skips the rule run via the digest memo),
  /// materialize the endpoint, create the journal, and enqueue the
  /// campaign. Returns the campaign name. Throws QuotaError past the
  /// session quota, StateError on a duplicate name, ValidationError on a
  /// bad manifest.
  std::string submit(const CampaignConfig& config, const std::string& session);

  /// The `lint` command: whole-workspace analysis of a server-side
  /// directory, byte-identical findings to `fairflow-lint --workspace
  /// --format=jsonl` on the same tree. Returns the reply payload —
  /// "diagnostics" (sorted array of Diagnostic::to_json objects),
  /// severity counts, and cache statistics. Throws NotFoundError when
  /// `root` is not a directory.
  Json lint_workspace(const std::string& root, bool werror);

  /// The lint engine behind both the submit preflight and lint_workspace().
  /// fairflowd_main registers the built-in gwas-paste model here so daemon
  /// linting matches the fairflow-lint CLI rule-for-rule.
  lint::WorkspaceAnalyzer& analyzer() noexcept { return analyzer_; }

  CampaignInfo info(const std::string& name) const;
  std::vector<CampaignInfo> list() const;

  /// Stop scheduling `name` after its in-flight slice (if any) finishes.
  /// Returns false when the campaign is already terminal.
  bool cancel(const std::string& name);

  /// Re-enqueue a cancelled or failed campaign, or adopt one a previous
  /// process left on disk (endpoint + `.campaign/service.json`). A campaign
  /// without an open journal has it replayed once, by its next slice, so
  /// execution continues where it stopped. Throws ValidationError when the
  /// adopted manifest has no sweep groups.
  void resume(const std::string& name);

  /// Block until every live campaign reaches a terminal state (done /
  /// cancelled / failed). This is the batch path: submit + drain ≡ the old
  /// inline run loop.
  void drain();

  /// Stop granting new slices, wait for in-flight slices to finish
  /// (journals flush at slice boundaries, so this is the SIGTERM drain:
  /// what was granted completes, the rest stays resumable), and park the
  /// scheduler. Idempotent.
  void stop();

  /// Most recent service events (oldest first), newest `count` of them.
  std::vector<Json> trace_tail(size_t count) const;

  /// Emit one `service.*` event: the obs trace instant (trace files and
  /// `subscribe` streams) and the bounded tail behind trace_tail(), both
  /// from the same args. The dispatcher records `service.request` here.
  void emit(const char* name, std::initializer_list<obs::Arg> args);

  const Options& options() const noexcept { return options_; }

 private:
  struct CampaignState;

  void enqueue_locked(const std::string& name);
  void pump_locked();
  void run_slice(const std::string& name);
  void finalize_locked(CampaignState& campaign);
  void set_state_locked(CampaignState& campaign, const std::string& state);
  void emit_locked(const char* name, std::initializer_list<obs::Arg> args);

  Options options_;
  lint::WorkspaceAnalyzer analyzer_;  // own lock, ordered after mutex_
                                      // (submit holds mutex_ while linting;
                                      // nothing takes them the other way)
  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::map<std::string, std::unique_ptr<CampaignState>> campaigns_;
  std::deque<std::string> round_robin_;  // runnable, not in flight
  size_t slices_in_flight_ = 0;
  bool stopping_ = false;
  std::deque<Json> events_;  // bounded service-event tail
  ThreadPool pool_;          // slice executors (last member: dies first)
};

}  // namespace ff::service
