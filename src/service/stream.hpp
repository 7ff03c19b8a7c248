#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/json.hpp"

namespace ff::service {

/// One trace event as the wire carries it: `{"event": name, <args>...}`.
/// The `trace` tail and `subscribe` frames both spell events this way.
Json event_json(const char* name, const obs::Arg* args, size_t count);

/// The push half of the `subscribe` command: a process-wide fan-out from
/// the obs trace layer to per-subscriber bounded drop-oldest frame queues.
/// Publishing never blocks — a slow watcher loses its *own* oldest events
/// (counted in dropped()) and stalls nobody; the server turns a subscriber
/// whose socket also backs up into a `slow-consumer` disconnect.
///
/// Event attribution: `service.*` events carry an explicit `campaign` arg;
/// `savanna.*` events are attributed through the CampaignScope RAII the
/// scheduler wraps around each allocation slice. Events with no campaign
/// (session opens, pings) are not streamed — a subscription is per-campaign.
///
/// Sequencing: each campaign has one monotonic sequence counter, bumped per
/// published event whether or not anyone is subscribed. Every subscriber of
/// a campaign therefore sees strictly increasing `seq` values, and a
/// subscriber that saw no eviction sees them gap-free — the invariant
/// the watcher stress test asserts.
class TraceStreamer {
 public:
  static TraceStreamer& instance();

  TraceStreamer(const TraceStreamer&) = delete;
  TraceStreamer& operator=(const TraceStreamer&) = delete;

  /// Register a subscriber for `campaign` with a queue of `capacity` event
  /// frames. `wake` is invoked (possibly concurrently, from arbitrary
  /// emitting threads) after events are queued; it must be cheap and
  /// non-blocking — the server's wake coalesces into one self-pipe byte.
  /// Returns the subscription id (never 0). Installs the obs trace listener
  /// on the 0 -> 1 transition.
  uint64_t attach(const std::string& campaign, size_t capacity,
                  std::function<void()> wake);

  /// Drop a subscription; uninstalls the obs listener when none remain.
  /// Unknown ids are ignored (detach races close paths by design).
  void detach(uint64_t id);

  /// Append up to `max` pending event frames (each a complete
  /// newline-terminated wire frame) to `out`. Returns how many were taken.
  size_t drain(uint64_t id, std::vector<std::string>& out, size_t max);

  /// True when the subscription still has queued frames after a drain.
  bool has_pending(uint64_t id) const;

  /// Events this subscription lost to eviction (drop-oldest).
  uint64_t dropped(uint64_t id) const;

  size_t active() const;

  /// Queue one event for every subscriber of `campaign` and wake them.
  /// Called by the obs listener; tests publish directly.
  void publish(const std::string& campaign, const Json& event);

  /// The campaign sequence counter's next value (1 when never published).
  uint64_t next_seq(const std::string& campaign) const;

 private:
  struct Subscription {
    std::string campaign;
    size_t capacity = 1;
    std::deque<std::string> frames;  // guarded by mutex_
    uint64_t dropped = 0;            // guarded by mutex_
    std::function<void()> wake;
  };

  TraceStreamer() = default;
  static void on_trace(void* self, const obs::TraceEvent& event);
  void update_listener();
  /// The subscription `id`, or nullptr; caller holds mutex_.
  Subscription* find_locked(uint64_t id) const;

  mutable std::mutex mutex_;
  std::map<uint64_t, std::shared_ptr<Subscription>> subs_;
  std::map<std::string, uint64_t> seqs_;
  uint64_t next_id_ = 0;
  // Serializes listener install/uninstall against concurrent attach/detach
  // so the listener is set iff subscriptions exist (checked under mutex_).
  std::mutex install_mutex_;
};

/// RAII: attribute this thread's campaign-less trace events (the virtual-
/// clock `savanna.*` family) to one campaign for streaming. The scheduler
/// wraps each allocation slice in one of these; nesting restores the outer
/// scope on destruction.
class CampaignScope {
 public:
  explicit CampaignScope(std::string campaign);
  ~CampaignScope();

  CampaignScope(const CampaignScope&) = delete;
  CampaignScope& operator=(const CampaignScope&) = delete;

  /// The innermost active scope's campaign on this thread ("" when none).
  static const std::string& current();

 private:
  std::string previous_;
};

}  // namespace ff::service
