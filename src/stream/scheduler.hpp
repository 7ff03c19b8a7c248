#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stream/policy.hpp"

namespace ff::stream {

class StreamPipeline;

/// The data-scheduling component of the Fig. 5 workflow: sits between the
/// instrument (source) and downstream consumers, implementing a set of
/// *virtual data queues* — "the data scheduler implements a number of
/// virtual data queues, each defined by its own selection policy".
///
/// - publish() feeds a record to every installed queue's policy.
/// - control() delivers a punctuation/control message, either to one queue
///   or broadcast; it can also *install* and *activate* policies at
///   runtime, including policies "unknown at code-generation time"
///   (registered in the PolicyFactory below).
/// - Consumers subscribe per queue; releases are delivered synchronously on
///   the publishing thread unless the queue was installed with a sink, in
///   which case its releases flow into the sink — how StreamPipeline
///   (stream/pipeline.hpp), which passes one to install_queue, reroutes
///   them into bounded channels drained by worker threads.
/// - publish() copies the caller's record once (publish_batch() once per
///   record) into a RecordRef that every queue shares; policies keep and
///   release that reference, and consumers see the shared record.
///
/// Thread safety: every method may be called concurrently from any thread.
/// The queue registry is guarded by one mutex; each virtual queue has its
/// own mutex serializing its policy, stats, and delivery. Policy
/// invocations for one queue are therefore totally ordered, and all of one
/// call's releases are delivered (to the sink or the subscribers) under the
/// queue's lock, so per-queue release order equals policy-invocation order
/// — the ordering the punctuation guarantee of the concurrent plane builds
/// on. Two rules for callers:
///   - a consumer/sink may install/remove/activate queues, but must not
///     re-enter publish()/control()/punctuate() (the per-queue mutex is not
///     recursive);
///   - publish() racing remove_queue() may still deliver to the removed
///     queue (the snapshot keeps it alive — never a use-after-free).
class DataScheduler {
 public:
  using Consumer = std::function<void(const std::string& queue, const Record&)>;
  /// Per-queue delivery override. Called at most once per queue per
  /// publish()/publish_batch()/control()/punctuate() call, under the
  /// queue's lock, with all of that call's releases for the queue in policy
  /// order. The sink may move the references out; the buffer is the
  /// scheduler's and is cleared after the call.
  using Sink = std::function<void(const std::string& queue,
                                  std::vector<RecordRef>& released)>;

  /// Install a virtual queue with a policy. Active on install. A non-null
  /// `sink` is attached atomically, so no release can slip past it.
  void install_queue(const std::string& queue,
                     std::unique_ptr<SelectionPolicy> policy, Sink sink = nullptr);
  void remove_queue(const std::string& queue);
  bool has_queue(const std::string& queue) const noexcept;
  std::vector<std::string> queue_names() const;

  /// Selectively enable/disable a queue ("policies can be selectively
  /// invoked using input from the control channel").
  void set_active(const std::string& queue, bool active);
  bool is_active(const std::string& queue) const;

  void subscribe(Consumer consumer);

  /// Feed one record from the instrument into all active queues.
  void publish(const Record& record);

  /// Feed a run of records, in order, into all active queues. Equivalent
  /// to publish() once per record but amortizes the registry snapshot, the
  /// per-queue lock and the delivery (one sink call per queue) over the
  /// whole batch — the producer half of the batched hot path. Per-queue
  /// policy order is the batch order.
  void publish_batch(const std::vector<Record>& records);

  /// Control-channel message for one queue (punctuation argument forwarded
  /// to its policy).
  void control(const std::string& queue, const Json& argument);
  /// Broadcast punctuation to every active queue.
  void punctuate(const Json& argument);

  struct QueueStats {
    uint64_t arrivals = 0;
    uint64_t releases = 0;
  };
  QueueStats stats(const std::string& queue) const;

 private:
  struct VirtualQueue {
    mutable std::mutex mutex;  // serializes policy, stats, active
    std::unique_ptr<SelectionPolicy> policy;
    bool active = true;
    QueueStats stats;
    Sink sink;  // fixed at install
    /// One call's releases; reused across calls so a release allocates
    /// nothing once the buffer has grown.
    std::vector<RecordRef> released;
  };
  using QueueRef = std::pair<std::string, std::shared_ptr<VirtualQueue>>;

  /// Delivers entry.released — one call's releases — under entry.mutex
  /// (held by the caller), then clears it.
  void deliver_locked(const std::string& queue, VirtualQueue& entry);
  std::shared_ptr<VirtualQueue> require(const std::string& queue) const;
  std::vector<QueueRef> snapshot() const;

  mutable std::mutex mutex_;  // guards queues_ and consumers_
  std::map<std::string, std::shared_ptr<VirtualQueue>> queues_;
  /// Copy-on-write so publish() can read the list without holding mutex_.
  std::shared_ptr<const std::vector<Consumer>> consumers_ =
      std::make_shared<std::vector<Consumer>>();
};

/// Registry for policies that arrive *after* code generation: a remote
/// steering process names a policy kind plus arguments, and the factory
/// builds it. This is the runtime-specialization half of Section V-C.
class PolicyFactory {
 public:
  using Builder = std::function<std::unique_ptr<SelectionPolicy>(const Json& args)>;

  /// A factory preloaded with the built-in policies:
  /// forward-all, sliding-window-count {capacity}, sliding-window-time
  /// {horizon}, direct-selection {max_queue?}, sample-every {stride}.
  static PolicyFactory with_builtins();

  void register_kind(const std::string& kind, Builder builder);
  bool knows(const std::string& kind) const noexcept;
  std::unique_ptr<SelectionPolicy> build(const std::string& kind,
                                         const Json& args) const;

  /// Handle a control-channel install message:
  ///   {"install": {"queue": "q", "kind": "sliding-window-count",
  ///                "args": {"capacity": 8}}}
  void handle_install(DataScheduler& scheduler, const Json& message) const;

  /// Same message, but the queue lands on the concurrent plane: optional
  /// transport keys ride next to "kind"/"args" — "capacity" (bounded
  /// channel size), "overflow" ("block", "drop-oldest", "keep-latest"),
  /// "batch" (records per strand drain, ≥ 1), "channel" ("mutex", "spsc",
  /// "mpmc"), and "format" ("self-describing", "binary" — the wire-tap
  /// codec). Defined in stream/pipeline.cpp.
  void handle_install(StreamPipeline& pipeline, const Json& message) const;

 private:
  std::map<std::string, Builder> builders_;
};

}  // namespace ff::stream
