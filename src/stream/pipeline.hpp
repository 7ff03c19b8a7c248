#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "stream/channel.hpp"
#include "stream/marshal.hpp"
#include "stream/scheduler.hpp"

namespace ff::stream {

/// Per-queue transport configuration on the concurrent plane.
struct QueueOptions {
  size_t capacity = 256;                ///< bounded channel size
  Overflow overflow = Overflow::Block;  ///< producer behaviour when full
  /// Records one dispatch delivers before the queue's worker moves on to
  /// its next queue. The whole batch is taken from the channel in one bulk
  /// pop, so raising this amortizes the channel synchronization; per-queue
  /// delivery order is unaffected (one thread drains each queue).
  size_t batch = 64;
  /// Channel implementation. The pipeline's per-queue scheduler lock
  /// serializes producers, so the lock-free single-producer ring is safe
  /// and is the default hot path; `Mutex` restores the PR-4 transport.
  ChannelKind channel = ChannelKind::Spsc;
  /// Codec used by this queue's wire tap (see set_wire_sink). `Binary`
  /// requires a schema registered via register_schema.
  WireFormat format = WireFormat::SelfDescribing;
};

/// The Fig. 5 data plane with real threads: a thread-safe DataScheduler
/// whose virtual queues each drain through their own bounded Channel into
/// ordered consumer dispatch on the worker that owns the queue.
///
///   instrument threads ──publish()──▶ DataScheduler (policies, per-queue
///   lock) ──releases──▶ per-queue bounded Channel ──▶ the queue's owning
///   worker ──▶ subscribed consumers
///
/// Each queue is pinned to one worker at install (the one owning the fewest
/// queues). A worker drains its queues in turn, up to `batch` records each,
/// and sleeps on an eventcount only when all of them are empty. A published
/// record is copied once and shared: every queue's channel carries
/// RecordRefs to the same immutable record. Each publish call hands a queue
/// its releases as one batch — one bulk push into the channel and one wake
/// of its worker — not one handoff per record.
///
/// Guarantees:
///   - *Per-queue order.* Consumers observe one queue's releases in exactly
///     the order its policy released them: releases enter the channel under
///     the queue's scheduler lock, the channel is FIFO, and only the queue's
///     owning worker takes records out of it. Release order is therefore
///     bit-identical across 1/2/4/8 workers.
///   - *Punctuation order.* control()/punctuate() run the policy under the
///     same per-queue lock as publish(), so a queue observes a control
///     message strictly after every record published causally before it
///     (same-thread program order; cross-thread via the lock).
///   - *Backpressure.* With Overflow::Block a full channel blocks the
///     publisher until workers catch up — end-to-end flow control, zero
///     drops. The queue's worker is woken before the publisher blocks. A
///     publisher that is itself a consumer on a plane worker never parks:
///     it drains the other queues its worker owns until the edge has room,
///     since the edge's owner may be its own thread. The lossy policies
///     never block and count evictions instead.
///   - *Clean shutdown.* shutdown() closes every channel, lets each worker
///     drain what its queues still hold through the normal consumer path,
///     joins the workers, and delivers any record a racing publisher
///     pushed after that. Nothing accepted by a channel is lost.
///
/// Consumers run on the plane's workers; a consumer may publish() back into
/// the pipeline (different queue) or install/remove queues, but must not
/// call shutdown() from inside a delivery.
class StreamPipeline {
 public:
  explicit StreamPipeline(size_t workers);
  ~StreamPipeline();  // implies shutdown()

  StreamPipeline(const StreamPipeline&) = delete;
  StreamPipeline& operator=(const StreamPipeline&) = delete;

  size_t worker_count() const noexcept { return workers_.size(); }

  /// Install a virtual queue whose releases ride the concurrent plane.
  void install_queue(const std::string& queue,
                     std::unique_ptr<SelectionPolicy> policy,
                     QueueOptions options = {});
  /// Remove a queue, draining already-released records to consumers first.
  void remove_queue(const std::string& queue);
  bool has_queue(const std::string& queue) const noexcept;

  /// Consumers see (queue, record) in per-queue release order. Subscribe
  /// before records flow; concurrent subscription is safe but late
  /// subscribers miss earlier deliveries.
  void subscribe(DataScheduler::Consumer consumer);

  /// Declare the record schema flowing through `queue`. Required before a
  /// wire sink can be attached (the codecs marshal against it); consumers
  /// that only take Records never need it.
  void register_schema(const std::string& queue, StreamSchema schema);
  /// The schema registered for `queue`, if any.
  std::shared_ptr<const StreamSchema> schema_of(const std::string& queue) const;

  /// A wire tap: after each drain batch the records are marshalled with
  /// the queue's configured WireFormat into one self-contained chunk
  /// (header + frames, independently decodable) and handed to the sink on
  /// the strand — the "forwarding component" half of Fig. 5, feeding a
  /// downstream transport. Throws StateError if no schema is registered.
  using WireSink = std::function<void(const std::string& queue,
                                      std::vector<uint8_t> chunk)>;
  void set_wire_sink(const std::string& queue, WireSink sink);

  /// Control plane passthrough (all thread-safe; see DataScheduler).
  void publish(const Record& record) { scheduler_.publish(record); }
  void publish_batch(const std::vector<Record>& records) {
    scheduler_.publish_batch(records);
  }
  void control(const std::string& queue, const Json& argument) {
    scheduler_.control(queue, argument);
  }
  void punctuate(const Json& argument) { scheduler_.punctuate(argument); }
  void set_active(const std::string& queue, bool active) {
    scheduler_.set_active(queue, active);
  }

  /// The underlying scheduler, for stats() and advanced control-plane use.
  DataScheduler& scheduler() noexcept { return scheduler_; }

  /// Stop the plane: no further releases enter the channels; everything
  /// already accepted is delivered; workers join. Idempotent.
  void shutdown();

  /// Block until every record released so far has reached the consumers
  /// (or was dropped). Safe to call while producers are paused (not racing
  /// new publishes).
  void wait_quiescent();

  struct QueueReport {
    uint64_t released = 0;   ///< records the policy released into the channel
    uint64_t delivered = 0;  ///< records handed to consumers
    uint64_t dropped = 0;    ///< evicted by the overflow policy (+ rejected at shutdown)
    size_t depth = 0;        ///< records currently queued in the channel
    Overflow overflow = Overflow::Block;
    ChannelKind channel = ChannelKind::Spsc;
    WireFormat format = WireFormat::SelfDescribing;
    size_t batch = 0;
  };
  QueueReport report(const std::string& queue) const;

  struct Totals {
    uint64_t delivered = 0;
    uint64_t dropped = 0;
  };
  Totals totals() const;

 private:
  /// What a delivery needs besides the records: a copy of the consumer
  /// list and the queue's wire tap, as of `version`.
  struct DeliveryView {
    uint64_t version = 0;  ///< config_version_ this copy was taken at
    std::shared_ptr<const std::vector<DataScheduler::Consumer>> consumers;
    std::shared_ptr<const StreamSchema> schema;
    WireSink wire_sink;
  };

  struct Worker;

  struct PipeQueue {
    std::string name;
    std::unique_ptr<BasicChannel<RecordRef>> channel;
    Overflow overflow = Overflow::Block;
    size_t batch = 64;                     ///< records per dispatch
    WireFormat format = WireFormat::SelfDescribing;
    Worker* owner = nullptr;               ///< the one thread that drains it
    std::atomic<uint64_t> released{0};
    std::atomic<uint64_t> delivered{0};    ///< counted once consumers return
    std::atomic<uint64_t> rejected{0};     ///< offers refused (closed channel)
    std::atomic<bool> removed{false};      ///< owner retires it when set
    // Wire-tap state; guarded by the pipeline mutex.
    std::shared_ptr<const StreamSchema> schema;
    WireSink wire_sink;
    // The owner's own state: the view it delivers with, its pop buffer
    // (reused across dispatches), and whether a delivery is under way (a
    // consumer publishing from inside it must not re-enter the queue).
    DeliveryView view;
    std::vector<RecordRef> popped;
    bool delivering = false;
  };

  using QueueList = std::vector<std::shared_ptr<PipeQueue>>;

  /// A plane thread and the queues pinned to it. It parks on an eventcount
  /// (`epoch`, `waiters`) only after finding all of its queues empty.
  struct Worker {
    const StreamPipeline* plane = nullptr;
    std::mutex mutex;  // guards owned, stopping, and the park
    std::condition_variable work_ready;
    std::shared_ptr<const QueueList> owned = std::make_shared<QueueList>();
    bool stopping = false;
    std::atomic<uint64_t> epoch{0};
    std::atomic<uint32_t> waiters{0};
    std::thread thread;
  };

  /// The plane worker the calling thread is, if any.
  static thread_local Worker* this_thread_worker_;

  void offer(const std::shared_ptr<PipeQueue>& queue,
             std::vector<RecordRef>& released);
  size_t push_blocking(const std::shared_ptr<PipeQueue>& queue,
                       RecordRef* records, size_t count);
  /// Wake `worker` if it is parked (or about to park).
  void wake(Worker& worker);
  void run(Worker& worker);
  std::shared_ptr<const QueueList> owned_by(Worker& worker) const;
  /// Move `queue` into or out of `worker`'s list.
  void assign(Worker& worker, const std::shared_ptr<PipeQueue>& queue, bool add);
  /// One dispatch of `queue` on its owner: pop up to `batch`, deliver.
  /// Returns whether it delivered anything.
  bool drain(PipeQueue& queue);
  /// The owner's last pass over a removed queue: take what is left, once
  /// no push is in flight, deliver it, and drop the queue from its list.
  void retire(Worker& worker, const std::shared_ptr<PipeQueue>& queue);
  /// Hands `batch` to the consumers and the wire tap, on the queue's owner
  /// (or on shutdown's caller once the workers have joined).
  void deliver(PipeQueue& queue, const std::vector<RecordRef>& batch);
  std::shared_ptr<PipeQueue> find_queue(const std::string& queue) const;
  std::vector<std::shared_ptr<PipeQueue>> snapshot() const;

  DataScheduler scheduler_;
  std::vector<std::unique_ptr<Worker>> workers_;
  mutable std::mutex mutex_;  // guards queues_ registry + stopped_
  std::map<std::string, std::shared_ptr<PipeQueue>> queues_;
  std::shared_ptr<const std::vector<DataScheduler::Consumer>> consumers_ =
      std::make_shared<std::vector<DataScheduler::Consumer>>();
  /// Bumped under mutex_ by every subscribe/register_schema/set_wire_sink,
  /// so a worker re-reads a queue's DeliveryView only when something changed.
  std::atomic<uint64_t> config_version_{1};
  bool stopped_ = false;
};

/// The instrument producer stage: a dedicated thread feeding a pipeline
/// from a generator, with optional periodic punctuation — the "source" box
/// of the Fig. 5 workflow as a reusable component.
class InstrumentSource {
 public:
  /// `generator(i)` returns the i-th record, or nullopt to end the stream.
  using Generator = std::function<std::optional<Record>(uint64_t index)>;

  struct Options {
    uint64_t punctuate_every = 0;  ///< broadcast punctuation each N records (0 = never)
    Json punctuation = Json::object();
  };

  InstrumentSource(StreamPipeline& pipeline, Generator generator,
                   Options options);
  InstrumentSource(StreamPipeline& pipeline, Generator generator)
      : InstrumentSource(pipeline, std::move(generator), Options{}) {}
  ~InstrumentSource();  // implies join()

  InstrumentSource(const InstrumentSource&) = delete;
  InstrumentSource& operator=(const InstrumentSource&) = delete;

  /// Wait for the generator to finish. Does NOT shut the pipeline down —
  /// several sources can feed one plane.
  void join();

  uint64_t published() const noexcept {
    return published_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> published_{0};
  std::thread thread_;
};

}  // namespace ff::stream
