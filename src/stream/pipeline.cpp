#include "stream/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace ff::stream {

namespace {

Overflow parse_overflow(const std::string& name) {
  if (name == "block") return Overflow::Block;
  if (name == "drop-oldest") return Overflow::DropOldest;
  if (name == "keep-latest") return Overflow::KeepLatest;
  throw ValidationError("unknown overflow policy '" + name +
                        "' (want block, drop-oldest, or keep-latest)");
}

}  // namespace

thread_local StreamPipeline::Worker* StreamPipeline::this_thread_worker_ = nullptr;

StreamPipeline::StreamPipeline(size_t workers) {
  workers_.resize(std::max<size_t>(1, workers));
  for (auto& worker : workers_) {
    worker = std::make_unique<Worker>();
    worker->plane = this;
  }
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { run(*w); });
  }
  obs::trace_instant("stream", "stream.pipeline.start",
                     {{"workers", workers_.size()}});
}

StreamPipeline::~StreamPipeline() { shutdown(); }

void StreamPipeline::install_queue(const std::string& queue,
                                   std::unique_ptr<SelectionPolicy> policy,
                                   QueueOptions options) {
  if (options.batch == 0) {
    throw ValidationError("StreamPipeline: batch must be >= 1");
  }
  auto pipe = std::make_shared<PipeQueue>();
  pipe->name = queue;
  pipe->channel = make_channel<RecordRef>(options.channel, options.capacity);
  pipe->overflow = options.overflow;
  pipe->batch = options.batch;
  pipe->format = options.format;
  {
    std::lock_guard lock(mutex_);
    if (stopped_) throw StateError("StreamPipeline: install after shutdown");
    if (queues_.count(queue)) {
      throw ValidationError("StreamPipeline: queue '" + queue +
                            "' already exists");
    }
    queues_.emplace(queue, pipe);
    // Pin to the worker owning the fewest queues (the first such on ties).
    pipe->owner = std::min_element(workers_.begin(), workers_.end(),
                                   [this](const auto& a, const auto& b) {
                                     return owned_by(*a)->size() <
                                            owned_by(*b)->size();
                                   })
                      ->get();
  }
  assign(*pipe->owner, pipe, true);
  // The sink runs on publisher threads under the queue's scheduler lock, so
  // releases enter the channel in policy order and one producer at a time.
  // Attached atomically with the install: no release can bypass the channel.
  scheduler_.install_queue(
      queue, std::move(policy),
      [this, pipe](const std::string&, std::vector<RecordRef>& released) {
        offer(pipe, released);
      });
  obs::trace_instant("stream", "stream.pipeline.attach",
                     {{"queue", queue},
                      {"capacity", options.capacity},
                      {"overflow", overflow_name(options.overflow)},
                      {"channel", channel_kind_name(options.channel)}});
}

void StreamPipeline::remove_queue(const std::string& queue) {
  std::shared_ptr<PipeQueue> pipe;
  {
    std::lock_guard lock(mutex_);
    auto it = queues_.find(queue);
    if (it == queues_.end()) {
      throw NotFoundError("StreamPipeline: no queue '" + queue + "'");
    }
    pipe = it->second;
    queues_.erase(it);
  }
  // Stop new releases; the owner then delivers what the channel still holds
  // and forgets the queue. In-flight publishes still hold the PipeQueue
  // alive through the sink's shared_ptr, so this never races into a
  // use-after-free; their releases after close are counted as rejected.
  scheduler_.remove_queue(queue);
  pipe->removed.store(true, std::memory_order_release);
  pipe->channel->close();
  wake(*pipe->owner);
}

bool StreamPipeline::has_queue(const std::string& queue) const noexcept {
  std::lock_guard lock(mutex_);
  return queues_.count(queue) > 0;
}

void StreamPipeline::subscribe(DataScheduler::Consumer consumer) {
  if (!consumer) throw ValidationError("subscribe: null consumer");
  std::lock_guard lock(mutex_);
  auto next =
      std::make_shared<std::vector<DataScheduler::Consumer>>(*consumers_);
  next->push_back(std::move(consumer));
  consumers_ = std::move(next);
  config_version_.fetch_add(1, std::memory_order_release);
}

void StreamPipeline::register_schema(const std::string& queue,
                                     StreamSchema schema) {
  std::lock_guard lock(mutex_);
  auto it = queues_.find(queue);
  if (it == queues_.end()) {
    throw NotFoundError("StreamPipeline: no queue '" + queue + "'");
  }
  it->second->schema = std::make_shared<const StreamSchema>(std::move(schema));
  config_version_.fetch_add(1, std::memory_order_release);
}

std::shared_ptr<const StreamSchema> StreamPipeline::schema_of(
    const std::string& queue) const {
  std::lock_guard lock(mutex_);
  auto it = queues_.find(queue);
  if (it == queues_.end()) {
    throw NotFoundError("StreamPipeline: no queue '" + queue + "'");
  }
  return it->second->schema;
}

void StreamPipeline::set_wire_sink(const std::string& queue, WireSink sink) {
  std::lock_guard lock(mutex_);
  auto it = queues_.find(queue);
  if (it == queues_.end()) {
    throw NotFoundError("StreamPipeline: no queue '" + queue + "'");
  }
  if (sink && !it->second->schema) {
    throw StateError("StreamPipeline: queue '" + queue +
                     "' has no registered schema — register_schema() before "
                     "attaching a wire sink (the " +
                     wire_format_name(it->second->format) +
                     " codec marshals against it)");
  }
  it->second->wire_sink = std::move(sink);
  config_version_.fetch_add(1, std::memory_order_release);
  obs::trace_instant("stream", "stream.queue.wire",
                     {{"queue", queue},
                      {"format", wire_format_name(it->second->format)}});
}

void StreamPipeline::offer(const std::shared_ptr<PipeQueue>& queue,
                           std::vector<RecordRef>& released) {
  PipeQueue& pipe = *queue;
  const size_t count = released.size();
  pipe.released.fetch_add(count, std::memory_order_relaxed);
  size_t accepted = 0;
  if (pipe.overflow == Overflow::Block) {
    accepted = push_blocking(queue, released.data(), count);
  } else {
    // Lossy edges never block: each record is offered in turn, evicting
    // exactly as a per-record publish would.
    size_t evicted = 0;
    for (RecordRef& record : released) {
      const auto result = pipe.channel->offer(std::move(record), pipe.overflow);
      if (!result.accepted) break;
      ++accepted;
      evicted += result.evicted;
    }
    wake(*pipe.owner);
    if (evicted > 0) {
      obs::trace_instant("stream", "stream.pipeline.drop",
                         {{"queue", pipe.name}, {"count", evicted}});
    }
  }
  if (accepted < count) {
    pipe.rejected.fetch_add(count - accepted, std::memory_order_relaxed);
  }
}

size_t StreamPipeline::push_blocking(const std::shared_ptr<PipeQueue>& queue,
                                     RecordRef* records, size_t count) {
  BasicChannel<RecordRef>& channel = *queue->channel;
  Worker* const self = this_thread_worker_;
  const bool on_plane = self != nullptr && self->plane == this;
  size_t sent = 0;
  for (;;) {
    if (sent < count) sent += channel.try_send_batch(records + sent, count - sent);
    // Wake the owner before blocking: whatever this producer waits on
    // below, the worker that empties the edge is running. The scheduler's
    // per-queue lock admits one producer per queue, so an edge with room
    // cannot fill under us between the push and this point.
    wake(*queue->owner);
    if (sent == count || channel.closed()) return sent;
    if (on_plane) {
      // A consumer publishing from a plane worker: the edge's owner may be
      // this very thread, or be waiting on one of its queues. Drain what
      // this worker owns instead of parking; a queue mid-delivery is
      // skipped, so per-queue order holds.
      bool progressed = false;
      const auto owned = owned_by(*self);
      for (const auto& mine : *owned) {
        if (!mine->delivering) progressed |= drain(*mine);
      }
      if (!progressed) std::this_thread::yield();
    } else if (channel.send(std::move(records[sent]))) {
      ++sent;
    } else {
      return sent;  // closed while waiting
    }
  }
}

void StreamPipeline::wake(Worker& worker) {
  // Eventcount (waker side): the caller's push, then the fence, then the
  // waiter count. Pairs with the fence in run() after a worker registers,
  // so either that worker's re-check sees the push or we see it waiting.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (worker.waiters.load(std::memory_order_relaxed) == 0) return;
  {
    std::lock_guard lock(worker.mutex);
    worker.epoch.fetch_add(1, std::memory_order_relaxed);
  }
  worker.work_ready.notify_one();
}

std::shared_ptr<const StreamPipeline::QueueList> StreamPipeline::owned_by(
    Worker& worker) const {
  std::lock_guard lock(worker.mutex);
  return worker.owned;
}

void StreamPipeline::assign(Worker& worker,
                            const std::shared_ptr<PipeQueue>& queue, bool add) {
  std::lock_guard lock(worker.mutex);
  auto next = std::make_shared<QueueList>(*worker.owned);
  if (add) {
    next->push_back(queue);
  } else {
    next->erase(std::remove(next->begin(), next->end(), queue), next->end());
  }
  worker.owned = std::move(next);
}

void StreamPipeline::run(Worker& worker) {
  this_thread_worker_ = &worker;
  for (;;) {
    bool progressed = false;
    const auto owned = owned_by(worker);
    for (const auto& queue : *owned) {
      if (queue->removed.load(std::memory_order_acquire)) {
        retire(worker, queue);
        progressed = true;
      } else {
        progressed |= drain(*queue);
      }
    }
    if (progressed) continue;
    // Eventcount (waiter side): register, fence, re-check, and only then
    // sleep until a wake moves the epoch.
    const uint64_t epoch = worker.epoch.load(std::memory_order_relaxed);
    worker.waiters.fetch_add(1, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    bool pending = false;
    const auto fresh = owned_by(worker);  // an install may have added one
    for (const auto& queue : *fresh) {
      pending |= queue->channel->size() > 0 ||
                 queue->removed.load(std::memory_order_acquire);
    }
    std::unique_lock lock(worker.mutex);
    if (!pending && !worker.stopping) {
      worker.work_ready.wait(lock, [&] {
        return worker.epoch.load(std::memory_order_relaxed) != epoch ||
               worker.stopping;
      });
    }
    worker.waiters.fetch_sub(1, std::memory_order_relaxed);
    if (worker.stopping && !pending) return;
  }
}

bool StreamPipeline::drain(PipeQueue& queue) {
  // One bulk pop per dispatch into the queue's reused buffer: the channel
  // synchronization is paid once per batch instead of once per record.
  const size_t taken = queue.channel->drain_into(queue.popped, queue.batch);
  if (taken == 0) return false;
  deliver(queue, queue.popped);
  queue.popped.clear();
  if (obs::tracing_enabled()) {
    obs::trace_instant("stream", "stream.queue.drain_batch",
                       {{"queue", queue.name}, {"count", taken}});
    obs::trace_counter("stream", "stream.queue.depth",
                       static_cast<double>(queue.channel->size()),
                       {{"queue", queue.name}});
  }
  return true;
}

void StreamPipeline::retire(Worker& worker,
                            const std::shared_ptr<PipeQueue>& queue) {
  // close_and_drain waits out pushes that passed the closed check, so
  // nothing can enter the channel after this take.
  const std::vector<RecordRef> leftover = queue->channel->close_and_drain();
  if (!leftover.empty()) deliver(*queue, leftover);
  assign(worker, queue, false);
}

void StreamPipeline::deliver(PipeQueue& queue,
                             const std::vector<RecordRef>& batch) {
  // Re-read the consumer list and wire tap only when one of them changed.
  // Read after the pop, so a subscription made before these records were
  // published is seen.
  DeliveryView& view = queue.view;
  if (view.version != config_version_.load(std::memory_order_acquire)) {
    std::lock_guard lock(mutex_);
    view.version = config_version_.load(std::memory_order_relaxed);
    view.consumers = consumers_;
    view.schema = queue.schema;
    view.wire_sink = queue.wire_sink;
  }
  queue.delivering = true;
  for (const RecordRef& record : batch) {
    for (const auto& consumer : *view.consumers) consumer(queue.name, *record);
  }
  if (view.wire_sink && view.schema) {
    // Marshal the whole batch as one self-contained chunk (header +
    // records) with the queue's configured codec.
    std::vector<uint8_t> chunk;
    if (queue.format == WireFormat::Binary) {
      FrameEncoder encoder(*view.schema);
      for (const RecordRef& record : batch) encoder.append(*record);
      chunk = encoder.bytes();
    } else {
      Encoder encoder(*view.schema);
      for (const RecordRef& record : batch) encoder.append(*record);
      chunk = encoder.bytes();
    }
    view.wire_sink(queue.name, std::move(chunk));
  }
  queue.delivering = false;
  // Counted once the consumers returned, so wait_quiescent() sees a batch
  // as done only after its deliveries.
  queue.delivered.fetch_add(batch.size(), std::memory_order_release);
}

std::vector<std::shared_ptr<StreamPipeline::PipeQueue>>
StreamPipeline::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<std::shared_ptr<PipeQueue>> queues;
  queues.reserve(queues_.size());
  for (const auto& [_, pipe] : queues_) queues.push_back(pipe);
  return queues;
}

void StreamPipeline::wait_quiescent() {
  // Every record a queue released is delivered, dropped or rejected. With
  // producers paused, only the workers still move these counters.
  const auto settled = [](const PipeQueue& queue) {
    return queue.released.load(std::memory_order_acquire) ==
           queue.delivered.load(std::memory_order_acquire) +
               queue.rejected.load(std::memory_order_acquire) +
               queue.channel->dropped();
  };
  for (;;) {
    bool quiet = true;
    for (const auto& worker : workers_) {
      const auto owned = owned_by(*worker);
      for (const auto& queue : *owned) quiet = quiet && settled(*queue);
    }
    if (quiet) return;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void StreamPipeline::shutdown() {
  {
    std::lock_guard lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Close first: blocked producers wake (their offers are rejected and
  // counted), and nothing new enters the channels. Each worker then drains
  // its queues through the normal ordered path and exits once they are
  // empty.
  for (const auto& pipe : snapshot()) pipe->channel->close();
  for (const auto& worker : workers_) {
    {
      std::lock_guard lock(worker->mutex);
      worker->stopping = true;
    }
    worker->work_ready.notify_all();
  }
  for (const auto& worker : workers_) worker->thread.join();
  // A publisher preempted between its closed check and its push can land
  // records after its queue's worker saw the channel empty; with the
  // workers joined, deliver them here, in order.
  for (const auto& worker : workers_) {
    const auto owned = owned_by(*worker);
    for (const auto& queue : *owned) {
      const std::vector<RecordRef> leftover = queue->channel->close_and_drain();
      if (!leftover.empty()) deliver(*queue, leftover);
    }
  }
  const Totals final_totals = totals();
  obs::trace_instant("stream", "stream.pipeline.stop",
                     {{"delivered", final_totals.delivered},
                      {"dropped", final_totals.dropped}});
}

std::shared_ptr<StreamPipeline::PipeQueue> StreamPipeline::find_queue(
    const std::string& queue) const {
  std::lock_guard lock(mutex_);
  auto it = queues_.find(queue);
  if (it == queues_.end()) {
    throw NotFoundError("StreamPipeline: no queue '" + queue + "'");
  }
  return it->second;
}

StreamPipeline::QueueReport StreamPipeline::report(
    const std::string& queue) const {
  const std::shared_ptr<PipeQueue> pipe = find_queue(queue);
  QueueReport report;
  report.released = pipe->released.load(std::memory_order_relaxed);
  report.delivered = pipe->delivered.load(std::memory_order_relaxed);
  report.dropped = pipe->channel->dropped() +
                   pipe->rejected.load(std::memory_order_relaxed);
  report.depth = pipe->channel->size();
  report.overflow = pipe->overflow;
  report.channel = pipe->channel->kind();
  report.format = pipe->format;
  report.batch = pipe->batch;
  return report;
}

StreamPipeline::Totals StreamPipeline::totals() const {
  Totals totals;
  for (const auto& pipe : snapshot()) {
    totals.delivered += pipe->delivered.load(std::memory_order_relaxed);
    totals.dropped += pipe->channel->dropped() +
                      pipe->rejected.load(std::memory_order_relaxed);
  }
  return totals;
}

void PolicyFactory::handle_install(StreamPipeline& pipeline,
                                   const Json& message) const {
  const Json& install = message["install"];
  const std::string queue = install["queue"].as_string();
  const std::string kind = install["kind"].as_string();
  const Json args = install.contains("args") ? install["args"] : Json::object();
  QueueOptions options;
  options.capacity =
      static_cast<size_t>(install.get_or("capacity", int64_t{256}));
  options.overflow = parse_overflow(install.get_or("overflow", "block"));
  if (install.contains("batch")) {
    const Json& batch = install["batch"];
    if (!batch.is_int() || batch.as_int() < 1) {
      throw ValidationError("install: batch must be an integer >= 1");
    }
    options.batch = static_cast<size_t>(batch.as_int());
  }
  options.channel = parse_channel_kind(install.get_or("channel", "spsc"));
  options.format = parse_wire_format(install.get_or("format", "self-describing"));
  obs::trace_instant("stream", "stream.policy.install",
                     {{"queue", queue}, {"kind", kind}});
  pipeline.install_queue(queue, build(kind, args), options);
}

InstrumentSource::InstrumentSource(StreamPipeline& pipeline,
                                   Generator generator, Options options) {
  if (!generator) throw ValidationError("InstrumentSource: null generator");
  thread_ = std::thread([this, &pipeline, generator = std::move(generator),
                         options = std::move(options)] {
    uint64_t index = 0;
    while (std::optional<Record> record = generator(index)) {
      pipeline.publish(*record);
      published_.fetch_add(1, std::memory_order_relaxed);
      ++index;
      if (options.punctuate_every > 0 && index % options.punctuate_every == 0) {
        pipeline.punctuate(options.punctuation);
      }
    }
    obs::trace_instant("stream", "stream.source.done", {{"records", index}});
  });
}

InstrumentSource::~InstrumentSource() { join(); }

void InstrumentSource::join() {
  if (thread_.joinable()) thread_.join();
}

}  // namespace ff::stream
