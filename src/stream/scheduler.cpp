#include "stream/scheduler.hpp"

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace ff::stream {

void DataScheduler::install_queue(const std::string& queue,
                                  std::unique_ptr<SelectionPolicy> policy,
                                  Sink sink) {
  if (!policy) throw ValidationError("install_queue: null policy");
  auto entry = std::make_shared<VirtualQueue>();
  entry->policy = std::move(policy);
  entry->sink = std::move(sink);
  {
    std::lock_guard lock(mutex_);
    if (queues_.count(queue)) {
      throw ValidationError("install_queue: queue '" + queue + "' already exists");
    }
    queues_.emplace(queue, std::move(entry));
  }
  obs::trace_instant("stream", "stream.queue.install", {{"queue", queue}});
}

void DataScheduler::remove_queue(const std::string& queue) {
  {
    std::lock_guard lock(mutex_);
    if (queues_.erase(queue) == 0) {
      throw NotFoundError("remove_queue: no queue '" + queue + "'");
    }
  }
  obs::trace_instant("stream", "stream.queue.remove", {{"queue", queue}});
}

bool DataScheduler::has_queue(const std::string& queue) const noexcept {
  std::lock_guard lock(mutex_);
  return queues_.count(queue) > 0;
}

std::vector<std::string> DataScheduler::queue_names() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> names;
  for (const auto& [name, _] : queues_) names.push_back(name);
  return names;
}

std::shared_ptr<DataScheduler::VirtualQueue> DataScheduler::require(
    const std::string& queue) const {
  std::lock_guard lock(mutex_);
  auto it = queues_.find(queue);
  if (it == queues_.end()) throw NotFoundError("no queue '" + queue + "'");
  return it->second;
}

std::vector<DataScheduler::QueueRef> DataScheduler::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<QueueRef> queues;
  queues.reserve(queues_.size());
  for (const auto& [name, entry] : queues_) queues.emplace_back(name, entry);
  return queues;
}

void DataScheduler::set_active(const std::string& queue, bool active) {
  const auto entry = require(queue);
  {
    std::lock_guard lock(entry->mutex);
    entry->active = active;
  }
  obs::trace_instant("stream", "stream.queue.active",
                     {{"queue", queue}, {"active", active}});
}

bool DataScheduler::is_active(const std::string& queue) const {
  const auto entry = require(queue);
  std::lock_guard lock(entry->mutex);
  return entry->active;
}

void DataScheduler::subscribe(Consumer consumer) {
  if (!consumer) throw ValidationError("subscribe: null consumer");
  std::lock_guard lock(mutex_);
  auto next = std::make_shared<std::vector<Consumer>>(*consumers_);
  next->push_back(std::move(consumer));
  consumers_ = std::move(next);
}

void DataScheduler::deliver_locked(const std::string& queue,
                                   VirtualQueue& entry) {
  std::vector<RecordRef>& released = entry.released;
  if (released.empty()) return;
  entry.stats.releases += released.size();
  obs::trace_instant("stream", "stream.release",
                     {{"queue", queue}, {"count", released.size()}});
  if (entry.sink) {
    entry.sink(queue, released);
  } else {
    std::shared_ptr<const std::vector<Consumer>> consumers;
    {
      std::lock_guard lock(mutex_);
      consumers = consumers_;
    }
    for (const RecordRef& record : released) {
      for (const Consumer& consumer : *consumers) consumer(queue, *record);
    }
  }
  released.clear();
}

namespace {

void trace_backlog(const std::string& queue,
                   const DataScheduler::QueueStats& stats) {
  // Backlog = records the policy is still holding (arrived, unreleased).
  if (obs::tracing_enabled()) {
    obs::trace_counter("stream", "stream.queue.backlog",
                       static_cast<double>(stats.arrivals - stats.releases),
                       {{"queue", queue}});
  }
}

}  // namespace

void DataScheduler::publish(const Record& record) {
  const RecordRef shared = std::make_shared<const Record>(record);
  for (const auto& [name, entry] : snapshot()) {
    std::lock_guard lock(entry->mutex);
    if (!entry->active) continue;
    ++entry->stats.arrivals;
    entry->policy->on_item(shared, entry->released);
    deliver_locked(name, *entry);
    trace_backlog(name, entry->stats);
  }
}

void DataScheduler::publish_batch(const std::vector<Record>& records) {
  if (records.empty()) return;
  std::vector<RecordRef> shared;
  shared.reserve(records.size());
  for (const Record& record : records) {
    shared.push_back(std::make_shared<const Record>(record));
  }
  for (const auto& [name, entry] : snapshot()) {
    std::lock_guard lock(entry->mutex);
    if (!entry->active) continue;
    for (const RecordRef& record : shared) {
      ++entry->stats.arrivals;
      entry->policy->on_item(record, entry->released);
    }
    deliver_locked(name, *entry);
    trace_backlog(name, entry->stats);
  }
}

void DataScheduler::control(const std::string& queue, const Json& argument) {
  const auto entry = require(queue);
  obs::trace_instant("stream", "stream.control", {{"queue", queue}});
  std::lock_guard lock(entry->mutex);
  entry->policy->on_punctuation(argument, entry->released);
  deliver_locked(queue, *entry);
}

void DataScheduler::punctuate(const Json& argument) {
  obs::trace_instant("stream", "stream.punctuate");
  for (const auto& [name, entry] : snapshot()) {
    std::lock_guard lock(entry->mutex);
    if (!entry->active) continue;
    entry->policy->on_punctuation(argument, entry->released);
    deliver_locked(name, *entry);
  }
}

DataScheduler::QueueStats DataScheduler::stats(const std::string& queue) const {
  const auto entry = require(queue);
  std::lock_guard lock(entry->mutex);
  return entry->stats;
}

PolicyFactory PolicyFactory::with_builtins() {
  PolicyFactory factory;
  factory.register_kind("forward-all", [](const Json&) {
    return std::make_unique<ForwardAllPolicy>();
  });
  factory.register_kind("sliding-window-count", [](const Json& args) {
    return std::make_unique<SlidingWindowCountPolicy>(
        static_cast<size_t>(args["capacity"].as_int()));
  });
  factory.register_kind("sliding-window-time", [](const Json& args) {
    return std::make_unique<SlidingWindowTimePolicy>(args["horizon"].as_double());
  });
  factory.register_kind("direct-selection", [](const Json& args) {
    return std::make_unique<DirectSelectionPolicy>(
        static_cast<size_t>(args.get_or("max_queue", int64_t{4096})));
  });
  factory.register_kind("sample-every", [](const Json& args) {
    return std::make_unique<SampleEveryNPolicy>(
        static_cast<size_t>(args["stride"].as_int()));
  });
  return factory;
}

void PolicyFactory::register_kind(const std::string& kind, Builder builder) {
  if (!builder) throw ValidationError("register_kind: null builder");
  builders_[kind] = std::move(builder);
}

bool PolicyFactory::knows(const std::string& kind) const noexcept {
  return builders_.count(kind) > 0;
}

std::unique_ptr<SelectionPolicy> PolicyFactory::build(const std::string& kind,
                                                      const Json& args) const {
  auto it = builders_.find(kind);
  if (it == builders_.end()) {
    throw NotFoundError("PolicyFactory: unknown policy kind '" + kind + "'");
  }
  return it->second(args);
}

void PolicyFactory::handle_install(DataScheduler& scheduler,
                                   const Json& message) const {
  const Json& install = message["install"];
  const std::string queue = install["queue"].as_string();
  const std::string kind = install["kind"].as_string();
  const Json args = install.contains("args") ? install["args"] : Json::object();
  obs::trace_instant("stream", "stream.policy.install",
                     {{"queue", queue}, {"kind", kind}});
  scheduler.install_queue(queue, build(kind, args));
}

}  // namespace ff::stream
