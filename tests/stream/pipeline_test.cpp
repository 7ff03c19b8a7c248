// StreamPipeline battery: ordering guarantees, overflow behaviour, dynamic
// install/remove under load, and shutdown draining. Built both plain
// (test_stream) and under -fsanitize=thread (test_stream_tsan, ctest -L
// tsan) — the racing tests exist for the latter.

#include "stream/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace ff::stream {
namespace {

using namespace std::chrono_literals;

constexpr uint64_t kMarkerBase = 1'000'000'000;

Record record_at(uint64_t sequence) {
  Record record;
  record.sequence = sequence;
  return record;
}

/// Forwards records as-is and emits a marker record per punctuation, so a
/// consumer can check exactly where the control message landed in the
/// per-queue order.
class MarkerPolicy final : public SelectionPolicy {
 public:
  std::string name() const override { return "marker"; }
  void on_item(const RecordRef& record,
               std::vector<RecordRef>& released) override {
    released.push_back(record);
  }
  void on_punctuation(const Json&, std::vector<RecordRef>& released) override {
    released.push_back(
        std::make_shared<const Record>(record_at(kMarkerBase + count_++)));
  }

 private:
  uint64_t count_ = 0;
};

std::vector<Record> records_from(uint64_t first, uint64_t count) {
  std::vector<Record> records;
  for (uint64_t i = first; i < first + count; ++i) records.push_back(record_at(i));
  return records;
}

/// Thread-safe per-queue capture of delivery order.
struct Collector {
  std::mutex mutex;
  std::map<std::string, std::vector<uint64_t>> order;

  DataScheduler::Consumer consumer() {
    return [this](const std::string& queue, const Record& record) {
      std::lock_guard lock(mutex);
      order[queue].push_back(record.sequence);
    };
  }
  std::vector<uint64_t> sequence(const std::string& queue) {
    std::lock_guard lock(mutex);
    return order[queue];
  }
};

// --- punctuation ordering -------------------------------------------------

TEST(StreamPipeline, PunctuationObservedAfterPriorRecords) {
  // The acceptance guarantee: a control message is observed by a queue only
  // after every record published before it. With a single publisher the
  // observed order must be *exactly* records 0..9, marker, 10..19, marker...
  StreamPipeline pipeline(4);
  Collector collector;
  pipeline.subscribe(collector.consumer());
  pipeline.install_queue("marked", std::make_unique<MarkerPolicy>());

  constexpr uint64_t kRecords = 200;
  constexpr uint64_t kEvery = 10;
  for (uint64_t i = 0; i < kRecords; ++i) {
    pipeline.publish(record_at(i));
    if ((i + 1) % kEvery == 0) pipeline.punctuate(Json::object());
  }
  pipeline.wait_quiescent();
  pipeline.shutdown();

  std::vector<uint64_t> expected;
  for (uint64_t i = 0; i < kRecords; ++i) {
    expected.push_back(i);
    if ((i + 1) % kEvery == 0) {
      expected.push_back(kMarkerBase + i / kEvery);
    }
  }
  EXPECT_EQ(collector.sequence("marked"), expected);
}

TEST(StreamPipeline, PunctuationOrderingHoldsAcrossWorkerCounts) {
  for (size_t workers : {1u, 2u, 8u}) {
    StreamPipeline pipeline(workers);
    Collector collector;
    pipeline.subscribe(collector.consumer());
    pipeline.install_queue("marked", std::make_unique<MarkerPolicy>(),
                           {.capacity = 8});
    for (uint64_t i = 0; i < 64; ++i) {
      pipeline.publish(record_at(i));
      pipeline.punctuate(Json::object());
    }
    pipeline.wait_quiescent();
    const auto observed = collector.sequence("marked");
    ASSERT_EQ(observed.size(), 128u) << "workers=" << workers;
    for (uint64_t i = 0; i < 64; ++i) {
      EXPECT_EQ(observed[2 * i], i);
      EXPECT_EQ(observed[2 * i + 1], kMarkerBase + i);
    }
  }
}

// --- overflow policies ----------------------------------------------------

TEST(StreamPipeline, BlockPolicyIsLossless) {
  // Capacity 4 with a deliberately slow consumer: publishers must block,
  // not drop. Every record arrives.
  StreamPipeline pipeline(2);
  std::atomic<uint64_t> delivered{0};
  pipeline.subscribe([&](const std::string&, const Record&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(100us);
  });
  pipeline.install_queue("fast", std::make_unique<ForwardAllPolicy>(),
                         {.capacity = 4, .overflow = Overflow::Block});
  for (uint64_t i = 0; i < 300; ++i) pipeline.publish(record_at(i));
  pipeline.wait_quiescent();

  const auto report = pipeline.report("fast");
  EXPECT_EQ(report.released, 300u);
  EXPECT_EQ(report.delivered, 300u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(delivered.load(), 300u);
}

TEST(StreamPipeline, DropOldestShedsLoadButBalances) {
  StreamPipeline pipeline(1);
  pipeline.subscribe([&](const std::string&, const Record&) {
    std::this_thread::sleep_for(500us);
  });
  pipeline.install_queue("tap", std::make_unique<ForwardAllPolicy>(),
                         {.capacity = 4, .overflow = Overflow::DropOldest});
  for (uint64_t i = 0; i < 400; ++i) pipeline.publish(record_at(i));
  pipeline.wait_quiescent();

  const auto report = pipeline.report("tap");
  EXPECT_EQ(report.released, 400u);
  EXPECT_GT(report.dropped, 0u) << "a slow consumer at capacity 4 must shed";
  EXPECT_EQ(report.released, report.delivered + report.dropped);
  EXPECT_EQ(report.depth, 0u);
}

TEST(StreamPipeline, KeepLatestConflatesButDeliversFinalRecord) {
  StreamPipeline pipeline(1);
  Collector collector;
  std::atomic<bool> slow{true};
  pipeline.subscribe([&](const std::string& queue, const Record& record) {
    {
      std::lock_guard lock(collector.mutex);
      collector.order[queue].push_back(record.sequence);
    }
    if (slow.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(300us);
    }
  });
  pipeline.install_queue("latest", std::make_unique<ForwardAllPolicy>(),
                         {.capacity = 2, .overflow = Overflow::KeepLatest});
  for (uint64_t i = 0; i < 400; ++i) pipeline.publish(record_at(i));
  slow.store(false, std::memory_order_relaxed);
  pipeline.wait_quiescent();

  const auto report = pipeline.report("latest");
  EXPECT_EQ(report.released, 400u);
  EXPECT_GT(report.dropped, 0u);
  EXPECT_EQ(report.released, report.delivered + report.dropped);

  const auto observed = collector.sequence("latest");
  ASSERT_FALSE(observed.empty());
  // Conflation keeps freshness: nothing can evict the final record, and
  // what does get through stays in publish order.
  EXPECT_EQ(observed.back(), 399u);
  EXPECT_TRUE(std::is_sorted(observed.begin(), observed.end()));
}

// --- dynamic topology under load ------------------------------------------

TEST(StreamPipeline, InstallRemoveRacingPublish) {
  // One thread publishes continuously while another churns queues in and
  // out. Exercises the registry snapshot/shared_ptr lifetime rules; the
  // TSan build is the real judge here.
  StreamPipeline pipeline(4);
  std::atomic<uint64_t> delivered{0};
  pipeline.subscribe([&](const std::string&, const Record&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  pipeline.install_queue("stable", std::make_unique<ForwardAllPolicy>());

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      pipeline.publish(record_at(i++));
    }
  });
  std::thread churner([&] {
    const std::vector<std::string> names = {"dyn0", "dyn1", "dyn2", "dyn3"};
    for (int round = 0; round < 60; ++round) {
      for (const auto& name : names) {
        pipeline.install_queue(name, std::make_unique<ForwardAllPolicy>(),
                               {.capacity = 8, .overflow = Overflow::DropOldest});
      }
      std::this_thread::sleep_for(200us);
      for (const auto& name : names) pipeline.remove_queue(name);
    }
  });
  churner.join();
  stop.store(true, std::memory_order_relaxed);
  publisher.join();
  pipeline.wait_quiescent();

  EXPECT_TRUE(pipeline.has_queue("stable"));
  EXPECT_FALSE(pipeline.has_queue("dyn0"));
  const auto report = pipeline.report("stable");
  EXPECT_EQ(report.released, report.delivered);  // block policy, no drops
  EXPECT_GT(delivered.load(), 0u);
}

TEST(StreamPipeline, RemoveQueueDeliversAlreadyReleasedRecords) {
  StreamPipeline pipeline(1);
  Collector collector;
  pipeline.subscribe(collector.consumer());
  pipeline.install_queue("brief", std::make_unique<ForwardAllPolicy>(),
                         {.capacity = 64});
  for (uint64_t i = 0; i < 32; ++i) pipeline.publish(record_at(i));
  pipeline.remove_queue("brief");
  pipeline.shutdown();  // waits for the final drain

  const auto observed = collector.sequence("brief");
  EXPECT_EQ(observed.size(), 32u) << "releases accepted before remove_queue "
                                     "must still reach consumers";
  EXPECT_TRUE(std::is_sorted(observed.begin(), observed.end()));
}

// --- consumer re-entrancy -------------------------------------------------

TEST(StreamPipeline, ConsumerMaySteerAnotherQueue) {
  // A consumer running on a pool worker issues a control() for a *different*
  // queue — the documented steering re-entrancy. The direct-selection queue
  // accumulates silently until the raw tap triggers a flush.
  StreamPipeline pipeline(2);
  std::atomic<uint64_t> raw_seen{0};
  std::atomic<uint64_t> flushed{0};
  pipeline.subscribe([&](const std::string& queue, const Record&) {
    if (queue == "archive") {
      flushed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (raw_seen.fetch_add(1, std::memory_order_relaxed) + 1 == 100) {
      Json flush = Json::object();
      flush["flush"] = Json(true);
      pipeline.control("archive", flush);
    }
  });
  pipeline.install_queue("raw", std::make_unique<SampleEveryNPolicy>(1));
  pipeline.install_queue("archive", std::make_unique<DirectSelectionPolicy>());
  for (uint64_t i = 0; i < 100; ++i) pipeline.publish(record_at(i));
  pipeline.wait_quiescent();
  pipeline.shutdown();

  EXPECT_EQ(raw_seen.load(), 100u);
  EXPECT_EQ(flushed.load(), 100u) << "flush must release the full backlog";
}

TEST(StreamPipeline, SteeringConsumerFlushesIntoAFullQueueAtAnyWorkerCount) {
  // The steering consumer above, against a 4-record archive: the flush
  // releases 100 records into an edge that holds 4, from a consumer running
  // on a plane worker. The worker that empties the archive may be that very
  // thread (always so with one worker), so a publisher that parked on the
  // full edge would never wake; the test's ctest timeout turns that hang
  // into a failure.
  for (size_t workers : {1u, 2u, 4u}) {
    StreamPipeline pipeline(workers);
    std::atomic<uint64_t> raw_seen{0};
    Collector archive;
    pipeline.subscribe([&](const std::string& queue, const Record& record) {
      if (queue == "archive") {
        std::lock_guard lock(archive.mutex);
        archive.order[queue].push_back(record.sequence);
        return;
      }
      if (raw_seen.fetch_add(1, std::memory_order_relaxed) + 1 == 100) {
        Json flush = Json::object();
        flush["flush"] = Json(true);
        pipeline.control("archive", flush);
      }
    });
    pipeline.install_queue("raw", std::make_unique<SampleEveryNPolicy>(1));
    pipeline.install_queue("archive", std::make_unique<DirectSelectionPolicy>(),
                           {.capacity = 4});
    for (uint64_t i = 0; i < 100; ++i) pipeline.publish(record_at(i));
    pipeline.wait_quiescent();
    pipeline.shutdown();

    EXPECT_EQ(raw_seen.load(), 100u) << "workers=" << workers;
    std::vector<uint64_t> expected(100);
    for (uint64_t i = 0; i < 100; ++i) expected[i] = i;
    EXPECT_EQ(archive.sequence("archive"), expected) << "workers=" << workers;
    EXPECT_EQ(pipeline.report("archive").dropped, 0u);
  }
}

// --- batched publish against the delivery contract --------------------------

TEST(StreamPipeline, PublishBatchLargerThanABlockQueueIsLosslessAndOrdered) {
  // One publish_batch call hands a 4-record block queue 300 records: the
  // publisher pushes what fits, schedules the drain, and blocks for room,
  // repeatedly, within the one call.
  for (size_t workers : {1u, 2u, 4u}) {
    StreamPipeline pipeline(workers);
    Collector collector;
    pipeline.subscribe(collector.consumer());
    for (ChannelKind kind :
         {ChannelKind::Mutex, ChannelKind::Spsc, ChannelKind::Mpmc}) {
      pipeline.install_queue(channel_kind_name(kind),
                             std::make_unique<ForwardAllPolicy>(),
                             {.capacity = 4, .batch = 3, .channel = kind});
    }
    pipeline.publish_batch(records_from(0, 300));
    pipeline.publish_batch(records_from(300, 100));
    pipeline.wait_quiescent();
    std::vector<uint64_t> expected(400);
    for (uint64_t i = 0; i < 400; ++i) expected[i] = i;
    for (ChannelKind kind :
         {ChannelKind::Mutex, ChannelKind::Spsc, ChannelKind::Mpmc}) {
      const std::string queue = channel_kind_name(kind);
      EXPECT_EQ(collector.sequence(queue), expected)
          << "workers=" << workers << " channel=" << queue;
      const auto report = pipeline.report(queue);
      EXPECT_EQ(report.released, 400u);
      EXPECT_EQ(report.delivered, 400u);
      EXPECT_EQ(report.dropped, 0u);
    }
  }
}

struct LossyOutcome {
  std::vector<uint64_t> delivered;
  uint64_t dropped = 0;
  uint64_t released = 0;
  bool operator==(const LossyOutcome&) const = default;
};

/// Feeds 100 records into a lossy 8-record queue while the plane's only
/// worker is held inside a consumer, so no drain races the evictions: the
/// outcome is then a function of the overflow policy alone, whether the
/// records arrive in one publish_batch or one publish() each.
LossyOutcome run_held_lossy(Overflow overflow, ChannelKind kind, bool batched) {
  constexpr uint64_t kPlug = 1'000'000;
  StreamPipeline pipeline(1);
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  Collector collector;
  pipeline.subscribe([&](const std::string& queue, const Record& record) {
    if (record.sequence == kPlug) {
      held.store(true);
      while (!release.load()) std::this_thread::yield();
      return;
    }
    std::lock_guard lock(collector.mutex);
    collector.order[queue].push_back(record.sequence);
  });
  pipeline.install_queue("tap", std::make_unique<ForwardAllPolicy>(),
                         {.capacity = 8, .overflow = overflow, .batch = 1,
                          .channel = kind});
  pipeline.publish(record_at(kPlug));
  while (!held.load()) std::this_thread::yield();
  const std::vector<Record> burst = records_from(0, 100);
  if (batched) {
    pipeline.publish_batch(burst);
  } else {
    for (const Record& record : burst) pipeline.publish(record);
  }
  release.store(true);
  pipeline.wait_quiescent();
  const auto report = pipeline.report("tap");
  EXPECT_EQ(report.released, report.delivered + report.dropped);
  return {collector.sequence("tap"), report.dropped, report.released};
}

TEST(StreamPipeline, PublishBatchMatchesPerRecordPublish) {
  StreamPipeline pipeline(1);
  Collector collector;
  pipeline.subscribe(collector.consumer());
  pipeline.install_queue("q", std::make_unique<SampleEveryNPolicy>(3),
                         {.capacity = 64});
  std::vector<Record> burst;
  for (uint64_t i = 0; i < 90; ++i) burst.push_back(record_at(i));
  pipeline.publish_batch(burst);
  pipeline.wait_quiescent();
  const auto observed = collector.sequence("q");
  ASSERT_EQ(observed.size(), 30u);  // stride 3 over 90
  for (size_t i = 0; i < observed.size(); ++i) {
    EXPECT_EQ(observed[i], i * 3);
  }
  EXPECT_EQ(pipeline.scheduler().stats("q").arrivals, 90u);

  // Lossy edges fed by one batch evict exactly what per-record publishes
  // evict, on every channel kind.
  for (Overflow overflow : {Overflow::DropOldest, Overflow::KeepLatest}) {
    for (ChannelKind kind :
         {ChannelKind::Mutex, ChannelKind::Spsc, ChannelKind::Mpmc}) {
      const LossyOutcome batched = run_held_lossy(overflow, kind, true);
      const LossyOutcome single = run_held_lossy(overflow, kind, false);
      EXPECT_EQ(batched, single)
          << overflow_name(overflow) << " " << channel_kind_name(kind);
      EXPECT_EQ(batched.released, 101u);  // the held record + 100
      EXPECT_GT(batched.dropped, 0u);
    }
  }
  // The two policies shed differently: drop-oldest keeps the newest 8,
  // keep-latest the records since its last conflation.
  const LossyOutcome oldest =
      run_held_lossy(Overflow::DropOldest, ChannelKind::Spsc, true);
  const LossyOutcome latest =
      run_held_lossy(Overflow::KeepLatest, ChannelKind::Spsc, true);
  EXPECT_EQ(oldest.delivered, (std::vector<uint64_t>{92, 93, 94, 95, 96, 97, 98, 99}));
  EXPECT_EQ(oldest.dropped, 92u);
  EXPECT_EQ(latest.delivered, (std::vector<uint64_t>{96, 97, 98, 99}));
  EXPECT_EQ(latest.dropped, 96u);
}

TEST(StreamPipeline, RemoveQueueRacingPublishBatch) {
  // A publisher streams 64-record batches while another thread installs
  // and removes block queues under it: a removed queue's blocked publisher
  // wakes rejected, and the stable queue stays lossless and ordered.
  StreamPipeline pipeline(2);
  Collector collector;
  pipeline.subscribe(collector.consumer());
  pipeline.install_queue("stable", std::make_unique<ForwardAllPolicy>(),
                         {.capacity = 16});
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> published{0};
  std::thread publisher([&] {
    for (uint64_t next = 0; !stop.load(std::memory_order_relaxed); next += 64) {
      pipeline.publish_batch(records_from(next, 64));
      published.store(next + 64, std::memory_order_relaxed);
    }
  });
  constexpr int kRounds = 40;
  for (int round = 0; round < kRounds; ++round) {
    const std::string name = "dyn" + std::to_string(round);
    pipeline.install_queue(name, std::make_unique<ForwardAllPolicy>(),
                           {.capacity = 8, .channel = round % 2 == 0
                                                         ? ChannelKind::Spsc
                                                         : ChannelKind::Mutex});
    std::this_thread::sleep_for(200us);
    pipeline.remove_queue(name);
  }
  stop.store(true, std::memory_order_relaxed);
  publisher.join();
  pipeline.wait_quiescent();

  const auto stable = collector.sequence("stable");
  ASSERT_EQ(stable.size(), published.load());
  for (uint64_t i = 0; i < stable.size(); ++i) ASSERT_EQ(stable[i], i);
  const auto report = pipeline.report("stable");
  EXPECT_EQ(report.released, report.delivered);
  EXPECT_EQ(report.dropped, 0u);
  for (int round = 0; round < kRounds; ++round) {
    const auto dyn = collector.sequence("dyn" + std::to_string(round));
    EXPECT_TRUE(std::is_sorted(dyn.begin(), dyn.end())) << "round " << round;
  }
}

TEST(StreamPipeline, ShutdownRacingPublishBatch) {
  // shutdown() lands while a publisher is mid-stream: every record is
  // either delivered (in order) or counted as dropped, never lost, and the
  // publisher's later batches are rejected rather than blocking forever.
  for (size_t workers : {1u, 2u, 4u}) {
    StreamPipeline pipeline(workers);
    Collector collector;
    pipeline.subscribe(collector.consumer());
    for (const char* name : {"a", "b"}) {
      pipeline.install_queue(name, std::make_unique<ForwardAllPolicy>(),
                             {.capacity = 8});
    }
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> batches{0};
    std::thread publisher([&] {
      for (uint64_t next = 0; !stop.load(std::memory_order_relaxed); next += 64) {
        pipeline.publish_batch(records_from(next, 64));
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });
    // Land the shutdown mid-stream: after a few batches went through.
    while (batches.load(std::memory_order_relaxed) < 4) std::this_thread::yield();
    pipeline.shutdown();
    stop.store(true, std::memory_order_relaxed);
    publisher.join();

    for (const char* name : {"a", "b"}) {
      const auto report = pipeline.report(name);
      const auto observed = collector.sequence(name);
      EXPECT_GT(report.released, 0u) << "workers=" << workers;
      EXPECT_EQ(report.released, report.delivered + report.dropped)
          << "workers=" << workers << " queue=" << name;
      EXPECT_EQ(report.depth, 0u);
      EXPECT_EQ(observed.size(), report.delivered);
      for (uint64_t i = 0; i < observed.size(); ++i) ASSERT_EQ(observed[i], i);
    }
  }
}

// --- shutdown and lifecycle -----------------------------------------------

TEST(StreamPipeline, ShutdownDrainsChannelsBeforeJoining) {
  // No wait_quiescent: shutdown alone must deliver everything the channels
  // accepted. This is the "clean shutdown drains channels" guarantee.
  StreamPipeline pipeline(1);
  std::atomic<uint64_t> delivered{0};
  pipeline.subscribe([&](const std::string&, const Record&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  pipeline.install_queue("bulk", std::make_unique<ForwardAllPolicy>(),
                         {.capacity = 1024});
  for (uint64_t i = 0; i < 500; ++i) pipeline.publish(record_at(i));
  pipeline.shutdown();

  EXPECT_EQ(delivered.load(), 500u);
  const auto totals = pipeline.totals();
  EXPECT_EQ(totals.delivered, 500u);
  EXPECT_EQ(totals.dropped, 0u);
}

TEST(StreamPipeline, ShutdownIsIdempotentAndDestructorImpliesIt) {
  auto pipeline = std::make_unique<StreamPipeline>(2);
  pipeline->install_queue("q", std::make_unique<ForwardAllPolicy>());
  pipeline->publish(record_at(1));
  pipeline->shutdown();
  pipeline->shutdown();  // second call is a no-op
  EXPECT_THROW(
      pipeline->install_queue("late", std::make_unique<ForwardAllPolicy>()),
      StateError);
  pipeline.reset();  // destructor after explicit shutdown: fine
}

TEST(StreamPipeline, LifecycleErrors) {
  StreamPipeline pipeline(1);
  pipeline.install_queue("q", std::make_unique<ForwardAllPolicy>());
  EXPECT_THROW(pipeline.install_queue("q", std::make_unique<ForwardAllPolicy>()),
               ValidationError);
  EXPECT_THROW(pipeline.remove_queue("ghost"), NotFoundError);
  EXPECT_THROW(pipeline.report("ghost"), NotFoundError);
  EXPECT_THROW(pipeline.subscribe(nullptr), ValidationError);
}

// --- steering installs via the control channel -----------------------------

TEST(StreamPipeline, HandleInstallParsesTransportKeys) {
  StreamPipeline pipeline(1);
  const auto factory = PolicyFactory::with_builtins();
  const Json message = Json::parse(R"({"install": {
    "queue": "tap", "kind": "sample-every", "args": {"stride": 2},
    "capacity": 16, "overflow": "drop-oldest"}})");
  factory.handle_install(pipeline, message);

  ASSERT_TRUE(pipeline.has_queue("tap"));
  EXPECT_EQ(pipeline.report("tap").overflow, Overflow::DropOldest);

  std::atomic<uint64_t> delivered{0};
  pipeline.subscribe([&](const std::string&, const Record&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  for (uint64_t i = 0; i < 10; ++i) pipeline.publish(record_at(i));
  pipeline.wait_quiescent();
  EXPECT_EQ(delivered.load(), 5u);  // stride 2
}

TEST(StreamPipeline, HandleInstallRejectsUnknownOverflow) {
  StreamPipeline pipeline(1);
  const auto factory = PolicyFactory::with_builtins();
  const Json message = Json::parse(R"({"install": {
    "queue": "t", "kind": "forward-all", "overflow": "newest-wins"}})");
  EXPECT_THROW(factory.handle_install(pipeline, message), ValidationError);
}

TEST(StreamPipeline, HandleInstallParsesBatchChannelAndFormat) {
  StreamPipeline pipeline(1);
  const auto factory = PolicyFactory::with_builtins();
  factory.handle_install(pipeline, Json::parse(R"({"install": {
    "queue": "fast", "kind": "forward-all",
    "batch": 16, "channel": "mpmc", "format": "binary"}})"));
  const auto report = pipeline.report("fast");
  EXPECT_EQ(report.batch, 16u);
  EXPECT_EQ(report.channel, ChannelKind::Mpmc);
  EXPECT_EQ(report.format, WireFormat::Binary);

  // Defaults when the keys are absent: spsc ring, batch 64, self-describing.
  factory.handle_install(pipeline, Json::parse(R"({"install": {
    "queue": "plain", "kind": "forward-all"}})"));
  const auto defaults = pipeline.report("plain");
  EXPECT_EQ(defaults.batch, 64u);
  EXPECT_EQ(defaults.channel, ChannelKind::Spsc);
  EXPECT_EQ(defaults.format, WireFormat::SelfDescribing);
}

TEST(StreamPipeline, HandleInstallRejectsBadTransportValues) {
  StreamPipeline pipeline(1);
  const auto factory = PolicyFactory::with_builtins();
  EXPECT_THROW(factory.handle_install(pipeline, Json::parse(R"({"install": {
    "queue": "a", "kind": "forward-all", "batch": 0}})")),
               ValidationError);
  EXPECT_THROW(factory.handle_install(pipeline, Json::parse(R"({"install": {
    "queue": "b", "kind": "forward-all", "batch": "lots"}})")),
               ValidationError);
  EXPECT_THROW(factory.handle_install(pipeline, Json::parse(R"({"install": {
    "queue": "c", "kind": "forward-all", "channel": "lockfree"}})")),
               ValidationError);
  EXPECT_THROW(factory.handle_install(pipeline, Json::parse(R"({"install": {
    "queue": "d", "kind": "forward-all", "format": "msgpack"}})")),
               ValidationError);
  EXPECT_FALSE(pipeline.has_queue("a"));
  EXPECT_FALSE(pipeline.has_queue("c"));
}

// --- transport options: batch, channel, wire format -------------------------

TEST(StreamPipeline, TransportOptionsSurfaceInReport) {
  StreamPipeline pipeline(1);
  pipeline.install_queue("tuned", std::make_unique<ForwardAllPolicy>(),
                         {.capacity = 32,
                          .overflow = Overflow::DropOldest,
                          .batch = 8,
                          .channel = ChannelKind::Mpmc,
                          .format = WireFormat::Binary});
  const auto report = pipeline.report("tuned");
  EXPECT_EQ(report.overflow, Overflow::DropOldest);
  EXPECT_EQ(report.batch, 8u);
  EXPECT_EQ(report.channel, ChannelKind::Mpmc);
  EXPECT_EQ(report.format, WireFormat::Binary);
  EXPECT_THROW(
      pipeline.install_queue("bad", std::make_unique<ForwardAllPolicy>(),
                             {.batch = 0}),
      ValidationError);
}

TEST(StreamPipeline, EveryTransportComboDeliversEverything) {
  for (ChannelKind kind :
       {ChannelKind::Mutex, ChannelKind::Spsc, ChannelKind::Mpmc}) {
    for (size_t batch : {size_t{1}, size_t{8}, size_t{64}}) {
      StreamPipeline pipeline(2);
      Collector collector;
      pipeline.subscribe(collector.consumer());
      pipeline.install_queue("q", std::make_unique<ForwardAllPolicy>(),
                             {.capacity = 16, .batch = batch, .channel = kind});
      for (uint64_t i = 0; i < 300; ++i) pipeline.publish(record_at(i));
      pipeline.wait_quiescent();
      const auto observed = collector.sequence("q");
      ASSERT_EQ(observed.size(), 300u)
          << channel_kind_name(kind) << " batch=" << batch;
      EXPECT_TRUE(std::is_sorted(observed.begin(), observed.end()));
      EXPECT_EQ(pipeline.report("q").delivered, 300u);
    }
  }
}

StreamSchema sequence_schema() {
  StreamSchema schema;
  schema.name = "seq";
  schema.fields = {{"v", "double"}};
  return schema;
}

Record schema_record(uint64_t sequence) {
  Record record = record_at(sequence);
  record.values = {Value{static_cast<double>(sequence)}};
  return record;
}

TEST(StreamPipeline, WireSinkRequiresRegisteredSchema) {
  StreamPipeline pipeline(1);
  pipeline.install_queue("wired", std::make_unique<ForwardAllPolicy>());
  EXPECT_THROW(
      pipeline.set_wire_sink("wired",
                             [](const std::string&, std::vector<uint8_t>) {}),
      StateError);
  EXPECT_EQ(pipeline.schema_of("wired"), nullptr);
  pipeline.register_schema("wired", sequence_schema());
  ASSERT_NE(pipeline.schema_of("wired"), nullptr);
  EXPECT_EQ(pipeline.schema_of("wired")->key(), "seq:v1");
  EXPECT_NO_THROW(pipeline.set_wire_sink(
      "wired", [](const std::string&, std::vector<uint8_t>) {}));
  EXPECT_THROW(pipeline.register_schema("ghost", sequence_schema()),
               NotFoundError);
  EXPECT_THROW(pipeline.schema_of("ghost"), NotFoundError);
}

/// Runs records through a wire-tapped queue and returns the concatenated
/// re-decoded records from every chunk the sink saw.
std::vector<Record> run_wire_tap(WireFormat format, uint64_t count) {
  StreamPipeline pipeline(2);
  pipeline.subscribe([](const std::string&, const Record&) {});
  pipeline.install_queue("wired", std::make_unique<ForwardAllPolicy>(),
                         {.capacity = 32, .batch = 8, .format = format});
  pipeline.register_schema("wired", sequence_schema());
  std::mutex mutex;
  std::vector<std::vector<uint8_t>> chunks;
  pipeline.set_wire_sink("wired",
                         [&](const std::string& queue,
                             std::vector<uint8_t> chunk) {
                           EXPECT_EQ(queue, "wired");
                           std::lock_guard lock(mutex);
                           chunks.push_back(std::move(chunk));
                         });
  for (uint64_t i = 0; i < count; ++i) pipeline.publish(schema_record(i));
  pipeline.wait_quiescent();
  pipeline.shutdown();

  // Each chunk is a self-contained stream: header + frames.
  std::vector<Record> decoded;
  for (const auto& chunk : chunks) {
    const DecodedStream stream =
        format == WireFormat::Binary
            ? decode_frame_stream(chunk, sequence_schema())
            : decode_stream(chunk);
    decoded.insert(decoded.end(), stream.records.begin(),
                   stream.records.end());
  }
  return decoded;
}

TEST(StreamPipeline, WireSinkSeesEveryRecordInOrderBothFormats) {
  for (WireFormat format :
       {WireFormat::SelfDescribing, WireFormat::Binary}) {
    const std::vector<Record> decoded = run_wire_tap(format, 200);
    ASSERT_EQ(decoded.size(), 200u) << wire_format_name(format);
    for (uint64_t i = 0; i < decoded.size(); ++i) {
      EXPECT_EQ(decoded[i].sequence, i);
      EXPECT_EQ(std::get<double>(decoded[i].values[0]),
                static_cast<double>(i));
    }
  }
}

// --- the instrument source stage -------------------------------------------

TEST(StreamPipeline, InstrumentSourceFeedsAndPunctuates) {
  StreamPipeline pipeline(2);
  Collector collector;
  pipeline.subscribe(collector.consumer());
  pipeline.install_queue("marked", std::make_unique<MarkerPolicy>());

  InstrumentSource::Options options;
  options.punctuate_every = 25;
  InstrumentSource source(
      pipeline,
      [](uint64_t index) -> std::optional<Record> {
        if (index >= 100) return std::nullopt;
        return record_at(index);
      },
      options);
  source.join();
  pipeline.wait_quiescent();

  EXPECT_EQ(source.published(), 100u);
  const auto observed = collector.sequence("marked");
  ASSERT_EQ(observed.size(), 104u);  // 100 records + 4 markers
  // Markers land exactly every 25 records — the source thread's program
  // order is preserved end to end.
  EXPECT_EQ(observed[25], kMarkerBase);
  EXPECT_EQ(observed[51], kMarkerBase + 1);
  EXPECT_EQ(observed[77], kMarkerBase + 2);
  EXPECT_EQ(observed[103], kMarkerBase + 3);
}

TEST(StreamPipeline, TwoSourcesOnePlane) {
  StreamPipeline pipeline(4);
  std::atomic<uint64_t> delivered{0};
  pipeline.subscribe([&](const std::string&, const Record&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  pipeline.install_queue("all", std::make_unique<ForwardAllPolicy>());
  {
    auto generator = [](uint64_t index) -> std::optional<Record> {
      if (index >= 250) return std::nullopt;
      return record_at(index);
    };
    InstrumentSource a(pipeline, generator);
    InstrumentSource b(pipeline, generator);
  }  // joins both
  pipeline.wait_quiescent();
  EXPECT_EQ(delivered.load(), 500u);
}

}  // namespace
}  // namespace ff::stream
