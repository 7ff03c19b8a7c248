// Clock-free guard on the stream plane's fan-out (ctest -L complexity):
// counts, not times, so it holds on any host. 100 batches of 64 records
// go to 8 forward-all block queues at 1, 2 and 4 workers. Each queue must
// take its releases in about one strand dispatch per published batch, and
// every queue's consumers must see the same shared record for a sequence
// (one copy per published record, not one per queue).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "stream/pipeline.hpp"

namespace ff::stream {
namespace {

constexpr size_t kQueues = 8;
constexpr size_t kBatches = 100;
constexpr size_t kBatchSize = 64;
constexpr size_t kRecords = kBatches * kBatchSize;

struct FanoutCounts {
  size_t drain_batches = 0;      ///< stream.queue.drain_batch events
  uint64_t delivered = 0;        ///< consumer calls
  uint64_t second_copies = 0;    ///< deliveries of a sequence at another address
  uint64_t trace_dropped = 0;    ///< events lost to ring wrap-around
};

FanoutCounts run_fanout(size_t workers) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  recorder.set_ring_capacity(size_t{1} << 16);
  recorder.clear();
  obs::set_tracing(true);

  FanoutCounts counts;
  std::vector<std::atomic<const Record*>> first_seen(kRecords);
  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> second_copies{0};
  {
    StreamPipeline pipeline(workers);
    pipeline.subscribe([&](const std::string&, const Record& record) {
      delivered.fetch_add(1, std::memory_order_relaxed);
      const Record* expected = nullptr;
      auto& slot = first_seen[record.sequence];
      if (!slot.compare_exchange_strong(expected, &record) &&
          expected != &record) {
        second_copies.fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (size_t q = 0; q < kQueues; ++q) {
      pipeline.install_queue("q" + std::to_string(q),
                             std::make_unique<ForwardAllPolicy>(),
                             {.overflow = Overflow::Block, .batch = kBatchSize});
    }
    std::vector<Record> batch;
    for (uint64_t seq = 0; seq < kRecords; ++seq) {
      Record record;
      record.sequence = seq;
      record.values = {Value{static_cast<int64_t>(seq)}, Value{0.5 * seq}};
      batch.push_back(std::move(record));
      if (batch.size() == kBatchSize) {
        pipeline.publish_batch(batch);
        batch.clear();
      }
    }
    pipeline.wait_quiescent();
    pipeline.shutdown();
  }
  obs::set_tracing(false);
  for (const obs::TraceEvent& event : recorder.flush()) {
    if (std::string_view(event.name) == "stream.queue.drain_batch") {
      ++counts.drain_batches;
    }
  }
  counts.trace_dropped = recorder.dropped();
  counts.delivered = delivered.load();
  counts.second_copies = second_copies.load();
  return counts;
}

TEST(StreamFanoutComplexity, OneDispatchPerQueuePerBatchAndOneSharedRecord) {
  for (size_t workers : {1u, 2u, 4u}) {
    const FanoutCounts counts = run_fanout(workers);
    ASSERT_EQ(counts.trace_dropped, 0u) << "workers=" << workers;
    EXPECT_EQ(counts.delivered, kRecords * kQueues) << "workers=" << workers;
    const double per_queue_per_batch =
        static_cast<double>(counts.drain_batches) / (kQueues * kBatches);
    EXPECT_LE(per_queue_per_batch, 2.0)
        << "workers=" << workers << ": " << counts.drain_batches
        << " strand dispatches for " << kBatches << " batches x " << kQueues
        << " queues";
    EXPECT_EQ(counts.second_copies, 0u)
        << "workers=" << workers
        << ": some queue's consumers saw a copy, not the shared record";
  }
}

}  // namespace
}  // namespace ff::stream
