// Channel API semantics, run identically against every implementation
// (mutex deque, SPSC ring, MPMC ring) via make_channel. Capacities in the
// shared suite are powers of two so the ring kinds (which round up) bound
// exactly like the mutex deque and the expectations stay implementation-
// independent. The SPSC kind is exercised with a single producer thread
// throughout, per its contract.

#include "stream/channel.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "util/error.hpp"

namespace ff::stream {
namespace {

Record record_at(uint64_t sequence) {
  Record record;
  record.sequence = sequence;
  return record;
}

class ChannelApi : public ::testing::TestWithParam<ChannelKind> {
 protected:
  std::unique_ptr<Channel> make(size_t capacity) {
    return make_channel(GetParam(), capacity);
  }
};

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ChannelApi,
    ::testing::Values(ChannelKind::Mutex, ChannelKind::Spsc,
                      ChannelKind::Mpmc),
    [](const ::testing::TestParamInfo<ChannelKind>& info) {
      return channel_kind_name(info.param);
    });

TEST_P(ChannelApi, SendReceiveInOrder) {
  auto channel = make(4);
  EXPECT_TRUE(channel->send(record_at(1)));
  EXPECT_TRUE(channel->send(record_at(2)));
  EXPECT_EQ(channel->size(), 2u);
  EXPECT_EQ(channel->receive()->sequence, 1u);
  EXPECT_EQ(channel->receive()->sequence, 2u);
  EXPECT_EQ(channel->sent(), 2u);
  EXPECT_EQ(channel->received(), 2u);
  EXPECT_EQ(channel->kind(), GetParam());
}

TEST_P(ChannelApi, ZeroCapacityRejected) {
  EXPECT_THROW(make(0), ValidationError);
}

TEST_P(ChannelApi, TrySendRespectsCapacity) {
  auto channel = make(2);
  EXPECT_EQ(channel->capacity(), 2u);
  EXPECT_TRUE(channel->try_send(record_at(1)));
  EXPECT_TRUE(channel->try_send(record_at(2)));
  EXPECT_FALSE(channel->try_send(record_at(3)));  // full
  channel->receive();
  EXPECT_TRUE(channel->try_send(record_at(3)));
}

TEST_P(ChannelApi, TryReceiveOnEmpty) {
  auto channel = make(2);
  EXPECT_FALSE(channel->try_receive().has_value());
  channel->try_send(record_at(9));
  EXPECT_EQ(channel->try_receive()->sequence, 9u);
}

TEST_P(ChannelApi, CloseDrainsThenEnds) {
  auto channel = make(4);
  channel->send(record_at(1));
  channel->send(record_at(2));
  channel->close();
  EXPECT_TRUE(channel->closed());
  EXPECT_FALSE(channel->send(record_at(3)));  // rejected after close
  EXPECT_EQ(channel->receive()->sequence, 1u);
  EXPECT_EQ(channel->receive()->sequence, 2u);
  EXPECT_FALSE(channel->receive().has_value());  // drained
}

TEST_P(ChannelApi, BlockingReceiveWakesOnSend) {
  auto channel = make(1);
  std::optional<Record> got;
  std::thread consumer([&] { got = channel->receive(); });
  channel->send(record_at(42));
  consumer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->sequence, 42u);
}

TEST_P(ChannelApi, BackpressureBlocksProducerUntilConsumed) {
  auto channel = make(1);
  channel->send(record_at(1));
  std::atomic<bool> second_sent{false};
  std::thread producer([&] {
    channel->send(record_at(2));  // blocks until the consumer drains one
    second_sent = true;
  });
  // Give the producer a chance to block, then release it.
  while (channel->size() < 1) {
  }
  EXPECT_EQ(channel->receive()->sequence, 1u);
  producer.join();
  EXPECT_TRUE(second_sent.load());
  EXPECT_EQ(channel->receive()->sequence, 2u);
}

TEST_P(ChannelApi, CloseUnblocksWaitingProducerAndConsumer) {
  auto full = make(1);
  full->send(record_at(1));
  std::atomic<bool> producer_returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(full->send(record_at(2)));  // closed while waiting
    producer_returned = true;
  });
  auto empty = make(1);
  std::atomic<bool> consumer_returned{false};
  std::thread consumer([&] {
    EXPECT_FALSE(empty->receive().has_value());
    consumer_returned = true;
  });
  full->close();
  empty->close();
  producer.join();
  consumer.join();
  EXPECT_TRUE(producer_returned.load());
  EXPECT_TRUE(consumer_returned.load());
}

TEST_P(ChannelApi, MultiProducerMultiConsumerConservation) {
  auto channel = make(8);
  constexpr int kPerProducer = 200;
  // The SPSC ring's contract is a single producer; the consumer side is
  // always multi-consumer-safe (evictions pop through the same protocol).
  const int producers_n = GetParam() == ChannelKind::Spsc ? 1 : 3;
  constexpr int kConsumers = 2;
  std::atomic<uint64_t> received_total{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < producers_n; ++p) {
    threads.emplace_back([&channel, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        channel->send(record_at(static_cast<uint64_t>(p * kPerProducer + i)));
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (channel->receive().has_value()) received_total.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  channel->close();
  for (auto& thread : consumers) thread.join();
  EXPECT_EQ(received_total.load(),
            static_cast<uint64_t>(kPerProducer * producers_n));
  EXPECT_EQ(channel->sent(), channel->received());
}

TEST_P(ChannelApi, OfferBlockBehavesLikeSend) {
  auto channel = make(2);
  EXPECT_TRUE(channel->offer(record_at(1), Overflow::Block).accepted);
  EXPECT_EQ(channel->offer(record_at(2), Overflow::Block).evicted, 0u);
  EXPECT_EQ(channel->size(), 2u);
  channel->close();
  EXPECT_FALSE(channel->offer(record_at(3), Overflow::Block).accepted);
}

TEST_P(ChannelApi, OfferDropOldestEvictsHead) {
  auto channel = make(2);
  channel->send(record_at(1));
  channel->send(record_at(2));
  const auto result = channel->offer(record_at(3), Overflow::DropOldest);
  EXPECT_TRUE(result.accepted);
  EXPECT_EQ(result.evicted, 1u);
  EXPECT_EQ(channel->dropped(), 1u);
  EXPECT_EQ(channel->receive()->sequence, 2u);  // 1 was evicted
  EXPECT_EQ(channel->receive()->sequence, 3u);
  EXPECT_EQ(channel->sent(), channel->received() + channel->dropped());
}

TEST_P(ChannelApi, OfferKeepLatestConflates) {
  auto channel = make(4);
  channel->send(record_at(1));
  channel->send(record_at(2));
  channel->send(record_at(3));
  channel->send(record_at(4));
  const auto result = channel->offer(record_at(5), Overflow::KeepLatest);
  EXPECT_TRUE(result.accepted);
  EXPECT_EQ(result.evicted, 4u);  // whole queue conflated away
  EXPECT_EQ(channel->size(), 1u);
  EXPECT_EQ(channel->receive()->sequence, 5u);
  EXPECT_EQ(channel->sent(), channel->received() + channel->dropped());
}

TEST_P(ChannelApi, OfferLossyWithRoomEvictsNothing) {
  auto channel = make(4);
  channel->send(record_at(1));
  EXPECT_EQ(channel->offer(record_at(2), Overflow::DropOldest).evicted, 0u);
  EXPECT_EQ(channel->offer(record_at(3), Overflow::KeepLatest).evicted, 0u);
  EXPECT_EQ(channel->dropped(), 0u);
}

TEST_P(ChannelApi, ReceiveForTimesOutOnEmpty) {
  auto channel = make(2);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(channel->receive_for(std::chrono::milliseconds(5)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(4));
  EXPECT_FALSE(channel->closed()) << "timeout is not closure";
}

TEST_P(ChannelApi, ReceiveForReturnsPromptlyWhenStocked) {
  auto channel = make(2);
  channel->send(record_at(5));
  const auto got = channel->receive_for(std::chrono::seconds(10));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->sequence, 5u);
}

TEST_P(ChannelApi, CloseAndDrainTakesEverything) {
  auto channel = make(4);
  channel->send(record_at(1));
  channel->send(record_at(2));
  channel->send(record_at(3));
  const std::vector<Record> drained = channel->close_and_drain();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].sequence, 1u);
  EXPECT_EQ(drained[2].sequence, 3u);
  EXPECT_TRUE(channel->closed());
  EXPECT_EQ(channel->size(), 0u);
  EXPECT_EQ(channel->received(), 3u);  // drained records count as received
  EXPECT_EQ(channel->sent(), channel->received());
}

TEST_P(ChannelApi, DrainIntoTakesAtMostMaxInOrder) {
  auto channel = make(8);
  for (uint64_t i = 1; i <= 5; ++i) channel->send(record_at(i));
  std::vector<Record> out;
  EXPECT_EQ(channel->drain_into(out, 3), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].sequence, 1u);
  EXPECT_EQ(out[2].sequence, 3u);
  EXPECT_EQ(channel->drain_into(out, 64), 2u);  // appends the rest
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[4].sequence, 5u);
  EXPECT_EQ(channel->drain_into(out, 64), 0u);  // empty now
  EXPECT_EQ(channel->received(), 5u);
  EXPECT_EQ(channel->sent(), channel->received());
}

TEST_P(ChannelApi, DrainIntoUnblocksWaitingProducer) {
  auto channel = make(1);
  channel->send(record_at(1));
  std::atomic<bool> second_sent{false};
  std::thread producer([&] {
    channel->send(record_at(2));
    second_sent = true;
  });
  while (channel->size() < 1) {
  }
  std::vector<Record> out;
  while (channel->drain_into(out, 4) == 0) std::this_thread::yield();
  producer.join();
  EXPECT_TRUE(second_sent.load());
}

TEST_P(ChannelApi, TrySendBatchTakesTheLongestPrefixThatFits) {
  auto channel = make(4);
  std::vector<Record> burst;
  for (uint64_t i = 1; i <= 6; ++i) burst.push_back(record_at(i));
  EXPECT_EQ(channel->try_send_batch(burst.data(), burst.size()), 4u);
  EXPECT_EQ(channel->size(), 4u);
  EXPECT_EQ(channel->try_send_batch(burst.data() + 4, 2), 0u);  // full
  EXPECT_FALSE(channel->closed());
  EXPECT_EQ(channel->receive()->sequence, 1u);
  EXPECT_EQ(channel->try_send_batch(burst.data() + 4, 2), 1u);
  std::vector<Record> out;
  EXPECT_EQ(channel->drain_into(out, 8), 4u);
  ASSERT_EQ(out.size(), 4u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].sequence, i + 2);
  EXPECT_EQ(channel->sent(), 5u);
  channel->close();
  EXPECT_EQ(channel->try_send_batch(burst.data() + 5, 1), 0u);  // closed
  EXPECT_TRUE(channel->closed());
  EXPECT_EQ(channel->sent(), channel->received());
}

TEST_P(ChannelApi, RecordRefChannelSharesTheRecord) {
  // The plane's edges carry references: what comes out is the very record
  // that went in, whichever implementation carries it.
  auto channel = make_channel<RecordRef>(GetParam(), 4);
  const RecordRef shared = std::make_shared<const Record>(record_at(7));
  EXPECT_TRUE(channel->send(shared));
  std::vector<RecordRef> refs = {shared, shared};
  EXPECT_EQ(channel->try_send_batch(refs.data(), refs.size()), 2u);
  std::vector<RecordRef> out;
  EXPECT_EQ(channel->drain_into(out, 8), 3u);
  for (const RecordRef& ref : out) EXPECT_EQ(ref.get(), shared.get());
  out.clear();
  EXPECT_EQ(shared.use_count(), 1);  // the channel kept no reference
}

TEST_P(ChannelApi, WaiterCountsReflectBlockedThreads) {
  auto channel = make(1);
  EXPECT_EQ(channel->send_waiters(), 0u);
  EXPECT_EQ(channel->receive_waiters(), 0u);
  channel->send(record_at(1));
  std::thread sender([&] { channel->send(record_at(2)); });
  while (channel->send_waiters() == 0) std::this_thread::yield();
  EXPECT_EQ(channel->send_waiters(), 1u);
  channel->receive();  // makes room; the sender unblocks
  sender.join();
  EXPECT_EQ(channel->send_waiters(), 0u);
}

TEST_P(ChannelApi, PipelineWithMarshalledPayloads) {
  // Producer encodes, wire is the channel, consumer decodes — the actual
  // Fig. 5 data path with real threads.
  StreamSchema schema;
  schema.name = "pipe";
  schema.fields = {{"v", "double"}};
  auto channel = make(4);
  std::thread producer([&] {
    for (uint64_t i = 0; i < 100; ++i) {
      Record record;
      record.sequence = i;
      record.values = {Value{0.5 * static_cast<double>(i)}};
      channel->send(std::move(record));
    }
    channel->close();
  });
  uint64_t count = 0;
  double total = 0;
  while (auto record = channel->receive()) {
    ++count;
    total += std::get<double>(record->values[0]);
  }
  producer.join();
  EXPECT_EQ(count, 100u);
  EXPECT_DOUBLE_EQ(total, 0.5 * (99.0 * 100.0 / 2.0));
}

TEST(Channel, OverflowNames) {
  EXPECT_STREQ(overflow_name(Overflow::Block), "block");
  EXPECT_STREQ(overflow_name(Overflow::DropOldest), "drop-oldest");
  EXPECT_STREQ(overflow_name(Overflow::KeepLatest), "keep-latest");
}

TEST(Channel, KindNamesRoundTrip) {
  for (ChannelKind kind :
       {ChannelKind::Mutex, ChannelKind::Spsc, ChannelKind::Mpmc}) {
    EXPECT_EQ(parse_channel_kind(channel_kind_name(kind)), kind);
  }
  EXPECT_THROW(parse_channel_kind("lockfree"), ValidationError);
}

TEST(Channel, RingRoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(make_channel(ChannelKind::Spsc, 5)->capacity(), 8u);
  EXPECT_EQ(make_channel(ChannelKind::Mpmc, 1)->capacity(), 1u);
  EXPECT_EQ(make_channel(ChannelKind::Mpmc, 64)->capacity(), 64u);
  EXPECT_EQ(make_channel(ChannelKind::Mutex, 5)->capacity(), 5u);  // exact
  EXPECT_THROW(make_channel(ChannelKind::Spsc, size_t{1} << 40),
               ValidationError);
}

}  // namespace
}  // namespace ff::stream
