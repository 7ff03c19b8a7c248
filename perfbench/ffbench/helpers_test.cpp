// Fixed-input tests of the benchmark's own helpers: the percentile picker,
// span self time, and open-loop latency from the due time.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "helpers.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(PickTail, ReportsTheWantedPercentileWhenTenSamplesLieBeyondIt) {
  const Tail tail = pick_tail(one_to(1000), 0.99);
  EXPECT_TRUE(tail.sufficient);
  EXPECT_EQ(tail.name(), "p99");
  EXPECT_DOUBLE_EQ(tail.value, 990.0);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_EQ(tail.samples, 1000u);
}

TEST(PickTail, FallsBackToTheHighestSupportedPercentileAndNamesIt) {
  // 400 samples: p99 would have only 4 beyond it, p95 has 20.
  std::vector<double> samples = one_to(400);
  std::reverse(samples.begin(), samples.end());  // order must not matter
  const Tail tail = pick_tail(samples, 0.99);
  EXPECT_TRUE(tail.sufficient);
  EXPECT_EQ(tail.name(), "p95");
  EXPECT_DOUBLE_EQ(tail.value, 380.0);
  EXPECT_EQ(tail.beyond, 20u);
}

TEST(PickTail, ASampleTooSmallForAnyTailReportsTheMedianAsInsufficient) {
  const Tail tail = pick_tail(one_to(15), 0.99);
  EXPECT_FALSE(tail.sufficient);
  EXPECT_EQ(tail.name(), "p50");
  EXPECT_DOUBLE_EQ(tail.value, 8.0);
  EXPECT_EQ(tail.beyond, 7u);
}

TEST(PickTail, NeverReportsAboveTheWantedPercentile) {
  const Tail tail = pick_tail(one_to(100000), 0.99);
  EXPECT_EQ(tail.name(), "p99");
  EXPECT_DOUBLE_EQ(tail.value, 99000.0);
}

TEST(PickTail, EmptySampleIsInsufficientZero) {
  const Tail tail = pick_tail({}, 0.99);
  EXPECT_FALSE(tail.sufficient);
  EXPECT_EQ(tail.samples, 0u);
  EXPECT_DOUBLE_EQ(tail.value, 0.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(SelfTime, SubtractsTheTimeChildrenCover) {
  // root [0, 10] with children [1, 3] and [5, 6]: self = 10 - 3 = 7.
  const std::vector<Span> spans = {
      {"root", 0, 10, -1}, {"a", 1, 3, 0}, {"b", 5, 6, 0}};
  EXPECT_DOUBLE_EQ(self_time(spans, 0), 7.0);
  EXPECT_DOUBLE_EQ(self_time(spans, 1), 2.0);
}

TEST(SelfTime, OverlappingChildrenCountOnceAndGrandchildrenNotAtAll) {
  // Children [1, 4] and [2, 5] overlap (two threads): union [1, 5] = 4.
  // The grandchild [2, 3] belongs to child 1, not to the root.
  const std::vector<Span> spans = {{"root", 0, 10, -1},
                                   {"a", 1, 4, 0},
                                   {"b", 2, 5, 0},
                                   {"grandchild", 2, 3, 1}};
  EXPECT_DOUBLE_EQ(self_time(spans, 0), 6.0);
  EXPECT_DOUBLE_EQ(self_time(spans, 1), 2.0);
}

TEST(SelfTime, ChildrenOutsideTheParentAreClipped) {
  const std::vector<Span> spans = {{"root", 2, 6, -1}, {"late", 5, 9, 0}};
  EXPECT_DOUBLE_EQ(self_time(spans, 0), 3.0);
}

TEST(SpanRecorder, NestsPerThreadAndRecordsNothingWhenDisabled) {
  SpanRecorder recorder;
  {
    Scoped outer(recorder, "outer");
    Scoped inner(recorder, "inner");
  }
  const std::vector<Span> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_LE(spans[1].end, spans[0].end);

  SpanRecorder off(false);
  { Scoped ignored(off, "x"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(OpenLoop, LatencyCountsFromTheDueTimeNotTheSendTime) {
  // 10 ms schedule from t = 100. Request 0 is served on time in 1 ms.
  // Request 1 waits behind a 25 ms stall: it is sent at 126 (16 ms late)
  // and completes at 127 — 17 ms after it was due, not 1 ms after send.
  // Request 2 is due at 120, sent late at 127, done at 128.
  OpenLoop loop(100.0, 0.010);
  loop.record(0, 100.000, 100.001);
  loop.record(1, 100.026, 100.027);
  loop.record(2, 100.027, 100.028);
  ASSERT_EQ(loop.latencies().size(), 3u);
  EXPECT_NEAR(loop.latencies()[0], 0.001, 1e-9);
  EXPECT_NEAR(loop.latencies()[1], 0.017, 1e-9);
  EXPECT_NEAR(loop.latencies()[2], 0.008, 1e-9);
  EXPECT_NEAR(loop.lateness()[1], 0.016, 1e-9);
  EXPECT_NEAR(loop.lateness()[2], 0.007, 1e-9);
}

TEST(OpenLoop, DueTimesAreFixedInAdvance) {
  const OpenLoop loop(5.0, 0.005);
  EXPECT_DOUBLE_EQ(loop.due(0), 5.0);
  EXPECT_DOUBLE_EQ(loop.due(200), 6.0);
}

}  // namespace
}  // namespace perfbench
