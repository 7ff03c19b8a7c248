// stream_fanout: the in-process Fig. 5 plane, no daemon. StreamPipeline
// with 2 workers and 8 forward-all, block-overflow queues.
//
//  Phase A (saturating): rounds of kPhaseARecords records published in
//    batches of 64 to cost-free counting consumers, each round on a fresh
//    plane (so where its threads land is drawn again); records published
//    per second from first publish to quiescence, median of the rounds.
//  Phase B (open loop): records published one by one at kPhaseBRate, below
//    saturation, to consumers that cost 50 us per record; latency from each
//    record's due time to consumer entry (gated: the median of per-second
//    medians), plus generator lateness.

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>

#include "bench.hpp"
#include "generate.hpp"
#include "stream/pipeline.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

constexpr size_t kWorkers = 2;
constexpr size_t kQueues = 8;
constexpr size_t kBatch = 64;
constexpr int kSetups = 31;
constexpr uint64_t kPhaseARecords = 40000;
constexpr double kPhaseAShare = 0.4;  // of the run's seconds
constexpr double kPhaseBRate = 2000;  // records/s
constexpr double kConsumerCost = 50e-6;

/// The consumer side: counts deliveries, checks per-queue order, and in
/// phase B spends kConsumerCost per record and times its entry.
class Consumers {
 public:
  void set_phase_b(bool on) { phase_b_.store(on); }

  void consume(const std::string& queue, const ff::stream::Record& record) {
    const double entered = now_s();
    const size_t q = static_cast<size_t>(queue[1] - '0');
    const uint64_t previous = last_[q].exchange(record.sequence + 1);
    if (previous > record.sequence) misordered_.fetch_add(1);
    delivered_.fetch_add(1, std::memory_order_relaxed);
    if (!phase_b_.load(std::memory_order_relaxed)) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      latency_.emplace_back(record.timestamp, entered - record.timestamp);
    }
    wait_until(entered + kConsumerCost);
  }

  uint64_t delivered() const { return delivered_.load(); }
  uint64_t misordered() const { return misordered_.load(); }
  /// Phase B deliveries as (due time, latency from due).
  std::vector<std::pair<double, double>> latency() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return latency_;
  }

 private:
  std::atomic<bool> phase_b_{false};
  std::array<std::atomic<uint64_t>, kQueues> last_{};  // next expected seq floor
  std::atomic<uint64_t> delivered_{0};
  std::atomic<uint64_t> misordered_{0};
  mutable std::mutex mutex_;
  std::vector<std::pair<double, double>> latency_;
};

std::unique_ptr<ff::stream::StreamPipeline> make_plane(Consumers& consumers) {
  auto pipeline = std::make_unique<ff::stream::StreamPipeline>(kWorkers);
  pipeline->subscribe([&consumers](const std::string& queue,
                                   const ff::stream::Record& record) {
    consumers.consume(queue, record);
  });
  for (size_t q = 0; q < kQueues; ++q) {
    pipeline->install_queue("q" + std::to_string(q),
                            std::make_unique<ff::stream::ForwardAllPolicy>(),
                            {.overflow = ff::stream::Overflow::Block,
                             .batch = kBatch});
  }
  return pipeline;
}

}  // namespace

Result run_stream_fanout(const Options& options) {
  Result result;
  Consumers consumers;

  // Set-up: pipeline construction (worker threads) plus queue install.
  std::vector<double> setups;
  std::unique_ptr<ff::stream::StreamPipeline> plane;
  for (int k = 0; k < kSetups; ++k) {
    if (plane) plane->shutdown();
    plane.reset();
    const double start = now_s();
    plane = make_plane(consumers);
    setups.push_back(now_s() - start);
  }

  // Phase A: saturating rounds.
  const double start = now_s();
  const double phase_a_end = start + kPhaseAShare * options.seconds;
  uint64_t seq = 0;
  std::vector<double> rates;
  std::vector<ff::stream::Record> batch;
  while (rates.empty() || now_s() < phase_a_end) {
    plane->shutdown();
    plane = make_plane(consumers);
    const uint64_t before = consumers.delivered();
    const double round_start = now_s();
    for (uint64_t i = 0; i < kPhaseARecords; ++i, ++seq) {
      batch.push_back(make_record(options.seed, seq, 0));
      if (batch.size() == kBatch || i + 1 == kPhaseARecords) {
        plane->publish_batch(batch);
        batch.clear();
      }
    }
    plane->wait_quiescent();
    rates.push_back(static_cast<double>(kPhaseARecords) / (now_s() - round_start));
    result.attempted += kPhaseARecords;
    const uint64_t got = consumers.delivered() - before;
    if (got != kPhaseARecords * kQueues) {
      result.fail("phase A lost " + std::to_string(kPhaseARecords * kQueues - got) +
                  " deliveries");
    }
  }

  // Phase B: open loop below saturation with 50 us consumers.
  consumers.set_phase_b(true);
  const double b_start = now_s() + 0.001;
  const double b_end = start + options.seconds;
  OpenLoop loop(b_start, 1.0 / kPhaseBRate);
  std::vector<double> lateness;
  uint64_t published_b = 0;
  const uint64_t before_b = consumers.delivered();
  for (uint64_t i = 0; loop.due(i) < b_end; ++i, ++seq, ++published_b) {
    wait_until(loop.due(i));
    lateness.push_back(now_s() - loop.due(i));
    plane->publish(make_record(options.seed, seq, loop.due(i)));
  }
  plane->wait_quiescent();
  result.attempted += published_b;
  const uint64_t got_b = consumers.delivered() - before_b;
  if (got_b != published_b * kQueues) {
    result.fail("phase B lost " + std::to_string(published_b * kQueues - got_b) +
                " deliveries");
  }
  uint64_t dropped = 0;
  for (size_t q = 0; q < kQueues; ++q) {
    dropped += plane->report("q" + std::to_string(q)).dropped;
  }
  if (dropped > 0) result.fail(std::to_string(dropped) + " records dropped under block");
  if (consumers.misordered() > 0) {
    result.fail(std::to_string(consumers.misordered()) + " deliveries out of order");
  }
  plane->shutdown();
  const double rss = vm_hwm_mb();

  // The gated latency is the median of per-second medians, so a stall of
  // the host that hits a few seconds of phase B does not move it.
  std::vector<double> latency;
  std::vector<std::vector<double>> windows;
  for (const auto& [due, waited] : consumers.latency()) {
    latency.push_back(waited);
    const size_t window = static_cast<size_t>(std::max(0.0, due - b_start));
    if (windows.size() <= window) windows.resize(window + 1);
    windows[window].push_back(waited);
  }
  std::vector<double> window_p50s;
  for (const std::vector<double>& window : windows) {
    if (!window.empty()) window_p50s.push_back(median(window));
  }
  const Tail delivery_p90 = pick_tail(latency, 0.90);
  const Tail delivery_p99 = pick_tail(latency, 0.99);
  const Tail late_p99 = pick_tail(lateness, 0.99);
  result.metric("setup_s", median(setups), "s");
  result.metric("latency_p50_ms", median(window_p50s) * 1e3, "ms");
  result.metric("throughput_per_s", median(rates), "1/s");

  result.note("setup_s", median(setups), "s");
  result.note("delivered_rec_per_s", median(rates), "rec/s");
  result.note_median("delivery_p50_us", latency, 1e6, "us");
  result.note("delivery_window_p50_us", median(window_p50s) * 1e6, "us");
  result.note_tail("delivery_p90_us", delivery_p90, 1e6, "us");
  result.note_tail("delivery_p99_us", delivery_p99, 1e6, "us");
  result.note_tail("generator_lateness_p99_us", late_p99, 1e6, "us");
  result.note("peak_rss_mb", rss, "MB");
  result.note("phase_a_rounds", static_cast<double>(rates.size()), "count");
  result.note("phase_b_records", static_cast<double>(published_b), "count");
  return result;
}

}  // namespace perfbench
