// Fig. 5 / Section V-C reproduction: "Finer granularity in workflow
// construction allows greater reuse. In this instance, data selection
// criteria is separated from data movement infrastructure."
//
// We measure:
//  1. Reuse: when the selection policy changes, how many generated lines
//     change? (zero — the communication components are untouched)
//     vs when the schema changes (only the marshal component changes).
//  2. Marshalling: the self-describing codec vs the length-prefixed binary
//     frame codec (encode and decode Mrec/s on the same record stream).
//  3. Channel microbench: mutex deque vs SPSC ring vs MPMC ring, single-
//     threaded op cost and 1-producer/1-consumer transfer rate.
//  4. The hot path: forward-all across 8 queues with cost-free consumers,
//     before (mutex channel, batch 1, per-record publish) vs after (batch
//     64, batched publish) on each of the three channel kinds carrying the
//     plane's shared RecordRefs, at 1/2/4/8 workers.
//  5. Paced latency: a producer below saturation (the steady state of a
//     real instrument) with a 50 us simulated downstream cost; publish ->
//     delivery p50/p95/p99, sync vs threaded. Saturating-producer runs
//     measure queueing, not handoff — pacing isolates what the plane adds.
//  6. Overflow-policy tradeoff under a saturating producer.
//  7. Runtime steering: install a policy unknown at generation time via
//     the control channel, landing on the concurrent plane.
//
// Writes the measured series, with the host, compiler, build type and
// revision, to BENCH_stream.json (path = argv[1] or the default below) —
// the committed record of data-plane performance.
//
// `--smoke`: a ~2 s regression guard (the ctest `perf-smoke` label): the
// threaded plane at 1 worker must not be slower than the sync scheduler
// under the paced downstream-cost model, and its paced p50 must stay
// within 2x of sync. Exits 1 on regression, writes nothing.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "host_record.hpp"
#include "stream/codegen.hpp"
#include "stream/marshal.hpp"
#include "stream/pipeline.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

using namespace ff;
using Clock = std::chrono::steady_clock;

namespace {

constexpr size_t kQueues = 8;  // one per simulated downstream sink
constexpr auto kConsumerCost = std::chrono::microseconds(50);

double seconds_since(const Clock::time_point& start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

stream::StreamSchema instrument_schema(size_t extra_fields) {
  stream::StreamSchema schema;
  schema.name = "instrument";
  schema.version = 1;
  schema.fields = {{"shot", "int"}, {"energy", "double"}};
  for (size_t i = 0; i < extra_fields; ++i) {
    schema.fields.push_back({"aux" + std::to_string(i), "double"});
  }
  return schema;
}

stream::Record make_record(uint64_t sequence, size_t extra_fields) {
  stream::Record record;
  record.sequence = sequence;
  record.timestamp = static_cast<double>(sequence) * 0.001;
  record.values = {stream::Value{static_cast<int64_t>(sequence)},
                   stream::Value{1.5 * static_cast<double>(sequence)}};
  for (size_t i = 0; i < extra_fields; ++i) {
    record.values.emplace_back(0.25 * static_cast<double>(i));
  }
  return record;
}

// --- channel microbench -----------------------------------------------------

struct ChannelScore {
  double st_ops_s = 0;  // single-threaded send+receive ops per second
  double mt_rec_s = 0;  // 1P/1C records through the channel per second
};

ChannelScore bench_channel(stream::ChannelKind kind) {
  ChannelScore score;
  {
    // Single-threaded: bursts of 64 try_send, drained by try_receive —
    // pure op cost, no parking, no contention.
    auto channel = stream::make_channel(kind, 128);
    constexpr uint64_t kOps = 400'000;  // sends; receives double it
    const auto start = Clock::now();
    uint64_t sent = 0;
    while (sent < kOps) {
      for (int i = 0; i < 64 && sent < kOps; ++i, ++sent) {
        stream::Record record;
        record.sequence = sent;
        channel->try_send(std::move(record));
      }
      while (channel->try_receive()) {
      }
    }
    score.st_ops_s = 2.0 * static_cast<double>(kOps) / seconds_since(start);
  }
  {
    // One producer blocking-sends, one consumer bulk-drains — the exact
    // shape of a pipeline strand drain.
    auto channel = stream::make_channel(kind, 1024);
    constexpr uint64_t kRecords = 400'000;
    const auto start = Clock::now();
    std::thread producer([&] {
      for (uint64_t i = 0; i < kRecords; ++i) {
        stream::Record record;
        record.sequence = i;
        channel->send(std::move(record));
      }
      channel->close();
    });
    uint64_t received = 0;
    std::vector<stream::Record> batch;
    while (true) {
      batch.clear();
      if (channel->drain_into(batch, 64) == 0) {
        if (channel->closed() && channel->size() == 0) break;
        std::this_thread::yield();
        continue;
      }
      received += batch.size();
    }
    producer.join();
    score.mt_rec_s = static_cast<double>(received) / seconds_since(start);
  }
  return score;
}

// --- hot path ---------------------------------------------------------------

struct HotConfig {
  const char* name;
  stream::ChannelKind channel;
  size_t batch;
  bool batched_publish;
};

constexpr HotConfig kBefore{"before", stream::ChannelKind::Mutex, 1, false};
constexpr HotConfig kAfter[] = {
    {"after", stream::ChannelKind::Mutex, 64, true},
    {"after", stream::ChannelKind::Spsc, 64, true},
    {"after", stream::ChannelKind::Mpmc, 64, true},
};

/// Publish `records` through kQueues forward-all queues with cost-free
/// counting consumers and return end-to-end records/s (publish start to
/// full quiescence). This is raw plane overhead: policy + channel +
/// strand dispatch + delivery, nothing simulated.
double run_hot_plane(const HotConfig& config, size_t workers,
                     uint64_t records) {
  stream::StreamPipeline pipeline(workers);
  std::atomic<uint64_t> delivered{0};
  pipeline.subscribe([&](const std::string&, const stream::Record&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t q = 0; q < kQueues; ++q) {
    pipeline.install_queue("q" + std::to_string(q),
                           std::make_unique<stream::ForwardAllPolicy>(),
                           {.capacity = 1024,
                            .overflow = stream::Overflow::Block,
                            .batch = config.batch,
                            .channel = config.channel});
  }

  const auto start = Clock::now();
  if (config.batched_publish) {
    std::vector<stream::Record> chunk;
    chunk.reserve(64);
    for (uint64_t i = 0; i < records; ++i) {
      chunk.push_back(make_record(i, 2));
      if (chunk.size() == 64 || i + 1 == records) {
        pipeline.publish_batch(chunk);
        chunk.clear();
      }
    }
  } else {
    for (uint64_t i = 0; i < records; ++i) {
      pipeline.publish(make_record(i, 2));
    }
  }
  pipeline.wait_quiescent();
  const double wall = seconds_since(start);
  pipeline.shutdown();
  if (delivered.load() != records * kQueues) {
    std::fprintf(stderr, "hot plane lost records: %llu != %llu\n",
                 static_cast<unsigned long long>(delivered.load()),
                 static_cast<unsigned long long>(records * kQueues));
    std::exit(1);
  }
  return static_cast<double>(records) / wall;
}

/// The same workload delivered inline by the synchronous DataScheduler.
double run_hot_sync(uint64_t records) {
  stream::DataScheduler scheduler;
  std::atomic<uint64_t> delivered{0};
  scheduler.subscribe([&](const std::string&, const stream::Record&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t q = 0; q < kQueues; ++q) {
    scheduler.install_queue("q" + std::to_string(q),
                            std::make_unique<stream::ForwardAllPolicy>());
  }
  const auto start = Clock::now();
  for (uint64_t i = 0; i < records; ++i) scheduler.publish(make_record(i, 2));
  return static_cast<double>(records) / seconds_since(start);
}

// --- paced latency ----------------------------------------------------------

struct PacedResult {
  double records_s = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  uint64_t delivered = 0;
  uint64_t dropped = 0;
};

/// Collects publish->delivery latencies; the consumer also pays the
/// simulated downstream cost.
struct SinkModel {
  Clock::time_point epoch = Clock::now();
  std::mutex mutex;
  std::vector<double> latencies_ms;
  uint64_t delivered = 0;

  stream::DataScheduler::Consumer consumer() {
    return [this](const std::string&, const stream::Record& record) {
      const double now = seconds_since(epoch);
      {
        std::lock_guard lock(mutex);
        ++delivered;
        latencies_ms.push_back((now - record.timestamp) * 1e3);
      }
      std::this_thread::sleep_for(kConsumerCost);
    };
  }

  void fill(PacedResult& result) {
    std::lock_guard lock(mutex);
    result.delivered = delivered;
    if (latencies_ms.empty()) return;
    result.p50_ms = percentile(latencies_ms, 50);
    result.p95_ms = percentile(latencies_ms, 95);
    result.p99_ms = percentile(latencies_ms, 99);
  }
};

/// Producer paced at `pace` per record — below the plane's capacity, so
/// the measured latency is handoff + downstream cost, not queue depth.
/// workers == 0 runs the synchronous scheduler instead.
PacedResult run_paced(size_t workers, uint64_t records,
                      std::chrono::microseconds pace) {
  SinkModel sink;
  PacedResult result;
  const auto publish_all = [&](auto&& publish, auto&& quiesce) {
    const auto start = Clock::now();
    for (uint64_t i = 0; i < records; ++i) {
      const auto next = start + (i + 1) * pace;
      stream::Record record = make_record(i, 2);
      record.timestamp = seconds_since(sink.epoch);
      publish(record);
      std::this_thread::sleep_until(next);
    }
    quiesce();
    result.records_s = static_cast<double>(records) / seconds_since(start);
  };
  if (workers == 0) {
    stream::DataScheduler scheduler;
    scheduler.subscribe(sink.consumer());
    for (size_t q = 0; q < kQueues; ++q) {
      scheduler.install_queue("q" + std::to_string(q),
                              std::make_unique<stream::ForwardAllPolicy>());
    }
    publish_all([&](const stream::Record& r) { scheduler.publish(r); },
                [] {});
  } else {
    stream::StreamPipeline pipeline(workers);
    pipeline.subscribe(sink.consumer());
    for (size_t q = 0; q < kQueues; ++q) {
      pipeline.install_queue("q" + std::to_string(q),
                             std::make_unique<stream::ForwardAllPolicy>(),
                             {.capacity = 256});
    }
    publish_all([&](const stream::Record& r) { pipeline.publish(r); },
                [&] { pipeline.wait_quiescent(); });
    pipeline.shutdown();
  }
  sink.fill(result);
  return result;
}

// --- overflow ---------------------------------------------------------------

/// Overflow-policy tradeoff: a producer publishing flat out into one queue
/// with a deliberately slow consumer. block = lossless backpressure;
/// drop-oldest / keep-latest shed load to stay fresh.
PacedResult run_overflow(stream::Overflow overflow) {
  stream::StreamPipeline pipeline(2);
  SinkModel sink;
  auto base = sink.consumer();
  pipeline.subscribe([&base](const std::string& queue, const stream::Record& r) {
    base(queue, r);
    std::this_thread::sleep_for(std::chrono::microseconds(150));  // extra-slow sink
  });
  pipeline.install_queue("tap", std::make_unique<stream::ForwardAllPolicy>(),
                         {.capacity = 16, .overflow = overflow});

  constexpr uint64_t kBurst = 1500;
  const auto start = Clock::now();
  for (uint64_t i = 0; i < kBurst; ++i) {
    stream::Record record = make_record(i, 2);
    record.timestamp = seconds_since(sink.epoch);
    pipeline.publish(record);
  }
  pipeline.wait_quiescent();
  const double wall = seconds_since(start);
  pipeline.shutdown();

  PacedResult result;
  result.records_s = static_cast<double>(kBurst) / wall;
  sink.fill(result);
  result.delivered = pipeline.totals().delivered;
  result.dropped = pipeline.totals().dropped;
  return result;
}

// --- smoke mode -------------------------------------------------------------

/// The perf-smoke regression guard (~1.5 s): under the paced downstream-
/// cost model the threaded plane at 1 worker must not fall behind the
/// sync scheduler (0.9x noise floor on a shared box) and must not pay
/// more than 2x its p50 — the PR-4 per-record-handoff failure mode.
int run_smoke() {
  constexpr uint64_t kRecords = 400;
  constexpr auto kPace = std::chrono::microseconds(1000);
  constexpr int kAttempts = 3;
  std::printf("perf-smoke: paced %llu us, %llu records x %zu queues, "
              "%lld us downstream cost\n",
              static_cast<unsigned long long>(kPace.count()),
              static_cast<unsigned long long>(kRecords), kQueues,
              static_cast<long long>(kConsumerCost.count()));
  // The host (often a loaded 1-core VM) can stall any single run for tens
  // of milliseconds, so one bad sample is not a regression: pass if any of
  // three attempts is clean. A real handoff regression fails all three.
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    const PacedResult sync = run_paced(0, kRecords, kPace);
    const PacedResult threaded = run_paced(1, kRecords, kPace);
    std::printf("  attempt %d: sync %8.0f records/s p50 %.3f ms | "
                "threaded 1w %8.0f records/s p50 %.3f ms\n",
                attempt, sync.records_s, sync.p50_ms, threaded.records_s,
                threaded.p50_ms);
    const bool throughput_ok = threaded.records_s >= 0.9 * sync.records_s;
    const bool latency_ok = threaded.p50_ms <= 2.0 * sync.p50_ms;
    if (throughput_ok && latency_ok) {
      std::printf("perf-smoke: OK\n");
      return 0;
    }
    if (!throughput_ok) {
      std::fprintf(stderr,
                   "  attempt %d: threaded plane at 1 worker slower than "
                   "sync (%.0f < 0.9 * %.0f records/s)\n",
                   attempt, threaded.records_s, sync.records_s);
    }
    if (!latency_ok) {
      std::fprintf(stderr,
                   "  attempt %d: threaded 1-worker p50 exceeds 2x sync "
                   "(%.3f > 2 * %.3f ms)\n",
                   attempt, threaded.p50_ms, sync.p50_ms);
    }
  }
  std::printf("perf-smoke: REGRESSION (all %d attempts failed)\n", kAttempts);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_stream.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
    out_path = argv[i];
  }
  std::printf("Fig 5 — generated communication + concurrent data plane\n\n");

  Json bench = Json::object();
  bench["schema"] = std::string("fairflow.bench.stream/3");
  bench["meta"] = ff::bench::host_record();
  bench["queues"] = static_cast<int64_t>(kQueues);
  bench["consumer_cost_us"] = static_cast<int64_t>(kConsumerCost.count());

  // 1. Reuse accounting under change.
  const auto base = stream::generate_comm_code(instrument_schema(2));
  const auto wider = stream::generate_comm_code(instrument_schema(3));
  size_t unchanged = 0;
  size_t changed = 0;
  for (const auto& artifact : base) {
    for (const auto& other : wider) {
      if (other.path != artifact.path) continue;
      if (other.content == artifact.content) ++unchanged;
      else ++changed;
    }
  }
  std::printf("schema change (add one field): %zu artifacts regenerated, %zu "
              "byte-identical (sink/source skeletons reused)\n",
              changed, unchanged);
  std::printf("policy change (e.g. forward-all -> sliding window): 0 of %zu "
              "generated lines change — policies install at runtime\n\n",
              stream::generated_loc(base));

  // 2. Marshalling cost: self-describing vs binary frames, same records.
  {
    const size_t kMarshalRecords = 400'000;
    stream::Encoder encoder(instrument_schema(2));
    auto start = Clock::now();
    for (uint64_t i = 0; i < kMarshalRecords; ++i) {
      encoder.append(make_record(i, 2));
    }
    const double encode_s = seconds_since(start);
    start = Clock::now();
    const auto decoded = stream::decode_stream(encoder.bytes());
    const double decode_s = seconds_since(start);

    stream::FrameEncoder frames(instrument_schema(2));
    start = Clock::now();
    for (uint64_t i = 0; i < kMarshalRecords; ++i) {
      frames.append(make_record(i, 2));
    }
    const double encode_bin_s = seconds_since(start);
    start = Clock::now();
    const auto decoded_bin =
        stream::decode_frame_stream(frames.bytes(), instrument_schema(2));
    const double decode_bin_s = seconds_since(start);
    if (decoded_bin.records.size() != decoded.records.size()) {
      std::fprintf(stderr, "codec disagreement on record count\n");
      return 1;
    }

    // Steady-state wire-path decode: chunk-at-a-time into a reused
    // DecodedStream (the set_wire_sink consumer pattern) — once warm, a
    // fixed-width schema decodes with zero allocations per chunk.
    const size_t kChunk = 4096;
    stream::FrameEncoder chunk_frames(instrument_schema(2));
    for (uint64_t i = 0; i < kChunk; ++i) {
      chunk_frames.append(make_record(i, 2));
    }
    stream::DecodedStream reused;
    stream::decode_frame_stream_into(chunk_frames.bytes(), instrument_schema(2),
                                     reused);  // warm the buffers
    const size_t kChunkRounds = kMarshalRecords / kChunk;
    size_t chunk_records = 0;
    start = Clock::now();
    for (size_t i = 0; i < kChunkRounds; ++i) {
      stream::decode_frame_stream_into(chunk_frames.bytes(),
                                       instrument_schema(2), reused);
      chunk_records += reused.records.size();
    }
    const double decode_reuse_s = seconds_since(start);

    const double decode_mrec = decoded.records.size() / decode_s / 1e6;
    const double decode_bin_oneshot_mrec =
        decoded_bin.records.size() / decode_bin_s / 1e6;
    const double decode_bin_mrec =
        static_cast<double>(chunk_records) / decode_reuse_s / 1e6;
    std::printf("marshal self-describing: encode %.2f Mrec/s, decode %.2f "
                "Mrec/s, %s/rec\n",
                kMarshalRecords / encode_s / 1e6, decode_mrec,
                format_bytes(static_cast<double>(encoder.bytes().size()) /
                             kMarshalRecords)
                    .c_str());
    std::printf("marshal binary frames:   encode %.2f Mrec/s, decode %.2f "
                "Mrec/s one-shot / %.2f Mrec/s chunked+reused buffers, "
                "%s/rec  (steady-state decode %.1fx)\n\n",
                kMarshalRecords / encode_bin_s / 1e6, decode_bin_oneshot_mrec,
                decode_bin_mrec,
                format_bytes(static_cast<double>(frames.bytes().size()) /
                             kMarshalRecords)
                    .c_str(),
                decode_bin_mrec / decode_mrec);
    Json marshal = Json::object();
    marshal["encode_mrec_s"] = kMarshalRecords / encode_s / 1e6;
    marshal["decode_mrec_s"] = decode_mrec;
    marshal["encode_binary_mrec_s"] = kMarshalRecords / encode_bin_s / 1e6;
    marshal["decode_binary_oneshot_mrec_s"] = decode_bin_oneshot_mrec;
    marshal["decode_binary_mrec_s"] = decode_bin_mrec;
    marshal["decode_binary_speedup"] = decode_bin_mrec / decode_mrec;
    bench["marshal"] = marshal;
  }

  // 3. Channel microbench: the transport alone, no scheduler.
  std::printf("channel microbench (capacity 128/1024, batch-64 drains):\n");
  std::printf("%-8s %16s %16s\n", "kind", "1-thread ops/s", "1P/1C records/s");
  Json channels = Json::object();
  for (stream::ChannelKind kind :
       {stream::ChannelKind::Mutex, stream::ChannelKind::Spsc,
        stream::ChannelKind::Mpmc}) {
    const ChannelScore score = bench_channel(kind);
    std::printf("%-8s %16.0f %16.0f\n", stream::channel_kind_name(kind),
                score.st_ops_s, score.mt_rec_s);
    Json row = Json::object();
    row["st_ops_s"] = score.st_ops_s;
    row["mt_rec_s"] = score.mt_rec_s;
    channels[stream::channel_kind_name(kind)] = row;
  }
  bench["channel"] = channels;

  // 4. The hot path: before/after transport, cost-free consumers.
  constexpr uint64_t kHotRecords = 60'000;
  constexpr int kHotRepeats = 5;
  std::printf("\nhot path: %zu forward-all queues, %llu records, cost-free "
              "consumers, median of %d runs\n",
              kQueues, static_cast<unsigned long long>(kHotRecords),
              kHotRepeats);
  std::printf("%-8s %-8s %6s %8s %12s\n", "config", "channel", "batch",
              "workers", "records/s");
  const double sync_hot = run_hot_sync(kHotRecords);
  std::printf("%-8s %-8s %6s %8s %12.0f\n", "sync", "-", "-", "-", sync_hot);
  Json hot = Json::array();
  {
    Json row = Json::object();
    row["config"] = std::string("sync");
    row["workers"] = static_cast<int64_t>(0);
    row["records_s"] = sync_hot;
    hot.push_back(row);
  }
  double after_4w = 0;
  double before_4w = 0;
  std::vector<HotConfig> configs = {kBefore};
  configs.insert(configs.end(), std::begin(kAfter), std::end(kAfter));
  for (const HotConfig& config : configs) {
    for (size_t workers : {1u, 2u, 4u, 8u}) {
      // Median of kHotRepeats fresh planes: where the threads land differs
      // run to run, and one run can be an outlier.
      std::vector<double> rates;
      for (int repeat = 0; repeat < kHotRepeats; ++repeat) {
        rates.push_back(run_hot_plane(config, workers, kHotRecords));
      }
      const double rate = median(rates);
      std::printf("%-8s %-8s %6zu %8zu %12.0f\n", config.name,
                  stream::channel_kind_name(config.channel), config.batch,
                  workers, rate);
      Json row = Json::object();
      row["config"] = std::string(config.name);
      row["channel"] = std::string(stream::channel_kind_name(config.channel));
      row["batch"] = static_cast<int64_t>(config.batch);
      row["workers"] = static_cast<int64_t>(workers);
      row["records_s"] = rate;
      hot.push_back(row);
      if (workers == 4 && !config.batched_publish) before_4w = rate;
      if (workers == 4 && config.batched_publish &&
          config.channel == stream::ChannelKind::Spsc) {
        after_4w = rate;
      }
    }
  }
  bench["hot_path"] = hot;
  bench["hot_path_runs_per_cell"] = static_cast<int64_t>(kHotRepeats);
  bench["hot_path_speedup_after_vs_before_4w"] =
      before_4w > 0 ? after_4w / before_4w : 0;
  // The PR-4 committed grid measured forward-all at 3793 records/s with 4
  // workers (sleep-bound consumer model); the hot-path grid replaces it.
  constexpr double kCommittedBaseline4w = 3793.0;
  bench["hot_path_speedup_4w_vs_committed_baseline"] =
      after_4w / kCommittedBaseline4w;
  std::printf("after/before at 4 workers: %.1fx; after vs committed PR-4 "
              "grid (3793 records/s): %.1fx\n",
              before_4w > 0 ? after_4w / before_4w : 0,
              after_4w / kCommittedBaseline4w);

  // 5. Paced latency: what the plane *adds* below saturation.
  constexpr uint64_t kPacedRecords = 400;
  constexpr auto kPace = std::chrono::microseconds(1000);
  std::printf("\npaced latency: 1 record/ms, %llu records, %lld us "
              "downstream cost per delivery\n",
              static_cast<unsigned long long>(kPacedRecords),
              static_cast<long long>(kConsumerCost.count()));
  std::printf("%-10s %12s %10s %10s %10s\n", "plane", "records/s", "p50 ms",
              "p95 ms", "p99 ms");
  Json paced = Json::array();
  double sync_p50 = 0;
  double one_worker_p50 = 0;
  for (size_t workers : {0u, 1u, 2u, 4u}) {
    const PacedResult result = run_paced(workers, kPacedRecords, kPace);
    const std::string label =
        workers == 0 ? "sync" : std::to_string(workers) + "w";
    std::printf("%-10s %12.0f %10.3f %10.3f %10.3f\n", label.c_str(),
                result.records_s, result.p50_ms, result.p95_ms, result.p99_ms);
    Json row = Json::object();
    row["workers"] = static_cast<int64_t>(workers);
    row["records_s"] = result.records_s;
    row["latency_ms_p50"] = result.p50_ms;
    row["latency_ms_p95"] = result.p95_ms;
    row["latency_ms_p99"] = result.p99_ms;
    paced.push_back(row);
    if (workers == 0) sync_p50 = result.p50_ms;
    if (workers == 1) one_worker_p50 = result.p50_ms;
  }
  bench["paced"] = paced;
  bench["paced_p50_ratio_1w_vs_sync"] =
      sync_p50 > 0 ? one_worker_p50 / sync_p50 : 0;
  std::printf("1-worker p50 / sync p50: %.2fx\n",
              sync_p50 > 0 ? one_worker_p50 / sync_p50 : 0);

  // 6. Overflow tradeoff under a saturating producer.
  std::printf("\noverflow policies (capacity 16, saturating producer, "
              "slow sink):\n");
  std::printf("%-14s %12s %10s %8s %10s\n", "overflow", "records/s",
              "delivered", "dropped", "p99 ms");
  Json overflow_rows = Json::array();
  for (stream::Overflow overflow :
       {stream::Overflow::Block, stream::Overflow::DropOldest,
        stream::Overflow::KeepLatest}) {
    const PacedResult result = run_overflow(overflow);
    std::printf("%-14s %12.0f %10llu %8llu %10.2f\n",
                stream::overflow_name(overflow), result.records_s,
                static_cast<unsigned long long>(result.delivered),
                static_cast<unsigned long long>(result.dropped),
                result.p99_ms);
    Json row = Json::object();
    row["overflow"] = std::string(stream::overflow_name(overflow));
    row["records_s"] = result.records_s;
    row["delivered"] = static_cast<int64_t>(result.delivered);
    row["dropped"] = static_cast<int64_t>(result.dropped);
    row["latency_ms_p99"] = result.p99_ms;
    overflow_rows.push_back(row);
  }
  bench["overflow"] = overflow_rows;

  // 7. The steering scenario, now on the concurrent plane with a binary
  // wire tap — the full "forwarding component" data path.
  {
    stream::StreamPipeline pipeline(2);
    std::mutex mutex;
    std::vector<uint64_t> steered;
    size_t wire_bytes = 0;
    pipeline.subscribe(
        [&](const std::string& queue, const stream::Record& record) {
          if (queue != "steered") return;
          std::lock_guard lock(mutex);
          steered.push_back(record.sequence);
        });
    pipeline.install_queue("default",
                           std::make_unique<stream::ForwardAllPolicy>());
    const auto factory = stream::PolicyFactory::with_builtins();
    factory.handle_install(pipeline, Json::parse(R"({
      "install": {"queue": "steered", "kind": "direct-selection",
                  "args": {"max_queue": 128},
                  "capacity": 32, "overflow": "drop-oldest",
                  "channel": "mpmc", "format": "binary"}})"));
    pipeline.register_schema("steered", instrument_schema(2));
    pipeline.set_wire_sink(
        "steered", [&](const std::string&, std::vector<uint8_t> chunk) {
          std::lock_guard lock(mutex);
          wire_bytes += chunk.size();
        });
    for (uint64_t i = 0; i < 100; ++i) pipeline.publish(make_record(i, 2));
    Json select = Json::object();
    select["select"] = Json::array({Json(17), Json(42), Json(99)});
    pipeline.control("steered", select);
    pipeline.wait_quiescent();
    pipeline.shutdown();
    std::printf("\nruntime steering: installed 'direct-selection' "
                "post-deployment, selected %zu/3 requested items "
                "(%llu, %llu, %llu); %zu binary wire bytes tapped\n",
                steered.size(), static_cast<unsigned long long>(steered[0]),
                static_cast<unsigned long long>(steered[1]),
                static_cast<unsigned long long>(steered[2]), wire_bytes);
  }

  bench.write_file(out_path);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
