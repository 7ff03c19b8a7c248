#pragma once

// Measurement helpers shared by every perfbench workload: the percentile
// picker, the span buffer of traced runs (with self time), and open-loop
// schedules whose latencies count from the due time. Standard library only,
// so ffbench_selftest can pin them with fixed inputs.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since an arbitrary process-wide epoch.
double now_s();

/// Return once now_s() >= t: sleeps while t is more than 200 us away, then
/// spins.
void wait_until(double t);

/// Median of `samples` (mean of the middle two for an even count); 0 when
/// empty.
double median(std::vector<double> samples);

/// Nearest-rank percentile of already sorted samples: the value at rank
/// ceil(p * n), 1-based. `p` in (0, 1].
double nearest_rank(const std::vector<double>& sorted, double p);

/// A tail percentile as reported: which percentile was used, over how many
/// samples, and how many samples lie beyond it.
struct Tail {
  double value = 0;
  double percentile = 0;  // e.g. 0.99
  size_t samples = 0;
  size_t beyond = 0;      // samples ranked above the reported one
  bool sufficient = false;  // false: even p50 has fewer than 10 beyond it
  /// "p99", "p95", ... (the percentile actually reported).
  std::string name() const;
};

/// The highest percentile at or below `wanted` (from 0.999, 0.99, 0.95,
/// 0.9, 0.75, 0.5) that has at least `min_beyond` samples ranked beyond it.
/// When the sample is too small even for p50, reports p50 with
/// sufficient = false. An empty sample reports value 0.
Tail pick_tail(std::vector<double> samples, double wanted,
               size_t min_beyond = 10);

/// One timed interval of a traced run.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int64_t parent = -1;  // index of the enclosing span, -1 for a root
  double duration() const { return end - start; }
};

/// Self time of spans[index]: its duration minus the part of its interval
/// covered by its direct children (the union of their intervals, clipped to
/// the parent, so overlapping children from several threads count once).
double self_time(const std::vector<Span>& spans, size_t index);

/// The benchmark's own in-memory span buffer. begin()/end() nest per
/// thread: a span begun with no explicit parent hangs under the innermost
/// open span of the calling thread. Disabled recorders record nothing and
/// return -1, which is how a pass runs untraced.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = true) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  /// Open a span; `parent` = -2 means "the innermost open span on this
  /// thread" (or a root when none is open).
  int64_t begin(const std::string& name, int64_t parent = -2);
  void end(int64_t id);

  std::vector<Span> spans() const;
  /// Durations (seconds) of every span called `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Write one JSON object per span: {"id","name","start","end","parent"}.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span on a recorder (no-op when the recorder is disabled).
class Scoped {
 public:
  Scoped(SpanRecorder& recorder, const std::string& name, int64_t parent = -2)
      : recorder_(recorder), id_(recorder.begin(name, parent)) {}
  ~Scoped() { recorder_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int64_t id() const noexcept { return id_; }

 private:
  SpanRecorder& recorder_;
  int64_t id_;
};

/// An open-loop schedule: request i is due at start + i * interval whether
/// or not earlier requests have completed. Latency counts from the due
/// time, so a stall also charges the requests queued behind it; lateness is
/// how far the generator itself sent behind schedule.
class OpenLoop {
 public:
  OpenLoop(double start, double interval) : start_(start), interval_(interval) {}

  double due(uint64_t index) const {
    return start_ + static_cast<double>(index) * interval_;
  }
  /// Record request `index`: when it was actually sent and when it
  /// completed.
  void record(uint64_t index, double sent, double done);

  const std::vector<double>& latencies() const noexcept { return latencies_; }
  const std::vector<double>& lateness() const noexcept { return lateness_; }

 private:
  double start_;
  double interval_;
  std::vector<double> latencies_;  // done - due
  std::vector<double> lateness_;   // sent - due
};

}  // namespace perfbench
