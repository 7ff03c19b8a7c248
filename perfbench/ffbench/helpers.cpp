#include "helpers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

thread_local std::vector<int64_t> t_open;  // this thread's open span ids

/// Length of the union of [start, end) intervals, each clipped to [lo, hi].
double union_length(std::vector<std::pair<double, double>> intervals,
                    double lo, double hi) {
  for (auto& [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double reach = lo;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    const double from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

void wait_until(double t) {
  // Sleep through all but the last 150 us (more than a typical sleep
  // overshoot), then spin: an open-loop generator keeps its schedule
  // without holding a CPU the system under test could use.
  for (;;) {
    const double left = t - now_s();
    if (left <= 0) return;
    if (left > 200e-6) {
      std::this_thread::sleep_for(std::chrono::duration<double>(left - 150e-6));
    }
  }
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()) - 1e-9);
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(sorted.size())));
  return sorted[index - 1];
}

std::string Tail::name() const {
  char buffer[16];
  const double pct = percentile * 100.0;
  if (std::fabs(pct - std::round(pct)) < 1e-9) {
    std::snprintf(buffer, sizeof(buffer), "p%.0f", pct);
  } else {
    std::snprintf(buffer, sizeof(buffer), "p%.1f", pct);
  }
  return buffer;
}

Tail pick_tail(std::vector<double> samples, double wanted, size_t min_beyond) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};
  Tail tail;
  tail.samples = samples.size();
  tail.percentile = 0.5;
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  for (const double p : kLadder) {
    if (p > wanted + 1e-12) continue;
    const size_t rank = static_cast<size_t>(std::ceil(p * n - 1e-9));
    const size_t beyond = samples.size() - rank;
    tail.percentile = p;
    tail.beyond = beyond;
    tail.value = nearest_rank(samples, p);
    if (beyond >= min_beyond) {
      tail.sufficient = true;
      return tail;
    }
  }
  tail.sufficient = false;  // p50 fallback already filled in
  return tail;
}

double self_time(const std::vector<Span>& spans, size_t index) {
  const Span& span = spans.at(index);
  std::vector<std::pair<double, double>> children;
  for (const Span& other : spans) {
    if (other.parent == static_cast<int64_t>(index)) {
      children.emplace_back(other.start, other.end);
    }
  }
  return span.duration() - union_length(std::move(children), span.start, span.end);
}

int64_t SpanRecorder::begin(const std::string& name, int64_t parent) {
  if (!enabled_) return -1;
  if (parent == -2) parent = t_open.empty() ? -1 : t_open.back();
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int64_t>(spans_.size());
    spans_.push_back(Span{name, now_s(), 0, parent});
  }
  t_open.push_back(id);
  return id;
}

void SpanRecorder::end(int64_t id) {
  if (id < 0) return;
  const double t = now_s();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end = t;
  }
  auto it = std::find(t_open.rbegin(), t_open.rend(), id);
  if (it != t_open.rend()) t_open.erase(std::next(it).base());
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.duration());
  }
  return out;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%lld}\n",
                  i, span.name.c_str(), span.start, span.end,
                  static_cast<long long>(span.parent));
    out << line;
  }
}

void OpenLoop::record(uint64_t index, double sent, double done) {
  latencies_.push_back(done - due(index));
  lateness_.push_back(sent - due(index));
}

}  // namespace perfbench
