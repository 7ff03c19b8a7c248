#include "stream/policy.hpp"

#include <algorithm>
#include <iterator>

#include "util/error.hpp"

namespace ff::stream {

SlidingWindowCountPolicy::SlidingWindowCountPolicy(size_t capacity)
    : capacity_(capacity) {
  if (capacity == 0) {
    throw ValidationError("SlidingWindowCountPolicy: capacity must be > 0");
  }
}

std::string SlidingWindowCountPolicy::name() const {
  return "sliding-window-count(" + std::to_string(capacity_) + ")";
}

void SlidingWindowCountPolicy::on_item(const RecordRef& record,
                                       std::vector<RecordRef>&) {
  window_.push_back(record);
  if (window_.size() > capacity_) window_.pop_front();
}

void SlidingWindowCountPolicy::on_punctuation(const Json&,
                                              std::vector<RecordRef>& released) {
  released.insert(released.end(), window_.begin(), window_.end());
}

SlidingWindowTimePolicy::SlidingWindowTimePolicy(double horizon) : horizon_(horizon) {
  if (horizon <= 0) throw ValidationError("SlidingWindowTimePolicy: horizon must be > 0");
}

std::string SlidingWindowTimePolicy::name() const {
  return "sliding-window-time(" + std::to_string(horizon_) + "s)";
}

void SlidingWindowTimePolicy::on_item(const RecordRef& record,
                                      std::vector<RecordRef>&) {
  window_.push_back(record);
  const double cutoff = record->timestamp - horizon_;
  while (!window_.empty() && window_.front()->timestamp < cutoff) {
    window_.pop_front();
  }
}

void SlidingWindowTimePolicy::on_punctuation(const Json&,
                                             std::vector<RecordRef>& released) {
  released.insert(released.end(), window_.begin(), window_.end());
}

DirectSelectionPolicy::DirectSelectionPolicy(size_t max_queue)
    : max_queue_(max_queue) {
  if (max_queue == 0) throw ValidationError("DirectSelectionPolicy: max_queue > 0");
}

void DirectSelectionPolicy::on_item(const RecordRef& record,
                                    std::vector<RecordRef>&) {
  queue_.push_back(record);
  if (queue_.size() > max_queue_) queue_.pop_front();  // bounded: drop oldest
}

void DirectSelectionPolicy::on_punctuation(const Json& argument,
                                           std::vector<RecordRef>& released) {
  if (!argument.is_object()) return;
  if (argument.get_or("flush", false)) {
    released.insert(released.end(), std::make_move_iterator(queue_.begin()),
                    std::make_move_iterator(queue_.end()));
    queue_.clear();
    return;
  }
  if (argument.contains("drop_before")) {
    const auto cutoff = static_cast<uint64_t>(argument["drop_before"].as_int());
    while (!queue_.empty() && queue_.front()->sequence < cutoff) queue_.pop_front();
  }
  if (argument.contains("select")) {
    for (const Json& wanted : argument["select"].as_array()) {
      const auto sequence = static_cast<uint64_t>(wanted.as_int());
      auto it = std::find_if(queue_.begin(), queue_.end(),
                             [&](const RecordRef& r) { return r->sequence == sequence; });
      if (it != queue_.end()) {
        released.push_back(std::move(*it));
        queue_.erase(it);
      }
    }
  }
}

SampleEveryNPolicy::SampleEveryNPolicy(size_t stride) : stride_(stride) {
  if (stride == 0) throw ValidationError("SampleEveryNPolicy: stride must be > 0");
}

std::string SampleEveryNPolicy::name() const {
  return "sample-every(" + std::to_string(stride_) + ")";
}

void SampleEveryNPolicy::on_item(const RecordRef& record,
                                 std::vector<RecordRef>& released) {
  if (seen_++ % stride_ == 0) released.push_back(record);
}

}  // namespace ff::stream
