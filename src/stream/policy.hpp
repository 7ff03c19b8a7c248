#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "stream/data.hpp"

namespace ff::stream {

/// A data-scheduling (selection) policy: decides, per virtual queue, which
/// queued records are released downstream and when. Policies own a bounded
/// buffer of pending records; the scheduler feeds arrivals and punctuation
/// marks in, and collects releases.
///
/// Releases happen at two moments: on arrival (on_item) and on punctuation
/// (on_punctuation) — the paper's "control input (or 'data punctuation'
/// input, signaling abstract divisions between groups of data)".
///
/// Records arrive and leave as RecordRefs: a policy keeps and releases the
/// shared record, never a copy, and appends its releases to a buffer the
/// caller owns (and reuses across calls).
class SelectionPolicy {
 public:
  virtual ~SelectionPolicy() = default;
  virtual std::string name() const = 0;
  /// A record arrived; append the records to forward now to `released`.
  virtual void on_item(const RecordRef& record,
                       std::vector<RecordRef>& released) = 0;
  /// A punctuation/control mark arrived; `argument` is policy-specific.
  virtual void on_punctuation(const Json& argument,
                              std::vector<RecordRef>& released) = 0;
};

/// Forward every record immediately — the workflow's initial policy.
class ForwardAllPolicy final : public SelectionPolicy {
 public:
  std::string name() const override { return "forward-all"; }
  void on_item(const RecordRef& record,
               std::vector<RecordRef>& released) override {
    released.push_back(record);
  }
  void on_punctuation(const Json&, std::vector<RecordRef>&) override {}
};

/// Keep the most recent `capacity` records; release the whole window on
/// each punctuation (sliding window by item count).
class SlidingWindowCountPolicy final : public SelectionPolicy {
 public:
  explicit SlidingWindowCountPolicy(size_t capacity);
  std::string name() const override;
  void on_item(const RecordRef& record, std::vector<RecordRef>&) override;
  void on_punctuation(const Json&, std::vector<RecordRef>& released) override;

 private:
  size_t capacity_;
  std::deque<RecordRef> window_;
};

/// Keep records newer than `horizon` (by record timestamp, relative to the
/// newest arrival); release the window on punctuation (sliding window by
/// time).
class SlidingWindowTimePolicy final : public SelectionPolicy {
 public:
  explicit SlidingWindowTimePolicy(double horizon);
  std::string name() const override;
  void on_item(const RecordRef& record, std::vector<RecordRef>&) override;
  void on_punctuation(const Json&, std::vector<RecordRef>& released) override;

 private:
  double horizon_;
  std::deque<RecordRef> window_;
};

/// Queue everything; punctuation carries explicit selection — "direct
/// selection of queued data items": {"select": [sequence, ...]} releases
/// those records (and drops them from the queue), {"drop_before": seq}
/// trims, {"flush": true} releases everything.
class DirectSelectionPolicy final : public SelectionPolicy {
 public:
  explicit DirectSelectionPolicy(size_t max_queue = 4096);
  std::string name() const override { return "direct-selection"; }
  void on_item(const RecordRef& record, std::vector<RecordRef>&) override;
  void on_punctuation(const Json& argument,
                      std::vector<RecordRef>& released) override;
  size_t queued() const noexcept { return queue_.size(); }

 private:
  size_t max_queue_;
  std::deque<RecordRef> queue_;
};

/// Forward every Nth record (systematic sampling for monitoring taps).
class SampleEveryNPolicy final : public SelectionPolicy {
 public:
  explicit SampleEveryNPolicy(size_t stride);
  std::string name() const override;
  void on_item(const RecordRef& record,
               std::vector<RecordRef>& released) override;
  void on_punctuation(const Json&, std::vector<RecordRef>&) override {}

 private:
  size_t stride_;
  size_t seen_ = 0;
};

}  // namespace ff::stream
