#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "stream/data.hpp"

namespace ff::stream {

/// What a producer does when a bounded channel is full — the per-queue
/// knob of the concurrent Fig. 5 data plane. `Block` is lossless
/// backpressure (the EVPath-style transport default); the two lossy modes
/// serve monitoring taps that prefer freshness over completeness.
enum class Overflow : uint8_t {
  Block,       ///< wait until a consumer makes room (lossless)
  DropOldest,  ///< evict the oldest queued record to admit the new one
  KeepLatest,  ///< conflate: clear the queue, keep only the incoming record
};

const char* overflow_name(Overflow policy) noexcept;

/// Which channel implementation carries a queue's records. `Mutex` is the
/// original lock-based deque (simple, any capacity); the two ring kinds are
/// lock-free bounded rings (capacity rounded up to a power of two) built on
/// per-cell sequence numbers, with a futex-style park only after a bounded
/// spin. `Spsc` assumes a single producer thread at a time (the pipeline's
/// per-queue scheduler lock provides exactly that) and skips the producer
/// CAS; `Mpmc` is safe for any thread mix.
enum class ChannelKind : uint8_t { Mutex, Spsc, Mpmc };

const char* channel_kind_name(ChannelKind kind) noexcept;

/// Parse "mutex" / "spsc" / "mpmc"; throws ValidationError otherwise.
ChannelKind parse_channel_kind(std::string_view name);

/// A bounded channel — the in-process stand-in for the event-transport
/// middleware the paper's Fig. 5 workflow rides on (EVPath lineage).
/// Blocking semantics with backpressure: producers wait when the channel is
/// full, consumers wait when it is empty, and close() drains cleanly
/// (producers may no longer send; consumers see the remaining items, then
/// nullopt).
///
/// This is the abstract transport API, generic over the element type:
/// `Channel` carries Records by value, and the StreamPipeline's edges carry
/// RecordRefs, so a record fanned out to several queues is shared rather
/// than copied. make_channel() picks among the mutex-based and lock-free
/// ring implementations. All implementations preserve the same counter
/// identity — at quiescence sent() == received() + dropped() + size().
template <typename T>
class BasicChannel {
 public:
  virtual ~BasicChannel() = default;

  /// Blocking send. Returns false (without enqueueing) iff the channel was
  /// closed while waiting.
  virtual bool send(T item) = 0;

  /// Non-blocking send: false when full or closed.
  virtual bool try_send(T item) = 0;

  /// Non-blocking bulk send: move the longest prefix of [first, first +
  /// count) that fits into the channel, in order, and return its length —
  /// 0 when the channel is full or closed (check closed() to tell them
  /// apart). The ring kinds take one in-flight ticket, make one `sent`
  /// update and one receiver wake for the whole prefix.
  virtual size_t try_send_batch(T* first, size_t count) = 0;

  /// Overflow-policy send. `Block` behaves like send(); the lossy policies
  /// never block and report how many queued items they evicted.
  struct OfferResult {
    bool accepted = false;  ///< false only when the channel is closed
    size_t evicted = 0;     ///< items dropped to admit this one
  };
  virtual OfferResult offer(T item, Overflow policy) = 0;

  /// Blocking receive; nullopt once the channel is closed AND drained.
  virtual std::optional<T> receive() = 0;

  /// Non-blocking receive; nullopt when currently empty (check closed()
  /// to distinguish "not yet" from "never again").
  virtual std::optional<T> try_receive() = 0;

  /// Blocking receive with a timeout; nullopt on timeout or once the
  /// channel is closed and drained (check closed() to distinguish).
  virtual std::optional<T> receive_for(std::chrono::nanoseconds timeout) = 0;

  /// Non-blocking bulk receive: append up to `max` items to `out` and
  /// return how many were taken. One call amortizes the synchronization
  /// cost over the whole batch — the pipeline's drain path uses this so a
  /// worker's dispatch does not pay per record.
  virtual size_t drain_into(std::vector<T>& out, size_t max) = 0;

  virtual void close() = 0;
  virtual bool closed() const = 0;

  /// close() and take every still-queued item (counted as received),
  /// waiting out any in-flight send. Used by pipeline shutdown to drain
  /// without a consumer race.
  virtual std::vector<T> close_and_drain() = 0;

  virtual size_t size() const = 0;
  /// Actual bound (ring kinds round the requested capacity up to a power
  /// of two).
  virtual size_t capacity() const noexcept = 0;

  /// Lifetime counters (monotonic). `sent` counts accepted items,
  /// `received` items handed to consumers (incl. close_and_drain),
  /// `dropped` items evicted by lossy offer() policies — at quiescence
  /// sent() == received() + dropped() + size().
  virtual uint64_t sent() const = 0;
  virtual uint64_t received() const = 0;
  virtual uint64_t dropped() const = 0;

  /// Threads currently parked inside a blocking send()/offer(Block) or
  /// receive()/receive_for(). Test introspection: lets a test wait until a
  /// peer is genuinely blocked before it closes the channel, instead of
  /// sleeping and hoping.
  virtual size_t send_waiters() const = 0;
  virtual size_t receive_waiters() const = 0;

  virtual ChannelKind kind() const noexcept = 0;
};

/// The Record channel: the transport API the channel benches and tests
/// measure.
using Channel = BasicChannel<Record>;

/// Construct a channel of the given kind. Throws ValidationError when
/// capacity is 0 (every kind) or absurdly large (ring kinds, which allocate
/// their cells up front).
template <typename T = Record>
std::unique_ptr<BasicChannel<T>> make_channel(ChannelKind kind, size_t capacity);

/// The original mutex+condvar bounded MPMC deque. Any capacity, strict
/// FIFO, simplest possible reasoning — kept as the reference
/// implementation the lock-free rings are differential-tested against.
template <typename T>
class BasicMutexChannel final : public BasicChannel<T> {
 public:
  using OfferResult = typename BasicChannel<T>::OfferResult;

  explicit BasicMutexChannel(size_t capacity);

  bool send(T item) override;
  bool try_send(T item) override;
  size_t try_send_batch(T* first, size_t count) override;
  OfferResult offer(T item, Overflow policy) override;
  std::optional<T> receive() override;
  std::optional<T> try_receive() override;
  std::optional<T> receive_for(std::chrono::nanoseconds timeout) override;
  size_t drain_into(std::vector<T>& out, size_t max) override;
  void close() override;
  bool closed() const override;
  std::vector<T> close_and_drain() override;
  size_t size() const override;
  size_t capacity() const noexcept override { return capacity_; }
  uint64_t sent() const override;
  uint64_t received() const override;
  uint64_t dropped() const override;
  size_t send_waiters() const override;
  size_t receive_waiters() const override;
  ChannelKind kind() const noexcept override { return ChannelKind::Mutex; }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> queue_;
  bool closed_ = false;
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
  uint64_t dropped_ = 0;
  size_t send_waiters_ = 0;
  size_t receive_waiters_ = 0;
};

/// Lock-free bounded ring on the per-cell sequence protocol (Vyukov's
/// bounded MPMC queue). Each cell carries an atomic sequence number that
/// encodes whose turn the cell is: a producer may claim cell `pos` when
/// `seq == pos`, publishes with `seq = pos + 1`; a consumer may take it
/// when `seq == pos + 1` and recycles it with `seq = pos + capacity`. The
/// payload itself is transferred by the release-store/acquire-load pair on
/// the cell sequence — no fences are needed for data safety.
///
/// The dequeue side is always multi-consumer (CAS on dequeue_pos) even for
/// the SPSC kind, because the lossy overflow policies make the *producer*
/// dequeue-and-discard, so pops can race a real consumer. The SPSC kind
/// only relaxes the enqueue side: a single producer owns enqueue_pos and
/// advances it with a plain store instead of a CAS.
///
/// Blocking calls spin briefly (skipped outright on single-core hosts,
/// where spinning only steals the peer's timeslice), then park on a shared
/// mutex/condvar pad. Wake-up correctness uses the classic eventcount
/// discipline: the waiter registers itself, issues a seq_cst fence, then
/// re-checks; the waker completes its push/pop, issues a seq_cst fence,
/// then reads the waiter count — see DESIGN.md §3.5 for the full argument.
///
/// close_and_drain() coordination: senders take an in-flight ticket
/// (seq_cst RMW) before checking `closed`, so `close_and_drain` can set
/// `closed`, wait for the ticket count to hit zero, and then drain with
/// the guarantee that no concurrent push is still materializing.
template <typename T>
class BasicRingChannel final : public BasicChannel<T> {
 public:
  using OfferResult = typename BasicChannel<T>::OfferResult;

  BasicRingChannel(size_t capacity, ChannelKind kind);

  bool send(T item) override;
  bool try_send(T item) override;
  size_t try_send_batch(T* first, size_t count) override;
  OfferResult offer(T item, Overflow policy) override;
  std::optional<T> receive() override;
  std::optional<T> try_receive() override;
  std::optional<T> receive_for(std::chrono::nanoseconds timeout) override;
  size_t drain_into(std::vector<T>& out, size_t max) override;
  void close() override;
  bool closed() const override;
  std::vector<T> close_and_drain() override;
  size_t size() const override;
  size_t capacity() const noexcept override { return capacity_; }
  uint64_t sent() const override;
  uint64_t received() const override;
  uint64_t dropped() const override;
  size_t send_waiters() const override;
  size_t receive_waiters() const override;
  ChannelKind kind() const noexcept override { return kind_; }

 private:
  struct Cell {
    std::atomic<uint64_t> sequence{0};
    T item;
  };

  bool push(T& item);  ///< non-blocking; consumes `item` on success
  bool pop(T& item);   ///< non-blocking; no counter updates
  /// Pushes the longest prefix of [first, first + count) that fits, inside
  /// one in-flight ticket + closed check. `rejected` reports a closed
  /// channel (as opposed to a full one).
  size_t push_open(T* first, size_t count, bool& rejected);
  bool drained() const;  ///< closed, empty, and no send mid-publish
  void wake_senders();
  void wake_receivers();
  std::optional<T> receive_until(
      const std::chrono::steady_clock::time_point* deadline);

  const ChannelKind kind_;
  const size_t capacity_;  // power of two (logical admission bound)
  /// Physical cell count: max(2, capacity_). A one-cell ring cannot
  /// disambiguate "occupied" (seq = pos + 1) from "recycled, free for the
  /// next lap" (seq = pos + cells) — they coincide when cells == 1 — so a
  /// capacity-1 ring runs on two cells with an explicit size gate in push().
  const size_t cells_n_;
  const uint64_t mask_;
  std::unique_ptr<Cell[]> cells_;

  alignas(64) std::atomic<uint64_t> enqueue_pos_{0};
  alignas(64) std::atomic<uint64_t> dequeue_pos_{0};
  alignas(64) std::atomic<uint64_t> sent_{0};
  std::atomic<uint64_t> received_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> in_flight_{0};
  std::atomic<bool> closed_{false};

  // Cold-path park pad: only touched after the bounded spin fails.
  mutable std::mutex park_mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::atomic<size_t> send_waiters_{0};
  std::atomic<size_t> receive_waiters_{0};
};

// The two element types the repo uses, instantiated once in channel.cpp.
extern template class BasicMutexChannel<Record>;
extern template class BasicRingChannel<Record>;
extern template class BasicMutexChannel<RecordRef>;
extern template class BasicRingChannel<RecordRef>;
extern template std::unique_ptr<BasicChannel<Record>> make_channel<Record>(
    ChannelKind, size_t);
extern template std::unique_ptr<BasicChannel<RecordRef>> make_channel<RecordRef>(
    ChannelKind, size_t);

}  // namespace ff::stream
