#include "stream/channel.hpp"

#include <algorithm>
#include <thread>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace ff::stream {

namespace {

/// How many failed lock-free attempts a blocking call makes before parking.
/// On a single-core host spinning only steals the timeslice the peer needs
/// to make progress, so the budget collapses to a single attempt.
int spin_budget() noexcept {
  static const int budget = std::thread::hardware_concurrency() > 1 ? 128 : 1;
  return budget;
}

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

size_t round_up_pow2(size_t value) noexcept {
  size_t rounded = 1;
  while (rounded < value) rounded <<= 1;
  return rounded;
}

}  // namespace

const char* overflow_name(Overflow policy) noexcept {
  switch (policy) {
    case Overflow::Block: return "block";
    case Overflow::DropOldest: return "drop-oldest";
    case Overflow::KeepLatest: return "keep-latest";
  }
  return "unknown";
}

const char* channel_kind_name(ChannelKind kind) noexcept {
  switch (kind) {
    case ChannelKind::Mutex: return "mutex";
    case ChannelKind::Spsc: return "spsc";
    case ChannelKind::Mpmc: return "mpmc";
  }
  return "unknown";
}

ChannelKind parse_channel_kind(std::string_view name) {
  if (name == "mutex") return ChannelKind::Mutex;
  if (name == "spsc") return ChannelKind::Spsc;
  if (name == "mpmc") return ChannelKind::Mpmc;
  throw ValidationError("unknown channel kind '" + std::string(name) +
                        "' (want mutex, spsc, or mpmc)");
}

template <typename T>
std::unique_ptr<BasicChannel<T>> make_channel(ChannelKind kind, size_t capacity) {
  if (kind == ChannelKind::Mutex) {
    return std::make_unique<BasicMutexChannel<T>>(capacity);
  }
  return std::make_unique<BasicRingChannel<T>>(capacity, kind);
}

// --- BasicMutexChannel ----------------------------------------------------

template <typename T>
BasicMutexChannel<T>::BasicMutexChannel(size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw ValidationError("Channel: capacity must be > 0");
}

template <typename T>
bool BasicMutexChannel<T>::send(T item) {
  std::unique_lock lock(mutex_);
  ++send_waiters_;
  not_full_.wait(lock, [this] { return closed_ || queue_.size() < capacity_; });
  --send_waiters_;
  if (closed_) return false;
  queue_.push_back(std::move(item));
  ++sent_;
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

template <typename T>
bool BasicMutexChannel<T>::try_send(T item) {
  {
    std::lock_guard lock(mutex_);
    if (closed_ || queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(item));
    ++sent_;
  }
  not_empty_.notify_one();
  return true;
}

template <typename T>
size_t BasicMutexChannel<T>::try_send_batch(T* first, size_t count) {
  size_t taken = 0;
  {
    std::lock_guard lock(mutex_);
    if (closed_) return 0;
    taken = std::min(count, capacity_ - queue_.size());
    for (size_t i = 0; i < taken; ++i) queue_.push_back(std::move(first[i]));
    sent_ += taken;
  }
  if (taken > 0) not_empty_.notify_all();
  return taken;
}

template <typename T>
typename BasicMutexChannel<T>::OfferResult BasicMutexChannel<T>::offer(
    T item, Overflow policy) {
  if (policy == Overflow::Block) {
    return OfferResult{send(std::move(item)), 0};
  }
  OfferResult result;
  {
    std::lock_guard lock(mutex_);
    if (closed_) return result;
    if (queue_.size() >= capacity_) {
      if (policy == Overflow::DropOldest) {
        queue_.pop_front();
        result.evicted = 1;
      } else {  // KeepLatest: conflate to the incoming item
        result.evicted = queue_.size();
        queue_.clear();
      }
      dropped_ += result.evicted;
    }
    queue_.push_back(std::move(item));
    ++sent_;
    result.accepted = true;
  }
  not_empty_.notify_one();
  return result;
}

template <typename T>
std::optional<T> BasicMutexChannel<T>::receive() {
  std::unique_lock lock(mutex_);
  ++receive_waiters_;
  not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  --receive_waiters_;
  if (queue_.empty()) return std::nullopt;  // closed and drained
  T item = std::move(queue_.front());
  queue_.pop_front();
  ++received_;
  lock.unlock();
  not_full_.notify_one();
  return item;
}

template <typename T>
std::optional<T> BasicMutexChannel<T>::try_receive() {
  std::optional<T> item;
  {
    std::lock_guard lock(mutex_);
    if (queue_.empty()) return std::nullopt;
    item = std::move(queue_.front());
    queue_.pop_front();
    ++received_;
  }
  not_full_.notify_one();
  return item;
}

template <typename T>
std::optional<T> BasicMutexChannel<T>::receive_for(
    std::chrono::nanoseconds timeout) {
  std::unique_lock lock(mutex_);
  ++receive_waiters_;
  const bool ready = not_empty_.wait_for(
      lock, timeout, [this] { return closed_ || !queue_.empty(); });
  --receive_waiters_;
  if (!ready || queue_.empty()) return std::nullopt;  // timeout, or drained
  T item = std::move(queue_.front());
  queue_.pop_front();
  ++received_;
  lock.unlock();
  not_full_.notify_one();
  return item;
}

template <typename T>
size_t BasicMutexChannel<T>::drain_into(std::vector<T>& out, size_t max) {
  size_t taken = 0;
  {
    std::lock_guard lock(mutex_);
    while (taken < max && !queue_.empty()) {
      out.push_back(std::move(queue_.front()));
      queue_.pop_front();
      ++taken;
    }
    received_ += taken;
  }
  if (taken > 0) not_full_.notify_all();  // several slots may have freed
  return taken;
}

template <typename T>
void BasicMutexChannel<T>::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

template <typename T>
std::vector<T> BasicMutexChannel<T>::close_and_drain() {
  std::vector<T> remaining;
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
    remaining.reserve(queue_.size());
    while (!queue_.empty()) {
      remaining.push_back(std::move(queue_.front()));
      queue_.pop_front();
      ++received_;
    }
  }
  not_full_.notify_all();
  not_empty_.notify_all();
  return remaining;
}

template <typename T>
bool BasicMutexChannel<T>::closed() const {
  std::lock_guard lock(mutex_);
  return closed_;
}

template <typename T>
size_t BasicMutexChannel<T>::size() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

template <typename T>
uint64_t BasicMutexChannel<T>::sent() const {
  std::lock_guard lock(mutex_);
  return sent_;
}

template <typename T>
uint64_t BasicMutexChannel<T>::received() const {
  std::lock_guard lock(mutex_);
  return received_;
}

template <typename T>
uint64_t BasicMutexChannel<T>::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

template <typename T>
size_t BasicMutexChannel<T>::send_waiters() const {
  std::lock_guard lock(mutex_);
  return send_waiters_;
}

template <typename T>
size_t BasicMutexChannel<T>::receive_waiters() const {
  std::lock_guard lock(mutex_);
  return receive_waiters_;
}

// --- BasicRingChannel -----------------------------------------------------

template <typename T>
BasicRingChannel<T>::BasicRingChannel(size_t capacity, ChannelKind kind)
    : kind_(kind),
      capacity_(round_up_pow2(capacity)),
      cells_n_(std::max<size_t>(2, capacity_)),
      mask_(cells_n_ - 1),
      cells_(nullptr) {
  if (capacity == 0) throw ValidationError("Channel: capacity must be > 0");
  if (capacity > (size_t{1} << 30)) {
    throw ValidationError("Channel: ring capacity too large");
  }
  if (kind != ChannelKind::Spsc && kind != ChannelKind::Mpmc) {
    throw ValidationError("RingChannel: kind must be spsc or mpmc");
  }
  cells_ = std::make_unique<Cell[]>(cells_n_);
  for (uint64_t i = 0; i < cells_n_; ++i) {
    cells_[i].sequence.store(i, std::memory_order_relaxed);
  }
}

template <typename T>
bool BasicRingChannel<T>::push(T& item) {
  uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    if (capacity_ != cells_n_ &&
        pos - dequeue_pos_.load(std::memory_order_acquire) >= capacity_) {
      // Capacity-1 ring: the physical ring has a spare cell (see cells_n_),
      // so fullness is gated on the logical position distance instead of
      // the cell sequence.
      return false;
    }
    Cell& cell = cells_[pos & mask_];
    const uint64_t seq = cell.sequence.load(std::memory_order_acquire);
    const int64_t dif = static_cast<int64_t>(seq - pos);
    if (dif == 0) {
      if (kind_ == ChannelKind::Spsc) {
        // Single producer: nobody else advances enqueue_pos, a plain
        // store claims the cell.
        enqueue_pos_.store(pos + 1, std::memory_order_relaxed);
      } else if (!enqueue_pos_.compare_exchange_weak(
                     pos, pos + 1, std::memory_order_relaxed)) {
        continue;  // lost the claim race; pos was reloaded by the CAS
      }
      cell.item = std::move(item);
      cell.sequence.store(pos + 1, std::memory_order_release);
      return true;
    }
    if (dif < 0) return false;  // cell not yet recycled: ring is full
    pos = enqueue_pos_.load(std::memory_order_relaxed);
  }
}

template <typename T>
bool BasicRingChannel<T>::pop(T& item) {
  // Always multi-consumer: real consumers, lossy-eviction producers, and
  // close_and_drain all pop through this CAS protocol.
  uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const uint64_t seq = cell.sequence.load(std::memory_order_acquire);
    const int64_t dif = static_cast<int64_t>(seq - (pos + 1));
    if (dif == 0) {
      if (!dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                              std::memory_order_relaxed)) {
        continue;
      }
      item = std::move(cell.item);
      cell.item = T{};  // release payload memory eagerly
      cell.sequence.store(pos + cells_n_, std::memory_order_release);
      return true;
    }
    if (dif < 0) return false;  // cell not yet published: ring is empty
    pos = dequeue_pos_.load(std::memory_order_relaxed);
  }
}

template <typename T>
size_t BasicRingChannel<T>::push_open(T* first, size_t count, bool& rejected) {
  // The seq_cst ticket RMW orders this send against close_and_drain: if we
  // read `closed == false` below, the closer's subsequent in-flight read is
  // guaranteed to observe our ticket and wait for these pushes to land.
  in_flight_.fetch_add(1, std::memory_order_seq_cst);
  if (closed_.load(std::memory_order_seq_cst)) {
    in_flight_.fetch_sub(1, std::memory_order_release);
    rejected = true;
    // A receiver may be parked waiting on "closed && in_flight == 0";
    // aborted sends must not leave it asleep.
    wake_receivers();
    return 0;
  }
  rejected = false;
  size_t pushed = 0;
  while (pushed < count && push(first[pushed])) ++pushed;
  in_flight_.fetch_sub(1, std::memory_order_release);
  if (pushed > 0) {
    sent_.fetch_add(pushed, std::memory_order_relaxed);
    wake_receivers();
  }
  return pushed;
}

template <typename T>
bool BasicRingChannel<T>::drained() const {
  if (!closed_.load(std::memory_order_acquire)) return false;
  if (size() != 0) return false;
  // A send that won the race against close() may still be materializing
  // its item; don't report "drained" until it lands or aborts.
  return in_flight_.load(std::memory_order_seq_cst) == 0;
}

template <typename T>
void BasicRingChannel<T>::wake_senders() {
  // Eventcount handshake (waker side): make the pop visible, then look for
  // parked senders. Pairs with the fence after the waiter registers.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (send_waiters_.load(std::memory_order_relaxed) == 0) return;
  { std::lock_guard lock(park_mutex_); }
  not_full_.notify_all();
}

template <typename T>
void BasicRingChannel<T>::wake_receivers() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (receive_waiters_.load(std::memory_order_relaxed) == 0) return;
  { std::lock_guard lock(park_mutex_); }
  not_empty_.notify_all();
}

template <typename T>
bool BasicRingChannel<T>::send(T item) {
  for (;;) {
    bool rejected = false;
    for (int spin = spin_budget(); spin > 0; --spin) {
      if (push_open(&item, 1, rejected) == 1) return true;
      if (rejected) return false;
      cpu_relax();
    }
    // Park until space frees or the channel closes, then retry.
    std::unique_lock lock(park_mutex_);
    send_waiters_.fetch_add(1, std::memory_order_seq_cst);
    // Eventcount handshake (waiter side): registration must be ordered
    // before the final re-check, or a concurrent pop could miss us.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (obs::tracing_enabled()) {
      obs::trace_instant("stream", "stream.channel.park", {{"role", "send"}});
    }
    not_full_.wait(lock, [this] {
      return closed_.load(std::memory_order_acquire) || size() < capacity_;
    });
    send_waiters_.fetch_sub(1, std::memory_order_relaxed);
  }
}

template <typename T>
bool BasicRingChannel<T>::try_send(T item) {
  bool rejected = false;
  return push_open(&item, 1, rejected) == 1;
}

template <typename T>
size_t BasicRingChannel<T>::try_send_batch(T* first, size_t count) {
  bool rejected = false;
  return push_open(first, count, rejected);
}

template <typename T>
typename BasicRingChannel<T>::OfferResult BasicRingChannel<T>::offer(
    T item, Overflow policy) {
  if (policy == Overflow::Block) {
    return OfferResult{send(std::move(item)), 0};
  }
  OfferResult result;
  for (;;) {
    bool rejected = false;
    if (push_open(&item, 1, rejected) == 1) {
      result.accepted = true;
      return result;
    }
    if (rejected) return result;  // closed: not accepted
    // Full: evict per policy, then retry. Eviction pops race real
    // consumers safely (the pop protocol is multi-consumer); each round
    // either pushes or removes an item, so the loop makes progress even
    // when other producers keep refilling the ring.
    T discard;
    if (policy == Overflow::DropOldest) {
      if (pop(discard)) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        ++result.evicted;
        wake_senders();
      }
    } else {  // KeepLatest: conflate — drain everything, then push
      size_t evicted_now = 0;
      while (pop(discard)) ++evicted_now;
      if (evicted_now > 0) {
        dropped_.fetch_add(evicted_now, std::memory_order_relaxed);
        result.evicted += evicted_now;
        wake_senders();
      }
    }
  }
}

template <typename T>
std::optional<T> BasicRingChannel<T>::receive_until(
    const std::chrono::steady_clock::time_point* deadline) {
  T item;
  for (int spin = spin_budget(); spin > 0; --spin) {
    if (pop(item)) {
      received_.fetch_add(1, std::memory_order_relaxed);
      wake_senders();
      return item;
    }
    if (drained()) return std::nullopt;
    cpu_relax();
  }
  std::unique_lock lock(park_mutex_);
  receive_waiters_.fetch_add(1, std::memory_order_seq_cst);
  for (;;) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (pop(item)) {
      receive_waiters_.fetch_sub(1, std::memory_order_relaxed);
      lock.unlock();
      received_.fetch_add(1, std::memory_order_relaxed);
      wake_senders();
      return item;
    }
    if (drained()) break;
    if (obs::tracing_enabled()) {
      obs::trace_instant("stream", "stream.channel.park",
                         {{"role", "receive"}});
    }
    if (deadline == nullptr) {
      not_empty_.wait(lock);
    } else if (not_empty_.wait_until(lock, *deadline) ==
               std::cv_status::timeout) {
      // One last look: a push may have landed exactly at the deadline.
      if (!pop(item)) break;
      receive_waiters_.fetch_sub(1, std::memory_order_relaxed);
      lock.unlock();
      received_.fetch_add(1, std::memory_order_relaxed);
      wake_senders();
      return item;
    }
  }
  receive_waiters_.fetch_sub(1, std::memory_order_relaxed);
  return std::nullopt;
}

template <typename T>
std::optional<T> BasicRingChannel<T>::receive() {
  return receive_until(nullptr);
}

template <typename T>
std::optional<T> BasicRingChannel<T>::try_receive() {
  T item;
  if (!pop(item)) return std::nullopt;
  received_.fetch_add(1, std::memory_order_relaxed);
  wake_senders();
  return item;
}

template <typename T>
std::optional<T> BasicRingChannel<T>::receive_for(
    std::chrono::nanoseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  return receive_until(&deadline);
}

template <typename T>
size_t BasicRingChannel<T>::drain_into(std::vector<T>& out, size_t max) {
  size_t taken = 0;
  T item;
  while (taken < max && pop(item)) {
    out.push_back(std::move(item));
    ++taken;
  }
  if (taken > 0) {
    received_.fetch_add(taken, std::memory_order_relaxed);
    wake_senders();  // one wake amortized over the whole batch
  }
  return taken;
}

template <typename T>
void BasicRingChannel<T>::close() {
  closed_.store(true, std::memory_order_seq_cst);
  { std::lock_guard lock(park_mutex_); }
  not_full_.notify_all();
  not_empty_.notify_all();
}

template <typename T>
std::vector<T> BasicRingChannel<T>::close_and_drain() {
  close();
  // Wait out in-flight sends: any push that read `closed == false` holds a
  // ticket (see push_open), so once the count hits zero every item that
  // will ever enter the ring is fully published.
  while (in_flight_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  std::vector<T> remaining;
  remaining.reserve(size());
  T item;
  while (pop(item)) {
    remaining.push_back(std::move(item));
    received_.fetch_add(1, std::memory_order_relaxed);
  }
  wake_senders();
  return remaining;
}

template <typename T>
bool BasicRingChannel<T>::closed() const {
  return closed_.load(std::memory_order_acquire);
}

template <typename T>
size_t BasicRingChannel<T>::size() const {
  // Load dequeue first so a racing pop cannot make the difference go
  // negative; claimed-but-unpublished cells count as queued.
  const uint64_t tail = dequeue_pos_.load(std::memory_order_acquire);
  const uint64_t head = enqueue_pos_.load(std::memory_order_acquire);
  return head >= tail ? static_cast<size_t>(head - tail) : 0;
}

template <typename T>
uint64_t BasicRingChannel<T>::sent() const {
  return sent_.load(std::memory_order_acquire);
}

template <typename T>
uint64_t BasicRingChannel<T>::received() const {
  return received_.load(std::memory_order_acquire);
}

template <typename T>
uint64_t BasicRingChannel<T>::dropped() const {
  return dropped_.load(std::memory_order_acquire);
}

template <typename T>
size_t BasicRingChannel<T>::send_waiters() const {
  return send_waiters_.load(std::memory_order_acquire);
}

template <typename T>
size_t BasicRingChannel<T>::receive_waiters() const {
  return receive_waiters_.load(std::memory_order_acquire);
}

template class BasicMutexChannel<Record>;
template class BasicRingChannel<Record>;
template class BasicMutexChannel<RecordRef>;
template class BasicRingChannel<RecordRef>;
template std::unique_ptr<BasicChannel<Record>> make_channel<Record>(ChannelKind,
                                                                    size_t);
template std::unique_ptr<BasicChannel<RecordRef>> make_channel<RecordRef>(
    ChannelKind, size_t);

}  // namespace ff::stream
