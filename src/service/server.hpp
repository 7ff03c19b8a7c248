#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/session.hpp"
#include "util/thread_pool.hpp"

namespace ff::service {

namespace detail {
class Poller;
}

/// fairflowd's transport: a Unix-domain (or loopback TCP) listener driven
/// by one single-threaded readiness loop (epoll on Linux, poll fallback)
/// with a non-blocking framing state machine per fd — partial-read
/// reassembly and partial-write backpressure around the newline-JSON
/// protocol. A thousand idle watchers cost a thousand fds, not a thousand
/// threads: thread count is the loop plus a fixed request worker pool.
///
/// Each connection is one session: opened on accept, closed on disconnect.
/// A request only exists once its terminating newline arrives — a client
/// that dies mid-frame has submitted nothing (no partial campaign state).
/// Requests on one connection dispatch strictly in order (one in flight at
/// a time on the worker pool; replies in request order), while different
/// connections proceed concurrently.
///
/// Flow control, all knobs in Options:
///  - a connection whose outbound buffer crosses `out_hwm_bytes` is a slow
///    consumer: queued-but-unwritten frames are discarded, a
///    `slow-consumer` error frame is appended, and the connection closes
///    once it flushes (or the loop gives up on it);
///  - more than `max_pipelined` queued requests pauses reading from that
///    fd until the backlog drains (read backpressure, not disconnect);
///  - a connection that never completes a frame within
///    `handshake_timeout_s`, or completes none for `idle_timeout_s` while
///    holding no subscription, is dropped with `idle-timeout`. Subscribed
///    watchers are exempt from the idle timeout — idle watching is their
///    whole job.
class Server {
 public:
  enum class Backend : uint8_t {
    Auto,   ///< epoll where available, else poll
    Epoll,  ///< Linux epoll (throws IoError elsewhere)
    Poll,   ///< portable poll(2) backend
  };

  struct Options {
    /// Non-empty: listen on this Unix socket path (created, unlinked on
    /// stop). Empty: listen on loopback TCP instead.
    std::string unix_path;
    /// TCP port (loopback only); 0 picks an ephemeral port — read it back
    /// with port() after start().
    uint16_t port = 0;
    /// Readiness backend; Auto resolves to epoll on Linux.
    Backend backend = Backend::Auto;
    /// Request dispatch threads (per-connection order is preserved
    /// regardless; this bounds cross-connection concurrency).
    size_t request_workers = 2;
    /// Outbound high-water mark per connection; crossing it makes the
    /// connection a slow consumer (see class comment).
    size_t out_hwm_bytes = 8 * 1024 * 1024;
    /// Parsed-but-undispatched requests per connection before the loop
    /// stops reading that fd (resumes when the backlog drains).
    size_t max_pipelined = 64;
    /// Seconds from accept to the first complete frame (0 disables).
    double handshake_timeout_s = 30.0;
    /// Seconds without a complete frame before an unsubscribed connection
    /// is dropped (0 disables; the default).
    double idle_timeout_s = 0.0;
    /// Per-subscriber event queue capacity (frames), drop-oldest.
    size_t subscriber_buffer = 1024;
  };

  Server(Dispatcher& dispatcher, Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and spawn the readiness loop. Throws IoError on bind
  /// failure (path too long, address in use, ...).
  void start();

  /// Stop accepting, push a `shutting-down` frame to subscribed watchers,
  /// shut down every live connection, join the loop and worker threads.
  /// Idempotent. Does NOT drain the core — callers sequence
  /// server.stop() then core.stop()/drain() (the SIGTERM path).
  void stop();

  uint16_t port() const noexcept { return port_; }
  const std::string& unix_path() const noexcept { return options_.unix_path; }
  size_t connections_served() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }
  Dispatcher& dispatcher() noexcept { return dispatcher_; }

  /// Introspection for tests and the bench: live fds, subscription count,
  /// and why connections were dropped.
  size_t open_connections() const noexcept {
    return open_.load(std::memory_order_relaxed);
  }
  size_t active_subscriptions() const noexcept {
    return subscriptions_.load(std::memory_order_relaxed);
  }
  uint64_t slow_consumer_disconnects() const noexcept {
    return slow_disconnects_.load(std::memory_order_relaxed);
  }
  uint64_t timeout_disconnects() const noexcept {
    return timeout_disconnects_.load(std::memory_order_relaxed);
  }

 private:
  using SteadyClock = std::chrono::steady_clock;

  /// One queued inbound item: either a decoded request awaiting dispatch or
  /// a preformed error frame (parse failure, oversized frame) that must go
  /// out in arrival order with the real replies.
  struct PendingItem {
    Json request;
    std::string preformed;  // non-empty: skip dispatch, emit verbatim
  };

  /// Per-fd framing state machine. Owned and touched by the loop thread
  /// only; workers communicate through the completion queue.
  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    std::string session;
    std::string in;                   // partial-read reassembly
    std::deque<std::string> out;      // whole frames awaiting write
    size_t out_offset = 0;            // bytes of out.front() already sent
    size_t out_bytes = 0;             // total queued outbound bytes
    std::deque<PendingItem> pending;  // ordered inbound backlog
    bool in_flight = false;           // one request on the workers
    bool want_close = false;          // close once out drains
    bool fatal = false;               // framing violation: stop reading
    bool reading_paused = false;
    bool want_write = false;          // EPOLLOUT armed
    uint64_t sub = 0;                 // TraceStreamer subscription (0: none)
    SteadyClock::time_point accepted;
    SteadyClock::time_point last_frame;
    bool handshaken = false;
  };

  struct Completion {
    uint64_t conn = 0;
    std::string frame;
    std::string subscribe_campaign;  // non-empty: attach after the reply
  };

  struct WakeHub;

  void run_loop();
  void accept_ready();
  void on_readable(Conn& conn);
  /// Returns false when the connection was closed mid-flush.
  bool flush(Conn& conn);
  void append_frame(Conn& conn, std::string frame);
  void dispatch_next(Conn& conn);
  void post_request(Conn& conn, Json request);
  void handle_completions();
  void deliver_events(Conn& conn);
  void attach_subscription(Conn& conn, const std::string& campaign);
  void make_slow_consumer(Conn& conn);
  void check_timeouts(SteadyClock::time_point now);
  int next_timeout_ms(SteadyClock::time_point now) const;
  void maybe_resume_reading(Conn& conn);
  void close_conn(Conn& conn);
  void update_interest(Conn& conn);
  void shutdown_all();
  Conn* find(uint64_t id);

  Dispatcher& dispatcher_;
  Options options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  bool started_ = false;
  std::thread loop_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> served_{0};
  std::atomic<size_t> open_{0};
  std::atomic<size_t> subscriptions_{0};
  std::atomic<uint64_t> slow_disconnects_{0};
  std::atomic<uint64_t> timeout_disconnects_{0};

  std::unique_ptr<detail::Poller> poller_;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;       // by fd
  std::unordered_map<uint64_t, Conn*> by_id_;                  // by conn id
  uint64_t next_conn_id_ = 0;

  // Self-pipe wake hub: workers and trace publishers nudge the loop through
  // it; an atomic flag coalesces any number of wakes into one unread byte.
  // It is shared_ptr-held because subscription wake callbacks (copied into
  // TraceStreamer) can fire from foreign threads during teardown — the hub
  // (and its pipe write end) must outlive every copy of those callbacks.
  std::shared_ptr<WakeHub> hub_;
  int wake_read_fd_ = -1;

  std::mutex done_mutex_;
  std::vector<Completion> done_;  // worker results awaiting the loop

  // Declared last: destroyed first, so in-flight worker jobs (which touch
  // done_ and the wake pipe above) finish before anything else dies.
  ThreadPool workers_;
};

}  // namespace ff::service
