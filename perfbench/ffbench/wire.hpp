#pragma once

// The load generator's side of the fairflowd wire: a blocking Unix-socket
// client speaking newline-delimited JSON, and the real daemon binary run as
// a child process with its default options.

#include <sys/types.h>

#include <optional>
#include <string>

#include "util/json.hpp"

namespace perfbench {

/// One client connection (one fairflowd session), as one fairflow-ctl
/// invocation opens it.
class Conn {
 public:
  explicit Conn(const std::string& socket_path);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool ok() const noexcept { return fd_ >= 0; }

  /// Send one request frame; false when the connection is gone.
  bool send(const ff::Json& request);
  /// Next frame (without its newline), waiting at most `timeout_s`;
  /// nullopt on timeout, EOF, or error (eof() tells them apart).
  std::optional<std::string> read_line(double timeout_s);
  bool eof() const noexcept { return eof_; }
  /// Round-trip one request: null Json on a dropped connection or a reply
  /// that does not arrive within `timeout_s`.
  ff::Json call(const ff::Json& request, double timeout_s = 60.0);

 private:
  int fd_ = -1;
  bool eof_ = false;
  std::string buffer_;
};

/// fairflowd as a child process: `fairflowd --socket <socket> --root
/// <root>`, everything else at its defaults. Output goes to `log_path`.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket_path,
         const std::string& root, const std::string& log_path);
  ~Daemon();  // stop()
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Block until the socket answers `ping` (false after `timeout_s`).
  bool wait_ready(double timeout_s = 20.0);
  /// VmHWM of the daemon process, MB (0 once it has exited).
  double peak_rss_mb() const;
  /// SIGTERM drain, wait for exit (SIGKILL after `timeout_s`). Returns
  /// true when the daemon exited 0 on its own. Idempotent.
  bool stop(double timeout_s = 30.0);
  pid_t pid() const noexcept { return pid_; }
  const std::string& socket_path() const noexcept { return socket_path_; }

 private:
  pid_t pid_ = -1;
  std::string socket_path_;
  bool clean_exit_ = false;
};

/// VmHWM of process `pid` ("self" when 0), MB.
double vm_hwm_mb(pid_t pid = 0);

/// A request object {"id": id, "cmd": cmd}.
ff::Json request(const std::string& cmd, int64_t id = 1);

}  // namespace perfbench
