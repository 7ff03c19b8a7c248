#include "wire.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "helpers.hpp"
#include "service/protocol.hpp"

namespace perfbench {

Conn::Conn(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) return;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ >= 0 && ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::send(const ff::Json& message) {
  if (fd_ < 0) return false;
  const std::string frame = ff::service::encode_frame(message);
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::optional<std::string> Conn::read_line(double timeout_s) {
  if (fd_ < 0) return std::nullopt;
  const double deadline = now_s() + timeout_s;
  for (;;) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }
    const double left = deadline - now_s();
    if (left <= 0) return std::nullopt;
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;  // re-check the deadline
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      eof_ = true;
      return std::nullopt;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

ff::Json Conn::call(const ff::Json& message, double timeout_s) {
  if (!send(message)) return ff::Json();
  const std::optional<std::string> line = read_line(timeout_s);
  if (!line) return ff::Json();
  try {
    return ff::service::decode_frame(*line);
  } catch (const std::exception&) {
    return ff::Json();
  }
}

Daemon::Daemon(const std::string& binary, const std::string& socket_path,
               const std::string& root, const std::string& log_path)
    : socket_path_(socket_path) {
  std::vector<std::string> args = {binary, "--socket", socket_path, "--root",
                                   root};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                         0644);
  const int null_in = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec. The daemon dies with
    // the benchmark, so an aborted run leaves no process behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
    }
    if (null_in >= 0) ::dup2(null_in, STDIN_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  if (log >= 0) ::close(log);
  if (null_in >= 0) ::close(null_in);
  pid_ = pid > 0 ? pid : -1;
}

Daemon::~Daemon() { stop(); }

bool Daemon::wait_ready(double timeout_s) {
  if (pid_ < 0) return false;
  const double deadline = now_s() + timeout_s;
  while (now_s() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;  // died during start-up
      return false;
    }
    Conn conn(socket_path_);
    if (conn.ok() && conn.call(request("ping"), 5.0).get_or("ok", false)) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

double Daemon::peak_rss_mb() const { return pid_ > 0 ? vm_hwm_mb(pid_) : 0; }

bool Daemon::stop(double timeout_s) {
  if (pid_ < 0) return clean_exit_;
  ::kill(pid_, SIGTERM);
  const double deadline = now_s() + timeout_s;
  int status = 0;
  for (;;) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      clean_exit_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      break;
    }
    if (done < 0 && errno != EINTR) break;
    if (now_s() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return clean_exit_;
}

double vm_hwm_mb(pid_t pid) {
  const std::string path =
      pid > 0 ? "/proc/" + std::to_string(pid) + "/status" : "/proc/self/status";
  std::ifstream status(path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

ff::Json request(const std::string& cmd, int64_t id) {
  ff::Json out = ff::Json::object();
  out["id"] = id;
  out["cmd"] = cmd;
  return out;
}

}  // namespace perfbench
