#include "util/fs.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>

#include "util/error.hpp"

namespace ff {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw IoError("cannot open for reading: " + path);
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  struct stat info {};
  if (::fstat(fd, &info) != 0) throw IoError("cannot stat: " + path);
  if (S_ISDIR(info.st_mode)) throw IoError("cannot read a directory: " + path);
  auto read_some = [&](char* into, size_t size) {
    while (true) {
      const ssize_t n = ::read(fd, into, size);
      if (n >= 0) return static_cast<size_t>(n);
      if (errno != EINTR) throw IoError("read failed: " + path);
    }
  };
  // Read straight into a string of the size fstat reports, then on to EOF
  // in chunks: a file that grew meanwhile, or one whose size fstat cannot
  // tell (procfs, pipes), is read whole all the same.
  std::string text(static_cast<size_t>(std::max<off_t>(info.st_size, 0)), '\0');
  size_t have = 0;
  while (have < text.size()) {
    const size_t n = read_some(text.data() + have, text.size() - have);
    if (n == 0) break;  // the file shrank
    have += n;
  }
  text.resize(have);
  char chunk[16384];
  while (const size_t n = read_some(chunk, sizeof(chunk))) text.append(chunk, n);
  return text;
}

void write_file(const std::string& path, const std::string& content) {
  write_file_atomic(path, content);
}

namespace {

void write_all(int fd, const char* data, size_t size, const std::string& path) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      ::close(fd);
      throw IoError("write failed: " + path);
    }
    written += static_cast<size_t>(n);
  }
}

/// Make the rename itself durable: fsync the containing directory so the
/// new entry survives a crash. Best effort — some filesystems refuse.
void fsync_parent_dir(const fs::path& target) {
  const fs::path parent =
      target.parent_path().empty() ? fs::path(".") : target.parent_path();
  const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

void write_file_atomic(const std::string& path, const std::string& content) {
  const fs::path parent = fs::path(path).parent_path();
  std::error_code ec;
  if (!parent.empty()) fs::create_directories(parent, ec);

  // Unique within the process so concurrent writers of the same path (or a
  // leftover tmp from a crashed run) never collide; same directory so the
  // rename stays atomic (no cross-device moves).
  static std::atomic<uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (fd < 0) throw IoError("cannot open for writing: " + tmp);
  write_all(fd, content.data(), content.size(), tmp);
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw IoError("fsync failed: " + tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw IoError("rename failed: " + tmp + " -> " + path);
  }
  fsync_parent_dir(path);
}

TempDir::TempDir(const std::string& prefix) {
  static std::atomic<uint64_t> counter{0};
  const fs::path base = fs::temp_directory_path();
  for (int attempt = 0; attempt < 64; ++attempt) {
    fs::path candidate =
        base / (prefix + "-" + std::to_string(::getpid()) + "-" +
                std::to_string(counter.fetch_add(1)));
    std::error_code ec;
    if (fs::create_directory(candidate, ec)) {
      path_ = candidate;
      return;
    }
  }
  throw IoError("TempDir: could not create a unique scratch directory");
}

TempDir::~TempDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);  // best effort; never throw from a destructor
}

std::vector<std::string> list_files(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace ff
