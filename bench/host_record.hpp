// The host a bench record was measured on: CPU count and model, compiler,
// build type and source revision. Benches that write a BENCH_*.json record
// put this under "meta", so a number is never quoted without its host.
// Needs the FF_REPO_ROOT and FF_BUILD_TYPE compile definitions.

#pragma once

#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "util/fs.hpp"
#include "util/json.hpp"

namespace ff::bench {

inline std::string cpu_model() {
  try {
    const std::string cpuinfo = read_file("/proc/cpuinfo");
    const size_t at = cpuinfo.find("model name");
    const size_t colon = cpuinfo.find(':', at);
    if (at != std::string::npos && colon != std::string::npos) {
      const size_t begin = cpuinfo.find_first_not_of(' ', colon + 1);
      return cpuinfo.substr(begin, cpuinfo.find('\n', begin) - begin);
    }
  } catch (const std::exception&) {
  }
  return "unknown";
}

/// `git describe --always --dirty` of the source tree, "unknown" without git.
inline std::string source_revision() {
  const std::string command =
      std::string("git -C '") + FF_REPO_ROOT + "' describe --always --dirty 2>/dev/null";
  std::string out;
  if (FILE* pipe = ::popen(command.c_str(), "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), pipe)) out += buf;
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

inline Json host_record() {
  Json meta = Json::object();
  meta["nproc"] = static_cast<int64_t>(std::thread::hardware_concurrency());
  meta["cpu_model"] = cpu_model();
#ifdef __clang__
  meta["compiler"] = std::string("clang ") + __clang_version__;
#else
  meta["compiler"] = std::string("g++ ") + __VERSION__;
#endif
  meta["build_type"] = FF_BUILD_TYPE;
  meta["revision"] = source_revision();
  return meta;
}

}  // namespace ff::bench
