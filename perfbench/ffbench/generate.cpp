#include "generate.hpp"

#include <filesystem>
#include <fstream>

#include "cheetah/campaign.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

/// Decorrelated per-purpose seed.
uint64_t derive(uint64_t seed, uint64_t stream) {
  return ff::splitmix64(ff::splitmix64(seed) ^ (stream * 0x9e3779b97f4a7c15ULL));
}

/// Plain (unsynced) file write; benchmark inputs are not commit points.
void write_plain(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  if (!out) throw ff::IoError("perfbench: cannot write " + path);
}

ff::Json duration_knobs(uint64_t seed) {
  ff::Json duration = ff::Json::object();
  duration["median_s"] = 300.0;
  duration["sigma"] = 0.4;
  duration["straggler_fraction"] = 0.0;
  duration["seed"] = static_cast<int64_t>(seed % 1000000007ULL);
  return duration;
}

ff::Json submit_request(ff::Json manifest, uint64_t duration_seed) {
  ff::Json out = ff::Json::object();
  out["cmd"] = "submit";
  out["manifest"] = std::move(manifest);
  out["duration"] = duration_knobs(duration_seed);
  return out;
}

std::string manifest_text(const std::string& name, const std::string& plane,
                          int64_t x, int64_t y) {
  return "{\n"
         "  \"name\": \"" + name + "\",\n"
         "  \"app\": {\"name\": \"app\", \"executable\": \"bin/app\",\n"
         "          \"args_template\": \"--x {{x}} --y {{y}}\"},\n"
         "  \"stream_plane\": \"" + plane + "\",\n"
         "  \"groups\": [{\n"
         "    \"name\": \"g\", \"nodes\": 1, \"walltime_s\": 3600,\n"
         "    \"sweeps\": [{\"name\": \"s\", \"parameters\": [\n"
         "      {\"name\": \"x\", \"layer\": \"app\", \"values\": [" +
         std::to_string(x) + ", " + std::to_string(x + 1) + "]},\n"
         "      {\"name\": \"y\", \"layer\": \"app\", \"values\": [" +
         std::to_string(y) + ", " + std::to_string(y + 1) + ", " +
         std::to_string(y + 2) + "]}\n"
         "    ]}]\n"
         "  }]\n"
         "}\n";
}

std::string plane_text(const std::string& name, int64_t rate_hz) {
  return "{\n"
         "  \"graph\": {\n"
         "    \"name\": \"" + name + "\",\n"
         "    \"components\": [\n"
         "      {\"id\": \"src\", \"kind\": \"executable\",\n"
         "       \"ports\": [{\"name\": \"out\", \"direction\": \"out\",\n"
         "                  \"schema\": \"bp:frames:v1\", \"rate_hz\": " +
         std::to_string(rate_hz) + "}]},\n"
         "      {\"id\": \"sink\", \"kind\": \"service\", \"service_hz\": " +
         std::to_string(rate_hz * 2) + ",\n"
         "       \"ports\": [{\"name\": \"in\", \"direction\": \"in\",\n"
         "                  \"schema\": \"bp:frames:v1\"}]}\n"
         "    ],\n"
         "    \"edges\": [{\"from\": \"src.out\", \"to\": \"sink.in\"}]\n"
         "  },\n"
         "  \"queues\": [{\"queue\": \"q\", \"kind\": \"forward-all\",\n"
         "              \"capacity\": 256, \"overflow\": \"block\"}]\n"
         "}\n";
}

constexpr const char* kCatalog =
    "{\n"
    "  \"components\": [],\n"
    "  \"schemas\": [{\"name\": \"frames\", \"version\": 1,\n"
    "               \"container\": \"bp\",\n"
    "               \"fields\": [{\"name\": \"seq\", \"type\": \"int\"}]}]\n"
    "}\n";

}  // namespace

ff::Json dense_submit(uint64_t seed, uint64_t index, const std::string& name) {
  ff::Rng rng(derive(seed, 1000 + index));
  ff::cheetah::AppSpec app;
  app.name = "churn";
  app.executable = "bin/churn";
  app.args_template = "--mesh {{mesh}} --tol {{tol}}";
  ff::cheetah::Campaign campaign(name, app);
  ff::cheetah::Sweep sweep("s");
  const int64_t mesh0 = rng.range(8, 64);
  sweep.add(ff::cheetah::Parameter::int_range(
      "mesh", ff::cheetah::ParamLayer::Application, mesh0, mesh0 + 7));
  std::vector<ff::Json> tolerances;
  for (int i = 0; i < kDenseRuns / 8; ++i) tolerances.emplace_back(rng.uniform(1e-6, 1e-2));
  sweep.add(ff::cheetah::Parameter::values(
      "tol", ff::cheetah::ParamLayer::Middleware, std::move(tolerances)));
  ff::cheetah::SweepGroup group("g");
  group.add(std::move(sweep));
  group.set_nodes(2);
  group.set_walltime_s(3600.0);
  campaign.add_group(std::move(group));
  return submit_request(campaign.to_json(), rng());
}

ff::Json mega_submit(uint64_t seed, uint64_t index, const std::string& name) {
  ff::Rng rng(derive(seed, 2000 + index));
  ff::cheetah::AppSpec app;
  app.name = "mega";
  app.executable = "bin/mega";
  app.args_template = "--a {{a}} --b {{b}}";
  ff::cheetah::Campaign campaign(name, app);
  ff::cheetah::Sweep sweep("s");
  const int64_t a0 = rng.range(0, 1000);
  sweep.add(ff::cheetah::Parameter::int_range(
      "a", ff::cheetah::ParamLayer::Application, a0, a0 + 159));
  sweep.add(ff::cheetah::Parameter::linspace(
      "b", ff::cheetah::ParamLayer::System, rng.uniform(0.0, 1.0),
      rng.uniform(2.0, 3.0), kMegaRuns / 160));
  ff::cheetah::SweepGroup group("g");
  group.add(std::move(sweep));
  group.set_nodes(16);
  group.set_walltime_s(3600.0);
  campaign.add_group(std::move(group));
  ff::Json out = submit_request(campaign.to_json(), rng());
  ff::Json journal = ff::Json::object();
  journal["group_commit"] = int64_t{64};
  journal["checkpoint_every"] = int64_t{16};
  journal["compact_after_checkpoint"] = true;
  out["journal"] = std::move(journal);
  return out;
}

std::vector<std::string> generate_workspace(const std::string& root,
                                            uint64_t seed, size_t artifacts) {
  ff::Rng rng(derive(seed, 3));
  std::filesystem::create_directories(root);
  std::vector<std::string> paths = {root + "/catalog.json"};
  write_plain(paths.back(), kCatalog);
  for (size_t i = 0; paths.size() + 3 <= artifacts; ++i) {
    const std::string dir = root + "/c" + std::to_string(i);
    std::filesystem::create_directories(dir);
    const std::string campaign = "ws-" + std::to_string(i);
    const std::string plane = "plane-" + std::to_string(i);
    paths.push_back(dir + "/campaign.json");
    write_plain(paths.back(), manifest_text(campaign, plane, rng.range(0, 99),
                                            rng.range(0, 99)));
    paths.push_back(dir + "/plane.json");
    write_plain(paths.back(), plane_text(plane, rng.range(10, 500)));
    paths.push_back(dir + "/journal.jsonl");
    write_plain(paths.back(), "{\"kind\":\"header\",\"schema\":2,\"campaign\":\"" +
                                  campaign + "\"}\n");
  }
  return paths;
}

void touch_artifact(const std::string& path, uint64_t version) {
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  while (!text.empty() && (text.back() == '\n' || text.back() == ' ')) {
    text.pop_back();
  }
  // A journal is line-oriented: pad with spaces inside the last line
  // rather than adding blank lines.
  text += std::string(1 + version % 2, ' ');
  write_plain(path, text + "\n");
}

ff::stream::Record make_record(uint64_t seed, uint64_t seq, double due) {
  ff::stream::Record record;
  record.sequence = seq;
  record.timestamp = due;
  record.values.emplace_back(static_cast<int64_t>(derive(seed, seq) >> 1));
  record.values.emplace_back(static_cast<double>(seq) * 0.5);
  return record;
}

}  // namespace perfbench
