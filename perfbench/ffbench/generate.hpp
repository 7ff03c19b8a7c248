#pragma once

// Seeded input generators. The daemon and the stream pipeline receive only
// what these produce: submit requests (manifest + duration/journal knobs),
// workspace artifacts, and stream records. Same seed, same inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "stream/data.hpp"
#include "util/json.hpp"

namespace perfbench {

/// Runs in one tenant_churn campaign: dense (below the 4096-run sparse
/// threshold), so every run gets its own fsync'd params.json and run.sh.
inline constexpr int64_t kDenseRuns = 32;
/// Runs in one mega_campaign campaign (sparse endpoint, digest journal):
/// about 100 allocations, so a 15 s run holds several campaigns.
inline constexpr int64_t kMegaRuns = 16000;

/// The `submit` request of tenant campaign `name`, campaign number `index`
/// of the run. Every service submit pins duration.straggler_fraction to 0:
/// with the default duration model a run longer than the walltime ends the
/// whole campaign early ("done" with runs never started), and the benchmark
/// would time a truncated campaign.
ff::Json dense_submit(uint64_t seed, uint64_t index, const std::string& name);

/// The `submit` request of the 16k-run mega campaign: 16 nodes, 3600 s
/// walltime, group commit 64, a checkpoint every 16 allocations with
/// compaction.
ff::Json mega_submit(uint64_t seed, uint64_t index, const std::string& name);

/// Write a ~`artifacts`-artifact lint workspace under `root` (one catalog
/// plus, per campaign, a manifest, a stream plane and a journal that
/// cross-reference each other). Returns the artifact paths, catalog first.
std::vector<std::string> generate_workspace(const std::string& root,
                                            uint64_t seed, size_t artifacts);

/// Rewrite artifact `path` with its `version`-th variant: same JSON, a
/// different trailing whitespace, so its digest changes and the next lint
/// re-parses exactly this file.
void touch_artifact(const std::string& path, uint64_t version);

/// A stream record: sequence `seq`, timestamp `due` (the steady-clock
/// second it was due), and two seeded payload fields.
ff::stream::Record make_record(uint64_t seed, uint64_t seq, double due);

}  // namespace perfbench
