#include "savanna/journal.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "savanna/campaign_runner.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace ff::savanna {
namespace {

std::vector<sim::TaskSpec> uniform_tasks(size_t count, double duration) {
  std::vector<sim::TaskSpec> tasks;
  for (size_t i = 0; i < count; ++i) {
    sim::TaskSpec task;
    task.id = "t" + std::to_string(i);
    task.duration_s = duration;
    tasks.push_back(std::move(task));
  }
  return tasks;
}

Json alloc_record(double start, double end,
                  const std::vector<std::string>& completed) {
  Json record = Json::object();
  record["start"] = start;
  record["end"] = end;
  record["makespan"] = end - start;
  record["intervals"] = Json::array();
  Json done = Json::array();
  for (const auto& id : completed) done.push_back(id);
  record["completed"] = std::move(done);
  return record;
}

TEST(CampaignJournal, RoundTripsHeaderAndAllocations) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  auto journal = CampaignJournal::create(path, "camp", {"a", "b"});
  EXPECT_EQ(journal.append_allocation(alloc_record(0, 10, {"a"})), 0u);
  EXPECT_EQ(journal.append_allocation(alloc_record(10, 20, {"b"})), 1u);
  journal.close();

  const auto replay = CampaignJournal::replay(path);
  ASSERT_TRUE(replay.has_header());
  EXPECT_EQ(replay.header["campaign"].as_string(), "camp");
  EXPECT_EQ(replay.header["schema"].as_int(), kJournalSchemaVersion);
  ASSERT_EQ(replay.allocations.size(), 2u);
  EXPECT_EQ(replay.allocations[0]["index"].as_int(), 0);
  EXPECT_EQ(replay.allocations[1]["completed"][0].as_string(), "b");
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.committed_bytes, read_file(path).size());
}

TEST(CampaignJournal, MissingFileReplaysEmpty) {
  TempDir dir("journal");
  const auto replay = CampaignJournal::replay(dir.file("absent.jsonl"));
  EXPECT_FALSE(replay.has_header());
  EXPECT_TRUE(replay.allocations.empty());
  EXPECT_FALSE(replay.torn_tail);
}

TEST(CampaignJournal, EmptyFileReplaysEmpty) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  write_file(path, "");
  const auto replay = CampaignJournal::replay(path);
  EXPECT_FALSE(replay.has_header());
  EXPECT_TRUE(replay.allocations.empty());
}

TEST(CampaignJournal, TornFinalLineIsDroppedAndTruncatedOnOpen) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  auto journal = CampaignJournal::create(path, "camp", {"a"});
  journal.append_allocation(alloc_record(0, 10, {"a"}));
  journal.close();
  const std::string committed = read_file(path);

  // A crash mid-append leaves a partial, unterminated record.
  {
    std::ofstream torn(path, std::ios::app | std::ios::binary);
    torn << R"({"kind":"alloc","index":1,"comp)";
  }
  auto replay = CampaignJournal::replay(path);
  ASSERT_TRUE(replay.has_header());
  EXPECT_EQ(replay.allocations.size(), 1u);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.committed_bytes, committed.size());

  // Re-opening truncates the torn bytes, and appending resumes cleanly.
  auto reopened = CampaignJournal::open_for_append(path, replay);
  EXPECT_EQ(reopened.next_allocation_index(), 1u);
  reopened.append_allocation(alloc_record(10, 20, {}));
  reopened.close();
  const auto final_replay = CampaignJournal::replay(path);
  EXPECT_EQ(final_replay.allocations.size(), 2u);
  EXPECT_FALSE(final_replay.torn_tail);
}

TEST(CampaignJournal, UnknownSchemaVersionIsRejected) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  write_file(path, R"({"kind":"header","schema":99,"campaign":"x","runs":[]})"
                   "\n");
  EXPECT_THROW(CampaignJournal::replay(path), ValidationError);
}

TEST(CampaignJournal, MissingHeaderIsRejected) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  write_file(path, R"({"kind":"alloc","index":0})"
                   "\n");
  EXPECT_THROW(CampaignJournal::replay(path), ValidationError);
}

TEST(CampaignJournal, CorruptInteriorLineIsRejected) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  auto journal = CampaignJournal::create(path, "camp", {"a"});
  journal.append_allocation(alloc_record(0, 10, {"a"}));
  journal.close();
  // Corruption *followed by* a committed record is not a torn tail.
  std::string text = read_file(path);
  text += "not json\n";
  text += alloc_record(10, 20, {}).dump() + "\n";
  write_file(path, text);
  EXPECT_THROW(CampaignJournal::replay(path), ValidationError);
}

TEST(CampaignJournal, HeaderCarriesRunCountAndDigest) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  CampaignJournal::create(path, "camp", {"a", "b"}).close();
  const auto replay = CampaignJournal::replay(path);
  ASSERT_TRUE(replay.has_header());
  EXPECT_EQ(replay.header["run_count"].as_int(), 2);
  RunSetDigest expected;
  expected.add("a");
  expected.add("b");
  EXPECT_EQ(replay.header["runs_digest"].as_string(), expected.hex());
  // Small run sets stay inlined for grep-ability.
  ASSERT_TRUE(replay.header.contains("runs"));
  EXPECT_EQ(replay.header["runs"].size(), 2u);
}

TEST(CampaignJournal, SummaryCreateOmitsInlineRunList) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  RunSetDigest digest;
  digest.add("a");
  CampaignJournal::RunSetSummary summary{digest.count(), digest.hex()};
  CampaignJournal::create(path, "camp", summary).close();
  const auto replay = CampaignJournal::replay(path);
  ASSERT_TRUE(replay.has_header());
  EXPECT_FALSE(replay.header.contains("runs"));
  EXPECT_EQ(replay.header["run_count"].as_int(), 1);
  EXPECT_EQ(replay.header["runs_digest"].as_string(), digest.hex());
}

TEST(CampaignJournal, RunSetDigestDistinguishesFraming) {
  RunSetDigest ab_c;
  ab_c.add("ab");
  ab_c.add("c");
  RunSetDigest a_bc;
  a_bc.add("a");
  a_bc.add("bc");
  EXPECT_NE(ab_c.hex(), a_bc.hex());
  EXPECT_EQ(ab_c.count(), a_bc.count());
}

TEST(CampaignJournal, CheckpointRestoresStateAndTailOnly) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  auto journal = CampaignJournal::create(path, "camp", {"a", "b", "c"});
  journal.append_allocation(alloc_record(0, 10, {"a"}));
  journal.append_allocation(alloc_record(10, 20, {"b"}));
  Json snapshot = Json::object();
  snapshot["a"] = Json::parse(R"({"state":"done","attempts":1,"events":[]})");
  snapshot["b"] = Json::parse(R"({"state":"done","attempts":1,"events":[]})");
  journal.append_checkpoint(snapshot, 20.0);
  journal.append_allocation(alloc_record(20, 30, {"c"}));
  journal.close();

  const auto replay = CampaignJournal::replay(path);
  ASSERT_TRUE(replay.has_checkpoint());
  EXPECT_EQ(replay.checkpoint["next_index"].as_int(), 2);
  EXPECT_DOUBLE_EQ(replay.checkpoint["clock"].as_double(), 20.0);
  EXPECT_EQ(replay.checkpoint["tracker"].dump(), snapshot.dump());
  // Only the tail after the checkpoint is replayed as alloc records.
  ASSERT_EQ(replay.allocations.size(), 1u);
  EXPECT_EQ(replay.allocations[0]["index"].as_int(), 2);
  EXPECT_EQ(replay.next_index, 3u);
}

TEST(CampaignJournal, CompactFoldsHistoryIntoCheckpointAtomically) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  auto journal = CampaignJournal::create(path, "camp", {"a", "b", "c"});
  journal.append_allocation(alloc_record(0, 10, {"a"}));
  journal.append_allocation(alloc_record(10, 20, {"b"}));
  Json snapshot = Json::object();
  snapshot["a"] = Json::parse(R"({"state":"done","attempts":1,"events":[]})");
  journal.append_checkpoint(snapshot, 20.0);
  const std::string before = read_file(path);
  journal.compact();
  const std::string after = read_file(path);
  EXPECT_LT(after.size(), before.size());

  const auto replay = CampaignJournal::replay(path);
  ASSERT_TRUE(replay.has_checkpoint());
  EXPECT_EQ(replay.compactions, 1u);
  EXPECT_TRUE(replay.allocations.empty());
  EXPECT_EQ(replay.next_index, 2u);

  // Idempotent: compacting a compacted journal changes nothing, and the
  // handle still appends correctly afterwards.
  journal.compact();
  EXPECT_EQ(read_file(path), after);
  journal.append_allocation(alloc_record(20, 30, {"c"}));
  journal.close();
  const auto final_replay = CampaignJournal::replay(path);
  ASSERT_EQ(final_replay.allocations.size(), 1u);
  EXPECT_EQ(final_replay.allocations[0]["index"].as_int(), 2);
}

TEST(CampaignJournal, CompactWithoutCheckpointIsANoOp) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  auto journal = CampaignJournal::create(path, "camp", {"a"});
  journal.append_allocation(alloc_record(0, 10, {"a"}));
  const std::string before = read_file(path);
  journal.compact();  // nothing summarizes the alloc history yet
  EXPECT_EQ(read_file(path), before);
}

/// What compact() must leave, found the slow way: parse every line, keep
/// the header, the compact marker, and every line from the newest "ckpt" on.
std::string compacted_reference(const std::string& text) {
  std::vector<std::string> lines = split(text, '\n');
  lines.pop_back();  // the empty field after the final newline
  size_t newest = 0;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (Json::parse(lines[i]).get_or("kind", "") == std::string("ckpt")) {
      newest = i;
    }
  }
  if (newest == 0) return text;
  std::string out = lines[0] + "\n" + R"({"kind":"compact"})" + "\n";
  for (size_t i = newest; i < lines.size(); ++i) out += lines[i] + "\n";
  return out;
}

Json snapshot_of(const std::vector<std::string>& done) {
  Json snapshot = Json::object();
  for (const std::string& id : done) {
    snapshot[id] = Json::parse(R"({"state":"done","attempts":1,"events":[]})");
  }
  return snapshot;
}

TEST(CampaignJournal, CompactKeepsTheNewestOfTwoCheckpoints) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  auto journal = CampaignJournal::create(path, "camp", {"a", "b", "c"});
  journal.append_allocation(alloc_record(0, 10.5, {"a"}));
  journal.append_checkpoint(snapshot_of({"a"}), 10.5);
  journal.append_allocation(alloc_record(10.5, 20.25, {"b"}));
  journal.append_checkpoint(snapshot_of({"a", "b"}), 20.25);
  journal.append_allocation(alloc_record(20.25, 30, {}));
  const std::string expected = compacted_reference(read_file(path));
  journal.compact();
  EXPECT_EQ(read_file(path), expected);
  EXPECT_EQ(CampaignJournal::replay(path).checkpoint["clock"].as_double(), 20.25);
}

TEST(CampaignJournal, ReopenedJournalCompactsFromTheReplayedOffset) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  auto journal = CampaignJournal::create(path, "camp", {"a", "b"});
  journal.append_allocation(alloc_record(0, 10, {"a"}));
  journal.append_allocation(alloc_record(10, 20, {}));
  journal.append_checkpoint(snapshot_of({"a"}), 20.0);
  journal.append_allocation(alloc_record(20, 30, {"b"}));
  journal.close();
  const std::string text = read_file(path);

  const auto replay = CampaignJournal::replay(path);
  ASSERT_TRUE(replay.has_checkpoint());
  ASSERT_GT(replay.checkpoint_offset, 0u);
  const size_t line_end = text.find('\n', replay.checkpoint_offset);
  EXPECT_EQ(text[replay.checkpoint_offset - 1], '\n');
  EXPECT_EQ(Json::parse(text.substr(replay.checkpoint_offset,
                                    line_end - replay.checkpoint_offset))
                .dump(),
            replay.checkpoint.dump());

  auto reopened = CampaignJournal::open_for_append(path, replay);
  reopened.compact();
  EXPECT_EQ(read_file(path), compacted_reference(text));
}

TEST(CampaignJournal, CompactAfterTornTailWasTruncatedAtOpen) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  auto journal = CampaignJournal::create(path, "camp", {"a", "b"});
  journal.append_allocation(alloc_record(0, 10, {"a"}));
  journal.append_checkpoint(snapshot_of({"a"}), 10.0);
  journal.append_allocation(alloc_record(10, 20, {}));
  journal.close();
  const std::string committed = read_file(path);
  {
    std::ofstream torn(path, std::ios::app | std::ios::binary);
    torn << R"({"kind":"ckpt","next_index":2,"clo)";
  }

  const auto replay = CampaignJournal::replay(path);
  ASSERT_TRUE(replay.torn_tail);
  auto reopened = CampaignJournal::open_for_append(path, replay);
  reopened.compact();
  EXPECT_EQ(read_file(path), compacted_reference(committed));
}

TEST(CampaignJournal, MovedJournalKeepsItsCheckpointOffset) {
  TempDir dir("journal");
  auto write_history = [&](const std::string& path) {
    auto journal = CampaignJournal::create(path, "camp", {"a", "b"});
    journal.append_allocation(alloc_record(0, 10, {"a"}));
    journal.append_allocation(alloc_record(10, 20, {}));
    journal.append_checkpoint(snapshot_of({"a"}), 20.0);
    journal.append_allocation(alloc_record(20, 30, {"b"}));
    return journal;
  };

  const std::string constructed_path = dir.file("constructed.jsonl");
  auto source = write_history(constructed_path);
  const std::string constructed_expected =
      compacted_reference(read_file(constructed_path));
  CampaignJournal constructed(std::move(source));
  constructed.compact();
  EXPECT_EQ(read_file(constructed_path), constructed_expected);

  const std::string assigned_path = dir.file("assigned.jsonl");
  auto assigned = CampaignJournal::create(dir.file("other.jsonl"), "other", {"x"});
  assigned = write_history(assigned_path);
  const std::string assigned_expected =
      compacted_reference(read_file(assigned_path));
  assigned.compact();
  EXPECT_EQ(read_file(assigned_path), assigned_expected);
}

TEST(CampaignJournal, SecondCompactChangesNoByte) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  auto journal = CampaignJournal::create(path, "camp", {"a", "b"});
  journal.append_allocation(alloc_record(0, 10, {"a"}));
  journal.append_checkpoint(snapshot_of({"a"}), 10.0);
  journal.append_allocation(alloc_record(10, 20, {"b"}));
  journal.compact();
  const std::string once = read_file(path);
  journal.compact();
  EXPECT_EQ(read_file(path), once);

  // A later checkpoint moves the offset past the marker; compacting again
  // folds the first checkpoint and the record after it away.
  journal.append_checkpoint(snapshot_of({"a", "b"}), 20.0);
  const std::string expected = compacted_reference(read_file(path));
  journal.compact();
  EXPECT_EQ(read_file(path), expected);
  journal.compact();
  EXPECT_EQ(read_file(path), expected);
}

TEST(CampaignJournal, CompactRefusesAnOffsetOffALineStart) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  auto journal = CampaignJournal::create(path, "camp", {"a"});
  journal.append_allocation(alloc_record(0, 10, {"a"}));
  journal.append_checkpoint(snapshot_of({"a"}), 10.0);
  journal.close();
  auto replay = CampaignJournal::replay(path);
  const std::string before = read_file(path);
  replay.checkpoint_offset += 1;
  auto reopened = CampaignJournal::open_for_append(path, replay);
  EXPECT_THROW(reopened.compact(), StateError);
  EXPECT_EQ(read_file(path), before);
}

TEST(CampaignJournal, GroupCommitBatchesRecordsUntilFlush) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  auto journal = CampaignJournal::create(path, "camp", {"a", "b", "c"});
  journal.set_group_commit(3);
  EXPECT_EQ(journal.append_allocation(alloc_record(0, 10, {"a"})), 0u);
  EXPECT_EQ(journal.append_allocation(alloc_record(10, 20, {"b"})), 1u);
  // Two records buffered, none durable yet.
  EXPECT_TRUE(CampaignJournal::replay(path).allocations.empty());
  // The third append completes the batch: one write+fsync commits all.
  EXPECT_EQ(journal.append_allocation(alloc_record(20, 30, {"c"})), 2u);
  EXPECT_EQ(CampaignJournal::replay(path).allocations.size(), 3u);
  // A partial batch flushes on close().
  journal.set_group_commit(3);
  journal.append_allocation(alloc_record(30, 40, {}));
  journal.close();
  EXPECT_EQ(CampaignJournal::replay(path).allocations.size(), 4u);
}

TEST(ResumeCampaign, JournalReferencingUnknownRunsIsRejected) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  auto journal = CampaignJournal::create(path, "camp", {"t0", "stranger"});
  journal.close();

  sim::Simulation sim;
  RunTracker tracker;
  CampaignRunOptions options;
  EXPECT_THROW(resume_campaign(sim, uniform_tasks(1, 10), options, tracker, path),
               ValidationError);
}

TEST(ResumeCampaign, MissingJournalStartsFreshAndCompletes) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  sim::Simulation sim;
  RunTracker tracker;
  CampaignRunOptions options;
  options.execution.nodes = 2;
  const auto report = resume_campaign(sim, uniform_tasks(4, 10), options,
                                      tracker, path);
  EXPECT_EQ(report.allocations_replayed, 0u);
  EXPECT_EQ(report.incomplete, 4u);
  EXPECT_EQ(report.result.completed_runs, 4u);
  EXPECT_EQ(report.result.remaining_runs, 0u);
  // The journal is durable: a second resume has nothing left to do.
  sim::Simulation sim2;
  RunTracker tracker2;
  const auto again = resume_campaign(sim2, uniform_tasks(4, 10), options,
                                     tracker2, path);
  EXPECT_EQ(again.allocations_replayed, 1u);
  EXPECT_EQ(again.incomplete, 0u);
  EXPECT_EQ(again.result.allocations_used, 0u);
  EXPECT_EQ(tracker2.to_json().dump(), tracker.to_json().dump());
}

TEST(ResumeCampaign, InterruptedCampaignMatchesUninterruptedProvenance) {
  CampaignRunOptions options;
  options.execution.nodes = 2;
  options.execution.walltime_s = 25.0;
  const auto tasks = uniform_tasks(10, 10);

  RunTracker uninterrupted;
  {
    TempDir dir("journal");
    sim::Simulation sim;
    resume_campaign(sim, tasks, options, uninterrupted, dir.file("j.jsonl"));
  }

  TempDir dir("journal");
  const std::string path = dir.file("j.jsonl");
  {
    // First leg stops after one allocation — a controlled "crash".
    sim::Simulation sim;
    RunTracker tracker;
    CampaignRunOptions first_leg = options;
    first_leg.max_allocations = 1;
    const auto report = resume_campaign(sim, tasks, first_leg, tracker, path);
    EXPECT_GT(report.result.remaining_runs, 0u);
  }
  sim::Simulation sim;
  RunTracker resumed;
  const auto report = resume_campaign(sim, tasks, options, resumed, path);
  EXPECT_EQ(report.allocations_replayed, 1u);
  EXPECT_EQ(report.result.remaining_runs, 0u);
  EXPECT_EQ(resumed.to_json().dump(), uninterrupted.to_json().dump());
}

TEST(RetryPolicy, BudgetExhaustsAlwaysFailingRun) {
  sim::Simulation sim;
  CampaignRunOptions options;
  options.execution.nodes = 1;
  options.retry.max_attempts = 3;
  options.execution.fails = [](const sim::TaskSpec& task, int) {
    return task.id == "t0";
  };
  RunTracker tracker;
  const auto result =
      run_with_resubmission(sim, uniform_tasks(2, 10), options, &tracker);
  EXPECT_EQ(result.completed_runs, 1u);
  ASSERT_EQ(result.exhausted.size(), 1u);
  EXPECT_EQ(result.exhausted[0], "t0");
  EXPECT_EQ(result.remaining_runs, 0u);  // exhausted is terminal, not pending
  EXPECT_EQ(tracker.status("t0").state, "exhausted");
  EXPECT_EQ(tracker.attempts("t0"), 3u);
  EXPECT_EQ(tracker.counts().exhausted, 1u);
  EXPECT_EQ(tracker.status("t1").state, "done");
}

TEST(CampaignJournal, ExplicitCloseThrowsWhenFlushCannotCommit) {
  TempDir dir("journal");
  const std::string path = dir.file("journal.jsonl");
  CampaignJournal journal = CampaignJournal::create(path, "camp", {"t0", "t1"});
  journal.set_group_commit(4);
  journal.append_allocation(alloc_record(0, 10, {"t0"}));  // buffered only
  CampaignJournal::set_test_write_hook(
      [](CampaignJournal::WriteKind kind, CampaignJournal::WritePhase phase,
         size_t) {
        if (kind == CampaignJournal::WriteKind::Append &&
            phase == CampaignJournal::WritePhase::BeforeWrite) {
          throw IoError("injected: disk full");
        }
      });
  EXPECT_THROW(journal.close(), IoError);
  CampaignJournal::set_test_write_hook(nullptr);
  // Even a failed close releases the handle, and the failure is recorded.
  EXPECT_FALSE(journal.is_open());
  EXPECT_NE(journal.last_error().find("injected: disk full"),
            std::string::npos)
      << journal.last_error();
  // Closing again is a no-op, not a second throw.
  journal.close();
}

TEST(CampaignJournal, DestructorSwallowsFlushFailureDuringUnwind) {
  // Regression: ~CampaignJournal() used to delegate to the throwing
  // close(), so a flush failure while an exception was already unwinding
  // the stack was std::terminate. The destructor path now swallows the
  // failure; surviving the two scopes below *is* the assertion.
  TempDir dir("journal");
  CampaignJournal::WriteHook poison =
      [](CampaignJournal::WriteKind kind, CampaignJournal::WritePhase phase,
         size_t) {
        if (kind == CampaignJournal::WriteKind::Append &&
            phase == CampaignJournal::WritePhase::BeforeWrite) {
          throw IoError("injected: device gone");
        }
      };
  {
    // Plain scope exit with a poisoned, non-empty buffer.
    CampaignJournal journal =
        CampaignJournal::create(dir.file("a.jsonl"), "camp", {"t0"});
    journal.set_group_commit(4);
    journal.append_allocation(alloc_record(0, 10, {"t0"}));
    CampaignJournal::set_test_write_hook(poison);
  }
  CampaignJournal::set_test_write_hook(nullptr);
  // Destruction *during unwind* — the case that used to terminate.
  EXPECT_THROW(
      {
        CampaignJournal journal =
            CampaignJournal::create(dir.file("b.jsonl"), "camp", {"t0"});
        journal.set_group_commit(4);
        journal.append_allocation(alloc_record(0, 10, {"t0"}));
        CampaignJournal::set_test_write_hook(poison);
        throw StateError("campaign failed elsewhere");
      },
      StateError);
  CampaignJournal::set_test_write_hook(nullptr);
}

TEST(RetryPolicy, BackoffDelaysRetryInVirtualTime) {
  sim::Simulation sim;
  CampaignRunOptions options;
  options.execution.nodes = 1;
  options.retry.max_attempts = 3;  // a budget disables the zero-progress stop
  options.retry.base_backoff_s = 100;
  int failures_left = 1;
  options.execution.fails = [&](const sim::TaskSpec&, int) {
    return failures_left-- > 0;
  };
  const auto result = run_with_resubmission(sim, uniform_tasks(1, 10), options);
  EXPECT_EQ(result.completed_runs, 1u);
  // Fail at t=10, held back until 10 + 100, retry runs 110..120.
  EXPECT_DOUBLE_EQ(sim.now(), 120.0);
}

TEST(RetryPolicy, BackoffGrowsExponentiallyAndClamps) {
  RetryPolicy policy;
  policy.base_backoff_s = 10;
  policy.growth = 2.0;
  policy.max_backoff_s = 35;
  EXPECT_DOUBLE_EQ(policy.backoff_after(0), 0.0);
  EXPECT_DOUBLE_EQ(policy.backoff_after(1), 10.0);
  EXPECT_DOUBLE_EQ(policy.backoff_after(2), 20.0);
  EXPECT_DOUBLE_EQ(policy.backoff_after(3), 35.0);  // clamped from 40
  EXPECT_DOUBLE_EQ(policy.backoff_after(10), 35.0);
}

TEST(CampaignRunner, ZeroProgressStopsEvenWithAllocationBudget) {
  sim::Simulation sim;
  CampaignRunOptions options;
  options.execution.nodes = 1;
  options.execution.walltime_s = 5.0;  // task needs 10
  options.max_allocations = 50;
  const auto result = run_with_resubmission(sim, uniform_tasks(1, 10), options);
  // Before the zero-progress guard learned about bounded campaigns, this
  // burned all 50 allocations re-running an impossible task.
  EXPECT_EQ(result.allocations_used, 1u);
  EXPECT_EQ(result.remaining_runs, 1u);
}

TEST(ApplyReport, TerminalRunWithoutIntervalFallsBackToAllocationEnd) {
  // Regression: a failed/killed run with no recorded interval used to crash
  // the tracker bookkeeping with std::out_of_range (end_time.at).
  ExecutionReport report;
  report.makespan_s = 40;
  report.failed = {"ghost"};
  report.killed = {"wraith"};
  RunTracker tracker;
  tracker.add_run("ghost");
  tracker.add_run("wraith");
  apply_report_to_tracker(tracker, report, /*allocation_start=*/100);
  EXPECT_EQ(tracker.status("ghost").state, "failed");
  EXPECT_DOUBLE_EQ(tracker.status("ghost").last_time, 140.0);
  EXPECT_EQ(tracker.status("wraith").state, "killed");
  EXPECT_DOUBLE_EQ(tracker.status("wraith").last_time, 140.0);
}

}  // namespace
}  // namespace ff::savanna
