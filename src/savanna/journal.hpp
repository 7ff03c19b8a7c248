#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace ff::savanna {

class RunTracker;

/// On-disk journal schema version. Bump when the record shapes change;
/// replay() refuses journals written by a different schema rather than
/// silently misreading them. The normative byte-level format lives in
/// docs/journal_format.md, kept in sync with journal_record_registry() by
/// tests/savanna/journal_format_doc_test.
inline constexpr int64_t kJournalSchemaVersion = 2;

/// Run sets up to this size are inlined into the header as a "runs" array
/// (exact ids, grep-able). Larger campaigns carry only the count + digest —
/// a million-run header would otherwise dwarf the journal it heads.
inline constexpr size_t kInlineRunListMax = 4096;

/// Streaming FNV-1a/64 over the run-id sequence (each id framed with a
/// trailing '\n' so {"ab","c"} and {"a","bc"} differ). Both the journal
/// header and the manifest side of the lint drift check use this, so a
/// million-run set is compared in O(1) space without materializing ids.
class RunSetDigest {
 public:
  void add(std::string_view run_id) {
    for (const char c : run_id) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= kPrime;
    }
    hash_ ^= static_cast<unsigned char>('\n');
    hash_ *= kPrime;
    ++count_;
  }
  size_t count() const noexcept { return count_; }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return std::string(buf);
  }

 private:
  static constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t hash_ = 1469598103934665603ull;  // FNV offset basis
  size_t count_ = 0;
};

/// One entry of the journal's record-type registry: the single source of
/// truth for which "kind" values exist on disk. docs/journal_format.md must
/// document exactly these (enforced both directions by ctest).
struct JournalRecordInfo {
  std::string_view kind;     // the "kind" field value, e.g. "ckpt"
  std::string_view name;     // human name, e.g. "checkpoint"
  std::string_view summary;  // one-line description
};
const std::vector<JournalRecordInfo>& journal_record_registry();
const JournalRecordInfo* find_journal_record(std::string_view kind);

/// Crash-consistent, append-only JSONL journal of campaign execution state
/// — the durable half of "partially completed SweepGroups are re-submitted,
/// and Savanna resumes execution of the experiments" (paper Section IV).
///
/// File layout (one JSON object per line; see docs/journal_format.md for
/// the normative spec):
///
///   {"kind":"header","schema":2,"campaign":"...","run_count":6, ...}
///   {"kind":"alloc","index":0,"start":0.0,"end":40.0,...}   one per
///   {"kind":"alloc","index":1,...}                           allocation
///   {"kind":"ckpt","next_index":2,"clock":80.0,"tracker":{...}}
///
/// plus, in a compacted journal, a {"kind":"compact"} marker right after
/// the header recording that alloc records before the checkpoint were
/// folded into it.
///
/// Consistency contract (what resume_campaign relies on):
///
/// * The header is written via atomic tmp-file + rename + fsync, so the
///   journal either exists with a complete header or not at all.
/// * Each allocation record is appended with a single write and fsync'd
///   before append() returns — an allocation record on disk means that
///   allocation's provenance is durable. The fsync is the *commit point*:
///   a campaign killed before it simply re-executes that allocation on
///   resume (nothing outside the journal was made durable either).
///   With group commit (set_group_commit > 1) the commit point moves to
///   the batch flush: one write + fsync covers the whole batch, and a
///   crash loses at most the unflushed batch — which is then re-executed.
///   A flush that throws loses its batch the same way; it is never
///   written again.
/// * A crash mid-append leaves at most one torn (partial) final line.
///   replay() detects and drops it; open() truncates it away via an
///   atomic rewrite before appending resumes.
/// * A checkpoint record summarizes every allocation before it; replay
///   restores the newest checkpoint and only the alloc records after it,
///   making resume O(live tail), not O(campaign history).
/// * Compaction rewrites the file as header + compact marker + newest
///   checkpoint + tail, via the same tmp + rename as the header — a crash
///   mid-compaction leaves the previous journal intact.
///
/// The journal stores exactly what apply_report_to_tracker() consumes, so
/// replaying it rebuilds a RunTracker byte-identical to the tracker of an
/// uninterrupted run (enforced by tests/savanna/crash_resume_test).
class CampaignJournal {
 public:
  CampaignJournal() = default;
  ~CampaignJournal();

  CampaignJournal(CampaignJournal&& other) noexcept;
  CampaignJournal& operator=(CampaignJournal&& other) noexcept;
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  /// The run set as the header stores it at scale: size + streaming digest.
  struct RunSetSummary {
    size_t count = 0;
    std::string digest;  // RunSetDigest::hex() over the ids in order
  };

  /// Create a fresh journal at `path` (overwriting any existing file) with
  /// a schema-versioned header registering `run_ids` (inlined when small
  /// enough, always digested), and open it for appending. Emits
  /// `savanna.journal.open`.
  static CampaignJournal create(const std::string& path,
                                const std::string& campaign_name,
                                const std::vector<std::string>& run_ids);

  /// Same, but from a pre-computed summary — the million-run path, where
  /// the id list is streamed through RunSetDigest and never materialized.
  static CampaignJournal create(const std::string& path,
                                const std::string& campaign_name,
                                const RunSetSummary& run_set);

  /// What replay() recovered from a journal file.
  struct Replay {
    Json header;                    // null when the file is missing/empty
    Json checkpoint;                // newest "ckpt" record (null if none)
    std::vector<Json> allocations;  // committed "alloc" records *after* the
                                    // newest checkpoint, in order
    size_t next_index = 0;          // next allocation index to assign
    size_t records = 0;             // committed lines (header included)
    size_t compactions = 0;         // "compact" markers seen
    bool torn_tail = false;         // a partial final line was dropped
    size_t committed_bytes = 0;     // file offset after the last good line
    size_t checkpoint_offset = 0;   // file offset of the newest "ckpt" line
                                    // (0 when none: line 1 is the header)
    bool has_header() const { return header.is_object(); }
    bool has_checkpoint() const { return checkpoint.is_object(); }
  };

  /// Parse a journal file, tolerating a torn final line (dropped, flagged).
  /// A missing or empty file yields an empty Replay with no header — the
  /// caller treats that as "campaign never started". Throws ValidationError
  /// on an unknown schema version or a corrupt non-final line.
  static Replay replay(const std::string& path);

  /// Open an existing journal for appending. If `state.torn_tail`, the
  /// torn bytes are first truncated away (atomic rewrite of the committed
  /// prefix). `state` must come from replay() of the same path; the handle
  /// takes over its checkpoint offset for compact().
  static CampaignJournal open_for_append(const std::string& path,
                                         const Replay& state);

  /// Append one allocation record (adds "kind" and "index"). With group
  /// commit disabled (the default) the record is fsync'd before returning;
  /// otherwise it is buffered until the batch flushes. Returns the
  /// record's allocation index.
  size_t append_allocation(Json record);

  /// Append a checkpoint record carrying the tracker's started runs and
  /// the virtual clock. The line is rendered as text straight from the
  /// tracker (RunTracker::append_json), no Json value built. Flushes any
  /// buffered batch first, so the checkpoint always summarizes a durable
  /// prefix. Emits `savanna.journal.checkpoint`.
  void append_checkpoint(const RunTracker& tracker, double clock);
  /// The same record from a snapshot in the to_json_started() shape.
  void append_checkpoint(Json tracker_snapshot, double clock);

  /// Rewrite the journal as header + compact marker + newest checkpoint +
  /// subsequent records, dropping the alloc history the checkpoint already
  /// summarizes. The handle knows where its newest checkpoint line starts,
  /// so this copies bytes and parses nothing. Atomic (tmp + rename); a
  /// no-op when there is no checkpoint or nothing precedes it. Throws
  /// StateError when the remembered offset is not at a line start. Emits
  /// `savanna.journal.compact`.
  void compact();

  /// Batch size for group commit: 1 (default) fsyncs every record;
  /// n > 1 buffers up to n records and commits them with one write+fsync.
  void set_group_commit(size_t records);
  /// Durably commit any buffered records now. A throw loses the batch.
  void flush();

  bool is_open() const noexcept { return fd_ >= 0; }
  const std::string& path() const noexcept { return path_; }
  /// Index the next appended allocation record will get (== alloc records
  /// ever committed to this journal, across checkpoints and compactions).
  size_t next_allocation_index() const noexcept { return next_index_; }

  /// Flush any buffered records and close the handle. Throws (IoError) when
  /// the final flush cannot be made durable — an explicit close is the last
  /// chance to report that records were lost. The destructor and move
  /// assignment close quietly instead: a throw during unwind would be
  /// std::terminate, so they swallow the failure and record it in
  /// last_error().
  void close();

  /// The failure message swallowed by the most recent destructor/move-path
  /// close (or recorded by a throwing explicit close()); empty when every
  /// close completed cleanly.
  const std::string& last_error() const noexcept { return last_error_; }

  /// Test-only fault hook, called at phases of every durable write (the
  /// header counts as write #0, each append/checkpoint/compaction as the
  /// next). The crash/resume harness uses it to SIGKILL the process at
  /// fuzzer-chosen points, including mid-line to manufacture genuine torn
  /// writes.
  enum class WriteKind {
    Header,      // atomic header create
    Append,      // alloc record (or a group-commit batch of them)
    Checkpoint,  // ckpt record
    Compact,     // atomic whole-file compaction rewrite
  };
  enum class WritePhase {
    BeforeWrite,  // nothing of this record on disk yet
    MidWrite,     // a partial line is on disk (fsync'd) — a torn write
    AfterSync,    // the record is fully committed
  };
  using WriteHook =
      std::function<void(WriteKind kind, WritePhase phase, size_t write_index)>;
  static void set_test_write_hook(WriteHook hook);

 private:
  static CampaignJournal create_with_header(const std::string& path, Json header,
                                            size_t run_count);
  /// The one checkpoint line writer: flush the batch, frame the record
  /// around the tracker object `append_tracker` appends (it returns the
  /// runs it wrote), commit it and trace it.
  template <typename AppendTracker>
  void write_checkpoint(double clock, AppendTracker&& append_tracker);
  /// close() without the throw: swallow flush failures into last_error_.
  void close_noexcept() noexcept;
  /// Record the in-flight exception's message into last_error_.
  void record_close_error() noexcept;

  int fd_ = -1;
  std::string path_;
  size_t next_index_ = 0;   // next allocation record index
  size_t write_index_ = 0;  // durable writes issued through this handle
  size_t group_commit_ = 1;
  std::string buffered_;    // group-commit batch not yet durable
  size_t buffered_records_ = 0;
  size_t checkpoint_offset_ = 0;  // file offset of the newest ckpt line
                                  // (0: none yet)
  std::string last_error_;  // failure swallowed by a quiet close
};

}  // namespace ff::savanna
