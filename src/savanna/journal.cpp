#include "savanna/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"
#include "savanna/tracker.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace ff::savanna {

namespace {

CampaignJournal::WriteHook g_write_hook;

/// Line 2 of a compacted journal.
constexpr std::string_view kCompactMarker = "{\"kind\":\"compact\"}\n";

void run_hook(CampaignJournal::WriteKind kind, CampaignJournal::WritePhase phase,
              size_t write_index) {
  if (g_write_hook) g_write_hook(kind, phase, write_index);
}

/// Append `data` (newlines included) to `fd` and fsync. With a test hook
/// installed the data is committed in two halves with an fsync between, so
/// a hook that kills the process at MidWrite leaves a genuine torn write
/// on disk; without a hook it is a single write + fsync.
void durable_append(int fd, const std::string& data, const std::string& path,
                    CampaignJournal::WriteKind kind, size_t write_index) {
  run_hook(kind, CampaignJournal::WritePhase::BeforeWrite, write_index);
  const size_t half = g_write_hook ? data.size() / 2 : data.size();
  auto write_range = [&](size_t begin, size_t end) {
    size_t at = begin;
    while (at < end) {
      const ssize_t n = ::write(fd, data.data() + at, end - at);
      if (n < 0) throw IoError("journal append failed: " + path);
      at += static_cast<size_t>(n);
    }
  };
  write_range(0, half);
  if (g_write_hook) {
    ::fsync(fd);
    run_hook(kind, CampaignJournal::WritePhase::MidWrite, write_index);
    write_range(half, data.size());
  }
  if (::fsync(fd) != 0) throw IoError("journal fsync failed: " + path);
  run_hook(kind, CampaignJournal::WritePhase::AfterSync, write_index);
}

}  // namespace

const std::vector<JournalRecordInfo>& journal_record_registry() {
  static const std::vector<JournalRecordInfo> kRecords = {
      {"header", "header",
       "file birth certificate: schema version, campaign name, run-set "
       "count/digest (ids inlined when small); always line 1, written via "
       "atomic tmp+rename"},
      {"compact", "compaction marker",
       "records that alloc history before the following checkpoint was "
       "folded away by compaction; only ever line 2"},
      {"alloc", "allocation",
       "one completed batch-job allocation: index, virtual start/end, and "
       "the per-run outcomes resume replays through the tracker"},
      {"ckpt", "checkpoint",
       "summary of every allocation before it: next alloc index, virtual "
       "clock, and the started-run tracker snapshot; replay restores the "
       "newest one and only the alloc records after it"},
  };
  return kRecords;
}

const JournalRecordInfo* find_journal_record(std::string_view kind) {
  for (const JournalRecordInfo& info : journal_record_registry()) {
    if (info.kind == kind) return &info;
  }
  return nullptr;
}

void CampaignJournal::set_test_write_hook(WriteHook hook) {
  g_write_hook = std::move(hook);
}

CampaignJournal::~CampaignJournal() { close_noexcept(); }

CampaignJournal::CampaignJournal(CampaignJournal&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      next_index_(other.next_index_),
      write_index_(other.write_index_),
      group_commit_(other.group_commit_),
      buffered_(std::move(other.buffered_)),
      buffered_records_(std::exchange(other.buffered_records_, 0)),
      checkpoint_offset_(std::exchange(other.checkpoint_offset_, 0)),
      last_error_(std::move(other.last_error_)) {}

CampaignJournal& CampaignJournal::operator=(CampaignJournal&& other) noexcept {
  if (this != &other) {
    close_noexcept();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    next_index_ = other.next_index_;
    write_index_ = other.write_index_;
    group_commit_ = other.group_commit_;
    buffered_ = std::move(other.buffered_);
    buffered_records_ = std::exchange(other.buffered_records_, 0);
    checkpoint_offset_ = std::exchange(other.checkpoint_offset_, 0);
    last_error_ = std::move(other.last_error_);
  }
  return *this;
}

void CampaignJournal::close() {
  if (fd_ < 0) return;
  try {
    flush();
  } catch (...) {
    // The handle is closed either way — a journal that failed its final
    // flush must not be appended to again — but the explicit close()
    // surfaces the failure to the caller, who can still react.
    ::close(fd_);
    fd_ = -1;
    record_close_error();
    throw;
  }
  ::close(fd_);
  fd_ = -1;
}

void CampaignJournal::close_noexcept() noexcept {
  if (fd_ < 0) return;
  try {
    flush();
  } catch (...) {
    // Destructor/move path: a throw during unwind would be std::terminate,
    // so swallow and record — last_error() surfaces what was lost.
    record_close_error();
  }
  ::close(fd_);
  fd_ = -1;
}

void CampaignJournal::record_close_error() noexcept {
  try {
    try {
      throw;  // rethrow the in-flight exception to classify it
    } catch (const std::exception& error) {
      last_error_ = error.what();
    } catch (...) {
      last_error_ = "unknown error while flushing journal " + path_;
    }
  } catch (...) {
    // Even building the message can throw (bad_alloc); stay noexcept.
  }
}

CampaignJournal CampaignJournal::create_with_header(const std::string& path,
                                                    Json header,
                                                    size_t run_count) {
  // The header is the file's birth certificate: tmp + rename makes its
  // creation atomic, so a journal on disk always has a complete header.
  // The hook phases mirror durable_append's so the fault harness can kill
  // journal creation too (MidWrite = tmp written, rename not reached):
  // indistinguishable from BeforeWrite for readers, since they never look
  // at tmp files — exactly the point of the atomic create.
  run_hook(WriteKind::Header, WritePhase::BeforeWrite, 0);
  run_hook(WriteKind::Header, WritePhase::MidWrite, 0);
  write_file_atomic(path, header.dump() + "\n");
  run_hook(WriteKind::Header, WritePhase::AfterSync, 0);

  CampaignJournal journal;
  journal.path_ = path;
  journal.next_index_ = 0;
  journal.write_index_ = 1;
  journal.fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (journal.fd_ < 0) throw IoError("cannot open journal for append: " + path);
  obs::trace_instant("savanna", "savanna.journal.open",
                     {{"runs", run_count}, {"schema", kJournalSchemaVersion}});
  return journal;
}

CampaignJournal CampaignJournal::create(
    const std::string& path, const std::string& campaign_name,
    const std::vector<std::string>& run_ids) {
  RunSetDigest digest;
  for (const std::string& id : run_ids) digest.add(id);

  Json header = Json::object();
  header["kind"] = "header";
  header["schema"] = kJournalSchemaVersion;
  header["campaign"] = campaign_name;
  header["run_count"] = static_cast<int64_t>(run_ids.size());
  header["runs_digest"] = digest.hex();
  if (run_ids.size() <= kInlineRunListMax) {
    Json runs = Json::array();
    for (const std::string& id : run_ids) runs.push_back(id);
    header["runs"] = std::move(runs);
  }
  return create_with_header(path, std::move(header), run_ids.size());
}

CampaignJournal CampaignJournal::create(const std::string& path,
                                        const std::string& campaign_name,
                                        const RunSetSummary& run_set) {
  Json header = Json::object();
  header["kind"] = "header";
  header["schema"] = kJournalSchemaVersion;
  header["campaign"] = campaign_name;
  header["run_count"] = static_cast<int64_t>(run_set.count);
  header["runs_digest"] = run_set.digest;
  return create_with_header(path, std::move(header), run_set.count);
}

CampaignJournal::Replay CampaignJournal::replay(const std::string& path) {
  Replay out;
  std::string text;
  try {
    text = read_file(path);
  } catch (const IoError&) {
    return out;  // no journal — campaign never started
  }

  size_t pos = 0;
  size_t line_number = 0;
  while (pos < text.size()) {
    const size_t newline = text.find('\n', pos);
    const bool unterminated = newline == std::string::npos;
    const std::string line =
        text.substr(pos, unterminated ? std::string::npos : newline - pos);
    const size_t line_end = unterminated ? text.size() : newline + 1;
    ++line_number;

    Json record;
    bool parsed = false;
    if (!line.empty()) {
      try {
        record = Json::parse(line);
        parsed = record.is_object();
      } catch (const std::exception&) {
        parsed = false;
      }
    }

    if (!parsed || unterminated) {
      // A bad *final* line is a torn write from a crash mid-append — drop
      // it. A bad line with committed records after it means the file was
      // corrupted some other way; refuse to guess.
      if (line_end >= text.size()) {
        out.torn_tail = true;
        break;
      }
      throw ValidationError("journal " + path + ": corrupt line " +
                            std::to_string(line_number));
    }

    const std::string kind = record.get_or("kind", "");
    if (line_number == 1) {
      if (kind != "header") {
        throw ValidationError("journal " + path + ": missing header record");
      }
      const int64_t schema = record.get_or("schema", int64_t{-1});
      if (schema != kJournalSchemaVersion) {
        throw ValidationError("journal " + path + ": unknown schema version " +
                              std::to_string(schema) + " (this build reads " +
                              std::to_string(kJournalSchemaVersion) + ")");
      }
      out.header = std::move(record);
    } else if (kind == "alloc") {
      out.next_index =
          static_cast<size_t>(record.get_or("index", int64_t{0})) + 1;
      out.allocations.push_back(std::move(record));
    } else if (kind == "ckpt") {
      // The checkpoint summarizes everything before it: replay keeps only
      // the newest one plus the alloc tail after it — O(live), not
      // O(history).
      out.next_index =
          static_cast<size_t>(record.get_or("next_index", int64_t{0}));
      out.allocations.clear();
      out.checkpoint = std::move(record);
      out.checkpoint_offset = pos;
    } else if (kind == "compact") {
      ++out.compactions;
    }
    // Unknown record kinds after the header are skipped (forward compat
    // within one schema version).

    ++out.records;
    out.committed_bytes = line_end;
    pos = line_end;
  }

  if (obs::tracing_enabled()) {
    obs::trace_instant("savanna", "savanna.journal.replay",
                       {{"entries", out.allocations.size()},
                        {"torn", out.torn_tail}});
  }
  return out;
}

CampaignJournal CampaignJournal::open_for_append(const std::string& path,
                                                 const Replay& state) {
  if (!state.has_header()) {
    throw StateError("journal " + path + ": cannot append without a header");
  }
  if (state.torn_tail) {
    // Atomically rewrite the committed prefix so the torn bytes can never
    // be misread as the start of the next record.
    const std::string text = read_file(path);
    write_file_atomic(path, text.substr(0, state.committed_bytes));
  }
  CampaignJournal journal;
  journal.path_ = path;
  journal.next_index_ = state.next_index;
  journal.write_index_ = state.records;
  journal.checkpoint_offset_ = state.checkpoint_offset;
  journal.fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (journal.fd_ < 0) throw IoError("cannot open journal for append: " + path);
  return journal;
}

void CampaignJournal::set_group_commit(size_t records) {
  if (records == 0) records = 1;
  if (records < group_commit_) flush();
  group_commit_ = records;
}

void CampaignJournal::flush() {
  if (buffered_.empty()) return;
  if (fd_ < 0) throw StateError("journal is not open for append");
  try {
    durable_append(fd_, buffered_, path_, WriteKind::Append, write_index_);
  } catch (...) {
    // A failed write loses its batch, as a failed unbatched append loses
    // its record: writing it again on close could put a second copy behind
    // a partial first one. Resume re-executes what was lost.
    buffered_.clear();
    buffered_records_ = 0;
    throw;
  }
  ++write_index_;
  buffered_.clear();
  buffered_records_ = 0;
}

size_t CampaignJournal::append_allocation(Json record) {
  if (fd_ < 0) throw StateError("journal is not open for append");
  const size_t index = next_index_;
  record["kind"] = "alloc";
  record["index"] = index;
  const std::string line = record.dump() + "\n";
  if (group_commit_ > 1) {
    buffered_ += line;
    ++buffered_records_;
    if (buffered_records_ >= group_commit_) flush();
  } else {
    durable_append(fd_, line, path_, WriteKind::Append, write_index_);
    ++write_index_;
  }
  ++next_index_;
  if (obs::tracing_enabled()) {
    const size_t done =
        record.contains("completed") ? record["completed"].size() : 0;
    obs::trace_instant(
        "savanna", "savanna.journal.commit",
        {{"alloc", index}, {"done", done}, {"bytes", line.size()}});
  }
  return index;
}

template <typename AppendTracker>
void CampaignJournal::write_checkpoint(double clock,
                                       AppendTracker&& append_tracker) {
  if (fd_ < 0) throw StateError("journal is not open for append");
  flush();  // a checkpoint must summarize a durable prefix
  const off_t offset = ::lseek(fd_, 0, SEEK_END);
  if (offset < 0) throw IoError("cannot size journal: " + path_);
  // The record's keys in Json's sorted order: clock, kind, next_index,
  // tracker.
  std::string line = "{\"clock\":";
  append_double(line, clock);
  line += ",\"kind\":\"ckpt\",\"next_index\":";
  line += std::to_string(next_index_);
  line += ",\"tracker\":";
  const size_t runs = append_tracker(line);
  line += "}\n";
  durable_append(fd_, line, path_, WriteKind::Checkpoint, write_index_);
  ++write_index_;
  checkpoint_offset_ = static_cast<size_t>(offset);
  if (obs::tracing_enabled()) {
    obs::trace_instant("savanna", "savanna.journal.checkpoint",
                       {{"alloc", next_index_},
                        {"runs", runs},
                        {"bytes", line.size()}});
  }
}

void CampaignJournal::append_checkpoint(const RunTracker& tracker, double clock) {
  write_checkpoint(clock, [&tracker](std::string& line) {
    return tracker.append_json(line, RunTracker::Export::Started);
  });
}

void CampaignJournal::append_checkpoint(Json tracker_snapshot, double clock) {
  write_checkpoint(clock, [&tracker_snapshot](std::string& line) {
    line += tracker_snapshot.dump();
    return tracker_snapshot.size();
  });
}

void CampaignJournal::compact() {
  if (fd_ < 0) throw StateError("journal is not open for append");
  flush();
  if (checkpoint_offset_ == 0) return;  // nothing a checkpoint summarizes
  const std::string text = read_file(path_);

  // The file always ends with '\n' here: every append path writes whole
  // lines and any torn tail was truncated at open. So the bytes from the
  // newest checkpoint's line start on are exactly the lines to keep.
  const size_t header_end = text.find('\n') + 1;  // 0 when there is no '\n'
  if (header_end == 0 || checkpoint_offset_ < header_end ||
      checkpoint_offset_ >= text.size() || text[checkpoint_offset_ - 1] != '\n') {
    throw StateError("journal " + path_ + ": checkpoint offset " +
                     std::to_string(checkpoint_offset_) +
                     " is not at a line start");
  }
  const size_t compact_end = header_end + kCompactMarker.size();
  if (checkpoint_offset_ == compact_end &&
      text.compare(header_end, kCompactMarker.size(), kCompactMarker) == 0) {
    return;  // already compact — keep compact() idempotent
  }
  // Records between the header and the checkpoint, one line each.
  const auto dropped = static_cast<size_t>(
      std::count(text.begin() + static_cast<std::ptrdiff_t>(header_end),
                 text.begin() + static_cast<std::ptrdiff_t>(checkpoint_offset_),
                 '\n'));
  std::string compacted;
  compacted.reserve(compact_end + text.size() - checkpoint_offset_);
  compacted.append(text, 0, header_end);
  compacted += kCompactMarker;
  compacted.append(text, checkpoint_offset_);

  // Same atomicity as the header: the old journal stays intact until the
  // rename, so a crash mid-compaction loses nothing.
  run_hook(WriteKind::Compact, WritePhase::BeforeWrite, write_index_);
  run_hook(WriteKind::Compact, WritePhase::MidWrite, write_index_);
  ::close(fd_);
  fd_ = -1;
  write_file_atomic(path_, compacted);
  checkpoint_offset_ = compact_end;
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) throw IoError("cannot reopen journal after compaction: " + path_);
  run_hook(WriteKind::Compact, WritePhase::AfterSync, write_index_);
  ++write_index_;
  if (obs::tracing_enabled()) {
    obs::trace_instant("savanna", "savanna.journal.compact",
                       {{"dropped", dropped},
                        {"bytes_before", text.size()},
                        {"bytes_after", compacted.size()}});
  }
}

}  // namespace ff::savanna
