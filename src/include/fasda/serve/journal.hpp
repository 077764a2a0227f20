#pragma once
// Write-ahead job journal for fasda_serve (DESIGN.md §16).
//
// An append-only file of records in the shared frame format
// (util/frame.hpp, DESIGN.md §18) with a 16 MiB cap and JSON payloads.
// The journal is the server's durability root: a job is acknowledged to a
// client only after its kAdmitted record is on disk, and a result is
// pushed only after its kCompleted record is on disk, so "acknowledged"
// always implies "recoverable".
//
// Recovery never trusts the file: scan_journal_bytes() parses records
// until the first damaged byte, salvages the valid prefix, and classifies
// the tail (clean / torn mid-record / corrupt) in a typed RecoveryReport —
// a torn final append from a crash is indistinguishable from power loss
// and both land in the same salvage path. open_appending() then truncates
// the file to the salvaged prefix (preserving the damaged tail in a
// `.quarantined` sidecar for post-mortems) and resumes appending.
// Compaction (rotate) rewrites the journal through the same tmp+rename
// path as md::save_checkpoint, so a crash mid-rotation leaves either the
// old complete journal or the new complete journal, never a mix.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace fasda::serve {

/// Journal record types. The numeric values are the on-disk format;
/// renumbering breaks every existing state directory.
enum class JournalRecord : std::uint8_t {
  kAdmitted = 1,   ///< {"job","request":{...}} — written (and fsynced)
                   ///< BEFORE the client sees kAccepted. The request JSON
                   ///< is complete (tenant, idempotency, workload):
                   ///< recovery re-runs the job from this record alone.
  kStarted,        ///< {"job"} — a queue worker picked the job up.
  kCheckpoint,     ///< {"job","replica","step"} — the supervisor banked a
                   ///< checkpoint; the step-stamped state file is already
                   ///< durable (supervisor saves before observers fire).
  kCompleted,      ///< {"job","tenant","idempotency","result":{...}} —
                   ///< written BEFORE the kResult push. Self-sufficient
                   ///< so compaction can keep lone kCompleted records.
  kRejected,       ///< {"job"} — admission failed after the kAdmitted
                   ///< record (queue raced to capacity); the job is dead.
  kCleanShutdown,  ///< {} — drain finished with an idle queue; the next
                   ///< startup has no lost jobs to re-admit.
};

inline bool journal_record_known(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(JournalRecord::kAdmitted) &&
         t <= static_cast<std::uint8_t>(JournalRecord::kCleanShutdown);
}

inline const char* journal_record_name(JournalRecord t) {
  switch (t) {
    case JournalRecord::kAdmitted: return "admitted";
    case JournalRecord::kStarted: return "started";
    case JournalRecord::kCheckpoint: return "checkpoint";
    case JournalRecord::kCompleted: return "completed";
    case JournalRecord::kRejected: return "rejected";
    case JournalRecord::kCleanShutdown: return "clean-shutdown";
  }
  return "unknown";
}

/// Same cap as the wire protocol: a journal record carries at most one
/// JobResult, which admission caps keep in the low megabytes.
inline constexpr std::uint32_t kMaxJournalRecordBytes = 1u << 24;

/// When appends reach the disk. The exactly-once guarantee is stated per
/// policy in DESIGN.md §16: kAlways survives power loss, kNever survives
/// process death (SIGKILL) but not a machine crash.
enum class JournalFsync : std::uint8_t {
  kAlways,  ///< fsync after every append (default; the guarantee).
  kNever,   ///< rely on the page cache; fast, survives SIGKILL only.
};

/// I/O failure on the journal file itself (open/write/fsync/rename).
/// Record damage is NOT an exception — it comes back typed in a
/// RecoveryReport so startup can salvage instead of refusing to boot.
class JournalError : public std::runtime_error {
 public:
  explicit JournalError(const std::string& what)
      : std::runtime_error("journal: " + what) {}
};

struct JournalEntry {
  JournalRecord type = JournalRecord::kAdmitted;
  std::string payload;
};

/// What the scan found past the last valid record.
enum class JournalTail : std::uint8_t {
  kClean,    ///< the file ends exactly on a record boundary
  kTorn,     ///< bytes end mid-record — the classic crashed-append tail
  kCorrupt,  ///< CRC mismatch, bad length, or unknown type in the tail
};

inline const char* journal_tail_name(JournalTail t) {
  switch (t) {
    case JournalTail::kClean: return "clean";
    case JournalTail::kTorn: return "torn";
    case JournalTail::kCorrupt: return "corrupt";
  }
  return "unknown";
}

/// Typed result of scanning a journal: the salvaged record prefix plus a
/// classification of whatever follows it. Never throws, never crashes,
/// never silently drops a valid prefix record — fuzzed in
/// tests/serve_durability_test.cpp (JournalFuzz).
struct RecoveryReport {
  std::vector<JournalEntry> entries;  ///< valid prefix, in append order
  std::size_t salvaged_bytes = 0;     ///< prefix length; truncate-to point
  std::size_t quarantined_bytes = 0;  ///< damaged tail length
  JournalTail tail = JournalTail::kClean;
  bool clean_shutdown = false;  ///< last salvaged record is kCleanShutdown
  std::string issue;            ///< human-readable tail diagnosis
};

/// Encodes one record in the on-disk framing (exposed for fuzzing).
std::vector<std::uint8_t> encode_journal_record(JournalRecord type,
                                                std::string_view payload);

/// Walks `n` bytes of journal, salvaging the valid record prefix.
RecoveryReport scan_journal_bytes(const std::uint8_t* data, std::size_t n);

/// The append handle. Move-only; owns the fd.
class Journal {
 public:
  Journal() = default;
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  Journal(Journal&& o) noexcept;
  Journal& operator=(Journal&& o) noexcept;

  /// Reads and scans `path`. A missing file is an empty clean report (a
  /// fresh state directory); a read failure throws JournalError.
  static RecoveryReport recover(const std::string& path);

  /// Truncates `path` to the salvaged prefix (writing any damaged tail to
  /// `path + ".quarantined"` first) and opens it for appending.
  void open_appending(const std::string& path, const RecoveryReport& report,
                      JournalFsync fsync_policy);

  /// Appends one record, fsyncing per policy. Throws JournalError on I/O
  /// failure — the server demotes that to journal-disabled rather than
  /// killing in-flight jobs.
  void append(JournalRecord type, std::string_view payload);

  /// Wall-clock latency observer for the second observability plane
  /// (DESIGN.md §17): called after every successful append with the whole
  /// call's duration and the fsync's share of it, both in microseconds
  /// (fsync_us is 0 under JournalFsync::kNever). Runs on the appending
  /// thread under journal locking — keep it cheap and non-throwing.
  using AppendObserver = std::function<void(std::uint64_t append_us,
                                            std::uint64_t fsync_us)>;
  void set_append_observer(AppendObserver observer) {
    observer_ = std::move(observer);
  }

  /// Atomically replaces the journal with `compacted` (tmp + fsync +
  /// rename + directory fsync) and keeps appending to the new file.
  void rotate(const std::vector<JournalEntry>& compacted);

  void close();
  bool is_open() const { return fd_ >= 0; }
  std::size_t bytes() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  void write_file_all(int fd, const void* data, std::size_t size);
  void fsync_parent_dir();

  int fd_ = -1;
  std::string path_;
  std::size_t bytes_ = 0;
  JournalFsync fsync_policy_ = JournalFsync::kAlways;
  AppendObserver observer_;
};

}  // namespace fasda::serve
