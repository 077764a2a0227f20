// Write-ahead job journal (serve/journal.hpp): framing, salvage-scan
// recovery, fsync-gated appends, and tmp+rename compaction.

#include "fasda/serve/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "fasda/obs/server_stats.hpp"
#include "fasda/util/frame.hpp"

namespace fasda::serve {

namespace {

std::string errno_str(const char* op) {
  return std::string(op) + " failed: " + std::strerror(errno);
}

}  // namespace

std::vector<std::uint8_t> encode_journal_record(JournalRecord type,
                                                std::string_view payload) {
  std::vector<std::uint8_t> buf = util::frame::encode(
      static_cast<std::uint8_t>(type), payload, kMaxJournalRecordBytes);
  if (buf.empty()) {
    throw JournalError("record payload of " + std::to_string(payload.size()) +
                       " bytes exceeds the " +
                       std::to_string(kMaxJournalRecordBytes) +
                       "-byte record cap");
  }
  return buf;
}

RecoveryReport scan_journal_bytes(const std::uint8_t* data, std::size_t n) {
  using util::frame::Status;
  RecoveryReport report;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t remaining = n - pos;
    const util::frame::Parsed p = util::frame::parse(
        data + pos, remaining, kMaxJournalRecordBytes, journal_record_known);
    if (p.status == Status::kFrame) {
      report.entries.push_back(
          {static_cast<JournalRecord>(p.type),
           std::string(reinterpret_cast<const char*>(p.payload),
                       p.length - 1)});
      pos += p.frame_bytes();
      continue;
    }
    // Running out of bytes mid-record is a torn tail (exactly on a record
    // boundary, a clean one); any damaged record is a corrupt one.
    if (p.status == Status::kNeedMore) {
      if (remaining == 0) break;
      report.tail = JournalTail::kTorn;
      report.issue =
          remaining < util::frame::kHeaderBytes
              ? "file ends inside a record header (" +
                    std::to_string(remaining) + " of 8 header bytes)"
              : "file ends inside a record body (" +
                    std::to_string(remaining - 8) + " of " +
                    std::to_string(p.length) + " body bytes)";
    } else {
      report.tail = JournalTail::kCorrupt;
      switch (p.status) {
        case Status::kBadLength:
          report.issue = "record length " + std::to_string(p.length) +
                         " is out of range";
          break;
        case Status::kBadCrc: report.issue = "record CRC mismatch"; break;
        default: report.issue = "unknown record type " + std::to_string(p.type);
      }
    }
    break;
  }
  report.salvaged_bytes = pos;
  report.quarantined_bytes = n - pos;
  report.clean_shutdown =
      report.tail == JournalTail::kClean && !report.entries.empty() &&
      report.entries.back().type == JournalRecord::kCleanShutdown;
  return report;
}

Journal::~Journal() { close(); }

Journal::Journal(Journal&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)),
      path_(std::move(o.path_)),
      bytes_(std::exchange(o.bytes_, 0)),
      fsync_policy_(o.fsync_policy_),
      observer_(std::move(o.observer_)) {}

Journal& Journal::operator=(Journal&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = std::exchange(o.fd_, -1);
    path_ = std::move(o.path_);
    bytes_ = std::exchange(o.bytes_, 0);
    fsync_policy_ = o.fsync_policy_;
    observer_ = std::move(o.observer_);
  }
  return *this;
}

void Journal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

RecoveryReport Journal::recover(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return RecoveryReport{};  // fresh state directory
    throw JournalError("open " + path + ": " + std::strerror(errno));
  }
  std::vector<std::uint8_t> data;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw JournalError("read " + path + ": " + std::strerror(err));
    }
    if (n == 0) break;
    data.insert(data.end(), chunk, chunk + n);
  }
  ::close(fd);
  return scan_journal_bytes(data.data(), data.size());
}

void Journal::open_appending(const std::string& path,
                             const RecoveryReport& report,
                             JournalFsync fsync_policy) {
  close();
  path_ = path;
  fsync_policy_ = fsync_policy;
  if (report.quarantined_bytes > 0) {
    // Preserve the damaged tail for post-mortems before truncating it away.
    const int src = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (src >= 0) {
      std::vector<std::uint8_t> tail(report.quarantined_bytes);
      const ssize_t n =
          ::pread(src, tail.data(), tail.size(),
                  static_cast<off_t>(report.salvaged_bytes));
      ::close(src);
      if (n > 0) {
        const std::string qpath = path + ".quarantined";
        const int qfd = ::open(qpath.c_str(),
                               O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
        if (qfd >= 0) {
          write_file_all(qfd, tail.data(), static_cast<std::size_t>(n));
          ::fsync(qfd);
          ::close(qfd);
        }
      }
    }
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw JournalError("open " + path + ": " + std::strerror(errno));
  }
  if (::ftruncate(fd_, static_cast<off_t>(report.salvaged_bytes)) != 0) {
    const int err = errno;
    close();
    throw JournalError("truncate " + path + ": " + std::strerror(err));
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    const int err = errno;
    close();
    throw JournalError("seek " + path + ": " + std::strerror(err));
  }
  if (fsync_policy_ == JournalFsync::kAlways) ::fsync(fd_);
  bytes_ = report.salvaged_bytes;
}

void Journal::append(JournalRecord type, std::string_view payload) {
  if (fd_ < 0) throw JournalError("append on a closed journal");
  const std::uint64_t t0 = observer_ ? obs::wall_micros() : 0;
  const std::vector<std::uint8_t> buf = encode_journal_record(type, payload);
  write_file_all(fd_, buf.data(), buf.size());
  std::uint64_t fsync_us = 0;
  if (fsync_policy_ == JournalFsync::kAlways) {
    const std::uint64_t f0 = observer_ ? obs::wall_micros() : 0;
    if (::fsync(fd_) != 0) throw JournalError(errno_str("fsync"));
    if (observer_) fsync_us = obs::wall_micros() - f0;
  }
  bytes_ += buf.size();
  if (observer_) observer_(obs::wall_micros() - t0, fsync_us);
}

void Journal::rotate(const std::vector<JournalEntry>& compacted) {
  if (fd_ < 0) throw JournalError("rotate on a closed journal");
  const std::string tmp = path_ + ".tmp";
  const int tfd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tfd < 0) {
    throw JournalError("open " + tmp + ": " + std::strerror(errno));
  }
  std::size_t total = 0;
  try {
    for (const JournalEntry& e : compacted) {
      const std::vector<std::uint8_t> buf =
          encode_journal_record(e.type, e.payload);
      write_file_all(tfd, buf.data(), buf.size());
      total += buf.size();
    }
  } catch (...) {
    ::close(tfd);
    ::unlink(tmp.c_str());
    throw;
  }
  if (::fsync(tfd) != 0) {
    const int err = errno;
    ::close(tfd);
    ::unlink(tmp.c_str());
    throw JournalError("fsync " + tmp + ": " + std::strerror(err));
  }
  ::close(tfd);
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw JournalError("rename " + tmp + ": " + std::strerror(err));
  }
  fsync_parent_dir();
  // The old fd now points at an unlinked inode; reopen the new file.
  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) {
    throw JournalError("reopen " + path_ + ": " + std::strerror(errno));
  }
  bytes_ = total;
}

void Journal::write_file_all(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw JournalError(errno_str("write"));
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

void Journal::fsync_parent_dir() {
  const std::size_t slash = path_.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path_.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace fasda::serve
