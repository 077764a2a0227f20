#pragma once
// The one length-prefixed frame codec (DESIGN.md §18). The serve wire
// (serve/wire.hpp), the write-ahead journal (serve/journal.hpp) and the
// shard control channel (shard/frames.hpp) all speak it:
//
//   [u32 length][u32 crc][u8 type][payload ...]
//
// `length` counts the type byte plus the payload, little-endian; `crc` is
// CRC-32 over the same bytes. Each user supplies its own length cap and
// type predicate; parse() checks, in order: a complete 8-byte header, a
// length in [1, cap], a complete body, the CRC, then the type.

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fasda/util/crc32.hpp"

namespace fasda::util::frame {

inline constexpr std::size_t kHeaderBytes = 8;

enum class Status : std::uint8_t {
  kFrame,     ///< a complete frame was produced
  kNeedMore,  ///< the bytes end mid-frame; feed more
  kBadLength, ///< zero or over-cap length prefix
  kBadCrc,    ///< frame CRC mismatch
  kBadType,   ///< CRC-valid frame with an unknown type byte
};

inline const char* status_name(Status s) {
  switch (s) {
    case Status::kFrame: return "frame";
    case Status::kNeedMore: return "need-more";
    case Status::kBadLength: return "bad-length";
    case Status::kBadCrc: return "bad-crc";
    case Status::kBadType: return "bad-type";
  }
  return "unknown";
}

using TypePredicate = bool (*)(std::uint8_t);

/// Encodes one frame. Returns an empty vector (never a valid frame) when
/// the payload exceeds `cap - 1` bytes — checked before the u32 cast, so a
/// payload past 4 GiB cannot wrap the length. Callers throw their own
/// error type.
inline std::vector<std::uint8_t> encode(std::uint8_t type,
                                        std::string_view payload,
                                        std::uint32_t cap) {
  if (payload.size() > cap - 1) return {};
  Crc32 crc;
  crc.add_bytes(&type, 1);
  crc.add_bytes(payload.data(), payload.size());
  std::vector<std::uint8_t> buf;
  buf.reserve(kHeaderBytes + 1 + payload.size());
  for (const std::uint32_t v :
       {static_cast<std::uint32_t>(payload.size()) + 1, crc.value()}) {
    for (int i = 0; i < 4; ++i) {
      buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  buf.push_back(type);
  buf.insert(buf.end(), payload.begin(), payload.end());
  return buf;
}

/// What parse() found at the head of a byte range. `length` is set once
/// the header is complete; `type` and `payload` (length - 1 bytes) once
/// the whole frame is.
struct Parsed {
  Status status = Status::kNeedMore;
  std::uint32_t length = 0;
  std::uint8_t type = 0;
  const std::uint8_t* payload = nullptr;

  std::size_t frame_bytes() const { return kHeaderBytes + length; }
};

/// Reads one frame at the head of [data, data + n) without consuming it.
inline Parsed parse(const std::uint8_t* data, std::size_t n,
                    std::uint32_t cap, TypePredicate type_ok) {
  const auto u32_at = [data](std::size_t at) {
    return static_cast<std::uint32_t>(data[at]) |
           (static_cast<std::uint32_t>(data[at + 1]) << 8) |
           (static_cast<std::uint32_t>(data[at + 2]) << 16) |
           (static_cast<std::uint32_t>(data[at + 3]) << 24);
  };
  Parsed p;
  if (n < kHeaderBytes) return p;
  p.length = u32_at(0);
  if (p.length == 0 || p.length > cap) {
    p.status = Status::kBadLength;
  } else if (n >= p.frame_bytes()) {
    Crc32 crc;
    crc.add_bytes(data + kHeaderBytes, p.length);
    p.type = data[kHeaderBytes];
    p.payload = data + kHeaderBytes + 1;
    p.status = crc.value() != u32_at(4) ? Status::kBadCrc
               : !type_ok(p.type)       ? Status::kBadType
                                        : Status::kFrame;
  }
  return p;
}

/// Incremental decoder over a byte stream of any chunking; next() never
/// reads past what was fed. An error status poisons it for good: after a
/// bad length or CRC the frame boundary is unknowable, so
/// resynchronization is never attempted.
class Decoder {
 public:
  Decoder(std::uint32_t cap, TypePredicate type_ok)
      : cap_(cap), type_ok_(type_ok) {}

  void feed(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// At most one frame per call; on kFrame fills `type` and `payload`.
  Status next(std::uint8_t& type, std::string& payload) {
    if (poisoned_ != Status::kFrame) return poisoned_;
    const Parsed p =
        parse(buf_.data() + pos_, buf_.size() - pos_, cap_, type_ok_);
    if (p.status == Status::kFrame) {
      type = p.type;
      payload.assign(reinterpret_cast<const char*>(p.payload), p.length - 1);
      pos_ += p.frame_bytes();
    } else if (p.status != Status::kNeedMore) {
      return poisoned_ = p.status;
    }
    // Compact once the consumed prefix is everything or worth a memmove.
    if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 4096)) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
      pos_ = 0;
    }
    return p.status;
  }

  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::uint32_t cap_;
  TypePredicate type_ok_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  Status poisoned_ = Status::kFrame;
};

/// An owned stream-socket fd, closed on destruction; move-only. The shard
/// Channel and the serve Conn both derive from it.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { close(); }
  OwnedFd(OwnedFd&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  OwnedFd& operator=(OwnedFd&& o) noexcept {
    if (this != &o) {
      close();
      fd_ = std::exchange(o.fd_, -1);
    }
    return *this;
  }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close() {
    if (fd_ >= 0) ::close(std::exchange(fd_, -1));
  }

 private:
  int fd_ = -1;
};

/// Writes `n` bytes to a stream socket, retrying EINTR; MSG_NOSIGNAL turns
/// a vanished peer into EPIPE instead of SIGPIPE. Returns 0 or the failing
/// errno (EAGAIN/EWOULDBLOCK when SO_SNDTIMEO expired).
inline int send_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t sent = ::send(fd, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    p += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return 0;
}

}  // namespace fasda::util::frame
