#pragma once
// Client-facing framing for fasda_serve (DESIGN.md §15).
//
// A serve connection speaks the shared frame codec (util/frame.hpp; format,
// check order and poison rule in DESIGN.md §18) with a 16 MiB cap and JSON
// payloads (serve/json.hpp). The protocol crosses trust boundaries (any
// process may dial the socket), so a bad length/CRC/type is a typed
// DecodeStatus the server answers with a kError frame before closing, and
// the incremental FrameDecoder consumes byte streams of any chunking
// without ever reading past what arrived (fuzzed in tests/serve_test.cpp).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fasda/util/frame.hpp"

namespace fasda::serve {

/// Frame types. Client-to-server requests first, server-to-client replies
/// second; kStatus and kResult are also pushed unsolicited to the
/// connection that submitted the job.
enum class MsgType : std::uint8_t {
  kSubmit = 1,  ///< client→server: JobRequest JSON
  kQuery,       ///< client→server: {"job": id}
  kPing,        ///< client→server: liveness + server health probe
  kStats,       ///< both ways: request {"format":"json"|"prometheus"};
                ///< the reply frame reuses the type, its payload is the
                ///< wall-clock stats body in the requested format
  kAccepted = 64,  ///< server→client: {"job": id} — admitted to the queue
  kRejected,       ///< server→client: {"reason": ..., "detail": ...}
  kStatus,         ///< server→client: job state + metrics snapshot
  kResult,         ///< server→client: JobResult JSON
  kPong,           ///< server→client: server metrics snapshot
  kError,          ///< server→client: protocol violation; connection closes
  kRecovering,     ///< server→client: journal replay in progress; retry
};

inline bool msg_type_known(std::uint8_t t) {
  return (t >= static_cast<std::uint8_t>(MsgType::kSubmit) &&
          t <= static_cast<std::uint8_t>(MsgType::kStats)) ||
         (t >= static_cast<std::uint8_t>(MsgType::kAccepted) &&
          t <= static_cast<std::uint8_t>(MsgType::kRecovering));
}

/// Hard cap on one frame (type byte + payload). A JobRequest is a few
/// hundred bytes and a full-state JobResult for served workloads stays in
/// the low megabytes; anything bigger is a desynchronized or hostile
/// stream.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 24;

struct WireFrame {
  MsgType type = MsgType::kError;
  std::string payload;
};

using DecodeStatus = util::frame::Status;

inline const char* decode_status_name(DecodeStatus s) {
  return util::frame::status_name(s);
}

/// Socket-level failure: peer closed, syscall error, send/recv timeout.
/// Protocol violations are NOT exceptions — they come back as DecodeStatus
/// so the server can answer with a typed kError frame before closing.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what)
      : std::runtime_error("serve: " + what) {}
};

inline std::vector<std::uint8_t> encode_frame(MsgType type,
                                              std::string_view payload) {
  // Enforce the cap on the sending side too: an oversized payload must
  // fail loudly here, not poison the peer's decoder with kBadLength.
  // Admission caps (job.hpp) keep legitimate results under this.
  std::vector<std::uint8_t> buf = util::frame::encode(
      static_cast<std::uint8_t>(type), payload, kMaxFrameBytes);
  if (buf.empty()) {
    throw WireError("frame payload of " + std::to_string(payload.size()) +
                    " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
                    "-byte frame cap");
  }
  return buf;
}

/// Incremental frame extractor over the shared decoder: feed() appends
/// arriving bytes; next() produces at most one frame per call. An error
/// status poisons the stream (the caller must close the connection).
class FrameDecoder {
 public:
  void feed(const void* data, std::size_t n) { decoder_.feed(data, n); }

  DecodeStatus next(WireFrame& out) {
    std::uint8_t type = 0;
    const DecodeStatus st = decoder_.next(type, out.payload);
    if (st == DecodeStatus::kFrame) out.type = static_cast<MsgType>(type);
    return st;
  }

  std::size_t buffered() const { return decoder_.buffered(); }

 private:
  util::frame::Decoder decoder_{kMaxFrameBytes, msg_type_known};
};

/// One serve connection. Owns the fd; move-only. send() writes whole
/// frames; recv() blocks until one frame (or a protocol error) is
/// available. Both ends use this class — the framing is symmetric.
class Conn : public util::frame::OwnedFd {
 public:
  using OwnedFd::OwnedFd;

  /// Unblocks a recv() stuck in another thread; the fd stays owned.
  void shutdown_both() {
    if (valid()) ::shutdown(fd(), SHUT_RDWR);
  }

  void set_recv_timeout(int seconds) {
    if (!valid()) return;
    timeval tv{};
    tv.tv_sec = seconds;
    ::setsockopt(fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }

  /// Bounds every blocking send: a peer that stops reading makes send()
  /// throw WireError after `seconds` instead of holding the sending thread
  /// (a queue worker, on the server) forever once its TCP buffer fills.
  void set_send_timeout(int seconds) {
    if (!valid()) return;
    timeval tv{};
    tv.tv_sec = seconds;
    ::setsockopt(fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }

  void send(MsgType type, std::string_view payload) {
    const std::vector<std::uint8_t> buf = encode_frame(type, payload);
    write_all(buf.data(), buf.size());
  }

  /// Raw bytes, bypassing the framer — fault-battery tests use this to
  /// deliver deliberately damaged frames.
  void send_raw(const void* data, std::size_t n) { write_all(data, n); }

  /// Returns kFrame with `out` filled, or the typed protocol error. Throws
  /// WireError on EOF/syscall failure/timeout.
  DecodeStatus recv(WireFrame& out) {
    for (;;) {
      const DecodeStatus st = decoder_.next(out);
      if (st != DecodeStatus::kNeedMore) return st;
      std::uint8_t chunk[4096];
      const ssize_t n = ::recv(fd(), chunk, sizeof chunk, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          throw WireError("recv timed out");
        }
        throw WireError(std::string("recv failed: ") + std::strerror(errno));
      }
      if (n == 0) throw WireError("peer closed the connection");
      decoder_.feed(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  void write_all(const void* data, std::size_t size) {
    if (!valid()) throw WireError("send on closed connection");
    const int err = util::frame::send_all(fd(), data, size);
    // SO_SNDTIMEO expired: the peer stopped reading. The frame may be
    // half-written, so the stream is dead either way.
    if (err == EAGAIN || err == EWOULDBLOCK) throw WireError("send timed out");
    if (err != 0) {
      throw WireError(std::string("send failed: ") + std::strerror(err));
    }
  }

  FrameDecoder decoder_;
};

/// Non-throwing connect: returns an invalid Conn with `err_out` set to the
/// failing errno (0 for a non-errno failure like a bad address). The retry
/// layer in serve::Client needs the raw errno to tell a restart window
/// (ECONNREFUSED) from a dead address.
inline Conn try_dial(const std::string& host, std::uint16_t port,
                     int& err_out) {
  err_out = 0;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    err_out = errno;
    return Conn();
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Conn();
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    err_out = errno;
    ::close(fd);
    return Conn();
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return Conn(fd);
}

/// Connects to host:port (numeric IPv4, loopback in every shipped driver).
inline Conn dial(const std::string& host, std::uint16_t port) {
  int err = 0;
  Conn conn = try_dial(host, port, err);
  if (!conn.valid()) {
    if (err == 0) throw WireError("bad address: " + host);
    throw WireError("connect " + host + ":" + std::to_string(port) +
                    " failed: " + std::strerror(err));
  }
  return conn;
}

/// Binds and listens on host:port; port 0 picks an ephemeral port. Returns
/// the listening fd and the actual port.
inline std::pair<int, std::uint16_t> listen_on(const std::string& host,
                                               std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw WireError(std::string("socket: ") + std::strerror(errno));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw WireError("bad address: " + host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 128) != 0) {
    const int err = errno;
    ::close(fd);
    throw WireError("bind/listen " + host + ":" + std::to_string(port) +
                    " failed: " + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int err = errno;
    ::close(fd);
    throw WireError(std::string("getsockname failed: ") + std::strerror(err));
  }
  return {fd, ntohs(bound.sin_port)};
}

}  // namespace fasda::serve
