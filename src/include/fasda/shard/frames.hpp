#pragma once
// Control framing for the shard transport (DESIGN.md §14).
//
// A shard::ProcTransport parent and its worker processes exchange frames
// of the shared codec (util/frame.hpp, DESIGN.md §18) over a stream
// socketpair, with a 1 GiB cap and the FrameType predicate below. Data
// packets ride inside kReport/kDeliver payloads in the net/wire.hpp
// encoding — the same Packet wire format the fuzz tests cover — framed,
// not re-framed: the frame CRC covers them like any other payload bytes.
//
// The channel is strictly request/reply in frame order (the socket is a
// FIFO), so no frame carries a sequence number. A peer that dies mid-frame
// surfaces as TransportError from recv()/send(), which ProcTransport
// converts into the typed sync::NodeFailureError for the owning node.

#include <sys/socket.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "fasda/util/frame.hpp"

namespace fasda::shard {

/// Round protocol frame types (DESIGN.md §14). Parent-to-worker frames
/// first, worker-to-parent replies second; kError may replace any reply.
enum class FrameType : std::uint8_t {
  kStart = 1,   ///< parent→worker: arm owned nodes for N iterations
  kSweep,       ///< parent→worker: run the loop-top wake sweep
  kJump,        ///< parent→worker: jump a globally dead window
  kExec,        ///< parent→worker: execute one cycle
  kDeliver,     ///< parent→worker: routed deliveries + barrier releases
  kFinish,      ///< parent→worker: settle the run (flush deferred idle)
  kFold,        ///< parent→worker: request the end-of-run cluster fold
  kShutdown,    ///< parent→worker: exit cleanly
  kStatus,      ///< worker→parent: per-owned-node health statuses
  kWake,        ///< worker→parent: the swept minimum wake cycle
  kReport,      ///< worker→parent: statuses + barrier votes + deliveries
  kFoldData,    ///< worker→parent: the serialized fold payload
  kError,       ///< worker→parent: exception text; worker exits after
};

inline bool frame_type_known(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kStart) &&
         t <= static_cast<std::uint8_t>(FrameType::kError);
}

/// Transport-boundary failure: peer closed, syscall error, or a frame that
/// failed the length/CRC/type checks. Never escapes shard::ProcTransport —
/// it is converted to sync::NodeFailureError naming the dead worker's first
/// node.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error("shard: " + what) {}
};

struct Frame {
  FrameType type = FrameType::kError;
  std::vector<std::uint8_t> payload;
};

/// One end of a worker socketpair. Owns the fd; move-only. send()/recv()
/// block until the whole frame moved (the protocol is lock-step, so a
/// blocked peer means the other side is computing, not deadlocked).
class Channel : public util::frame::OwnedFd {
 public:
  using OwnedFd::OwnedFd;

  void send(FrameType type, const std::vector<std::uint8_t>& payload) {
    if (!valid()) throw TransportError("send on closed channel");
    const std::vector<std::uint8_t> buf = util::frame::encode(
        static_cast<std::uint8_t>(type),
        {reinterpret_cast<const char*>(payload.data()), payload.size()},
        kMaxFrameBytes);
    if (buf.empty()) {
      throw TransportError("frame payload of " +
                           std::to_string(payload.size()) +
                           " bytes exceeds the frame cap");
    }
    if (const int err = util::frame::send_all(fd(), buf.data(), buf.size())) {
      throw TransportError(std::string("send failed: ") + std::strerror(err));
    }
  }

  /// Reads exactly one frame: the header, then the body it announces —
  /// never a byte of the next frame.
  Frame recv() {
    std::vector<std::uint8_t> buf(util::frame::kHeaderBytes);
    read_all(buf.data(), buf.size());
    util::frame::Parsed p = parse(buf);
    if (p.status == util::frame::Status::kNeedMore) {
      buf.resize(p.frame_bytes());
      read_all(buf.data() + util::frame::kHeaderBytes, p.length);
      p = parse(buf);
    }
    switch (p.status) {
      case util::frame::Status::kFrame: break;
      case util::frame::Status::kBadLength:
        throw TransportError("bad frame length " + std::to_string(p.length));
      case util::frame::Status::kBadType:
        throw TransportError("unknown frame type " + std::to_string(p.type));
      default: throw TransportError("frame CRC mismatch");
    }
    return {static_cast<FrameType>(p.type),
            {p.payload, p.payload + (p.length - 1)}};
  }

 private:
  /// A control frame bigger than this is certainly a desynchronized stream:
  /// even a full-cluster fold stays far below it.
  static constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

  static util::frame::Parsed parse(const std::vector<std::uint8_t>& buf) {
    return util::frame::parse(buf.data(), buf.size(), kMaxFrameBytes,
                              frame_type_known);
  }

  void read_all(void* data, std::size_t size) {
    if (!valid()) throw TransportError("recv on closed channel");
    auto* p = static_cast<std::uint8_t*>(data);
    while (size > 0) {
      const ssize_t n = ::recv(fd(), p, size, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw TransportError(std::string("recv failed: ") +
                             std::strerror(errno));
      }
      if (n == 0) throw TransportError("peer closed the channel");
      p += n;
      size -= static_cast<std::size_t>(n);
    }
  }
};

}  // namespace fasda::shard
