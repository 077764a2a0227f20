// The one length-prefixed frame format (DESIGN.md §14-§16) pinned at the
// byte level for all three of its users, plus the shard control channel in
// isolation over a real socketpair.
//
//   * Golden bytes: one (type, payload) pair must encode to the same 18
//     bytes through serve::encode_frame, serve::encode_journal_record and
//     shard::Channel::send — the serve wire, the journal file and the
//     shard transport share one on-the-wire shape.
//   * A pinned journal file: five records appended through serve::Journal
//     land on disk as exactly these bytes, and scan back unchanged.
//   * The salvage scan's tail diagnoses (kTorn / kCorrupt plus the issue
//     text) for each way a record can be damaged.
//   * shard::Channel: round trip, bad CRC, zero / over-cap length, unknown
//     type and peer close all surface as TransportError.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "fasda/serve/journal.hpp"
#include "fasda/serve/wire.hpp"
#include "fasda/shard/frames.hpp"
#include "fasda/util/crc32.hpp"

using namespace fasda;

namespace {

// Type byte 3 (serve kPing / journal kCheckpoint / shard kJump) with the
// payload {"job":7}: length 10, CRC-32 0x69facb19 over type + payload.
const std::vector<std::uint8_t> kGoldenFrame = {
    0x0a, 0x00, 0x00, 0x00, 0x19, 0xcb, 0xfa, 0x69, 0x03,
    0x7b, 0x22, 0x6a, 0x6f, 0x62, 0x22, 0x3a, 0x37, 0x7d};
constexpr std::string_view kGoldenPayload = "{\"job\":7}";

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

/// A connected stream socketpair: [0] wrapped in a Channel under test,
/// [1] the raw peer end.
struct Pair {
  Pair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    chan = shard::Channel(fds[0]);
    peer = fds[1];
  }
  ~Pair() {
    if (peer >= 0) ::close(peer);
  }
  void peer_write(const std::vector<std::uint8_t>& bytes) const {
    ASSERT_EQ(::write(peer, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
  std::vector<std::uint8_t> peer_read(std::size_t n) const {
    std::vector<std::uint8_t> out(n);
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::read(peer, out.data() + got, n - got);
      EXPECT_GT(r, 0);
      if (r <= 0) break;
      got += static_cast<std::size_t>(r);
    }
    return out;
  }
  shard::Channel chan;
  int peer = -1;
};

std::vector<std::uint8_t> header(std::uint32_t length, std::uint32_t crc) {
  std::vector<std::uint8_t> out;
  for (const std::uint32_t v : {length, crc}) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  return out;
}

}  // namespace

// ====================================================================
// Golden frame bytes shared by all three users
// ====================================================================

TEST(FramePins, ServeEncoderProducesGoldenBytes) {
  EXPECT_EQ(serve::encode_frame(serve::MsgType::kPing, kGoldenPayload),
            kGoldenFrame);
}

TEST(FramePins, JournalEncoderProducesGoldenBytes) {
  EXPECT_EQ(serve::encode_journal_record(serve::JournalRecord::kCheckpoint,
                                         kGoldenPayload),
            kGoldenFrame);
}

TEST(FramePins, ShardChannelProducesGoldenBytes) {
  Pair p;
  p.chan.send(shard::FrameType::kJump,
              std::vector<std::uint8_t>(kGoldenPayload.begin(),
                                        kGoldenPayload.end()));
  EXPECT_EQ(p.peer_read(kGoldenFrame.size()), kGoldenFrame);
}

TEST(FramePins, GoldenBytesDecodeEverywhere) {
  serve::FrameDecoder decoder;
  decoder.feed(kGoldenFrame.data(), kGoldenFrame.size());
  serve::WireFrame wf;
  ASSERT_EQ(decoder.next(wf), serve::DecodeStatus::kFrame);
  EXPECT_EQ(wf.type, serve::MsgType::kPing);
  EXPECT_EQ(wf.payload, kGoldenPayload);

  const serve::RecoveryReport report =
      serve::scan_journal_bytes(kGoldenFrame.data(), kGoldenFrame.size());
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].type, serve::JournalRecord::kCheckpoint);
  EXPECT_EQ(report.entries[0].payload, kGoldenPayload);

  Pair p;
  p.peer_write(kGoldenFrame);
  const shard::Frame f = p.chan.recv();
  EXPECT_EQ(f.type, shard::FrameType::kJump);
  EXPECT_EQ(std::string(f.payload.begin(), f.payload.end()), kGoldenPayload);
}

// ====================================================================
// A pinned journal file
// ====================================================================

TEST(FramePins, JournalFileBytesArePinned) {
  const std::vector<std::pair<serve::JournalRecord, std::string>> records = {
      {serve::JournalRecord::kAdmitted,
       "{\"job\":1,\"span\":9,\"request\":{\"tenant\":\"acme\",\"steps\":2}}"},
      {serve::JournalRecord::kStarted, "{\"job\":1}"},
      {serve::JournalRecord::kCheckpoint,
       "{\"job\":1,\"replica\":0,\"step\":2}"},
      {serve::JournalRecord::kCompleted,
       "{\"job\":1,\"tenant\":\"acme\",\"idempotency\":\"\",\"result\":{}}"},
      {serve::JournalRecord::kCleanShutdown, "{}"},
  };
  const std::vector<std::uint8_t> pinned = from_hex(
      "39000000c88c521d017b226a6f62223a312c227370616e223a392c2272657175"
      "657374223a7b2274656e616e74223a2261636d65222c227374657073223a327d"
      "7d0a000000a10762d0027b226a6f62223a317d1f00000090fcf2e8037b226a6f"
      "62223a312c227265706c696361223a302c2273746570223a327d37000000aa18"
      "c055047b226a6f62223a312c2274656e616e74223a2261636d65222c22696465"
      "6d706f74656e6379223a22222c22726573756c74223a7b7d7d030000001c08b3"
      "19067b7d");
  ASSERT_EQ(pinned.size(), 196u);

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("fasda_frame_pin_" + std::to_string(::getpid()) + ".journal");
  std::filesystem::remove(path);
  {
    serve::Journal journal;
    journal.open_appending(path.string(), serve::RecoveryReport{},
                           serve::JournalFsync::kNever);
    for (const auto& [type, payload] : records) journal.append(type, payload);
    EXPECT_EQ(journal.bytes(), pinned.size());
  }
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> on_disk(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  EXPECT_EQ(on_disk, pinned);

  const serve::RecoveryReport report =
      serve::scan_journal_bytes(pinned.data(), pinned.size());
  EXPECT_EQ(report.tail, serve::JournalTail::kClean);
  EXPECT_TRUE(report.clean_shutdown);
  ASSERT_EQ(report.entries.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(report.entries[i].type, records[i].first);
    EXPECT_EQ(report.entries[i].payload, records[i].second);
  }
}

// The salvage mapping: running out of bytes is a torn tail, any damaged
// record is a corrupt one, each with its diagnosis text.
TEST(FramePins, JournalTailDiagnoses) {
  const auto scan = [](const std::vector<std::uint8_t>& bytes) {
    return serve::scan_journal_bytes(bytes.data(), bytes.size());
  };
  const std::vector<std::uint8_t> head(kGoldenFrame.begin(),
                                       kGoldenFrame.begin() + 3);
  serve::RecoveryReport r = scan(head);
  EXPECT_EQ(r.tail, serve::JournalTail::kTorn);
  EXPECT_EQ(r.issue, "file ends inside a record header (3 of 8 header bytes)");

  const std::vector<std::uint8_t> body(kGoldenFrame.begin(),
                                       kGoldenFrame.end() - 2);
  r = scan(body);
  EXPECT_EQ(r.tail, serve::JournalTail::kTorn);
  EXPECT_EQ(r.issue, "file ends inside a record body (8 of 10 body bytes)");

  r = scan(header(0, 0));
  EXPECT_EQ(r.tail, serve::JournalTail::kCorrupt);
  EXPECT_EQ(r.issue, "record length 0 is out of range");

  std::vector<std::uint8_t> flipped = kGoldenFrame;
  flipped.back() ^= 0x01;
  r = scan(flipped);
  EXPECT_EQ(r.tail, serve::JournalTail::kCorrupt);
  EXPECT_EQ(r.issue, "record CRC mismatch");

  // Type 64 with a valid CRC.
  util::Crc32 crc;
  const std::uint8_t t = 64;
  crc.add_bytes(&t, 1);
  std::vector<std::uint8_t> bad_type = header(1, crc.value());
  bad_type.push_back(t);
  r = scan(bad_type);
  EXPECT_EQ(r.tail, serve::JournalTail::kCorrupt);
  EXPECT_EQ(r.issue, "unknown record type 64");
  EXPECT_EQ(r.salvaged_bytes, 0u);
  EXPECT_EQ(r.quarantined_bytes, bad_type.size());
}

// ====================================================================
// shard::Channel in isolation
// ====================================================================

TEST(ShardChannel, RoundTripsFramesBothWays) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  shard::Channel a(fds[0]), b(fds[1]);
  const std::vector<std::uint8_t> payload = {0, 1, 2, 0xff, 0x80};
  a.send(shard::FrameType::kDeliver, payload);
  a.send(shard::FrameType::kShutdown, {});
  shard::Frame f = b.recv();
  EXPECT_EQ(f.type, shard::FrameType::kDeliver);
  EXPECT_EQ(f.payload, payload);
  f = b.recv();
  EXPECT_EQ(f.type, shard::FrameType::kShutdown);
  EXPECT_TRUE(f.payload.empty());
  b.send(shard::FrameType::kError, {'x'});
  f = a.recv();
  EXPECT_EQ(f.type, shard::FrameType::kError);
  EXPECT_EQ(f.payload, std::vector<std::uint8_t>{'x'});
}

TEST(ShardChannel, BadCrcThrows) {
  Pair p;
  std::vector<std::uint8_t> bad = kGoldenFrame;
  bad[4] ^= 0x10;
  p.peer_write(bad);
  EXPECT_THROW(p.chan.recv(), shard::TransportError);
}

TEST(ShardChannel, ZeroAndOverCapLengthsThrow) {
  for (const std::uint32_t length : {0u, (1u << 30) + 1, 0xffffffffu}) {
    Pair p;
    p.peer_write(header(length, 0));
    EXPECT_THROW(p.chan.recv(), shard::TransportError) << length;
  }
}

TEST(ShardChannel, UnknownTypeThrows) {
  Pair p;
  const std::uint8_t t = 200;
  util::Crc32 crc;
  crc.add_bytes(&t, 1);
  std::vector<std::uint8_t> bytes = header(1, crc.value());
  bytes.push_back(t);
  p.peer_write(bytes);
  EXPECT_THROW(p.chan.recv(), shard::TransportError);
}

TEST(ShardChannel, PeerCloseThrows) {
  Pair p;
  // Close mid-frame: the header promises 10 body bytes, 4 arrive.
  p.peer_write(std::vector<std::uint8_t>(kGoldenFrame.begin(),
                                         kGoldenFrame.begin() + 12));
  ::close(p.peer);
  p.peer = -1;
  EXPECT_THROW(p.chan.recv(), shard::TransportError);
  // Sending into a closed peer is EPIPE (never SIGPIPE): TransportError.
  EXPECT_THROW(p.chan.send(shard::FrameType::kExec, {1, 2, 3}),
               shard::TransportError);
}
