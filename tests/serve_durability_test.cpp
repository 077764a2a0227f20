// Durability battery for fasda_serve (DESIGN.md §16).
//
// Four pillars:
//   1. JournalFuzz: the salvage scan survives every truncation point, every
//      single-bit flip, duplicated records, torn final appends, and random
//      garbage — always a typed RecoveryReport, never a crash, never a
//      silently dropped valid-prefix record (the WireFuzz discipline
//      applied to the on-disk format).
//   2. Recovery semantics in-process: completed results survive restarts,
//      lost queued jobs are re-admitted in original order and re-run
//      bitwise identically, supervised jobs resume from their banked
//      checkpoint, rejected jobs stay dead, the kRecovering window answers
//      typed, clean shutdown skips replay.
//   3. Exactly-once plumbing: idempotency keys dedup within and across
//      incarnations; queue readmit bypasses admission control but
//      reproduces the (priority, seq) schedule.
//   4. Crash soak: a forked daemon SIGKILLed at randomized points across
//      several incarnations — every acknowledged job completes exactly
//      once with results bitwise identical to direct execution.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "fasda/serve/client.hpp"
#include "fasda/serve/job.hpp"
#include "fasda/serve/journal.hpp"
#include "fasda/serve/json.hpp"
#include "fasda/serve/queue.hpp"
#include "fasda/serve/server.hpp"

using namespace fasda;
using namespace fasda::serve;

namespace {

/// Self-cleaning unique state directory per test.
struct TempDir {
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "fasda_durability_XXXXXX")
                           .string();
    char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

JobRequest small_job(std::uint64_t seed = 0x5eed) {
  JobRequest req;
  req.engine = "functional";
  req.space = "333";
  req.per_cell = 4;
  req.steps = 4;
  req.sample = 2;
  req.replicas = 1;
  req.seed = seed;
  req.return_state = true;
  return req;
}

JobRequest supervised_job(int steps) {
  JobRequest req = small_job();
  req.steps = steps;
  req.supervise = true;
  req.checkpoint_every = 2;
  return req;
}

std::string canon(JobResult result) {
  result.job_id = 0;
  return result.to_json(/*deterministic_only=*/true);
}

ServerConfig durable_config(const std::string& state_dir) {
  ServerConfig config;
  config.recv_timeout_seconds = 60;
  config.state_dir = state_dir;
  return config;
}

void wait_not_recovering(const Server& server) {
  while (server.recovering()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Polls kQuery until the job reports "done", then parses its result.
JobResult poll_done(Client& client, std::uint64_t job_id) {
  for (int i = 0; i < 3000; ++i) {
    bool rejected = false;
    const std::string status = client.query(job_id, rejected);
    if (!rejected) {
      std::string error;
      const auto v = json::parse(status, &error);
      if (v && v->find("state") &&
          v->find("state")->str_or("") == "done") {
        const json::Value* res = v->find("result");
        EXPECT_NE(res, nullptr);
        auto result = JobResult::from_json(*res, error);
        EXPECT_TRUE(result.has_value()) << error;
        return result.value_or(JobResult{});
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ADD_FAILURE() << "job " << job_id << " never reached done";
  return {};
}

std::string journal_file(const std::string& dir) {
  return dir + "/journal.fjl";
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

void append_all(std::vector<std::uint8_t>& dst,
                const std::vector<std::uint8_t>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// The canonical fuzz corpus: one record of every type, realistic payloads.
std::vector<std::vector<std::uint8_t>> corpus_records() {
  const JobRequest req = small_job();
  return {
      encode_journal_record(JournalRecord::kAdmitted,
                            "{\"job\":1,\"request\":" + req.to_json() + "}"),
      encode_journal_record(JournalRecord::kStarted, "{\"job\":1}"),
      encode_journal_record(JournalRecord::kCheckpoint,
                            "{\"job\":1,\"replica\":0,\"step\":2}"),
      encode_journal_record(
          JournalRecord::kCompleted,
          "{\"job\":1,\"tenant\":\"t\",\"idempotency\":\"\",\"result\":"
          "{\"job\":1,\"outcome\":\"ok\",\"exit\":0,\"replicas\":[]}}"),
      encode_journal_record(JournalRecord::kRejected, "{\"job\":2}"),
      encode_journal_record(JournalRecord::kCleanShutdown, "{}"),
  };
}

}  // namespace

// ====================================================================
// 1. JournalFuzz — the on-disk format under every kind of damage
// ====================================================================

TEST(JournalFuzz, RoundTripCleanStream) {
  const auto records = corpus_records();
  std::vector<std::uint8_t> bytes;
  for (const auto& r : records) append_all(bytes, r);

  const RecoveryReport report =
      scan_journal_bytes(bytes.data(), bytes.size());
  ASSERT_EQ(report.entries.size(), records.size());
  EXPECT_EQ(report.tail, JournalTail::kClean);
  EXPECT_TRUE(report.clean_shutdown);
  EXPECT_EQ(report.salvaged_bytes, bytes.size());
  EXPECT_EQ(report.quarantined_bytes, 0u);
  EXPECT_EQ(report.entries[0].type, JournalRecord::kAdmitted);
  EXPECT_EQ(report.entries.back().type, JournalRecord::kCleanShutdown);
}

// Cutting the stream at EVERY byte offset salvages exactly the records
// that are fully present: clean on a record boundary, torn anywhere else,
// and never a crash or a lost prefix record.
TEST(JournalFuzz, EveryTruncationPoint) {
  const auto records = corpus_records();
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> boundaries{0};
  for (const auto& r : records) {
    append_all(bytes, r);
    boundaries.push_back(bytes.size());
  }

  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const RecoveryReport report = scan_journal_bytes(bytes.data(), cut);
    std::size_t full = 0;
    while (full + 1 < boundaries.size() && boundaries[full + 1] <= cut) {
      ++full;
    }
    ASSERT_EQ(report.entries.size(), full) << "cut=" << cut;
    EXPECT_EQ(report.salvaged_bytes, boundaries[full]) << "cut=" << cut;
    EXPECT_EQ(report.quarantined_bytes, cut - boundaries[full]);
    const bool on_boundary = cut == boundaries[full];
    EXPECT_EQ(report.tail,
              on_boundary ? JournalTail::kClean : JournalTail::kTorn)
        << "cut=" << cut;
    if (!on_boundary) {
      EXPECT_FALSE(report.issue.empty());
    }
  }
}

// Flipping EVERY single bit of the stream: the records strictly before the
// damaged one are always salvaged byte-identically (zero silent loss), the
// scan never crashes, and damage is reported as a typed non-clean tail.
TEST(JournalFuzz, EverySingleBitFlip) {
  const auto records = corpus_records();
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> boundaries{0};
  for (const auto& r : records) {
    append_all(bytes, r);
    boundaries.push_back(bytes.size());
  }
  const RecoveryReport pristine =
      scan_journal_bytes(bytes.data(), bytes.size());

  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    // Which record holds this byte?
    std::size_t record = 0;
    while (boundaries[record + 1] <= byte) ++record;
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const RecoveryReport report =
          scan_journal_bytes(mutated.data(), mutated.size());
      ASSERT_GE(report.entries.size(), record)
          << "byte=" << byte << " bit=" << bit;
      for (std::size_t i = 0; i < record; ++i) {
        ASSERT_EQ(report.entries[i].type, pristine.entries[i].type);
        ASSERT_EQ(report.entries[i].payload, pristine.entries[i].payload);
      }
      if (report.entries.size() == record) {
        EXPECT_NE(report.tail, JournalTail::kClean)
            << "undetected damage at byte=" << byte << " bit=" << bit;
        EXPECT_FALSE(report.issue.empty());
      }
    }
  }
}

// Duplicated records are preserved by the scan (the recovery fold dedups
// them); a duplicated stream is valid, not damage.
TEST(JournalFuzz, DuplicatedRecordsSurviveScan) {
  const auto records = corpus_records();
  std::vector<std::uint8_t> bytes;
  append_all(bytes, records[0]);
  append_all(bytes, records[0]);
  append_all(bytes, records[1]);
  const RecoveryReport report =
      scan_journal_bytes(bytes.data(), bytes.size());
  ASSERT_EQ(report.entries.size(), 3u);
  EXPECT_EQ(report.entries[0].payload, report.entries[1].payload);
  EXPECT_EQ(report.tail, JournalTail::kClean);
}

TEST(JournalFuzz, ZeroAndOversizedLengthsAreCorrupt) {
  // length == 0
  std::vector<std::uint8_t> zero{0, 0, 0, 0, 1, 2, 3, 4};
  RecoveryReport report = scan_journal_bytes(zero.data(), zero.size());
  EXPECT_EQ(report.tail, JournalTail::kCorrupt);
  EXPECT_TRUE(report.entries.empty());

  // length > kMaxJournalRecordBytes
  const std::uint32_t huge = kMaxJournalRecordBytes + 1;
  std::vector<std::uint8_t> big{
      static_cast<std::uint8_t>(huge), static_cast<std::uint8_t>(huge >> 8),
      static_cast<std::uint8_t>(huge >> 16),
      static_cast<std::uint8_t>(huge >> 24), 0, 0, 0, 0};
  report = scan_journal_bytes(big.data(), big.size());
  EXPECT_EQ(report.tail, JournalTail::kCorrupt);
  EXPECT_FALSE(report.issue.empty());
}

TEST(JournalFuzz, RandomGarbageNeverCrashes) {
  std::mt19937 rng(0xFA5DA);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> bytes(rng() % 512);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    const RecoveryReport report =
        scan_journal_bytes(bytes.data(), bytes.size());
    // Whatever was salvaged must re-encode to exactly the salvaged prefix.
    std::size_t replayed = 0;
    for (const JournalEntry& e : report.entries) {
      replayed += encode_journal_record(e.type, e.payload).size();
    }
    EXPECT_EQ(replayed, report.salvaged_bytes);
    EXPECT_EQ(report.salvaged_bytes + report.quarantined_bytes, bytes.size());
  }
}

TEST(JournalFuzz, CleanShutdownOnlyWhenLastRecord) {
  const auto admitted = corpus_records()[0];
  const auto shutdown =
      encode_journal_record(JournalRecord::kCleanShutdown, "{}");
  std::vector<std::uint8_t> ends_clean;
  append_all(ends_clean, admitted);
  append_all(ends_clean, shutdown);
  EXPECT_TRUE(
      scan_journal_bytes(ends_clean.data(), ends_clean.size()).clean_shutdown);

  std::vector<std::uint8_t> shutdown_mid;
  append_all(shutdown_mid, shutdown);
  append_all(shutdown_mid, admitted);
  EXPECT_FALSE(
      scan_journal_bytes(shutdown_mid.data(), shutdown_mid.size())
          .clean_shutdown);
}

// A torn final append on disk: open_appending truncates the file back to
// the salvaged prefix, quarantines the tail in a sidecar, and appending
// resumes from the record boundary.
TEST(JournalFuzz, TornFinalRecordTruncatedAndQuarantined) {
  TempDir dir;
  const std::string path = journal_file(dir.path);
  const auto records = corpus_records();
  std::vector<std::uint8_t> bytes;
  append_all(bytes, records[0]);
  const std::size_t good = bytes.size();
  // Half of the next record: the classic crashed-append tail.
  bytes.insert(bytes.end(), records[1].begin(),
               records[1].begin() +
                   static_cast<std::ptrdiff_t>(records[1].size() / 2));
  write_bytes(path, bytes);

  RecoveryReport report = Journal::recover(path);
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.tail, JournalTail::kTorn);
  EXPECT_EQ(report.salvaged_bytes, good);

  Journal journal;
  journal.open_appending(path, report, JournalFsync::kAlways);
  EXPECT_EQ(std::filesystem::file_size(path), good);
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"));
  EXPECT_EQ(std::filesystem::file_size(path + ".quarantined"),
            bytes.size() - good);

  journal.append(JournalRecord::kStarted, "{\"job\":1}");
  journal.close();
  report = Journal::recover(path);
  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_EQ(report.tail, JournalTail::kClean);
  EXPECT_EQ(report.entries[1].type, JournalRecord::kStarted);
}

// ====================================================================
// 2. Queue readmit — acknowledged work bypasses admission control
// ====================================================================

TEST(QueueReadmit, BypassesCapsAndReproducesSchedule) {
  QueueConfig qc;
  qc.capacity = 1;
  qc.tenant_quota = 1;
  JobQueue queue(qc);
  queue.begin_drain();  // fresh submits would be rejected...

  std::vector<int> ran;
  auto work = [&ran](int tag) { return [&ran, tag] { ran.push_back(tag); }; };
  // ...but readmitted (already-acknowledged) work is not subject to
  // capacity, quota, or draining — refusing would drop acknowledged jobs.
  EXPECT_EQ(queue.submit("t", 0, work(99)).status, Admit::kDraining);
  EXPECT_EQ(queue.readmit("t", 0, work(1)).status, Admit::kAdmitted);
  EXPECT_EQ(queue.readmit("t", 5, work(2)).status, Admit::kAdmitted);
  EXPECT_EQ(queue.readmit("t", 1, work(3)).status, Admit::kAdmitted);
  EXPECT_EQ(queue.readmit("t", 5, work(4)).status, Admit::kAdmitted);
  EXPECT_EQ(queue.tenant_load("t"), 4u);

  // Pop order is (priority desc, arrival seq asc): readmission in journal
  // order reproduces the pre-crash schedule exactly.
  while (queue.try_run_one()) {
  }
  EXPECT_EQ(ran, (std::vector<int>{2, 4, 3, 1}));
  queue.stop();
  EXPECT_EQ(queue.readmit("t", 0, work(5)).status, Admit::kStopped);
}

// ====================================================================
// 3. Recovery semantics through real servers
// ====================================================================

// A result acknowledged before the restart answers kQuery after it, from
// the same state directory, byte-identically — and its idempotency key
// replays the stored result instead of re-running.
TEST(ServeDurability, CompletedResultsSurviveRestart) {
  TempDir dir;
  JobRequest req = small_job();
  req.idempotency = "restart-1";
  std::string served;
  std::uint64_t job_id = 0;
  {
    Server server(durable_config(dir.path));
    server.start();
    wait_not_recovering(server);
    Client client("127.0.0.1", server.port());
    const auto outcome = client.run_job(req);
    ASSERT_TRUE(outcome.reply.accepted) << outcome.reply.reason;
    ASSERT_TRUE(outcome.result.has_value());
    served = canon(*outcome.result);
    job_id = outcome.reply.job_id;
    server.stop();  // hard stop: no clean-shutdown record, like a crash
  }
  {
    Server server(durable_config(dir.path));
    server.start();
    wait_not_recovering(server);
    EXPECT_EQ(server.results_restored(), 1u);
    EXPECT_EQ(server.jobs_recovered(), 0u);  // nothing was pending
    Client client("127.0.0.1", server.port());
    bool rejected = false;
    const std::string status = client.query(job_id, rejected);
    ASSERT_FALSE(rejected) << status;
    std::string error;
    const auto v = json::parse(status, &error);
    ASSERT_TRUE(v) << error;
    EXPECT_EQ(v->find("state")->str_or(""), "done");
    EXPECT_TRUE(v->find("recovered")->bool_or(false));
    const auto restored = JobResult::from_json(*v->find("result"), error);
    ASSERT_TRUE(restored.has_value()) << error;
    EXPECT_EQ(canon(*restored), served);

    // Exactly-once across the restart: resubmitting the key attaches to
    // the stored result (same id, same bytes), never re-runs.
    const auto dup = client.run_job(req);
    ASSERT_TRUE(dup.reply.accepted);
    EXPECT_EQ(dup.reply.job_id, job_id);
    ASSERT_TRUE(dup.result.has_value());
    EXPECT_EQ(canon(*dup.result), served);
    EXPECT_EQ(server.jobs_completed(), 0u);  // nothing ran this incarnation
    server.stop();
  }
}

// Jobs acknowledged but never run (admission-only incarnation, then a hard
// stop) are re-admitted by the next incarnation and complete with results
// bitwise identical to direct execution.
TEST(ServeDurability, LostQueuedJobsReadmittedAndRerun) {
  TempDir dir;
  std::vector<JobRequest> reqs;
  for (int i = 0; i < 3; ++i) {
    JobRequest req = small_job(0x5eed + static_cast<std::uint64_t>(i));
    req.priority = i % 2;
    reqs.push_back(req);
  }
  std::vector<std::uint64_t> ids;
  {
    ServerConfig config = durable_config(dir.path);
    config.queue_workers = 0;  // admit, journal, never run — then "crash"
    Server server(config);
    server.start();
    wait_not_recovering(server);
    Client client("127.0.0.1", server.port());
    for (const JobRequest& req : reqs) {
      const auto reply = client.submit(req);
      ASSERT_TRUE(reply.accepted) << reply.reason;
      ids.push_back(reply.job_id);
    }
    server.stop();
  }
  {
    ServerConfig config = durable_config(dir.path);
    config.queue_workers = 2;
    Server server(config);
    server.start();
    wait_not_recovering(server);
    EXPECT_EQ(server.jobs_recovered(), reqs.size());
    Client client("127.0.0.1", server.port());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const JobResult result = poll_done(client, ids[i]);
      EXPECT_EQ(result.job_id, ids[i]);
      EXPECT_EQ(canon(result), canon(execute_job(0, reqs[i])))
          << "job " << ids[i];
    }
    server.drain_and_stop();
  }
}

// The tentpole resume path: a supervised job that crashed after banking a
// checkpoint resumes from that checkpoint (not from step 0) and still
// produces the bitwise result of an uninterrupted run.
TEST(ServeDurability, SupervisedJobResumesFromCheckpointBitwise) {
  TempDir dir;
  const JobRequest full = supervised_job(6);

  // Fabricate the crashed incarnation's state directory exactly the way
  // the server would have left it: a kAdmitted record for the full job,
  // checkpoint files + kCheckpoint records banked through step 4, no
  // kCompleted — the daemon "died" mid-run.
  {
    Journal journal;
    const RecoveryReport fresh = Journal::recover(journal_file(dir.path));
    journal.open_appending(journal_file(dir.path), fresh,
                           JournalFsync::kAlways);
    journal.append(JournalRecord::kAdmitted,
                   "{\"job\":1,\"request\":" + full.to_json() + "}");
    JobRequest partial = full;
    partial.steps = 4;  // the prefix of the same trajectory
    long long prev = 0;
    ExecutionHooks hooks;
    hooks.checkpoint_path = [&dir](int replica, long long step) {
      return dir.path + "/job-1-r" + std::to_string(replica) + "-s" +
             std::to_string(step) + ".ckpt";
    };
    hooks.checkpointed = [&](int replica, long long step) {
      journal.append(JournalRecord::kCheckpoint,
                     "{\"job\":1,\"replica\":" + std::to_string(replica) +
                         ",\"step\":" + std::to_string(step) + "}");
      if (prev > 0 && prev != step) {
        ::unlink(hooks.checkpoint_path(replica, prev).c_str());
      }
      prev = step;
    };
    const JobResult prefix_result = execute_job(1, partial, nullptr, &hooks);
    ASSERT_EQ(prefix_result.outcome, JobOutcome::kOk);
    journal.close();
    ASSERT_TRUE(std::filesystem::exists(dir.path + "/job-1-r0-s4.ckpt"));
  }

  Server server(durable_config(dir.path));
  server.start();
  wait_not_recovering(server);
  EXPECT_EQ(server.jobs_recovered(), 1u);
  EXPECT_EQ(server.jobs_resumed(), 1u);  // proves the checkpoint was used
  Client client("127.0.0.1", server.port());
  const JobResult result = poll_done(client, 1);
  EXPECT_EQ(canon(result), canon(execute_job(0, full)));
  EXPECT_EQ(result.replicas.at(0).steps, 6);
  server.drain_and_stop();
  // Completion cleans up the job's checkpoint files.
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/job-1-r0-s4.ckpt"));
}

// During startup replay, kSubmit and kQuery answer a typed kRecovering
// frame (retryable), never a wrong answer; kPing reports the window.
TEST(ServeDurability, RecoveringWindowAnswersTyped) {
  TempDir dir;
  {
    Journal journal;
    const RecoveryReport fresh = Journal::recover(journal_file(dir.path));
    journal.open_appending(journal_file(dir.path), fresh,
                           JournalFsync::kAlways);
    journal.append(JournalRecord::kAdmitted,
                   "{\"job\":1,\"request\":" + small_job().to_json() + "}");
    journal.close();
  }
  ServerConfig config = durable_config(dir.path);
  config.recovery_delay_ms = 400;  // hold the window open for the probes
  Server server(config);
  server.start();
  ASSERT_TRUE(server.recovering());
  Client client("127.0.0.1", server.port());

  const auto reply = client.submit(small_job());
  EXPECT_FALSE(reply.accepted);
  EXPECT_EQ(reply.reason, "recovering");

  bool rejected = false;
  const std::string q = client.query(1, rejected);
  EXPECT_TRUE(rejected);
  EXPECT_NE(q.find("recovering"), std::string::npos);

  std::string error;
  const auto pong = json::parse(client.ping(), &error);
  ASSERT_TRUE(pong) << error;
  EXPECT_TRUE(pong->find("recovering")->bool_or(false));

  wait_not_recovering(server);
  EXPECT_FALSE(json::parse(client.ping(), &error)
                   ->find("recovering")
                   ->bool_or(true));
  const auto after = client.submit(small_job());
  EXPECT_TRUE(after.accepted) << after.reason;
  poll_done(client, after.job_id);
  server.drain_and_stop();
}

// A graceful drain journals kCleanShutdown, so the next incarnation knows
// there is nothing to re-admit (and says so in its recovery report).
TEST(ServeDurability, CleanShutdownSkipsReplay) {
  TempDir dir;
  {
    Server server(durable_config(dir.path));
    server.start();
    wait_not_recovering(server);
    Client client("127.0.0.1", server.port());
    const auto outcome = client.run_job(small_job());
    ASSERT_TRUE(outcome.reply.accepted);
    server.drain_and_stop();  // the SIGTERM/SIGINT path
  }
  const RecoveryReport on_disk = Journal::recover(journal_file(dir.path));
  EXPECT_TRUE(on_disk.clean_shutdown);
  EXPECT_EQ(on_disk.entries.back().type, JournalRecord::kCleanShutdown);

  Server server(durable_config(dir.path));
  server.start();
  wait_not_recovering(server);
  EXPECT_TRUE(server.recovery_report().clean_shutdown);
  EXPECT_EQ(server.jobs_recovered(), 0u);
  EXPECT_EQ(server.results_restored(), 1u);
  server.stop();
}

// kAdmitted followed by kRejected (the queue raced to capacity after the
// write-ahead record): the job is dead and recovery must not resurrect it.
TEST(ServeDurability, RejectedJobStaysDead) {
  TempDir dir;
  {
    Journal journal;
    const RecoveryReport fresh = Journal::recover(journal_file(dir.path));
    journal.open_appending(journal_file(dir.path), fresh,
                           JournalFsync::kAlways);
    journal.append(JournalRecord::kAdmitted,
                   "{\"job\":7,\"request\":" + small_job().to_json() + "}");
    journal.append(JournalRecord::kRejected, "{\"job\":7}");
    journal.close();
  }
  Server server(durable_config(dir.path));
  server.start();
  wait_not_recovering(server);
  EXPECT_EQ(server.jobs_recovered(), 0u);
  Client client("127.0.0.1", server.port());
  bool rejected = false;
  client.query(7, rejected);
  EXPECT_TRUE(rejected);
  // Job ids stay monotone past the dead record: nothing reuses id 7.
  const auto reply = client.submit(small_job());
  ASSERT_TRUE(reply.accepted);
  EXPECT_GT(reply.job_id, 7u);
  server.drain_and_stop();
}

// kQuery distinguishes a recovered job riding through a restart from a
// fresh submission: state "recovering" + recovered=true vs "queued" +
// recovered=false (satellite: kRecovering/kResumed vs fresh kRunning).
TEST(ServeDurability, RecoveredJobsReportDistinctStates) {
  TempDir dir;
  std::uint64_t lost_id = 0;
  {
    ServerConfig config = durable_config(dir.path);
    config.queue_workers = 0;
    Server server(config);
    server.start();
    wait_not_recovering(server);
    Client client("127.0.0.1", server.port());
    const auto reply = client.submit(small_job());
    ASSERT_TRUE(reply.accepted);
    lost_id = reply.job_id;
    server.stop();
  }
  ServerConfig config = durable_config(dir.path);
  config.queue_workers = 0;  // keep both jobs parked so states are stable
  Server server(config);
  server.start();
  wait_not_recovering(server);
  Client client("127.0.0.1", server.port());
  const auto fresh = client.submit(small_job());
  ASSERT_TRUE(fresh.accepted) << fresh.reason;

  std::string error;
  bool rejected = false;
  const auto recovered_status =
      json::parse(client.query(lost_id, rejected), &error);
  ASSERT_TRUE(recovered_status) << error;
  EXPECT_EQ(recovered_status->find("state")->str_or(""), "recovering");
  EXPECT_TRUE(recovered_status->find("recovered")->bool_or(false));

  const auto fresh_status =
      json::parse(client.query(fresh.job_id, rejected), &error);
  ASSERT_TRUE(fresh_status) << error;
  EXPECT_EQ(fresh_status->find("state")->str_or(""), "queued");
  EXPECT_FALSE(fresh_status->find("recovered")->bool_or(true));
  server.stop();
}

// Within one incarnation: a duplicate submit with the same idempotency key
// attaches to the original job instead of creating a second one.
TEST(ServeDurability, IdempotencyKeyDedupsWithinIncarnation) {
  TempDir dir;
  Server server(durable_config(dir.path));
  server.start();
  wait_not_recovering(server);
  Client client("127.0.0.1", server.port());
  JobRequest req = small_job();
  req.idempotency = "dedup-1";
  const auto first = client.submit(req);
  ASSERT_TRUE(first.accepted);
  const auto second = client.submit(req);
  ASSERT_TRUE(second.accepted);
  EXPECT_EQ(second.job_id, first.job_id);
  const JobResult result = client.wait_result(first.job_id);
  EXPECT_EQ(result.outcome, JobOutcome::kOk);
  EXPECT_EQ(server.jobs_submitted(), 1u);
  server.drain_and_stop();
}

// Aggressive rotation (compact after every completion) must preserve every
// durable fact a restart needs.
TEST(ServeDurability, CompactionPreservesResultsAcrossRestart) {
  TempDir dir;
  std::vector<std::uint64_t> ids;
  std::vector<std::string> canons;
  {
    ServerConfig config = durable_config(dir.path);
    config.journal_rotate_bytes = 1;  // every completion triggers a rotate
    Server server(config);
    server.start();
    wait_not_recovering(server);
    Client client("127.0.0.1", server.port());
    for (int i = 0; i < 3; ++i) {
      const auto outcome =
          client.run_job(small_job(0xc0 + static_cast<std::uint64_t>(i)));
      ASSERT_TRUE(outcome.reply.accepted);
      ASSERT_TRUE(outcome.result.has_value());
      ids.push_back(outcome.reply.job_id);
      canons.push_back(canon(*outcome.result));
    }
    server.stop();
  }
  Server server(durable_config(dir.path));
  server.start();
  wait_not_recovering(server);
  EXPECT_EQ(server.results_restored(), ids.size());
  Client client("127.0.0.1", server.port());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    bool rejected = false;
    std::string error;
    const auto v = json::parse(client.query(ids[i], rejected), &error);
    ASSERT_FALSE(rejected);
    ASSERT_TRUE(v) << error;
    const auto restored = JobResult::from_json(*v->find("result"), error);
    ASSERT_TRUE(restored.has_value()) << error;
    EXPECT_EQ(canon(*restored), canons[i]);
  }
  server.stop();
}

// --journal-fsync never still survives process death (the page cache keeps
// the bytes); only the power-loss guarantee is traded away.
TEST(ServeDurability, FsyncNeverSurvivesProcessDeath) {
  TempDir dir;
  std::uint64_t job_id = 0;
  {
    ServerConfig config = durable_config(dir.path);
    config.journal_fsync = JournalFsync::kNever;
    Server server(config);
    server.start();
    wait_not_recovering(server);
    Client client("127.0.0.1", server.port());
    const auto outcome = client.run_job(small_job());
    ASSERT_TRUE(outcome.reply.accepted);
    job_id = outcome.reply.job_id;
    server.stop();
  }
  Server server(durable_config(dir.path));
  server.start();
  wait_not_recovering(server);
  EXPECT_EQ(server.results_restored(), 1u);
  Client client("127.0.0.1", server.port());
  bool rejected = false;
  client.query(job_id, rejected);
  EXPECT_FALSE(rejected);
  server.stop();
}

// ====================================================================
// 4. Crash soak — SIGKILL a forked daemon at randomized points
// ====================================================================

namespace {

struct DaemonProc {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

/// Forks a real daemon process on `state_dir`. The child reports its port
/// through a pipe and then sits until SIGKILLed — exactly the process
/// boundary the journal's guarantees are stated against.
DaemonProc spawn_daemon(const std::string& state_dir) {
  int pipefd[2] = {-1, -1};
  EXPECT_EQ(::pipe(pipefd), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(pipefd[0]);
    ServerConfig config;
    config.state_dir = state_dir;
    config.queue_workers = 2;
    config.recv_timeout_seconds = 60;
    try {
      // Deliberately leaked: this process only ever exits via SIGKILL.
      auto* server = new Server(config);
      server->start();
      const std::uint16_t port = server->port();
      (void)!::write(pipefd[1], &port, sizeof port);
      ::close(pipefd[1]);
      for (;;) ::pause();
    } catch (...) {
      ::_exit(9);
    }
  }
  ::close(pipefd[1]);
  DaemonProc d;
  d.pid = pid;
  const ssize_t n = ::read(pipefd[0], &d.port, sizeof d.port);
  ::close(pipefd[0]);
  EXPECT_EQ(n, static_cast<ssize_t>(sizeof d.port));
  return d;
}

void kill_daemon(DaemonProc& d) {
  if (d.pid <= 0) return;
  ::kill(d.pid, SIGKILL);
  int status = 0;
  ::waitpid(d.pid, &status, 0);
  d.pid = -1;
}

bool daemon_recovering(Client& client) {
  std::string error;
  const auto pong = json::parse(client.ping(), &error);
  return !pong || pong->find("recovering")->bool_or(false);
}

}  // namespace

// The ISSUE's crash-soak invariant: across several SIGKILLed incarnations,
// every acknowledged job completes exactly once with bitwise-deterministic
// results, and no unacknowledged job is half-visible (a resubmit either
// attaches to the acknowledged original or runs fresh — never twice).
TEST(ServeCrashSoak, Kill9AtRandomPointsKeepsExactlyOnceBitwise) {
  TempDir dir;

  // The workload: a mix of plain and supervised (checkpointing) jobs, each
  // with a stable idempotency key and a precomputed direct result.
  std::vector<JobRequest> jobs;
  for (int i = 0; i < 8; ++i) {
    JobRequest req = i % 3 == 0
                         ? supervised_job(6)
                         : small_job(0xabc + static_cast<std::uint64_t>(i));
    req.tenant = "soak";
    req.idempotency = "soak-" + std::to_string(i);
    jobs.push_back(req);
  }
  std::vector<std::string> direct;
  direct.reserve(jobs.size());
  for (const JobRequest& req : jobs) {
    direct.push_back(canon(execute_job(0, req)));
  }

  RetryPolicy policy;
  policy.max_attempts = 40;
  policy.backoff_initial = std::chrono::milliseconds(20);
  policy.backoff_cap = std::chrono::milliseconds(200);

  std::mt19937 rng(0xFA5DA);
  DaemonProc daemon = spawn_daemon(dir.path);
  int kills = 0;

  // Chaos rounds: push the whole workload at the daemon, then SIGKILL it
  // at a random point — mid-admission, mid-run, mid-checkpoint, whatever
  // the dice land on. Acknowledgements may be lost in flight; that is the
  // ambiguity the idempotency keys exist to resolve.
  for (int round = 0; round < 5; ++round) {
    try {
      Client client("127.0.0.1", daemon.port, policy);
      for (int probe = 0; probe < 100 && daemon_recovering(client); ++probe) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      for (const JobRequest& req : jobs) {
        (void)client.submit(req);
      }
    } catch (const WireError&) {
      // The previous round's kill may still be settling; the settle phase
      // below is the only place completion is asserted.
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(30 + static_cast<int>(rng() % 150)));
    kill_daemon(daemon);
    ++kills;
    daemon = spawn_daemon(dir.path);
  }
  ASSERT_GE(kills, 5);

  // Settle: one final incarnation, no more kills. Resubmitting every key
  // must converge to exactly one job per key, each with the direct bytes.
  Client client("127.0.0.1", daemon.port, policy);
  for (int probe = 0; probe < 1000 && daemon_recovering(client); ++probe) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Client::SubmitReply reply;
    for (int attempt = 0; attempt < 2000; ++attempt) {
      reply = client.submit(jobs[i]);
      if (reply.accepted) break;
      ASSERT_TRUE(reply.reason == "recovering" ||
                  reply.reason == "queue-full")
          << reply.reason << " " << reply.detail;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(reply.accepted) << "job " << i << ": " << reply.reason;
    const JobResult result = poll_done(client, reply.job_id);
    EXPECT_EQ(canon(result), direct[i]) << "job " << i;
    // Exactly-once: the key keeps mapping to the same job, and its bytes
    // do not change on replay.
    const auto again = client.run_job(jobs[i]);
    ASSERT_TRUE(again.reply.accepted);
    EXPECT_EQ(again.reply.job_id, reply.job_id) << "job " << i;
    ASSERT_TRUE(again.result.has_value());
    EXPECT_EQ(canon(*again.result), direct[i]);
  }
  kill_daemon(daemon);
}
