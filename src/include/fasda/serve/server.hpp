#pragma once
// fasda_serve daemon core (DESIGN.md §15): a long-running TCP front door
// over the engine registry. Connections submit JobRequests; admitted jobs
// flow through the bounded priority JobQueue onto queue-worker threads
// that call serve::execute_job — the same pure function the direct
// BatchRunner path uses, which is the whole served-vs-direct determinism
// argument. Per-job streaming status is published into a per-job obs
// metrics registry and pushed to the submitting connection as kStatus
// frames; anyone may poll any job with kQuery.
//
// Lifecycle: start() binds and spawns the acceptor + queue workers;
// begin_drain() (the SIGTERM path) atomically stops admissions while
// admitted jobs keep running; drain_and_stop() waits for the queue to
// empty, then closes every socket and joins every thread. The destructor
// hard-stops (queued-but-unstarted jobs are dropped).

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fasda/obs/obs.hpp"
#include "fasda/obs/server_stats.hpp"
#include "fasda/serve/job.hpp"
#include "fasda/serve/journal.hpp"
#include "fasda/serve/queue.hpp"
#include "fasda/serve/wire.hpp"

namespace fasda::serve {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;     ///< 0 = ephemeral; read back via port()
  std::size_t queue_workers = 1;  ///< 0 = admission-only (tests)
  QueueConfig queue;
  std::size_t result_history = 256;  ///< finished jobs kept for kQuery
  int recv_timeout_seconds = 600;    ///< per-connection read timeout
  /// Per-connection write timeout. A tenant that submits and then stops
  /// reading would otherwise block a queue worker forever inside a
  /// kStatus/kResult push once its TCP buffer fills; after this many
  /// seconds the send fails, the connection is marked dead and the job
  /// finishes without it.
  int send_timeout_seconds = 30;
  /// Durability root (DESIGN.md §16): "" keeps the PR 8 behavior (all
  /// state dies with the process). Non-empty names a directory holding
  /// the write-ahead journal + step-stamped supervisor checkpoints; on
  /// start() the journal is replayed, lost queued jobs are re-admitted in
  /// original order, interrupted supervised jobs resume from their last
  /// checkpoint, and completed results answer kQuery again.
  std::string state_dir;
  JournalFsync journal_fsync = JournalFsync::kAlways;
  /// Compact (rotate) the journal when it grows past this many bytes.
  std::size_t journal_rotate_bytes = 4u << 20;
  /// Test hook: hold the kRecovering window open this long before replay
  /// so tests can observe the recovering protocol deterministically.
  int recovery_delay_ms = 0;
  /// Wall-clock observability plane (DESIGN.md §17). `wall_obs` gates the
  /// whole plane — the ServerStats registry, per-job spans, and the kStats
  /// surface's numbers; off is the bench's metrics-off baseline. The
  /// deterministic per-job obs Hubs are unaffected either way.
  bool wall_obs = true;
  /// Periodic Prometheus text dump: "" disables; otherwise the file is
  /// rewritten every `metrics_every_seconds` (minimum 1) and once more at
  /// drain/stop.
  std::string metrics_out;
  int metrics_every_seconds = 5;
  /// Chrome trace dump of the wall-clock job spans, same cadence as
  /// metrics_out. The last periodic dump a SIGKILLed incarnation leaves
  /// behind is what stitches its spans to the next incarnation's.
  std::string trace_out;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, spawns the acceptor and queue workers. Throws
  /// WireError if the address cannot be bound.
  void start();

  std::uint16_t port() const { return port_; }
  const std::string& host() const { return config_.host; }

  /// Stops admitting jobs (kRejected "draining"); running jobs continue.
  void begin_drain();
  bool draining() const { return queue_.draining(); }

  /// Drain to empty, then tear down sockets and threads. Idempotent.
  void drain_and_stop();

  /// Hard stop for teardown: queued-but-unstarted jobs are dropped.
  void stop();

  // Introspection for tests and the daemon's exit report.
  std::uint64_t jobs_submitted() const { return jobs_submitted_.load(); }
  std::uint64_t jobs_completed() const { return jobs_completed_.load(); }
  std::uint64_t jobs_rejected() const { return jobs_rejected_.load(); }
  /// True while startup replay runs; kSubmit/kQuery answer kRecovering.
  bool recovering() const { return recovering_.load(); }
  /// Jobs this incarnation re-admitted from the journal (lost by a crash).
  std::uint64_t jobs_recovered() const { return jobs_recovered_.load(); }
  /// Re-admitted supervised jobs that resumed from a banked checkpoint.
  std::uint64_t jobs_resumed() const { return jobs_resumed_.load(); }
  /// Completed results restored from the journal for kQuery.
  std::uint64_t results_restored() const { return results_restored_.load(); }
  /// The startup scan's report (valid after start(); empty without a
  /// state_dir).
  const RecoveryReport& recovery_report() const { return recovery_report_; }
  std::size_t queue_depth() const { return queue_.queued(); }
  std::size_t jobs_running() const { return queue_.running(); }
  /// Live (not yet reaped) connections. A closed connection removes
  /// itself, so this returns to 0 once every client is gone — the
  /// long-running daemon never accumulates dead fds or threads.
  std::size_t connections() const;

  /// The wall-clock plane (DESIGN.md §17). Tests and benches read these
  /// directly; remote scrapers go through kStats / fasda_stat.
  obs::ServerStats& wall_stats() { return stats_; }
  obs::ServeTrace& wall_trace() { return trace_; }
  /// The kStats bodies, also usable in-process: health + metrics as JSON,
  /// or the Prometheus text exposition. Both refresh the gauges first.
  std::string stats_json();
  std::string stats_prometheus();

  /// Installs a SIGTERM + SIGINT handler that routes to `server`'s drain
  /// pipe (async-signal-safe write). Pass nullptr to restore the previous
  /// handlers. One server at a time.
  static void install_signal_drain(Server* server);

  /// Blocks until a drain signal arrives (SIGTERM/SIGINT via
  /// install_signal_drain, or request_drain()), then calls begin_drain()
  /// and returns.
  void wait_for_drain_signal();

  /// Programmatic equivalent of SIGTERM (also unblocks
  /// wait_for_drain_signal).
  void request_drain();

 private:
  struct ConnState;
  struct Job;

  /// Runs on accept_thread_. Takes the listen fd by value: stop() closes
  /// listen_fd_ only after joining this thread.
  void accept_loop(int listen_fd);
  void connection_loop(std::shared_ptr<ConnState> conn);
  void reap_connection(std::uint64_t conn_id);
  void join_finished_conn_threads();
  void handle_submit(ConnState& conn, const std::string& payload);
  void handle_query(ConnState& conn, const std::string& payload);
  void handle_ping(ConnState& conn);
  void handle_stats(ConnState& conn, const std::string& payload);
  void run_job(std::shared_ptr<Job> job);
  std::string job_status_json(Job& job);
  void reap_history_locked();

  // Wall-clock plane plumbing (DESIGN.md §17).
  std::string health_json();    ///< the kPing body (also embedded in kStats)
  void refresh_wall_gauges();
  void dump_wall_obs();         ///< rewrite metrics_out / trace_out
  void metrics_loop();          ///< periodic dump thread

  // Durability plumbing (all no-ops without a state_dir).
  bool journal_enabled() const { return journal_ok_.load(); }
  std::string journal_path() const;
  std::string checkpoint_file(std::uint64_t job_id, int replica,
                              long long step) const;
  /// Appends one record; an I/O failure demotes the journal to disabled
  /// (jobs keep running non-durably) instead of killing the daemon.
  void journal_append(JournalRecord type, const std::string& payload);
  /// Replays the salvaged journal: restores completed results, re-admits
  /// lost jobs in original order (resuming supervised ones from their
  /// checkpoints), sweeps orphan checkpoint files, compacts, and closes
  /// the kRecovering window. Runs on recovery_thread_.
  void recover_and_admit();
  void join_recovery_thread();
  /// Rewrites the journal to the live minimum (kCompleted for retained
  /// finished jobs, kAdmitted + latest kCheckpoint for pending ones).
  void compact_journal();
  void remove_job_checkpoints(std::uint64_t job_id);

  ServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> torn_down_{false};

  JobQueue queue_;
  std::thread accept_thread_;

  // Connection registry. A connection_loop thread reaps itself on exit:
  // it erases its ConnState (dropping the last long-lived reference, which
  // closes the fd) and parks its joinable std::thread handle on
  // finished_conn_threads_, which the acceptor (and stop()) joins. A
  // long-running daemon therefore holds fds/threads only for live clients.
  mutable std::mutex conns_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<ConnState>> conns_;
  std::unordered_map<std::uint64_t, std::thread> conn_threads_;
  std::vector<std::thread> finished_conn_threads_;
  std::uint64_t next_conn_id_ = 1;

  std::mutex jobs_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::deque<std::uint64_t> finished_order_;
  std::unordered_map<std::string, std::uint64_t> idempotency_;  // key -> id
  std::uint64_t next_job_id_ = 1;

  // Lock order: jobs_mu_ -> job->mu -> journal_mu_ -> queue internals.
  std::mutex journal_mu_;
  Journal journal_;
  std::atomic<bool> journal_ok_{false};
  std::atomic<bool> recovering_{false};
  std::mutex recovery_join_mu_;
  std::thread recovery_thread_;
  RecoveryReport recovery_report_;

  std::atomic<std::uint64_t> jobs_submitted_{0};
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> jobs_rejected_{0};
  std::atomic<std::uint64_t> jobs_recovered_{0};
  std::atomic<std::uint64_t> jobs_resumed_{0};
  std::atomic<std::uint64_t> results_restored_{0};

  // The wall-clock observability plane (DESIGN.md §17) — never mixed with
  // the deterministic per-job Hubs. stats_'s mutex is a leaf lock: safe to
  // emit under any server lock, and it takes none itself.
  obs::ServerStats stats_;
  obs::ServeTrace trace_;
  std::uint64_t start_us_ = 0;  ///< wall_micros() at start()
  std::mutex metrics_cv_mu_;
  std::condition_variable metrics_cv_;
  bool metrics_stop_ = false;
  std::thread metrics_thread_;

  int drain_pipe_[2] = {-1, -1};  // [0] read, [1] write (signal-safe)
};

}  // namespace fasda::serve
