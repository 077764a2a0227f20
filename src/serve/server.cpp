#include "fasda/serve/server.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <unordered_set>
#include <utility>

#include "fasda/md/checkpoint.hpp"
#include "fasda/serve/json.hpp"
#include "fasda/util/log.hpp"

namespace fasda::serve {
namespace {

// Signal handlers cannot touch the Server object; they write one byte into
// the drain pipe and wait_for_drain_signal() does the rest on a normal
// thread. install_signal_drain() is documented one-server-at-a-time, so a
// single global fd is enough.
std::atomic<int> g_drain_write_fd{-1};

void drain_signal_handler(int /*signo*/) {
  const int fd = g_drain_write_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    // The pipe is never full in practice; a failed write just means a
    // drain is already pending, which is the same outcome.
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

/// Adapts a lambda to the StepObserver interface so the per-replica status
/// publisher can capture the job record without the observer type needing
/// access to Server's private nested structs.
class FnObserver final : public engine::StepObserver {
 public:
  using Fn = std::function<void(int, const engine::Energies&)>;
  explicit FnObserver(Fn fn) : fn_(std::move(fn)) {}
  void on_sample(int step, const md::SystemState& /*state*/,
                 const engine::Energies& energies) override {
    fn_(step, energies);
  }

 private:
  Fn fn_;
};

}  // namespace

/// One accepted socket. `send_safe` is the only way job threads talk to a
/// connection: it serializes whole frames under `send_mu` and demotes any
/// socket failure (client vanished mid-job) to a dead flag — the job keeps
/// running and is reaped normally.
struct Server::ConnState {
  ConnState(std::uint64_t i, Conn c) : id(i), conn(std::move(c)) {}

  const std::uint64_t id;
  Conn conn;
  std::mutex send_mu;
  std::atomic<bool> alive{true};

  bool send_safe(MsgType type, std::string_view payload) noexcept {
    if (!alive.load(std::memory_order_relaxed)) return false;
    std::lock_guard<std::mutex> lock(send_mu);
    try {
      conn.send(type, payload);
      return true;
    } catch (...) {
      alive.store(false, std::memory_order_relaxed);
      conn.shutdown_both();
      return false;
    }
  }
};

/// One submitted job. `mu` guards state/result/hub/observers — the obs
/// registry keeps its lock-free single-writer contract because every
/// publish and every snapshot happens under this one mutex.
struct Server::Job {
  /// kRecovering/kResumed are the recovered counterparts of
  /// kQueued/kRunning: a tenant querying a job that rode through a daemon
  /// crash can tell it from a fresh submission (DESIGN.md §16).
  enum class State : std::uint8_t {
    kQueued,
    kRunning,
    kRecovering,
    kResumed,
    kDone,
  };

  std::uint64_t id = 0;
  JobRequest req;
  /// Wall-clock span id (DESIGN.md §17): assigned at first admission,
  /// persisted in the kAdmitted journal record, and reused verbatim by
  /// every later incarnation — the token that stitches this job's trace
  /// spans across kill -9 restarts.
  std::uint64_t span = 0;
  /// wall_micros() when this incarnation (re-)admitted the job; anchors
  /// the submit→result latency observation.
  std::uint64_t admitted_us = 0;
  /// Set (before the job is visible to workers) when this incarnation
  /// re-admitted or restored the job from the journal.
  bool recovered = false;
  /// Checkpoint hand-off filled by recovery: replica -> (banked step,
  /// loaded state). run_job moves it into ExecutionHooks.
  std::map<int, std::pair<long long, md::SystemState>> resume;

  std::mutex mu;
  State state = State::kQueued;
  /// replica -> latest journaled checkpoint step (for compaction and for
  /// deleting superseded checkpoint files).
  std::map<int, long long> banked;
  obs::Hub hub;
  std::optional<JobResult> result;
  std::vector<std::unique_ptr<engine::StepObserver>> observers;
  std::weak_ptr<ConnState> subscriber;
};

Server::Server(ServerConfig config)
    : config_(std::move(config)), queue_(config_.queue) {
  stats_.set_enabled(config_.wall_obs);
  trace_.set_enabled(config_.wall_obs);
  queue_.set_stats(&stats_);
  if (::pipe(drain_pipe_) != 0) {
    throw WireError(std::string("pipe: ") + std::strerror(errno));
  }
  ::fcntl(drain_pipe_[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(drain_pipe_[1], F_SETFD, FD_CLOEXEC);
}

Server::~Server() { stop(); }

void Server::start() {
  start_us_ = obs::wall_micros();
  if (!config_.state_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.state_dir, ec);
    // Scan + truncate-to-salvaged synchronously so every append this
    // incarnation makes lands after a known-good prefix; the (possibly
    // slow) checkpoint loading and re-admission run on recovery_thread_
    // behind the kRecovering window.
    recovery_report_ = Journal::recover(journal_path());
    {
      std::lock_guard<std::mutex> lock(journal_mu_);
      journal_.open_appending(journal_path(), recovery_report_,
                              config_.journal_fsync);
      if (config_.wall_obs) {
        journal_.set_append_observer(
            [this](std::uint64_t append_us, std::uint64_t fsync_us) {
              stats_.add(stats_.journal_appends);
              stats_.observe(stats_.journal_append_us, append_us);
              if (fsync_us > 0) {
                stats_.observe(stats_.journal_fsync_us, fsync_us);
              }
            });
      }
    }
    journal_ok_.store(true);
    recovering_.store(true);
  }
  auto [fd, port] = listen_on(config_.host, config_.port);
  listen_fd_ = fd;
  port_ = port;
  trace_.instant(0, start_us_, "incarnation-start");
  queue_.start_workers(config_.queue_workers);
  if (!config_.state_dir.empty()) {
    recovery_thread_ = std::thread([this] { recover_and_admit(); });
  }
  accept_thread_ =
      std::thread([this, fd = listen_fd_] { accept_loop(fd); });
  if (config_.wall_obs &&
      (!config_.metrics_out.empty() || !config_.trace_out.empty())) {
    metrics_thread_ = std::thread([this] { metrics_loop(); });
  }
  util::slog(util::LogLevel::kInfo, util::LogFields("serve.server"),
             "listening on %s:%u (workers=%zu state_dir=%s)",
             config_.host.c_str(), static_cast<unsigned>(port_),
             config_.queue_workers,
             config_.state_dir.empty() ? "-" : config_.state_dir.c_str());
  started_.store(true);
}

void Server::begin_drain() { queue_.begin_drain(); }

void Server::drain_and_stop() {
  begin_drain();
  // Recovery re-admissions are acknowledged work from a previous
  // incarnation: they must land in the queue (and therefore be waited on)
  // before the queue can be considered drained.
  join_recovery_thread();
  queue_.wait_idle();
  if (journal_enabled() && !recovering_.load()) {
    // Everything admitted has completed and is journaled; the record lets
    // the next startup skip the re-admission scan entirely.
    journal_append(JournalRecord::kCleanShutdown, "{}");
  }
  stop();
}

void Server::join_recovery_thread() {
  std::lock_guard<std::mutex> lock(recovery_join_mu_);
  if (recovery_thread_.joinable()) recovery_thread_.join();
}

void Server::stop() {
  if (torn_down_.exchange(true)) return;
  stopping_.store(true);
  request_drain();  // unblock wait_for_drain_signal()
  // Wake the acceptor, join it, and only then close: closing first would
  // let accept() run on a reused fd number.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  join_recovery_thread();
  std::unordered_map<std::uint64_t, std::shared_ptr<ConnState>> conns;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
    for (auto& [id, t] : conn_threads_) threads.push_back(std::move(t));
    conn_threads_.clear();
    for (std::thread& t : finished_conn_threads_) threads.push_back(std::move(t));
    finished_conn_threads_.clear();
  }
  for (const auto& [id, c] : conns) c->conn.shutdown_both();
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  queue_.stop();
  // Workers are joined: no more appends. Close the journal so the fd does
  // not outlive the server (the file stays, ready for the next start()).
  journal_ok_.store(false);
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    journal_.close();
  }
  {
    std::lock_guard<std::mutex> lock(metrics_cv_mu_);
    metrics_stop_ = true;
  }
  metrics_cv_.notify_all();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  // One final dump after every worker is quiet, so the files on disk
  // reflect the complete incarnation (the periodic dumps are prefixes).
  dump_wall_obs();
  for (int& fd : drain_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

void Server::request_drain() {
  if (drain_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(drain_pipe_[1], &byte, 1);
  }
}

void Server::wait_for_drain_signal() {
  char byte = 0;
  for (;;) {
    const ssize_t n = ::read(drain_pipe_[0], &byte, 1);
    if (n < 0 && errno == EINTR) continue;
    break;  // signal byte, request_drain byte, or pipe closed by stop()
  }
  begin_drain();
}

void Server::install_signal_drain(Server* server) {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sigemptyset(&sa.sa_mask);
  if (server != nullptr) {
    g_drain_write_fd.store(server->drain_pipe_[1]);
    sa.sa_handler = drain_signal_handler;
    sa.sa_flags = SA_RESTART;
  } else {
    g_drain_write_fd.store(-1);
    sa.sa_handler = SIG_DFL;
  }
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

void Server::accept_loop(int listen_fd) {
  for (;;) {
    join_finished_conn_threads();
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      if (stopping_.load()) return;  // listen socket shut down by stop()
      switch (err) {
        // Transient: the peer hung up mid-handshake, or the process/system
        // is briefly out of fds or buffers. A daemon must keep accepting —
        // self-reaping connections release fds, so exhaustion clears.
        case ECONNABORTED:
        case EMFILE:
        case ENFILE:
        case ENOBUFS:
        case ENOMEM:
        case EAGAIN:
#if EAGAIN != EWOULDBLOCK
        case EWOULDBLOCK:
#endif
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          continue;
        default:
          return;  // the listen socket itself is broken
      }
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto conn = std::make_shared<ConnState>(next_conn_id_++, Conn(fd));
    conn->conn.set_recv_timeout(config_.recv_timeout_seconds);
    conn->conn.set_send_timeout(config_.send_timeout_seconds);
    conns_.emplace(conn->id, conn);
    stats_.add(stats_.conns_accepted);
    stats_.set(stats_.conns_active, static_cast<double>(conns_.size()));
    conn_threads_.emplace(
        conn->id, std::thread([this, conn] { connection_loop(std::move(conn)); }));
  }
}

void Server::connection_loop(std::shared_ptr<ConnState> conn) {
  for (;;) {
    WireFrame frame;
    DecodeStatus st;
    try {
      st = conn->conn.recv(frame);
    } catch (const WireError&) {
      break;  // peer closed / timeout / shutdown by stop()
    }
    if (st != DecodeStatus::kFrame) {
      switch (st) {
        case DecodeStatus::kBadLength:
          stats_.add(stats_.frames_bad_length);
          break;
        case DecodeStatus::kBadCrc: stats_.add(stats_.frames_bad_crc); break;
        default: stats_.add(stats_.frames_bad_type); break;
      }
      // Protocol violation: answer with the typed reason, then close.
      // After a bad length or CRC the stream cannot be resynchronized.
      conn->send_safe(MsgType::kError, std::string("{\"reason\":") +
                                           json::quoted(
                                               decode_status_name(st)) +
                                           "}");
      break;
    }
    stats_.add(stats_.frames_decoded);
    switch (frame.type) {
      case MsgType::kSubmit: handle_submit(*conn, frame.payload); break;
      case MsgType::kQuery: handle_query(*conn, frame.payload); break;
      case MsgType::kPing: handle_ping(*conn); break;
      case MsgType::kStats: handle_stats(*conn, frame.payload); break;
      default:
        // A CRC-valid frame whose type only a server may send: treat as a
        // protocol violation like an unknown type.
        stats_.add(stats_.frames_bad_type);
        conn->send_safe(MsgType::kError,
                        "{\"reason\":\"unexpected-type\"}");
        conn->alive.store(false);
        break;
    }
    if (!conn->alive.load()) break;
  }
  conn->alive.store(false);
  conn->conn.shutdown_both();
  reap_connection(conn->id);
  // `conn` (this thread's shared_ptr) is the last long-lived reference;
  // releasing it on return closes the fd. A job thread mid-push may hold
  // a transient reference a moment longer — never past its send timeout.
}

void Server::reap_connection(std::uint64_t conn_id) {
  // Runs on the connection's own thread: move the (still running) thread
  // handle to the finished list — anyone may join it except this thread.
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(conn_id);
  stats_.add(stats_.conns_closed);
  stats_.set(stats_.conns_active, static_cast<double>(conns_.size()));
  const auto it = conn_threads_.find(conn_id);
  if (it != conn_threads_.end()) {
    finished_conn_threads_.push_back(std::move(it->second));
    conn_threads_.erase(it);
  }
}

void Server::join_finished_conn_threads() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    finished.swap(finished_conn_threads_);
  }
  for (std::thread& t : finished) {
    if (t.joinable()) t.join();
  }
}

std::size_t Server::connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

void Server::handle_submit(ConnState& conn, const std::string& payload) {
  std::string error;
  const auto parsed = json::parse(payload, &error);
  std::optional<JobRequest> req;
  if (parsed) req = JobRequest::from_json(*parsed, error);
  if (req) {
    const std::string problem = req->validate();
    if (!problem.empty()) {
      req.reset();
      error = problem;
    }
  }
  if (!req) {
    // Payload-level failure: the frame itself was valid, so the connection
    // stays open and the tenant may retry with a fixed request.
    jobs_rejected_.fetch_add(1);
    stats_.add(stats_.rejected_bad_request);
    conn.send_safe(MsgType::kRejected,
                   "{\"reason\":\"bad-request\",\"detail\":" +
                       json::quoted(error) + "}");
    return;
  }

  if (recovering_.load()) {
    // Journal replay in progress: the idempotency map is not rebuilt yet,
    // so admitting now could double-run a resubmitted job. Retryable.
    stats_.add(stats_.rejected_recovering);
    conn.send_safe(MsgType::kRecovering, "{\"reason\":\"recovering\"}");
    return;
  }

  std::shared_ptr<ConnState> self;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    const auto it = conns_.find(conn.id);
    if (it != conns_.end()) self = it->second;
  }

  std::shared_ptr<Job> job;
  std::shared_ptr<Job> existing;
  std::unique_lock<std::mutex> jobs_lock(jobs_mu_);
  if (!req->idempotency.empty()) {
    const auto it = idempotency_.find(req->idempotency);
    if (it != idempotency_.end()) {
      const auto jit = jobs_.find(it->second);
      if (jit != jobs_.end()) existing = jit->second;
    }
  }
  if (existing) {
    // Duplicate submit (a retry after an ambiguous crash or disconnect):
    // attach this connection to the original job instead of double-running
    // it. If the job already finished, replay its result.
    jobs_lock.unlock();
    std::string result_json;
    {
      std::lock_guard<std::mutex> lock(existing->mu);
      if (existing->state == Job::State::kDone && existing->result) {
        result_json = existing->result->to_json();
      } else {
        existing->subscriber = self;
      }
    }
    conn.send_safe(MsgType::kAccepted,
                   "{\"job\":" + std::to_string(existing->id) +
                       ",\"seq\":0,\"duplicate\":true}");
    if (!result_json.empty()) {
      conn.send_safe(MsgType::kResult, result_json);
    }
    return;
  }

  job = std::make_shared<Job>();
  job->id = next_job_id_++;
  job->req = *req;
  job->subscriber = self;
  // Span id: unique across incarnations (start_us_ differs per boot, the
  // job id per job) and comfortably below 2^53 so JSON consumers keep it
  // exact. Persisted in the kAdmitted record below; recovery reuses it.
  job->span = start_us_ ^ job->id;
  job->admitted_us = obs::wall_micros();
  jobs_.emplace(job->id, job);
  if (!req->idempotency.empty()) idempotency_[req->idempotency] = job->id;

  // Holding job->mu across admit + kAccepted guarantees the client sees
  // kAccepted before any kStatus/kResult push: run_job's first action is
  // to take this same mutex.
  std::unique_lock<std::mutex> job_lock(job->mu);
  // Write-ahead: the kAdmitted record is durable before the client can see
  // kAccepted, so an acknowledged job is always recoverable. jobs_mu_ is
  // held across append + enqueue, making journal record order identical to
  // queue arrival order — recovery re-admits in journal order and thereby
  // reproduces the original deterministic schedule.
  journal_append(JournalRecord::kAdmitted,
                 "{\"job\":" + std::to_string(job->id) +
                     ",\"span\":" + std::to_string(job->span) +
                     ",\"request\":" + job->req.to_json() + "}");
  const JobQueue::Ticket ticket = queue_.submit(
      req->tenant, req->priority, [this, job] { run_job(job); });
  if (ticket.status != Admit::kAdmitted) {
    // The admission record is already on disk; mark it dead so recovery
    // never resurrects a job the client was told was rejected.
    journal_append(JournalRecord::kRejected,
                   "{\"job\":" + std::to_string(job->id) + "}");
    jobs_.erase(job->id);
    if (!req->idempotency.empty()) idempotency_.erase(req->idempotency);
    job_lock.unlock();
    jobs_lock.unlock();
    jobs_rejected_.fetch_add(1);
    switch (ticket.status) {
      case Admit::kQueueFull: stats_.add(stats_.rejected_queue_full); break;
      case Admit::kTenantQuota:
        stats_.add(stats_.rejected_tenant_quota);
        break;
      case Admit::kDraining: stats_.add(stats_.rejected_draining); break;
      default: stats_.add(stats_.rejected_stopped); break;
    }
    stats_.tenant_add(req->tenant, "rejected");
    conn.send_safe(MsgType::kRejected,
                   std::string("{\"reason\":") +
                       json::quoted(admit_reason(ticket.status)) + "}");
    return;
  }
  // The "job" span opens here and closes when run_job sends the result;
  // "queued" nests inside it. Emitting under job->mu is race-free because
  // run_job's first action takes the same mutex.
  trace_.begin(job->id, job->span, "job", req->tenant);
  trace_.begin(job->id, job->span, "queued");
  jobs_lock.unlock();
  jobs_submitted_.fetch_add(1);
  stats_.add(stats_.jobs_submitted);
  stats_.tenant_add(req->tenant, "submitted");
  stats_.tenant_add(req->tenant, "bytes_in", payload.size());
  conn.send_safe(MsgType::kAccepted,
                 "{\"job\":" + std::to_string(job->id) +
                     ",\"seq\":" + std::to_string(ticket.seq) + "}");
}

void Server::run_job(std::shared_ptr<Job> job) {
  ExecutionHooks hooks;
  bool use_hooks = false;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    // A re-admitted job runs as kResumed so tenants can tell it from a
    // fresh kRunning (the journal replayed it; its observer stream picks
    // up at the last banked step, not at 0).
    job->state =
        job->recovered ? Job::State::kResumed : Job::State::kRunning;
    hooks.resume = std::move(job->resume);
    job->resume.clear();
    use_hooks = !hooks.resume.empty();
    trace_.end(job->id, job->span, "queued");
    trace_.begin(job->id, job->span, "execute");
  }
  journal_append(JournalRecord::kStarted,
                 "{\"job\":" + std::to_string(job->id) + "}");
  const std::uint64_t exec_start_us = obs::wall_micros();

  // Per-replica status publisher: every sample lands in the job's obs
  // registry (under job->mu, preserving the registry's single-writer
  // contract even when batch workers sample concurrently) and a kStatus
  // snapshot is pushed to the submitting connection if it is still there.
  const ReplicaObserverFactory factory =
      [this, job](int replica) -> engine::StepObserver* {
    auto observer = std::make_unique<FnObserver>(
        [this, job, replica](int step, const engine::Energies& e) {
          std::string status;
          {
            std::lock_guard<std::mutex> lock(job->mu);
            auto& reg = job->hub.metrics();
            const std::string prefix = "serve.r" + std::to_string(replica);
            reg.set(obs::kClusterNode, reg.gauge(prefix + ".step"), step);
            reg.set(obs::kClusterNode, reg.gauge(prefix + ".energy.total"),
                    e.total);
            reg.set(obs::kClusterNode,
                    reg.gauge(prefix + ".energy.temperature"), e.temperature);
            reg.add(obs::kClusterNode, reg.counter("serve.samples"));
            status = job_status_json(*job);
          }
          if (auto s = job->subscriber.lock()) {
            s->send_safe(MsgType::kStatus, status);
          }
        });
    std::lock_guard<std::mutex> lock(job->mu);
    job->observers.push_back(std::move(observer));
    return job->observers.back().get();
  };

  if (journal_enabled() && job->req.supervise) {
    // Checkpoint hand-off: the supervisor saves each banked state to a
    // step-stamped file (atomic tmp+rename) and only then fires
    // `checkpointed`, so the journal record always names an
    // already-durable file. The superseded file is deleted only after the
    // new record is on disk.
    use_hooks = true;
    hooks.checkpoint_path = [this, job](int replica, long long step) {
      return checkpoint_file(job->id, replica, step);
    };
    hooks.checkpointed = [this, job](int replica, long long step) {
      long long previous = 0;
      {
        std::lock_guard<std::mutex> lock(job->mu);
        const auto it = job->banked.find(replica);
        if (it != job->banked.end()) previous = it->second;
        job->banked[replica] = step;
      }
      journal_append(JournalRecord::kCheckpoint,
                     "{\"job\":" + std::to_string(job->id) +
                         ",\"replica\":" + std::to_string(replica) +
                         ",\"step\":" + std::to_string(step) + "}");
      trace_.instant(job->id, job->span, "checkpoint", step, "step");
      if (previous > 0 && previous != step) {
        ::unlink(checkpoint_file(job->id, replica, previous).c_str());
      }
    };
  }

  JobResult result;
  try {
    result = execute_job(job->id, job->req, &factory,
                         use_hooks ? &hooks : nullptr);
  } catch (const std::exception& e) {
    result.job_id = job->id;
    result.outcome = JobOutcome::kIncomplete;
    result.exit_code = job_outcome_exit_code(result.outcome);
    result.replicas.resize(1);
    result.replicas[0].label = "r0";
    result.replicas[0].outcome = JobOutcome::kIncomplete;
    result.replicas[0].error = e.what();
  }

  stats_.observe(stats_.execute_us, obs::wall_micros() - exec_start_us);

  std::string result_json;
  std::shared_ptr<ConnState> push_to;
  {
    // Durable-before-visible: the kCompleted record reaches the disk
    // before the result becomes observable through kQuery or the kResult
    // push — an acknowledged result can never be lost to a crash, and a
    // crash before this append re-runs the job deterministically instead.
    // The append sits under jobs_mu_ so a concurrent compaction (which
    // snapshots job states under the same lock) can never rotate this
    // record away.
    std::lock_guard<std::mutex> jobs_lock(jobs_mu_);
    std::lock_guard<std::mutex> lock(job->mu);
    result_json = result.to_json();
    trace_.end(job->id, job->span, "execute");
    journal_append(JournalRecord::kCompleted,
                   "{\"job\":" + std::to_string(job->id) +
                       ",\"tenant\":" + json::quoted(job->req.tenant) +
                       ",\"idempotency\":" +
                       json::quoted(job->req.idempotency) +
                       ",\"result\":" + result_json + "}");
    if (journal_enabled()) {
      trace_.instant(job->id, job->span, "durable");
    }
    job->state = Job::State::kDone;
    job->result = result;
    // The observers' lambdas capture a shared_ptr back to this job; they
    // are dead once execute_job returns, and dropping them here breaks
    // the Job <-> FnObserver ownership cycle so reaped jobs actually free.
    job->observers.clear();
    push_to = job->subscriber.lock();
    finished_order_.push_back(job->id);
    reap_history_locked();
  }
  jobs_completed_.fetch_add(1);
  stats_.add(stats_.jobs_completed);
  stats_.tenant_add(job->req.tenant, "completed");
  stats_.tenant_add(job->req.tenant, "bytes_out", result_json.size());
  if (job->admitted_us != 0) {
    stats_.observe(stats_.submit_to_result_us,
                   obs::wall_micros() - job->admitted_us);
  }
  remove_job_checkpoints(job->id);
  if (push_to) {
    if (push_to->send_safe(MsgType::kResult, result_json)) {
      trace_.instant(job->id, job->span, "result-sent");
    }
  }
  trace_.end(job->id, job->span, "job");
  if (journal_enabled()) {
    bool oversized = false;
    {
      std::lock_guard<std::mutex> lock(journal_mu_);
      oversized = journal_.is_open() &&
                  journal_.bytes() > config_.journal_rotate_bytes;
    }
    if (oversized) compact_journal();
  }
}

std::string Server::job_status_json(Job& job) {
  // Caller holds job.mu.
  const char* state = "queued";
  switch (job.state) {
    case Job::State::kQueued: state = "queued"; break;
    case Job::State::kRunning: state = "running"; break;
    case Job::State::kRecovering: state = "recovering"; break;
    case Job::State::kResumed: state = "resumed"; break;
    case Job::State::kDone: state = "done"; break;
  }
  std::string out = "{\"job\":" + std::to_string(job.id);
  out += ",\"tenant\":" + json::quoted(job.req.tenant);
  out += std::string(",\"state\":\"") + state + "\"";
  out += std::string(",\"recovered\":") + (job.recovered ? "true" : "false");
  out += ",\"metrics\":" + job.hub.metrics().snapshot().to_json();
  if (job.result) out += ",\"result\":" + job.result->to_json();
  out += "}";
  return out;
}

void Server::handle_query(ConnState& conn, const std::string& payload) {
  if (recovering_.load()) {
    // The jobs map is mid-rebuild; answering now could claim a job that is
    // about to be restored does not exist. Retryable.
    conn.send_safe(MsgType::kRecovering, "{\"reason\":\"recovering\"}");
    return;
  }
  std::string error;
  const auto parsed = json::parse(payload, &error);
  const json::Value* id = parsed ? parsed->find("job") : nullptr;
  if (!id || !id->is_number() || !id->integral || id->integer < 0) {
    conn.send_safe(MsgType::kRejected,
                   "{\"reason\":\"bad-request\",\"detail\":\"query needs "
                   "{\\\"job\\\": id}\"}");
    return;
  }
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    const auto it = jobs_.find(static_cast<std::uint64_t>(id->integer));
    if (it != jobs_.end()) job = it->second;
  }
  if (!job) {
    conn.send_safe(MsgType::kRejected, "{\"reason\":\"unknown-job\"}");
    return;
  }
  std::string status;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    status = job_status_json(*job);
  }
  conn.send_safe(MsgType::kStatus, status);
}

void Server::handle_ping(ConnState& conn) {
  conn.send_safe(MsgType::kPong, health_json());
}

std::string Server::health_json() {
  std::string out = "{\"queued\":" + std::to_string(queue_.queued());
  out += ",\"running\":" + std::to_string(queue_.running());
  out += ",\"submitted\":" + std::to_string(jobs_submitted_.load());
  out += ",\"completed\":" + std::to_string(jobs_completed_.load());
  out += ",\"rejected\":" + std::to_string(jobs_rejected_.load());
  out += std::string(",\"draining\":") +
         (queue_.draining() ? "true" : "false");
  out += std::string(",\"recovering\":") +
         (recovering_.load() ? "true" : "false");
  // PR 10 enrichment: capacity, durability and recovery-window facts an
  // operator's first ping should answer without a log dive.
  out += ",\"workers\":" + std::to_string(config_.queue_workers);
  out += ",\"connections\":" + std::to_string(connections());
  out += std::string(",\"journal\":\"") +
         (config_.state_dir.empty()
              ? "none"
              : (journal_enabled() ? "enabled" : "disabled")) +
         "\"";
  out += std::string(",\"fsync\":\"") +
         (config_.journal_fsync == JournalFsync::kAlways ? "always"
                                                         : "never") +
         "\"";
  out += ",\"recovered\":" + std::to_string(jobs_recovered_.load());
  out += ",\"resumed\":" + std::to_string(jobs_resumed_.load());
  out += ",\"results_restored\":" + std::to_string(results_restored_.load());
  out += ",\"uptime_us\":" +
         std::to_string(start_us_ == 0 ? 0 : obs::wall_micros() - start_us_);
  out += "}";
  return out;
}

void Server::handle_stats(ConnState& conn, const std::string& payload) {
  std::string format = "json";
  std::string error;
  if (!payload.empty()) {
    const auto parsed = json::parse(payload, &error);
    if (parsed) {
      if (const json::Value* f = parsed->find("format")) {
        format = f->str_or("json");
      }
    }
  }
  if (format == "prometheus") {
    conn.send_safe(MsgType::kStats, stats_prometheus());
    return;
  }
  if (format != "json") {
    conn.send_safe(MsgType::kRejected,
                   "{\"reason\":\"bad-request\",\"detail\":\"format must be "
                   "json or prometheus\"}");
    return;
  }
  conn.send_safe(MsgType::kStats, stats_json());
}

std::string Server::stats_json() {
  refresh_wall_gauges();
  std::string metrics = stats_.snapshot().to_json();
  while (!metrics.empty() && metrics.back() == '\n') metrics.pop_back();
  return "{\"server\":" + health_json() + ",\"wall\":" + metrics +
         ",\"trace_events\":" + std::to_string(trace_.size()) +
         ",\"trace_dropped\":" + std::to_string(trace_.dropped()) + "}";
}

std::string Server::stats_prometheus() {
  refresh_wall_gauges();
  return stats_.snapshot().to_prometheus();
}

void Server::refresh_wall_gauges() {
  stats_.set(stats_.queue_depth, static_cast<double>(queue_.queued()));
  stats_.set(stats_.jobs_running, static_cast<double>(queue_.running()));
  stats_.set(stats_.conns_active, static_cast<double>(connections()));
  stats_.set(stats_.uptime_seconds,
             start_us_ == 0
                 ? 0.0
                 : static_cast<double>(obs::wall_micros() - start_us_) / 1e6);
  stats_.set(stats_.recovering, recovering_.load() ? 1.0 : 0.0);
}

void Server::dump_wall_obs() {
  if (!config_.wall_obs) return;
  if (!config_.metrics_out.empty()) {
    obs::write_text_file(config_.metrics_out, stats_prometheus());
  }
  if (!config_.trace_out.empty()) {
    obs::write_text_file(config_.trace_out, trace_.to_chrome_json());
  }
}

void Server::metrics_loop() {
  const auto period =
      std::chrono::seconds(std::max(1, config_.metrics_every_seconds));
  std::unique_lock<std::mutex> lock(metrics_cv_mu_);
  for (;;) {
    if (metrics_cv_.wait_for(lock, period, [this] { return metrics_stop_; })) {
      return;  // stop() dumps once more after the workers are quiet
    }
    lock.unlock();
    dump_wall_obs();
    lock.lock();
  }
}

std::string Server::journal_path() const {
  return config_.state_dir + "/journal.fjl";
}

std::string Server::checkpoint_file(std::uint64_t job_id, int replica,
                                    long long step) const {
  // Step-stamped so the file name itself binds step <-> state: the journal
  // record, not directory mtime or file content, is the authority on which
  // checkpoint resumes a job. A file saved after the last journaled record
  // (crash between rename and append) is simply never referenced and gets
  // swept at the next recovery.
  return config_.state_dir + "/job-" + std::to_string(job_id) + "-r" +
         std::to_string(replica) + "-s" + std::to_string(step) + ".ckpt";
}

void Server::journal_append(JournalRecord type, const std::string& payload) {
  if (!journal_ok_.load()) return;
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (!journal_.is_open()) return;
  try {
    journal_.append(type, payload);
  } catch (const JournalError& e) {
    // The disk went away under the daemon. Killing in-flight jobs would
    // turn an I/O error into lost work; instead the journal is demoted to
    // disabled — the daemon keeps serving (PR 8 ephemeral semantics) and
    // the operator sees why durability lapsed.
    journal_ok_.store(false);
    journal_.close();
    stats_.add(stats_.journal_disabled);
    util::slog(util::LogLevel::kError, util::LogFields("serve.journal"),
               "journal disabled: %s", e.what());
  }
}

void Server::recover_and_admit() {
  const std::uint64_t recovery_t0 = obs::wall_micros();
  // The recovery span lives on the server-level track (job 0); its span id
  // is this incarnation's start_us_, which is unique per boot.
  trace_.begin(0, start_us_, "recovery");
  if (config_.recovery_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.recovery_delay_ms));
  }

  // Fold the salvaged record stream into per-job facts. Duplicated records
  // (possible after a crash mid-compaction retry or in the fuzz suite) are
  // idempotent: first occurrence fixes the order, later ones overwrite
  // content with identical data.
  struct CompletedInfo {
    std::string tenant;
    std::string idempotency;
    JobResult result;
  };
  std::vector<std::uint64_t> admitted_order;
  std::unordered_map<std::uint64_t, JobRequest> admitted;
  std::unordered_map<std::uint64_t, std::uint64_t> spans;
  std::unordered_set<std::uint64_t> dead;
  std::vector<std::uint64_t> done_order;
  std::unordered_map<std::uint64_t, CompletedInfo> completed;
  std::unordered_map<std::uint64_t, std::map<int, long long>> checkpoints;
  std::uint64_t max_id = 0;

  for (const JournalEntry& entry : recovery_report_.entries) {
    std::string error;
    const auto parsed = json::parse(entry.payload, &error);
    if (!parsed || !parsed->is_object()) continue;  // defensive: skip
    const json::Value* jid = parsed->find("job");
    const std::uint64_t id =
        jid && jid->is_number() && jid->integral && jid->integer >= 0
            ? static_cast<std::uint64_t>(jid->integer)
            : 0;
    if (id > max_id) max_id = id;
    switch (entry.type) {
      case JournalRecord::kAdmitted: {
        if (id == 0) break;
        const json::Value* reqv = parsed->find("request");
        if (!reqv) break;
        const auto req = JobRequest::from_json(*reqv, error);
        if (!req) break;
        if (!admitted.count(id)) admitted_order.push_back(id);
        admitted[id] = *req;
        // The persisted wall-clock span id (PR 10): reusing it is what
        // stitches this job's spans across incarnations. Journals written
        // before PR 10 have no "span" key; those jobs get a fresh id.
        if (const json::Value* sp = parsed->find("span")) {
          if (sp->is_number() && sp->integral && sp->integer > 0) {
            spans[id] = static_cast<std::uint64_t>(sp->integer);
          }
        }
        break;
      }
      case JournalRecord::kStarted:
        break;  // informational: execution is re-derived, not replayed
      case JournalRecord::kCheckpoint: {
        const json::Value* rep = parsed->find("replica");
        const json::Value* step = parsed->find("step");
        if (id == 0 || !rep || !step) break;
        checkpoints[id][static_cast<int>(rep->int_or(0))] = step->int_or(0);
        break;
      }
      case JournalRecord::kCompleted: {
        if (id == 0) break;
        const json::Value* res = parsed->find("result");
        if (!res) break;
        const auto result = JobResult::from_json(*res, error);
        if (!result) break;
        CompletedInfo info;
        if (const json::Value* t = parsed->find("tenant")) {
          info.tenant = t->str_or("default");
        }
        if (const json::Value* k = parsed->find("idempotency")) {
          info.idempotency = k->str_or("");
        }
        info.result = *result;
        if (!completed.count(id)) done_order.push_back(id);
        completed[id] = std::move(info);
        break;
      }
      case JournalRecord::kRejected:
        if (id != 0) dead.insert(id);
        break;
      case JournalRecord::kCleanShutdown:
        break;
    }
  }

  // Restore completed results so kQuery keeps answering for them and
  // their idempotency keys keep deduplicating.
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    if (next_job_id_ <= max_id) next_job_id_ = max_id + 1;
    for (const std::uint64_t id : done_order) {
      const CompletedInfo& info = completed.at(id);
      auto job = std::make_shared<Job>();
      job->id = id;
      job->req.tenant =
          info.tenant.empty() ? std::string("default") : info.tenant;
      job->req.idempotency = info.idempotency;
      job->recovered = true;
      job->state = Job::State::kDone;
      job->result = info.result;
      const auto sit = spans.find(id);
      job->span = sit != spans.end() ? sit->second : (start_us_ ^ id);
      jobs_.emplace(id, job);
      finished_order_.push_back(id);
      if (!info.idempotency.empty()) idempotency_[info.idempotency] = id;
      results_restored_.fetch_add(1);
      stats_.add(stats_.results_restored);
      // Mark the restoration on the job's own track under its persisted
      // span id: the previous incarnation's dump shows the same id, so the
      // trace records that this job's result outlived the crash
      // (validate_trace.py --expect-stitched counts exactly these).
      trace_.instant(id, job->span, "result-restored");
    }
    reap_history_locked();
  }

  // Rebuild the lost pending jobs (admitted, never completed or rejected)
  // in original journal order; supervised ones resume from their last
  // banked checkpoint when its file loads cleanly, and fall back to a
  // deterministic re-run from scratch when it does not.
  std::vector<std::shared_ptr<Job>> to_admit;
  std::unordered_set<std::string> live_checkpoint_files;
  for (const std::uint64_t id : admitted_order) {
    if (stopping_.load()) break;
    if (completed.count(id) || dead.count(id)) continue;
    auto job = std::make_shared<Job>();
    job->id = id;
    job->req = admitted.at(id);
    job->recovered = true;
    job->state = Job::State::kRecovering;
    const auto sit = spans.find(id);
    job->span = sit != spans.end() ? sit->second : (start_us_ ^ id);
    job->admitted_us = obs::wall_micros();
    if (job->req.supervise) {
      const auto cit = checkpoints.find(id);
      if (cit != checkpoints.end()) {
        for (const auto& [replica, step] : cit->second) {
          const std::string path = checkpoint_file(id, replica, step);
          try {
            md::SystemState state = md::load_checkpoint(path);
            job->resume[replica] = {step, std::move(state)};
            job->banked[replica] = step;
            live_checkpoint_files.insert(path);
          } catch (const std::exception&) {
            // Missing or torn file: the journal record outlived its state
            // (possible under --journal-fsync never). Re-run from scratch
            // — slower, still bitwise identical.
          }
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      jobs_.emplace(id, job);
      if (!job->req.idempotency.empty()) {
        idempotency_[job->req.idempotency] = id;
      }
    }
    to_admit.push_back(std::move(job));
  }

  // Sweep checkpoint files the journal does not reference: leftovers of
  // completed jobs and orphans saved after the last journaled record.
  {
    std::error_code ec;
    std::filesystem::directory_iterator it(config_.state_dir, ec);
    if (!ec) {
      for (const auto& dirent : it) {
        const std::string name = dirent.path().filename().string();
        if (name.rfind("job-", 0) != 0 ||
            name.size() < 5 ||
            name.compare(name.size() - 5, 5, ".ckpt") != 0) {
          continue;
        }
        if (!live_checkpoint_files.count(dirent.path().string())) {
          std::filesystem::remove(dirent.path(), ec);
        }
      }
    }
  }

  // Re-admission in journal order: fresh queue seqs are assigned in the
  // original arrival order, so (priority, seq) pops reproduce the
  // pre-crash schedule exactly.
  for (const std::shared_ptr<Job>& job : to_admit) {
    if (stopping_.load()) break;
    jobs_recovered_.fetch_add(1);
    stats_.add(stats_.jobs_recovered);
    if (!job->resume.empty()) {
      jobs_resumed_.fetch_add(1);
      stats_.add(stats_.jobs_resumed);
    }
    // Re-open the job's spans under its persisted span id before the queue
    // can start it: a worker popping it immediately still finds a "queued"
    // span to close. The previous incarnation's dump shows the same span
    // id with no end — validate_trace.py stitches the two on exactly that.
    {
      std::lock_guard<std::mutex> lock(job->mu);
      trace_.begin(job->id, job->span, "job", job->req.tenant);
      trace_.begin(job->id, job->span, "queued");
    }
    const JobQueue::Ticket ticket = queue_.readmit(
        job->req.tenant, job->req.priority, [this, job] { run_job(job); });
    if (ticket.status != Admit::kAdmitted) break;  // stopped underneath us
  }

  if (!stopping_.load()) compact_journal();
  recovering_.store(false);
  const std::uint64_t recovery_us = obs::wall_micros() - recovery_t0;
  stats_.observe(stats_.recovery_us, recovery_us);
  trace_.end(0, start_us_, "recovery");
  if (!recovery_report_.entries.empty() || jobs_recovered_.load() > 0) {
    util::slog(util::LogLevel::kInfo, util::LogFields("serve.recovery"),
               "replayed %zu records in %llu us: %llu re-admitted "
               "(%llu resumed), %llu results restored, tail %s",
               recovery_report_.entries.size(),
               static_cast<unsigned long long>(recovery_us),
               static_cast<unsigned long long>(jobs_recovered_.load()),
               static_cast<unsigned long long>(jobs_resumed_.load()),
               static_cast<unsigned long long>(results_restored_.load()),
               journal_tail_name(recovery_report_.tail));
  }
}

void Server::compact_journal() {
  if (!journal_enabled()) return;
  // jobs_mu_ is held across snapshot + rotate: the appends that decide
  // exactly-once (kAdmitted, kRejected, kCompleted) also run under
  // jobs_mu_, so none of them can slip into the old file mid-rotation and
  // be lost. Advisory records (kStarted, kCheckpoint) may race and drop —
  // recovery only degrades to an earlier resume point, never loses a job.
  std::lock_guard<std::mutex> jobs_lock(jobs_mu_);
  std::vector<JournalEntry> entries;
  // Retained completed jobs first (the oldest facts), in history order.
  for (const std::uint64_t id : finished_order_) {
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) continue;
    Job& job = *it->second;
    std::lock_guard<std::mutex> lock(job.mu);
    if (!job.result) continue;
    entries.push_back(
        {JournalRecord::kCompleted,
         "{\"job\":" + std::to_string(job.id) +
             ",\"tenant\":" + json::quoted(job.req.tenant) +
             ",\"idempotency\":" + json::quoted(job.req.idempotency) +
             ",\"result\":" + job.result->to_json() + "}"});
  }
  // Pending jobs in id order == original admission order (ids are assigned
  // under jobs_mu_ in the same critical section as the journal append).
  std::vector<Job*> by_id;
  by_id.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) by_id.push_back(job.get());
  std::sort(by_id.begin(), by_id.end(),
            [](const Job* a, const Job* b) { return a->id < b->id; });
  for (Job* job : by_id) {
    std::lock_guard<std::mutex> lock(job->mu);
    if (job->state == Job::State::kDone) continue;  // emitted above
    entries.push_back({JournalRecord::kAdmitted,
                       "{\"job\":" + std::to_string(job->id) +
                           ",\"span\":" + std::to_string(job->span) +
                           ",\"request\":" + job->req.to_json() + "}"});
    for (const auto& [replica, step] : job->banked) {
      entries.push_back({JournalRecord::kCheckpoint,
                         "{\"job\":" + std::to_string(job->id) +
                             ",\"replica\":" + std::to_string(replica) +
                             ",\"step\":" + std::to_string(step) + "}"});
    }
  }
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (!journal_.is_open()) return;
  try {
    journal_.rotate(entries);
    stats_.add(stats_.journal_rotations);
  } catch (const JournalError& e) {
    journal_ok_.store(false);
    journal_.close();
    stats_.add(stats_.journal_disabled);
    util::slog(util::LogLevel::kError, util::LogFields("serve.journal"),
               "journal disabled: %s", e.what());
  }
}

void Server::remove_job_checkpoints(std::uint64_t job_id) {
  if (config_.state_dir.empty()) return;
  const std::string prefix = "job-" + std::to_string(job_id) + "-";
  std::error_code ec;
  std::filesystem::directory_iterator it(config_.state_dir, ec);
  if (ec) return;
  for (const auto& dirent : it) {
    const std::string name = dirent.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && name.size() >= 5 &&
        name.compare(name.size() - 5, 5, ".ckpt") == 0) {
      std::filesystem::remove(dirent.path(), ec);
    }
  }
}

void Server::reap_history_locked() {
  while (finished_order_.size() > config_.result_history) {
    const std::uint64_t id = finished_order_.front();
    finished_order_.pop_front();
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      // The job's durability ends with its history slot: drop its
      // idempotency binding too (a resubmit after eviction runs fresh,
      // exactly like PR 8's history semantics).
      const std::string& key = it->second->req.idempotency;
      if (!key.empty()) {
        const auto kit = idempotency_.find(key);
        if (kit != idempotency_.end() && kit->second == id) {
          idempotency_.erase(kit);
        }
      }
      jobs_.erase(it);
    }
  }
}

}  // namespace fasda::serve
