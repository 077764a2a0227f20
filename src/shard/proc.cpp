// Process shard transport (DESIGN.md §14): one forked worker process per
// contiguous shard slice, driven in lock-step rounds by the parent.
//
// Each worker inherits the fully built cluster by fork (copy-on-write):
// nodes, fabrics, barrier, scheduler — already wired, handles resolved,
// particles loaded. The worker narrows its scheduler to the owned shard
// groups; the parent runs the one cycle loop (sim::drive_until) and sends
// each of its steps to every worker as a frame, which the worker answers
// with the matching mode-aware Scheduler step:
//
//   kStart   arm owned nodes, begin-run            → kStatus
//   kSweep   loop top (wake sweep in kElide)       → kWake
//   kJump    jump a globally dead window           → kStatus
//   kExec    execute one cycle (uplink capture)    → kReport
//   kDeliver routed deliveries + barrier releases  → (no reply)
//   kFinish  settle: flush deferred idle           → (no reply)
//   kFold    end-of-run cluster fold               → kFoldData
//
// Between rounds the parent runs the shared check_health over the shipped
// statuses — the check the in-process transport runs over live nodes — so
// failures surface with identical types, messages and detection cycles.
// Round ordering preserves the two-phase contract: a cycle's captured
// deliveries are applied on the destination side before any cycle later
// than their send executes, and every arrival stamp is >= send + 1, so no
// tick can observe a difference from the in-process delivery path.

#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fasda/net/wire.hpp"
#include "fasda/shard/frames.hpp"
#include "fasda/shard/transport.hpp"
#include "fasda/util/bytes.hpp"

namespace fasda::shard {

namespace {

using util::ByteReader;
using util::ByteWriter;

// ---------------------------------------------------------------- codecs

void put_status(ByteWriter& w, const NodeStatus& s) {
  w.u8(s.done ? 1 : 0);
  w.u64(s.heartbeat);
  w.str(s.phase);
  w.u8(s.has_degraded ? 1 : 0);
  if (s.has_degraded) {
    w.i32(s.degraded.src);
    w.i32(s.degraded.dst);
    w.u64(s.degraded.seq);
    w.u64(s.degraded.detected_at);
    w.i32(s.degraded.retries);
    w.str(s.degraded_channel);
  }
}

NodeStatus get_status(ByteReader& r) {
  NodeStatus s;
  s.done = r.u8() != 0;
  s.heartbeat = r.u64();
  s.phase = r.str();
  s.has_degraded = r.u8() != 0;
  if (s.has_degraded) {
    s.degraded.src = r.i32();
    s.degraded.dst = r.i32();
    s.degraded.seq = r.u64();
    s.degraded.detected_at = r.u64();
    s.degraded.retries = r.i32();
    s.degraded_channel = r.str();
  }
  return s;
}

void put_util(ByteWriter& w, const sim::UtilCounter& u) {
  w.u64(u.work);
  w.u64(u.capacity);
  w.u64(u.active_cycles);
}

sim::UtilCounter get_util(ByteReader& r) {
  sim::UtilCounter u;
  u.work = r.u64();
  u.capacity = r.u64();
  u.active_cycles = r.u64();
  return u;
}

void put_link_stats(ByteWriter& w, const net::LinkStats& s) {
  w.u64(s.injected_drops);
  w.u64(s.injected_dups);
  w.u64(s.injected_reorders);
  w.u64(s.injected_corrupts);
  w.u64(s.retransmits);
  w.u64(s.timeouts);
  w.u64(s.acks_sent);
  w.u64(s.nacks_sent);
  w.u64(s.duplicates_discarded);
  w.u64(s.crc_failures);
  w.i32(s.max_retry_depth);
  w.u64(s.recovery_cycles);
}

net::LinkStats get_link_stats(ByteReader& r) {
  net::LinkStats s;
  s.injected_drops = r.u64();
  s.injected_dups = r.u64();
  s.injected_reorders = r.u64();
  s.injected_corrupts = r.u64();
  s.retransmits = r.u64();
  s.timeouts = r.u64();
  s.acks_sent = r.u64();
  s.nacks_sent = r.u64();
  s.duplicates_discarded = r.u64();
  s.crc_failures = r.u64();
  s.max_retry_depth = r.i32();
  s.recovery_cycles = r.u64();
  return s;
}

void put_link_map(ByteWriter& w, const std::map<net::Link, net::LinkStats>& m) {
  w.u32(static_cast<std::uint32_t>(m.size()));
  for (const auto& [link, stats] : m) {
    w.i32(link.first);
    w.i32(link.second);
    put_link_stats(w, stats);
  }
}

void get_link_map(ByteReader& r, std::map<net::Link, net::LinkStats>& out) {
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    const net::NodeId src = r.i32();
    const net::NodeId dst = r.i32();
    out[{src, dst}].merge(get_link_stats(r));
  }
}

void put_traffic(ByteWriter& w, const net::TrafficMatrix& t) {
  w.u32(static_cast<std::uint32_t>(t.packets.size()));
  for (const auto& [link, n] : t.packets) {
    w.i32(link.first);
    w.i32(link.second);
    w.u64(n);
  }
  w.u64(t.total_packets);
  w.u64(t.control_packets);
  w.u64(t.retransmit_packets);
}

net::TrafficMatrix get_traffic(ByteReader& r) {
  net::TrafficMatrix t;
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    const net::NodeId src = r.i32();
    const net::NodeId dst = r.i32();
    t.packets[{src, dst}] = r.u64();
  }
  t.total_packets = r.u64();
  t.control_packets = r.u64();
  t.retransmit_packets = r.u64();
  return t;
}

template <class R>
void put_deliveries(
    ByteWriter& w,
    const std::vector<std::pair<net::Packet<R>, sim::Cycle>>& ds) {
  w.u32(static_cast<std::uint32_t>(ds.size()));
  for (const auto& [p, arrival] : ds) {
    w.u64(arrival);
    net::wire::put_packet(w, p);
  }
}

template <class R>
void get_deliveries(ByteReader& r,
                    std::vector<std::pair<net::Packet<R>, sim::Cycle>>& out) {
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    const sim::Cycle arrival = r.u64();
    net::Packet<R> p;
    if (!net::wire::get_packet(r, p)) {
      throw TransportError("malformed packet in delivery list");
    }
    out.emplace_back(std::move(p), arrival);
  }
}

void put_elision(ByteWriter& w, const sim::ElisionStats& e) {
  w.u64(e.executed_cycles);
  w.u64(e.elided_cycles);
  w.u64(e.component_idle_skips);
  w.u64(e.shard_sleep_cycles);
  w.u64(e.idle_wakes);
  w.u64(e.mispredicts);
}

sim::ElisionStats get_elision(ByteReader& r) {
  sim::ElisionStats e;
  e.executed_cycles = r.u64();
  e.elided_cycles = r.u64();
  e.component_idle_skips = r.u64();
  e.shard_sleep_cycles = r.u64();
  e.idle_wakes = r.u64();
  e.mispredicts = r.u64();
  return e;
}

void put_metrics_image(ByteWriter& w, const obs::Registry::NodeImage& img) {
  w.u32(static_cast<std::uint32_t>(img.series.size()));
  for (const auto& s : img.series) {
    w.str(s.name);
    w.u8(static_cast<std::uint8_t>(s.kind));
    w.u32(static_cast<std::uint32_t>(s.values.size()));
    for (const auto& [node, value] : s.values) {
      w.i32(node);
      w.u64(value);
    }
    w.u32(static_cast<std::uint32_t>(s.buckets.size()));
    for (const std::uint64_t b : s.buckets) w.u64(b);
  }
}

obs::Registry::NodeImage get_metrics_image(ByteReader& r) {
  obs::Registry::NodeImage img;
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    obs::Registry::NodeImage::Series s;
    s.name = r.str();
    s.kind = static_cast<obs::MetricKind>(r.u8());
    const std::uint32_t nv = r.u32();
    for (std::uint32_t v = 0; v < nv && r.ok(); ++v) {
      const int node = r.i32();
      const std::uint64_t value = r.u64();
      s.values.emplace_back(node, value);
    }
    const std::uint32_t nb = r.u32();
    for (std::uint32_t b = 0; b < nb && r.ok(); ++b) s.buckets.push_back(r.u64());
    img.series.push_back(std::move(s));
  }
  return img;
}

NodeStatus status_of(const fpga::FpgaNode& node) {
  NodeStatus s;
  s.done = node.done();
  s.heartbeat = node.last_heartbeat();
  s.phase = node.phase_name();
  if (const auto deg = node.degraded_link()) {
    s.has_degraded = true;
    s.degraded = deg->first;
    s.degraded_channel = deg->second;
  }
  return s;
}

// ---------------------------------------------------------------- worker

struct WorkerState {
  ClusterRefs r;
  Channel chan;
  int lo = 0, hi = 0;  ///< owned node range [lo, hi)
  std::vector<std::pair<net::Packet<net::PosRecord>, sim::Cycle>> pos_up;
  std::vector<std::pair<net::Packet<net::FrcRecord>, sim::Cycle>> frc_up;
  std::vector<std::pair<net::Packet<net::MigRecord>, sim::Cycle>> mig_up;
};

std::vector<std::uint8_t> owned_statuses(const WorkerState& ws) {
  ByteWriter w;
  for (int i = ws.lo; i < ws.hi; ++i) {
    put_status(w, status_of(*(*ws.r.nodes)[static_cast<std::size_t>(i)]));
  }
  return w.take();
}

std::vector<std::uint8_t> fold_payload(const WorkerState& ws) {
  ByteWriter w;
  const sim::Cycle now = ws.r.scheduler->cycle();
  for (int i = ws.lo; i < ws.hi; ++i) {
    const fpga::FpgaNode& node = *(*ws.r.nodes)[static_cast<std::size_t>(i)];
    w.u64(node.pairs_issued());
    w.u64(node.last_heartbeat());
    w.u8(node.alive(now) ? 1 : 0);
    const auto& starts = node.force_phase_starts();
    w.u32(static_cast<std::uint32_t>(starts.size()));
    for (const sim::Cycle c : starts) w.u64(c);
    put_util(w, node.pos_ring_util());
    put_util(w, node.frc_ring_util());
    put_util(w, node.filter_util());
    put_util(w, node.pe_util());
    put_util(w, node.mu_util());
    std::map<net::Link, net::LinkStats> links;
    for (const auto& [link, s] : node.pos_endpoint().link_stats()) {
      links[link].merge(s);
    }
    for (const auto& [link, s] : node.frc_endpoint().link_stats()) {
      links[link].merge(s);
    }
    for (const auto& [link, s] : node.mig_endpoint().link_stats()) {
      links[link].merge(s);
    }
    put_link_map(w, links);
    w.u32(static_cast<std::uint32_t>(node.num_cbbs()));
    for (int c = 0; c < node.num_cbbs(); ++c) {
      const cbb::Cbb& block = node.cbb_by_index(c);
      const auto& particles = block.particles();
      w.u32(static_cast<std::uint32_t>(particles.size()));
      for (const pe::CellParticle& p : particles) {
        net::wire::put(w, p.pos);
        net::wire::put(w, p.vel);
        w.u8(p.elem);
        w.u32(p.id);
      }
      const std::vector<geom::Vec3f> forces = block.forces();
      w.u32(static_cast<std::uint32_t>(forces.size()));
      for (const geom::Vec3f& f : forces) net::wire::put(w, f);
    }
  }
  put_traffic(w, ws.r.pos->traffic());
  put_link_map(w, ws.r.pos->fault_stats());
  put_traffic(w, ws.r.frc->traffic());
  put_link_map(w, ws.r.frc->fault_stats());
  put_traffic(w, ws.r.mig->traffic());
  put_link_map(w, ws.r.mig->fault_stats());
  put_elision(w, ws.r.scheduler->elision_stats());
  if (ws.r.obs != nullptr) {
    w.u8(1);
    put_metrics_image(w, ws.r.obs->metrics().image_nodes(ws.lo, ws.hi));
  } else {
    w.u8(0);
  }
  return w.take();
}

[[noreturn]] void worker_main(WorkerState ws) {
  try {
    sim::Scheduler& sched = *ws.r.scheduler;
    sched.set_owned_shards(static_cast<std::size_t>(ws.lo),
                           static_cast<std::size_t>(ws.hi));
    if (ws.r.barrier != nullptr) ws.r.barrier->enter_worker_mode();
    ws.r.pos->set_uplink(
        [&ws](const net::Packet<net::PosRecord>& p, sim::Cycle arrival) {
          ws.pos_up.emplace_back(p, arrival);
        });
    ws.r.frc->set_uplink(
        [&ws](const net::Packet<net::FrcRecord>& p, sim::Cycle arrival) {
          ws.frc_up.emplace_back(p, arrival);
        });
    ws.r.mig->set_uplink(
        [&ws](const net::Packet<net::MigRecord>& p, sim::Cycle arrival) {
          ws.mig_up.emplace_back(p, arrival);
        });

    for (;;) {
      const Frame f = ws.chan.recv();
      ByteReader r(f.payload);
      switch (f.type) {
        case FrameType::kStart: {
          const int iterations = static_cast<int>(r.u32());
          if (!r.done()) throw TransportError("bad kStart payload");
          for (int i = ws.lo; i < ws.hi; ++i) {
            (*ws.r.nodes)[static_cast<std::size_t>(i)]->start(
                iterations, ws.r.dt_fs, ws.r.cutoff, *ws.r.ff);
          }
          sched.driver_begin_run();
          ws.chan.send(FrameType::kStatus, owned_statuses(ws));
          break;
        }
        case FrameType::kSweep: {
          if (!r.done()) throw TransportError("bad kSweep payload");
          ByteWriter out;
          out.u64(sched.driver_loop_top());
          ws.chan.send(FrameType::kWake, out.take());
          break;
        }
        case FrameType::kJump: {
          const sim::Cycle to = r.u64();
          if (!r.done() || to <= sched.cycle()) {
            throw TransportError("bad kJump target");
          }
          sched.driver_jump(to);
          ws.chan.send(FrameType::kStatus, owned_statuses(ws));
          break;
        }
        case FrameType::kExec: {
          const sim::Cycle at = r.u64();
          if (!r.done() || at != sched.cycle()) {
            throw TransportError("kExec cycle out of step");
          }
          ws.pos_up.clear();
          ws.frc_up.clear();
          ws.mig_up.clear();
          sched.driver_execute();
          ByteWriter out;
          const std::vector<std::uint8_t> statuses = owned_statuses(ws);
          out.bytes(statuses.data(), statuses.size());
          const std::vector<std::uint64_t> votes =
              ws.r.barrier != nullptr ? ws.r.barrier->take_votes()
                                      : std::vector<std::uint64_t>{};
          out.u32(static_cast<std::uint32_t>(votes.size()));
          for (const std::uint64_t seq : votes) out.u64(seq);
          put_deliveries(out, ws.pos_up);
          put_deliveries(out, ws.frc_up);
          put_deliveries(out, ws.mig_up);
          ws.chan.send(FrameType::kReport, out.take());
          break;
        }
        case FrameType::kDeliver: {
          std::vector<std::pair<net::Packet<net::PosRecord>, sim::Cycle>> pos;
          std::vector<std::pair<net::Packet<net::FrcRecord>, sim::Cycle>> frc;
          std::vector<std::pair<net::Packet<net::MigRecord>, sim::Cycle>> mig;
          get_deliveries(r, pos);
          get_deliveries(r, frc);
          get_deliveries(r, mig);
          const std::uint32_t n_rel = r.u32();
          std::vector<std::pair<std::uint64_t, sim::Cycle>> releases;
          for (std::uint32_t i = 0; i < n_rel && r.ok(); ++i) {
            const std::uint64_t seq = r.u64();
            const sim::Cycle at = r.u64();
            releases.emplace_back(seq, at);
          }
          if (!r.done()) throw TransportError("bad kDeliver payload");
          // Channel order matches the in-process commit order (pos, frc,
          // mig); within a channel the parent concatenated worker lists in
          // ascending-source order, so equal-arrival multimap insertion
          // order is identical to the in-process delivery sequence.
          for (const auto& [p, arrival] : pos) {
            ws.r.pos->deliver_remote(p, arrival);
          }
          for (const auto& [p, arrival] : frc) {
            ws.r.frc->deliver_remote(p, arrival);
          }
          for (const auto& [p, arrival] : mig) {
            ws.r.mig->deliver_remote(p, arrival);
          }
          for (const auto& [seq, at] : releases) {
            if (ws.r.barrier != nullptr) ws.r.barrier->add_release(seq, at);
            // The mirror replaces the wake hook the completing arrival
            // fires in-process: poke every owned group.
            sched.wake_all_shards(at);
          }
          break;  // no reply; the next round frame is the sync point
        }
        case FrameType::kFinish: {
          if (!r.done()) throw TransportError("bad kFinish payload");
          sched.driver_finish();
          break;  // no reply; kFold follows on the FIFO stream
        }
        case FrameType::kFold: {
          if (!r.done()) throw TransportError("bad kFold payload");
          ws.chan.send(FrameType::kFoldData, fold_payload(ws));
          break;
        }
        case FrameType::kShutdown:
          ws.chan.close();
          ::_exit(0);
        default:
          throw TransportError("unexpected frame type " +
                               std::to_string(static_cast<int>(f.type)));
      }
    }
  } catch (const std::exception& e) {
    try {
      const std::string what = e.what();
      ws.chan.send(FrameType::kError,
                   std::vector<std::uint8_t>(what.begin(), what.end()));
    } catch (...) {
    }
    ::_exit(1);
  } catch (...) {
    ::_exit(1);
  }
}

// ---------------------------------------------------------------- parent

class ProcTransport final : public ShardTransport {
 public:
  ProcTransport(ClusterRefs refs, int num_workers) : r_(refs) {
    const int n = static_cast<int>(r_.nodes->size());
    if (r_.scheduler->global_component_count() > 0) {
      throw std::invalid_argument(
          "shard: cluster registers global (unsharded) components; cannot "
          "split across worker processes");
    }
    if (r_.scheduler->tick_mode() == sim::TickMode::kValidate) {
      throw std::invalid_argument(
          "shard: kValidate is incompatible with process workers (the "
          "oracle audit is process-local)");
    }
    const int count = std::max(1, std::min(num_workers, n));
    statuses_.resize(static_cast<std::size_t>(n));
    fold_.nodes.resize(static_cast<std::size_t>(n));
    owner_of_.resize(static_cast<std::size_t>(n), 0);

    std::vector<std::array<int, 2>> fds(static_cast<std::size_t>(count));
    for (auto& pair : fds) {
      if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, pair.data()) !=
          0) {
        for (auto& made : fds) {
          if (&made == &pair) break;
          ::close(made[0]);
          ::close(made[1]);
        }
        throw std::runtime_error("shard: socketpair failed");
      }
    }
    const pid_t parent = ::getpid();
    for (int w = 0; w < count; ++w) {
      const int lo = w * n / count;
      const int hi = (w + 1) * n / count;
      const pid_t pid = ::fork();
      if (pid == 0) {
        // Worker process: die with the parent (no orphans), then double-
        // check the parent did not already exit between fork and prctl.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) ::_exit(0);
        for (int v = 0; v < count; ++v) {
          ::close(fds[static_cast<std::size_t>(v)][0]);
          if (v != w) ::close(fds[static_cast<std::size_t>(v)][1]);
        }
        WorkerState ws;
        ws.r = r_;
        ws.chan = Channel(fds[static_cast<std::size_t>(w)][1]);
        ws.lo = lo;
        ws.hi = hi;
        worker_main(std::move(ws));  // never returns
      }
      if (pid < 0) {
        for (auto& made : fds) {
          ::close(made[0]);
          ::close(made[1]);
        }
        for (auto& worker : workers_) {
          ::kill(worker.pid, SIGKILL);
          ::waitpid(worker.pid, nullptr, 0);
          worker.chan.close();
        }
        workers_.clear();
        throw std::runtime_error("shard: fork failed");
      }
      Worker worker;
      worker.pid = pid;
      worker.chan = Channel(fds[static_cast<std::size_t>(w)][0]);
      worker.lo = lo;
      worker.hi = hi;
      workers_.push_back(std::move(worker));
      for (int id = lo; id < hi; ++id) {
        owner_of_[static_cast<std::size_t>(id)] = w;
      }
    }
    for (int w = 0; w < count; ++w) {
      ::close(fds[static_cast<std::size_t>(w)][1]);
    }
  }

  ~ProcTransport() override {
    for (auto& w : workers_) {
      if (!w.dead && w.chan.valid()) {
        try {
          w.chan.send(FrameType::kShutdown, {});
        } catch (...) {
        }
      }
      w.chan.close();
    }
    for (auto& w : workers_) reap(w);
  }

  const char* kind() const override { return "proc"; }
  int num_procs() const override { return static_cast<int>(workers_.size()); }
  sim::Cycle cycle() const override { return now_; }
  const ClusterFold* fold() const override { return &fold_; }
  const sim::ElisionStats& elision_stats() const override {
    return fold_.elision;
  }
  std::vector<pid_t> worker_pids() const override {
    std::vector<pid_t> pids;
    for (const auto& w : workers_) pids.push_back(w.pid);
    return pids;
  }

  void run(int iterations, const RunLimits& limits) override {
    RemoteDriver remote{*this, iterations};
    sim::drive_until(
        remote, r_.obs, [&] { return check_health(statuses_, now_, limits); },
        now_ + limits.max_cycles_per_iteration *
                   static_cast<sim::Cycle>(iterations),
        watchdog_wake(statuses_, limits));
  }

 private:
  /// The cycle loop's steps, run remotely: each sends one round frame to
  /// every worker and collects the replies (the statuses check_health
  /// reads, or the wakes the loop top folds).
  struct RemoteDriver {
    ProcTransport& t;
    int iterations;

    sim::Cycle cycle() const { return t.now_; }

    void driver_begin_run() {
      ByteWriter w;
      w.u32(static_cast<std::uint32_t>(iterations));
      t.broadcast(FrameType::kStart, w.take());
      t.collect_statuses();
    }

    sim::Cycle driver_loop_top() {
      t.broadcast(FrameType::kSweep, {});
      sim::Cycle wake = sim::kNeverCycle;
      for (auto& w : t.workers_) {
        const Frame f = t.recv_from(w, FrameType::kWake);
        ByteReader r(f.payload);
        const sim::Cycle wv = r.u64();
        if (!r.done()) {
          w.dead = true;
          throw t.worker_failure(w);
        }
        wake = std::min(wake, wv);
      }
      return wake;
    }

    void driver_jump(sim::Cycle to) {
      ByteWriter jw;
      jw.u64(to);
      t.broadcast(FrameType::kJump, jw.take());
      t.collect_statuses();
      t.now_ = to;
    }

    void driver_execute() { t.exec_round(); }
    void driver_finish() { t.settle(); }
  };

  struct Worker {
    pid_t pid = -1;
    Channel chan;
    int lo = 0, hi = 0;  ///< owned node range [lo, hi)
    bool dead = false;
  };

  /// A vanished or desynchronized worker surfaces as the typed node
  /// failure of its first owned node — the caller's recovery machinery
  /// (supervisor re-shard, tests) handles it like any dead board.
  sync::NodeFailureError worker_failure(const Worker& w) const {
    return sync::NodeFailureError(w.lo, "worker-process", 0, now_);
  }

  void send_to(Worker& w, FrameType type,
               const std::vector<std::uint8_t>& payload) {
    if (w.dead) throw worker_failure(w);
    try {
      w.chan.send(type, payload);
    } catch (const TransportError&) {
      w.dead = true;
      throw worker_failure(w);
    }
  }

  Frame recv_from(Worker& w, FrameType expect) {
    if (w.dead) throw worker_failure(w);
    Frame f;
    try {
      f = w.chan.recv();
    } catch (const TransportError&) {
      w.dead = true;
      throw worker_failure(w);
    }
    if (f.type == FrameType::kError) {
      w.dead = true;  // the worker _exit(1)s after sending kError
      throw std::runtime_error(
          "shard worker [" + std::to_string(w.lo) + "," +
          std::to_string(w.hi) + "): " +
          std::string(f.payload.begin(), f.payload.end()));
    }
    if (f.type != expect) {
      w.dead = true;
      throw worker_failure(w);
    }
    return f;
  }

  void broadcast(FrameType type, const std::vector<std::uint8_t>& payload) {
    for (auto& w : workers_) send_to(w, type, payload);
  }

  void parse_statuses(const Frame& f, const Worker& w) {
    ByteReader r(f.payload);
    for (int id = w.lo; id < w.hi; ++id) {
      statuses_[static_cast<std::size_t>(id)] = get_status(r);
    }
    if (!r.done()) {
      throw std::runtime_error("shard: malformed status frame from worker");
    }
  }

  void collect_statuses() {
    for (auto& w : workers_) parse_statuses(recv_from(w, FrameType::kStatus), w);
  }

  void exec_round() {
    ByteWriter ew;
    ew.u64(now_);
    broadcast(FrameType::kExec, ew.take());

    std::vector<std::pair<net::Packet<net::PosRecord>, sim::Cycle>> pos;
    std::vector<std::pair<net::Packet<net::FrcRecord>, sim::Cycle>> frc;
    std::vector<std::pair<net::Packet<net::MigRecord>, sim::Cycle>> mig;
    std::vector<std::uint64_t> votes;
    for (auto& w : workers_) {
      const Frame f = recv_from(w, FrameType::kReport);
      ByteReader r(f.payload);
      for (int id = w.lo; id < w.hi; ++id) {
        statuses_[static_cast<std::size_t>(id)] = get_status(r);
      }
      const std::uint32_t nv = r.u32();
      for (std::uint32_t i = 0; i < nv && r.ok(); ++i) {
        votes.push_back(r.u64());
      }
      try {
        // Worker iteration order is ascending worker index == ascending
        // source-node order: concatenation reproduces the in-process
        // commit's delivery sequence per channel.
        get_deliveries(r, pos);
        get_deliveries(r, frc);
        get_deliveries(r, mig);
      } catch (const TransportError&) {
        w.dead = true;
        throw worker_failure(w);
      }
      if (!r.done()) {
        w.dead = true;
        throw worker_failure(w);
      }
    }

    std::vector<std::pair<std::uint64_t, sim::Cycle>> releases;
    if (r_.barrier != nullptr) {
      // Replay the arrivals on the parent's counting barrier at the round
      // cycle; order is irrelevant (the release stamps the last arrival's
      // cycle, which is this round for every vote).
      for (const std::uint64_t seq : votes) {
        r_.barrier->arrive(seq, now_);
        pending_votes_.insert(seq);
      }
      for (auto it = pending_votes_.begin(); it != pending_votes_.end();) {
        if (const auto at = r_.barrier->release_cycle(*it)) {
          releases.emplace_back(*it, *at);
          it = pending_votes_.erase(it);
        } else {
          ++it;
        }
      }
    }

    for (auto& w : workers_) {
      ByteWriter dw;
      route_deliveries(dw, pos, w);
      route_deliveries(dw, frc, w);
      route_deliveries(dw, mig, w);
      dw.u32(static_cast<std::uint32_t>(releases.size()));
      for (const auto& [seq, at] : releases) {
        dw.u64(seq);
        dw.u64(at);
      }
      send_to(w, FrameType::kDeliver, dw.take());
    }
    ++now_;
  }

  template <class R>
  void route_deliveries(
      ByteWriter& w,
      const std::vector<std::pair<net::Packet<R>, sim::Cycle>>& all,
      const Worker& target) {
    std::uint32_t count = 0;
    for (const auto& [p, arrival] : all) {
      if (p.dst >= target.lo && p.dst < target.hi) ++count;
    }
    w.u32(count);
    for (const auto& [p, arrival] : all) {
      if (p.dst < target.lo || p.dst >= target.hi) continue;
      w.u64(arrival);
      net::wire::put_packet(w, p);
    }
  }

  /// End-of-run settle: flush deferred idle in every live worker, then
  /// refresh the cluster fold. Best-effort on the unwinding path — a dead
  /// worker keeps its slots at the previous fold's values.
  void settle() {
    for (auto& w : workers_) {
      if (w.dead) continue;
      try {
        w.chan.send(FrameType::kFinish, {});
      } catch (...) {
        w.dead = true;
      }
    }
    refresh_fold();
  }

  void refresh_fold() {
    bool first_live = true;
    for (auto& w : workers_) {
      if (w.dead) continue;
      Frame f;
      try {
        w.chan.send(FrameType::kFold, {});
        f = w.chan.recv();
      } catch (...) {
        w.dead = true;
        continue;
      }
      if (f.type != FrameType::kFoldData) {
        w.dead = true;
        continue;
      }
      try {
        apply_fold(f, w, first_live);
      } catch (...) {
        w.dead = true;
        continue;
      }
      first_live = false;
    }
  }

  void apply_fold(const Frame& f, const Worker& w, bool first_live) {
    ByteReader r(f.payload);
    for (int id = w.lo; id < w.hi; ++id) {
      ClusterFold::Node& out = fold_.nodes[static_cast<std::size_t>(id)];
      out = ClusterFold::Node{};
      out.pairs_issued = r.u64();
      out.heartbeat = r.u64();
      out.alive = r.u8() != 0;
      const std::uint32_t n_starts = r.u32();
      for (std::uint32_t i = 0; i < n_starts && r.ok(); ++i) {
        out.force_phase_starts.push_back(r.u64());
      }
      out.pos_ring = get_util(r);
      out.frc_ring = get_util(r);
      out.filter = get_util(r);
      out.pe = get_util(r);
      out.mu = get_util(r);
      get_link_map(r, out.link_stats);
      fpga::FpgaNode& node = *(*r_.nodes)[static_cast<std::size_t>(id)];
      const std::uint32_t n_cbbs = r.u32();
      if (!r.ok() || static_cast<int>(n_cbbs) != node.num_cbbs()) {
        throw TransportError("fold CBB count mismatch");
      }
      out.cbb_forces.resize(n_cbbs);
      for (std::uint32_t c = 0; c < n_cbbs; ++c) {
        const std::uint32_t n_particles = r.u32();
        std::vector<pe::CellParticle> particles;
        particles.reserve(n_particles);
        for (std::uint32_t p = 0; p < n_particles && r.ok(); ++p) {
          pe::CellParticle particle;
          net::wire::get(r, particle.pos);
          net::wire::get(r, particle.vel);
          particle.elem = r.u8();
          particle.id = r.u32();
          particles.push_back(particle);
        }
        // Write the worker's particle cache back into the parent's CBB so
        // state() and the energy accessors stay transport-agnostic.
        node.cbb_by_index(static_cast<int>(c)).particles() =
            std::move(particles);
        const std::uint32_t n_forces = r.u32();
        auto& forces = out.cbb_forces[c];
        forces.reserve(n_forces);
        for (std::uint32_t i = 0; i < n_forces && r.ok(); ++i) {
          geom::Vec3f force;
          net::wire::get(r, force);
          forces.push_back(force);
        }
      }
    }
    // Per-channel traffic: each worker counted the rows its nodes sourced,
    // so the link sets are disjoint and merge() reproduces the in-process
    // matrices exactly.
    net::TrafficMatrix pos_t = get_traffic(r);
    std::map<net::Link, net::LinkStats> pos_f;
    get_link_map(r, pos_f);
    net::TrafficMatrix frc_t = get_traffic(r);
    std::map<net::Link, net::LinkStats> frc_f;
    get_link_map(r, frc_f);
    net::TrafficMatrix mig_t = get_traffic(r);
    std::map<net::Link, net::LinkStats> mig_f;
    get_link_map(r, mig_f);
    const sim::ElisionStats e = get_elision(r);
    const bool has_image = r.u8() != 0;
    obs::Registry::NodeImage image;
    if (has_image) image = get_metrics_image(r);
    if (!r.done()) throw TransportError("malformed fold payload");

    if (first_live) {
      // First live worker resets the channel aggregates and the lock-step
      // elision counters (identical in every worker); later workers merge
      // their disjoint rows and add their per-shard skip counters.
      fold_.pos_traffic = net::TrafficMatrix{};
      fold_.frc_traffic = net::TrafficMatrix{};
      fold_.mig_traffic = net::TrafficMatrix{};
      fold_.pos_faults.clear();
      fold_.frc_faults.clear();
      fold_.mig_faults.clear();
      fold_.elision = e;
    } else {
      fold_.elision.component_idle_skips += e.component_idle_skips;
      fold_.elision.shard_sleep_cycles += e.shard_sleep_cycles;
    }
    fold_.pos_traffic.merge(pos_t);
    fold_.frc_traffic.merge(frc_t);
    fold_.mig_traffic.merge(mig_t);
    for (const auto& [link, s] : pos_f) fold_.pos_faults[link].merge(s);
    for (const auto& [link, s] : frc_f) fold_.frc_faults[link].merge(s);
    for (const auto& [link, s] : mig_f) fold_.mig_faults[link].merge(s);
    if (has_image && r_.obs != nullptr) {
      r_.obs->metrics().apply_image(image);
    }
  }

  static void reap(Worker& w) {
    if (w.pid <= 0) return;
    // Grace period for the clean kShutdown exit, then SIGKILL.
    for (int i = 0; i < 200; ++i) {
      int status = 0;
      const pid_t got = ::waitpid(w.pid, &status, WNOHANG);
      if (got == w.pid || (got < 0 && errno == ECHILD)) {
        w.pid = -1;
        return;
      }
      ::usleep(10 * 1000);
    }
    ::kill(w.pid, SIGKILL);
    ::waitpid(w.pid, nullptr, 0);
    w.pid = -1;
  }

  ClusterRefs r_;
  std::vector<Worker> workers_;
  std::vector<int> owner_of_;  ///< node id -> worker index
  std::vector<NodeStatus> statuses_;
  sim::Cycle now_ = 0;
  ClusterFold fold_;
  /// Barrier generations voted but not yet announced released.
  std::set<std::uint64_t> pending_votes_;
};

}  // namespace

std::unique_ptr<ShardTransport> make_proc_transport(ClusterRefs refs,
                                                    int num_workers) {
  return std::make_unique<ProcTransport>(refs, num_workers);
}

}  // namespace fasda::shard
