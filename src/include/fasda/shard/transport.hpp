#pragma once
// The shard boundary (DESIGN.md §14). Exactly four interactions cross
// between FPGA-node shards during a run:
//
//   1. two-phase packet commit — fabric deliveries into peer endpoints,
//   2. bulk-barrier arrival votes and releases (kBulk sync only),
//   3. cross-shard wake pokes (elision contract, DESIGN.md §13),
//   4. the end-of-run fold of traffic/utilization/metrics into the cluster
//      reports.
//
// ShardTransport makes that boundary explicit and pluggable:
//
//   InProcTransport — all shards in one address space, driven by
//     Scheduler::run_until (zero-copy, at any scheduler thread count).
//   ProcTransport — one forked worker process per shard slice; the same
//     four interactions move over socketpairs using the net/wire.hpp packet
//     encoding plus the frames.hpp control framing. Bitwise identical to
//     in-process by the same argument that makes threads identical to
//     serial: every cross-shard effect is >= 1 cycle delayed, so shipping
//     it between cycles cannot change what any tick reads.
//
// Both run the one cycle loop (sim::drive_until) and the one health check
// below (check_health, watchdog_wake): in-process over live nodes, by
// process over the NodeStatuses the workers ship. core::Simulation
// constructs one transport at the end of its constructor and drives every
// run() through it.

#include <sys/types.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fasda/fpga/node.hpp"

namespace fasda::shard {

/// A degraded link whose peer node has been heartbeat-silent longer than
/// this is attributed to the dead node, not the wire (the same slack the
/// in-process health check has always used).
inline constexpr sim::Cycle kNodeSilenceSlack = 64;

/// Per-run limits handed down from core::Simulation's config. Kept out of
/// ClusterRefs so the transport layer has no dependency on core.
struct RunLimits {
  /// Cycle budget per iteration; the absolute budget for a run is
  /// cycle() + max_cycles_per_iteration * iterations.
  sim::Cycle max_cycles_per_iteration = 0;
  /// Watchdog trip budget (0 disables the watchdog checks).
  sim::Cycle watchdog_budget = 0;
  /// True when a FaultPlan is attached: arms the degraded-link checks.
  bool fault_aware = false;
};

/// Borrowed references to the cluster the transport drives. Everything is
/// owned by core::Simulation and outlives the transport. `barrier` is only
/// non-null for process transports in kBulk mode (the split barrier is a
/// transport concern; chained sync crosses shards through the fabrics).
class SplitBarrier;
struct ClusterRefs {
  sim::Scheduler* scheduler = nullptr;
  net::Fabric<net::PosRecord>* pos = nullptr;
  net::Fabric<net::FrcRecord>* frc = nullptr;
  net::Fabric<net::MigRecord>* mig = nullptr;
  SplitBarrier* barrier = nullptr;
  const std::vector<std::unique_ptr<fpga::FpgaNode>>* nodes = nullptr;
  obs::Hub* obs = nullptr;
  const md::ForceField* ff = nullptr;
  double cutoff = 0.0;
  float dt_fs = 0.0f;
};

/// One node's health sample, shipped worker→parent after every state
/// change (arm, jump, executed cycle) so the parent's between-cycles health
/// check reads exactly what the in-process one reads from live nodes.
struct NodeStatus {
  bool done = false;
  sim::Cycle heartbeat = 0;
  std::string phase;
  /// First degraded link reported by the node's endpoints, if any.
  bool has_degraded = false;
  net::DegradedLink degraded{};
  std::string degraded_channel;
};

/// Health reads, overloaded for a live node (in-process) and a shipped
/// status (process workers). Strings are read as const char* so the
/// in-process check builds none.
struct NodeHealth {
  bool done = false;
  sim::Cycle heartbeat = 0;
  const char* phase = "";
};
inline NodeHealth health_of(const std::unique_ptr<fpga::FpgaNode>& node) {
  return {node->done(), node->last_heartbeat(), node->phase_name()};
}
inline NodeHealth health_of(const NodeStatus& s) {
  return {s.done, s.heartbeat, s.phase.c_str()};
}
inline std::optional<std::pair<net::DegradedLink, const char*>> degraded_of(
    const std::unique_ptr<fpga::FpgaNode>& node) {
  return node->degraded_link();
}
inline std::optional<std::pair<net::DegradedLink, const char*>> degraded_of(
    const NodeStatus& s) {
  if (!s.has_degraded) return std::nullopt;
  return std::make_pair(s.degraded, s.degraded_channel.c_str());
}

/// The between-cycles health check both transports run, over the nodes in
/// id order (`nodes[i]` is node i). Returns true once every node is done.
/// Check order: degraded links in ascending node order — a link whose peer
/// has been heartbeat-silent past kNodeSilenceSlack is the peer's
/// NodeFailureError, not the wire's DegradedLinkError — then the watchdog,
/// then completion.
template <class Nodes>
bool check_health(const Nodes& nodes, sim::Cycle now, const RunLimits& limits) {
  if (limits.fault_aware) {
    for (const auto& node : nodes) {
      const auto deg = degraded_of(node);
      if (!deg) continue;
      const int dst = deg->first.dst;
      const NodeHealth peer =
          health_of(nodes.at(static_cast<std::size_t>(dst)));
      const sim::Cycle silent = now - peer.heartbeat;
      if (!peer.done && silent > kNodeSilenceSlack) {
        throw sync::NodeFailureError(dst, peer.phase, silent, now);
      }
      throw sync::DegradedLinkError(deg->first, deg->second);
    }
  }
  bool all_done = true;
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const NodeHealth h = health_of(nodes[id]);
    if (h.done) continue;
    all_done = false;
    const sim::Cycle silent = now - h.heartbeat;
    if (limits.watchdog_budget > 0 && silent > limits.watchdog_budget) {
      throw sync::NodeFailureError(static_cast<int>(id), h.phase, silent, now);
    }
  }
  return all_done;
}

/// The watchdog's external wake for the cycle loop (empty when the watchdog
/// is off). Elision windows must not sail past the cycle where the watchdog
/// would fire: a crashed node's heartbeat freezes while every surviving
/// component sleeps, so the deadline is external to the component oracle.
/// Live nodes' heartbeats advance through skips, pushing the bound ahead.
/// `nodes` and `limits` must outlive the returned function.
template <class Nodes>
sim::ExternalWake watchdog_wake(const Nodes& nodes, const RunLimits& limits) {
  if (limits.watchdog_budget == 0) return {};
  return [&nodes, &limits](sim::Cycle) {
    sim::Cycle bound = sim::kNeverCycle;
    for (const auto& node : nodes) {
      const NodeHealth h = health_of(node);
      if (!h.done) {
        bound = std::min(bound, h.heartbeat + limits.watchdog_budget + 1);
      }
    }
    return bound;
  };
}

/// Post-run image of everything core::Simulation's report accessors read
/// from live objects in the in-process case. Particle positions/velocities
/// are NOT here — the fold writes them back into the parent's own CBB
/// caches, so state() and the energy accessors stay transport-agnostic.
/// Forces are carried (Cbb::forces() derives them from fixed-point
/// accumulators that only the owning worker holds).
struct ClusterFold {
  struct Node {
    std::uint64_t pairs_issued = 0;
    sim::Cycle heartbeat = 0;
    bool alive = false;
    std::vector<sim::Cycle> force_phase_starts;
    sim::UtilCounter pos_ring, frc_ring, filter, pe, mu;
    /// Endpoint protocol counters, merged over the three channels.
    std::map<net::Link, net::LinkStats> link_stats;
    /// Per local CBB index: the force readout for each particle slot.
    std::vector<std::vector<geom::Vec3f>> cbb_forces;
  };

  std::vector<Node> nodes;  // by node id
  net::TrafficMatrix pos_traffic, frc_traffic, mig_traffic;
  std::map<net::Link, net::LinkStats> pos_faults, frc_faults, mig_faults;
  sim::ElisionStats elision;
};

/// BulkBarrier split across worker processes. The parent keeps the base
/// counting behaviour; a worker (after enter_worker_mode(), called between
/// fork and the first tick) records its nodes' arrivals as votes for the
/// parent to replay, and answers released()/release_cycle() from the
/// release announcements the parent mirrors back. Bitwise identical to the
/// shared barrier because a generation completed at cycle T is releasable
/// no earlier than T + release_latency >= T + 1 — the round trip fits in
/// the same between-cycles gap the fabrics use.
class SplitBarrier : public sync::BulkBarrier {
 public:
  SplitBarrier(int num_nodes, sim::Cycle release_latency)
      : sync::BulkBarrier(num_nodes, release_latency) {}

  /// Irreversibly switches this copy to the worker-side protocol. The
  /// worker scheduler is serial, so the vote/mirror state needs no lock.
  void enter_worker_mode() { worker_mode_ = true; }

  void arrive(std::uint64_t seq, sim::Cycle now) override {
    if (!worker_mode_) {
      sync::BulkBarrier::arrive(seq, now);
      return;
    }
    (void)now;  // the parent replays the vote at the round's cycle
    votes_.push_back(seq);
  }

  bool released(std::uint64_t seq, sim::Cycle now) const override {
    if (!worker_mode_) return sync::BulkBarrier::released(seq, now);
    const auto it = releases_.find(seq);
    return it != releases_.end() && now >= it->second;
  }

  std::optional<sim::Cycle> release_cycle(std::uint64_t seq) const override {
    if (!worker_mode_) return sync::BulkBarrier::release_cycle(seq);
    const auto it = releases_.find(seq);
    if (it == releases_.end()) return std::nullopt;
    return it->second;
  }

  /// Worker side: drains the arrivals recorded since the last executed
  /// cycle, in arrival order, for the kReport frame.
  std::vector<std::uint64_t> take_votes() {
    std::vector<std::uint64_t> v;
    v.swap(votes_);
    return v;
  }

  /// Worker side: mirrors a release announced by the parent. The caller
  /// also pokes the scheduler (wake_all_shards) — the mirror replaces the
  /// wake hook the completing arrival would have fired in-process.
  void add_release(std::uint64_t seq, sim::Cycle release_at) {
    releases_[seq] = release_at;
  }

 private:
  bool worker_mode_ = false;
  std::vector<std::uint64_t> votes_;
  std::map<std::uint64_t, sim::Cycle> releases_;
};

/// The pluggable shard boundary. One instance per Simulation, constructed
/// after the cluster is fully built and particles are loaded.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  virtual const char* kind() const = 0;  ///< "inproc" | "proc"
  /// Worker process count (0 for the in-process transport).
  virtual int num_procs() const = 0;

  /// The cluster's current cycle (the scheduler clock in-process, the
  /// parent's lock-step round clock for process workers).
  virtual sim::Cycle cycle() const = 0;

  /// Runs `iterations` armed timesteps to completion. Throws
  /// sync::NodeFailureError / sync::DegradedLinkError from the
  /// between-cycles health checks and std::runtime_error on cycle-budget
  /// overrun — identical types, messages and detection cycles across
  /// transports. On every exit path the end-of-run fold is refreshed.
  virtual void run(int iterations, const RunLimits& limits) = 0;

  /// The post-run cluster image, or nullptr when the live objects are
  /// current (in-process transport) and the accessors should read them
  /// directly.
  virtual const ClusterFold* fold() const = 0;

  virtual const sim::ElisionStats& elision_stats() const = 0;

  /// Worker process ids (empty in-process); exposed for lifecycle tests.
  virtual std::vector<pid_t> worker_pids() const { return {}; }
};

std::unique_ptr<ShardTransport> make_inproc_transport(ClusterRefs refs);
std::unique_ptr<ShardTransport> make_proc_transport(ClusterRefs refs,
                                                    int num_workers);

}  // namespace fasda::shard
