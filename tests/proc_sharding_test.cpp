// The safety case for the process shard transport (DESIGN.md §14): running
// the cluster as forked worker processes over socketpairs must be BITWISE
// identical to the in-process transport — same particle trajectories, same
// forces, same cycle counts, same traffic matrices, same metrics snapshots
// — across {1 thread, 4 threads, 2 procs, 4 procs}, on clean runs, under
// ~10% mixed link faults, and in both the elided and naive tick modes.
// Plus the worker lifecycle: a killed worker surfaces as the typed
// sync::NodeFailureError (never a hang — every test here carries a ctest
// TIMEOUT), workers die with the parent (no orphans), and destruction
// leaves no zombies.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <string>
#include <vector>

#include "fasda/core/simulation.hpp"
#include "fasda/md/dataset.hpp"
#include "fasda/obs/obs.hpp"
#include "fasda/sim/kernel.hpp"
#include "fasda/supervisor/supervisor.hpp"

namespace fasda {
namespace {

md::SystemState make_state(geom::IVec3 dims, int per_cell = 8,
                           std::uint64_t seed = 21) {
  md::DatasetParams p;
  p.particles_per_cell = per_cell;
  p.seed = seed;
  p.temperature = 200.0;
  return md::generate_dataset(dims, 8.5, md::ForceField::sodium(), p);
}

struct RunResult {
  md::SystemState state;
  std::vector<geom::Vec3f> forces;
  sim::Cycle cycles = 0;
  std::uint64_t pairs = 0;
  net::TrafficMatrix positions, forces_traffic, migrations;
  sim::ElisionStats elision;
  std::string metrics_json;
};

/// 2x2x2 FPGA nodes x 2x2x2 cells: multi-node traffic on every class and
/// enough nodes to split 4 ways.
core::ClusterConfig multi_node_config() {
  core::ClusterConfig c;
  c.node_dims = {2, 2, 2};
  c.cells_per_node = {2, 2, 2};
  c.channel.link_latency = 50;
  return c;
}

/// threads > 0 selects the in-process transport at that worker-thread
/// count; procs > 0 selects the process transport at that worker count.
RunResult run_cluster(core::ClusterConfig config, int threads, int procs,
                      sim::TickMode mode, int iters = 2) {
  config.num_worker_threads = threads;
  config.proc_workers = procs;
  config.tick_mode = mode;
  obs::Hub hub;
  config.obs = &hub;
  const geom::IVec3 dims = {config.node_dims.x * config.cells_per_node.x,
                            config.node_dims.y * config.cells_per_node.y,
                            config.node_dims.z * config.cells_per_node.z};
  const auto state = make_state(dims);
  core::Simulation sim(state, md::ForceField::sodium(), config);
  sim.run(iters);
  RunResult r;
  r.state = sim.state();
  r.forces = sim.forces_by_particle();
  r.cycles = sim.total_cycles();
  r.pairs = sim.pairs_issued();
  const auto traffic = sim.traffic();
  r.positions = traffic.positions;
  r.forces_traffic = traffic.forces;
  r.migrations = traffic.migrations;
  r.elision = sim.elision_stats();
  r.metrics_json = hub.metrics().snapshot().to_json();
  return r;
}

template <class T>
bool bitwise_equal(const T& a, const T& b) {
  static_assert(std::is_trivially_copyable_v<T>);
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

void expect_identical(const RunResult& got, const RunResult& want,
                      const std::string& label) {
  EXPECT_EQ(got.cycles, want.cycles) << label;
  EXPECT_EQ(got.pairs, want.pairs) << label;

  ASSERT_EQ(got.state.positions.size(), want.state.positions.size()) << label;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < want.state.positions.size(); ++i) {
    if (!bitwise_equal(got.state.positions[i], want.state.positions[i])) ++bad;
    if (!bitwise_equal(got.state.velocities[i], want.state.velocities[i]))
      ++bad;
    if (got.state.elements[i] != want.state.elements[i]) ++bad;
  }
  EXPECT_EQ(bad, 0u) << label << ": particle state diverged";

  ASSERT_EQ(got.forces.size(), want.forces.size()) << label;
  bad = 0;
  for (std::size_t i = 0; i < want.forces.size(); ++i) {
    if (!bitwise_equal(got.forces[i], want.forces[i])) ++bad;
  }
  EXPECT_EQ(bad, 0u) << label << ": forces diverged";

  EXPECT_EQ(got.positions.total_packets, want.positions.total_packets) << label;
  EXPECT_EQ(got.positions.packets, want.positions.packets) << label;
  EXPECT_EQ(got.forces_traffic.total_packets, want.forces_traffic.total_packets)
      << label;
  EXPECT_EQ(got.forces_traffic.packets, want.forces_traffic.packets) << label;
  EXPECT_EQ(got.migrations.total_packets, want.migrations.total_packets)
      << label;
  EXPECT_EQ(got.migrations.packets, want.migrations.packets) << label;

  // Elision counters are part of the contract: the process transport folds
  // per-worker skip counters back into the exact in-process totals.
  EXPECT_EQ(got.elision.executed_cycles, want.elision.executed_cycles) << label;
  EXPECT_EQ(got.elision.elided_cycles, want.elision.elided_cycles) << label;
  EXPECT_EQ(got.elision.component_idle_skips,
            want.elision.component_idle_skips)
      << label;
  EXPECT_EQ(got.elision.idle_wakes, want.elision.idle_wakes) << label;
  EXPECT_EQ(got.elision.mispredicts, want.elision.mispredicts) << label;

  // The telemetry pillar: everything the hub published is derived from
  // simulated state, so the merged snapshots must render identically —
  // including the per-node counters folded over the process boundary.
  EXPECT_EQ(got.metrics_json, want.metrics_json)
      << label << ": metrics snapshot diverged";
}

/// ~10% mixed wire faults on every traffic class; the ack/retransmit
/// protocol (armed by the mere presence of the plan) recovers them all.
net::FaultPlan mixed_link_faults() {
  net::FaultPlan plan;
  plan.seed = 0xFA57;
  plan.all = {.drop = 0.1, .dup = 0.05, .reorder = 0.05, .corrupt = 0.05};
  return plan;
}

// --------------------------------------------------------- clean runs

TEST(ProcSharding, CleanRunBitwiseIdenticalAcrossTransports) {
  const auto config = multi_node_config();
  const RunResult want = run_cluster(config, 1, 0, sim::TickMode::kElide);
  ASSERT_GT(want.positions.total_packets, 0u) << "multi-node traffic expected";
  ASSERT_GT(want.elision.component_idle_skips, 0u)
      << "differential is vacuous if the oracle never slept a component";
  expect_identical(run_cluster(config, 4, 0, sim::TickMode::kElide), want,
                   "threads=4");
  for (const int procs : {2, 4}) {
    expect_identical(run_cluster(config, 1, procs, sim::TickMode::kElide),
                     want, "procs=" + std::to_string(procs));
  }
}

TEST(ProcSharding, NaiveTickBitwiseIdenticalAcrossTransports) {
  const auto config = multi_node_config();
  const RunResult want = run_cluster(config, 1, 0, sim::TickMode::kNaive);
  EXPECT_EQ(want.elision.elided_cycles, 0u) << "naive loop must never skip";
  for (const int procs : {2, 4}) {
    const RunResult got =
        run_cluster(config, 1, procs, sim::TickMode::kNaive);
    EXPECT_EQ(got.elision.elided_cycles, 0u);
    expect_identical(got, want, "naive procs=" + std::to_string(procs));
  }
  // The elide-vs-naive differential itself (same transport) lives in
  // tick_elision_test; here the contract is per-mode transport identity.
}

// High link latency is where whole-cluster windows get elided; the
// parent's kJump fast path must be bitwise transparent.
TEST(ProcSharding, ElidedWindowsUnderHighLinkLatency) {
  auto config = multi_node_config();
  config.channel.link_latency = 800;
  const RunResult want = run_cluster(config, 1, 0, sim::TickMode::kElide, 1);
  EXPECT_GT(want.elision.elided_cycles, 0u)
      << "long links should produce whole elided windows";
  expect_identical(run_cluster(config, 1, 2, sim::TickMode::kElide, 1), want,
                   "link_latency=800 procs=2");
}

TEST(ProcSharding, BulkSyncSplitBarrierBitwiseSafe) {
  auto config = multi_node_config();
  config.sync_mode = sync::SyncMode::kBulk;
  config.bulk_barrier_latency = 500;
  const RunResult want = run_cluster(config, 1, 0, sim::TickMode::kElide);
  for (const int procs : {2, 4}) {
    expect_identical(run_cluster(config, 1, procs, sim::TickMode::kElide),
                     want, "bulk procs=" + std::to_string(procs));
  }
}

// ----------------------------------------------------- faulty-wire runs

TEST(ProcSharding, LinkFaultsBitwiseIdenticalAcrossTransports) {
  auto config = multi_node_config();
  config.faults = mixed_link_faults();
  const RunResult want = run_cluster(config, 1, 0, sim::TickMode::kElide);
  expect_identical(run_cluster(config, 4, 0, sim::TickMode::kElide), want,
                   "faults threads=4");
  for (const int procs : {2, 4}) {
    expect_identical(run_cluster(config, 1, procs, sim::TickMode::kElide),
                     want, "faults procs=" + std::to_string(procs));
  }
}

// A node crash inside a worker process must surface as the same typed
// NodeFailureError, at the same detection cycle, with the same message.
TEST(ProcSharding, InjectedNodeCrashMatchesInProcessDetection) {
  auto config = multi_node_config();
  config.faults = net::FaultPlan::parse("crash=1-800");
  config.reliability.max_retries = 3;

  auto failure_of = [&](int procs) {
    auto c = config;
    c.num_worker_threads = 1;
    c.proc_workers = procs;
    const geom::IVec3 dims = {4, 4, 4};
    core::Simulation sim(make_state(dims), md::ForceField::sodium(), c);
    try {
      sim.run(2);
    } catch (const sync::NodeFailureError& e) {
      return std::string(e.what());
    }
    return std::string("no failure");
  };

  const std::string want = failure_of(0);
  ASSERT_NE(want, "no failure");
  EXPECT_EQ(failure_of(2), want);
  EXPECT_EQ(failure_of(4), want);
}

/// The run-exit matrix every failure exit is pinned over: both transports,
/// both the elided and the naive cycle body.
struct ExitLeg {
  int threads;
  int procs;
  sim::TickMode mode;
};
constexpr ExitLeg kExitLegs[] = {
    {1, 0, sim::TickMode::kElide}, {4, 0, sim::TickMode::kElide},
    {1, 2, sim::TickMode::kElide}, {1, 0, sim::TickMode::kNaive},
    {4, 0, sim::TickMode::kNaive}, {1, 2, sim::TickMode::kNaive},
};

std::string leg_label(const ExitLeg& leg) {
  return "threads=" + std::to_string(leg.threads) +
         " procs=" + std::to_string(leg.procs) +
         (leg.mode == sim::TickMode::kNaive ? " naive" : " elide");
}

// A dead wire must surface as the same DegradedLinkError — message, link
// fields and detection cycle — whichever transport and cycle body ran.
TEST(ProcSharding, DeadLinkExitMatchesAcrossTransportsAndModes) {
  struct Exit {
    std::string what;
    net::DegradedLink link;
    std::string channel;
    sim::Cycle cycles = 0;
  };
  auto exit_of = [](const ExitLeg& leg) {
    auto c = multi_node_config();
    c.faults = net::FaultPlan{};
    c.faults->per_link[{0, 1}].dead = true;
    c.reliability.max_retries = 3;
    c.num_worker_threads = leg.threads;
    c.proc_workers = leg.procs;
    c.tick_mode = leg.mode;
    core::Simulation sim(make_state({4, 4, 4}), md::ForceField::sodium(), c);
    Exit out;
    try {
      sim.run(1);
      out.what = "no failure";
    } catch (const sync::DegradedLinkError& e) {
      out.what = e.what();
      out.link = e.link();
      out.channel = e.channel();
    }
    out.cycles = sim.total_cycles();
    return out;
  };

  const Exit want = exit_of(kExitLegs[0]);
  ASSERT_NE(want.what, "no failure");
  EXPECT_EQ(want.link.src, 0);
  EXPECT_EQ(want.link.dst, 1);
  for (const ExitLeg& leg : kExitLegs) {
    const Exit got = exit_of(leg);
    const std::string label = leg_label(leg);
    EXPECT_EQ(got.what, want.what) << label;
    EXPECT_EQ(got.link.src, want.link.src) << label;
    EXPECT_EQ(got.link.dst, want.link.dst) << label;
    EXPECT_EQ(got.link.seq, want.link.seq) << label;
    EXPECT_EQ(got.link.detected_at, want.link.detected_at) << label;
    EXPECT_EQ(got.link.retries, want.link.retries) << label;
    EXPECT_EQ(got.channel, want.channel) << label;
    EXPECT_EQ(got.cycles, want.cycles) << label;
  }
}

// Exhausting the cycle budget must throw the same std::runtime_error at the
// same cycle on every leg (the elided loop clamps its jumps to the budget).
TEST(ProcSharding, BudgetOverrunExitMatchesAcrossTransportsAndModes) {
  auto exit_of = [](const ExitLeg& leg) {
    auto c = multi_node_config();
    c.max_cycles_per_iteration = 300;
    c.num_worker_threads = leg.threads;
    c.proc_workers = leg.procs;
    c.tick_mode = leg.mode;
    core::Simulation sim(make_state({4, 4, 4}), md::ForceField::sodium(), c);
    std::string what = "no failure";
    try {
      sim.run(2);
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    return std::make_pair(what, sim.total_cycles());
  };

  const auto want = exit_of(kExitLegs[0]);
  EXPECT_EQ(want.first, "Scheduler::run_until exceeded cycle budget");
  EXPECT_EQ(want.second, 600u);
  for (const ExitLeg& leg : kExitLegs) {
    const auto got = exit_of(leg);
    EXPECT_EQ(got.first, want.first) << leg_label(leg);
    EXPECT_EQ(got.second, want.second) << leg_label(leg);
  }
}

// ------------------------------------------------- config validation

TEST(ProcSharding, RejectsIncompatibleConfigs) {
  const auto state = make_state({4, 4, 4});
  {
    auto c = multi_node_config();
    c.proc_workers = 2;
    c.num_worker_threads = 4;
    EXPECT_THROW(core::Simulation(state, md::ForceField::sodium(), c),
                 std::invalid_argument);
  }
  {
    auto c = multi_node_config();
    c.proc_workers = 2;
    c.tick_mode = sim::TickMode::kValidate;
    EXPECT_THROW(core::Simulation(state, md::ForceField::sodium(), c),
                 std::invalid_argument);
  }
  {
    auto c = multi_node_config();
    c.proc_workers = 2;
    c.sync_mode = sync::SyncMode::kBulk;
    c.bulk_barrier_latency = 0;
    EXPECT_THROW(core::Simulation(state, md::ForceField::sodium(), c),
                 std::invalid_argument);
  }
}

TEST(ProcSharding, WorkerCountClampedToNodes) {
  auto config = multi_node_config();
  config.proc_workers = 64;  // only 8 nodes exist
  const auto state = make_state({4, 4, 4});
  core::Simulation sim(state, md::ForceField::sodium(), config);
  EXPECT_EQ(sim.proc_workers(), 8);
  EXPECT_EQ(sim.proc_worker_pids().size(), 8u);
}

// ------------------------------------------------- worker lifecycle

/// True while `pid` names a live (or zombie) process.
bool process_exists(pid_t pid) {
  return ::kill(pid, 0) == 0 || errno != ESRCH;
}

bool wait_gone(pid_t pid, int millis) {
  for (int i = 0; i < millis / 10; ++i) {
    if (!process_exists(pid)) return true;
    ::usleep(10 * 1000);
  }
  return !process_exists(pid);
}

// SIGKILLing a worker mid-run must surface as the typed NodeFailureError
// naming the dead worker's first owned node — not a hang (this test's
// ctest TIMEOUT is the backstop) and not a raw transport error.
TEST(ProcSharding, KilledWorkerSurfacesAsNodeFailure) {
  auto config = multi_node_config();
  config.proc_workers = 2;
  const auto state = make_state({4, 4, 4});
  core::Simulation sim(state, md::ForceField::sodium(), config);
  const auto pids = sim.proc_worker_pids();
  ASSERT_EQ(pids.size(), 2u);

  // Kill the second worker (owns nodes [4, 8)) before the run: the first
  // round trips over the half-closed socketpair — EPIPE on send or EOF on
  // recv, both converted to the typed failure.
  ASSERT_EQ(::kill(pids[1], SIGKILL), 0);
  ASSERT_TRUE(wait_gone(pids[1], 2000) || ::waitpid(pids[1], nullptr, 0) > 0);
  try {
    sim.run(1);
    FAIL() << "expected sync::NodeFailureError";
  } catch (const sync::NodeFailureError& e) {
    EXPECT_EQ(e.node(), 4);
    EXPECT_NE(std::string(e.what()).find("worker-process"), std::string::npos);
  }
}

// The same, mid-sequence: a successful run, then the worker dies, then the
// next run fails typed. Exercises the send-to-dead-peer (EPIPE) path on a
// warm protocol stream.
TEST(ProcSharding, WorkerDeathBetweenRunsFailsTyped) {
  auto config = multi_node_config();
  config.proc_workers = 2;
  const auto state = make_state({4, 4, 4});
  core::Simulation sim(state, md::ForceField::sodium(), config);
  sim.run(1);
  const auto pids = sim.proc_worker_pids();
  ASSERT_EQ(::kill(pids[0], SIGKILL), 0);
  ::waitpid(pids[0], nullptr, 0);
  EXPECT_THROW(sim.run(1), sync::NodeFailureError);
}

// Destroying the Simulation must shut down and reap every worker: no
// zombies (waitpid in the destructor) and no survivors.
TEST(ProcSharding, DestructionReapsAllWorkers) {
  std::vector<pid_t> pids;
  {
    auto config = multi_node_config();
    config.proc_workers = 4;
    const auto state = make_state({4, 4, 4});
    core::Simulation sim(state, md::ForceField::sodium(), config);
    pids = sim.proc_worker_pids();
    ASSERT_EQ(pids.size(), 4u);
    for (const pid_t pid : pids) EXPECT_TRUE(process_exists(pid));
  }
  for (const pid_t pid : pids) {
    EXPECT_TRUE(wait_gone(pid, 3000)) << "worker " << pid << " survived";
  }
}

// Workers must die with their parent even when the parent exits without
// running destructors (PR_SET_PDEATHSIG): no orphaned workers spinning in
// recv() after a parent crash.
TEST(ProcSharding, WorkersDieWithCrashedParent) {
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const pid_t helper = ::fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    // Stand-in parent: builds the cluster, reports its worker pids, then
    // dies abruptly — no Simulation destructor, no shutdown frames.
    ::close(pipe_fds[0]);
    auto config = multi_node_config();
    config.proc_workers = 2;
    const auto state = make_state({4, 4, 4});
    core::Simulation sim(state, md::ForceField::sodium(), config);
    const auto pids = sim.proc_worker_pids();
    for (const pid_t pid : pids) {
      const auto v = static_cast<std::int64_t>(pid);
      (void)!::write(pipe_fds[1], &v, sizeof v);
    }
    ::close(pipe_fds[1]);
    ::_exit(0);
  }
  ::close(pipe_fds[1]);
  std::vector<pid_t> worker_pids;
  std::int64_t v = 0;
  while (::read(pipe_fds[0], &v, sizeof v) == static_cast<ssize_t>(sizeof v)) {
    worker_pids.push_back(static_cast<pid_t>(v));
  }
  ::close(pipe_fds[0]);
  ASSERT_EQ(::waitpid(helper, nullptr, 0), helper);
  ASSERT_EQ(worker_pids.size(), 2u);
  for (const pid_t pid : worker_pids) {
    EXPECT_TRUE(wait_gone(pid, 5000))
        << "worker " << pid << " orphaned after parent death";
  }
}

// --------------------------------------- supervised crash recovery

engine::EngineSpec crashing_spec(int procs, bool naive) {
  engine::EngineSpec spec;
  spec.engine = "cycle";
  spec.cells_per_node = geom::IVec3{2, 2, 2};
  spec.num_worker_threads = 1;
  spec.proc_workers = procs;
  spec.naive_tick = naive;
  spec.faults = net::FaultPlan::parse("crash=1-2500");
  spec.reliability.max_retries = 3;  // quick dead-board detection
  return spec;
}

TEST(ProcSharding, SupervisedCrashRecoveryMatchesInProcess) {
  constexpr int kSteps = 4;
  md::DatasetParams p;
  p.particles_per_cell = 8;
  p.seed = 17;
  p.temperature = 300.0;
  const auto state =
      md::generate_dataset({4, 4, 4}, 8.5, md::ForceField::sodium(), p);

  auto supervised = [&](int procs, bool naive) {
    supervisor::SupervisorConfig cfg;
    cfg.checkpoint_every = 1;
    supervisor::Supervisor sup(state, md::ForceField::sodium(),
                               crashing_spec(procs, naive), cfg);
    return sup.run(kSteps);
  };

  const auto want = supervised(0, /*naive=*/true);
  ASSERT_TRUE(want.completed) << want.final_error;
  ASSERT_EQ(want.restarts, 1);

  const auto got = supervised(2, /*naive=*/false);
  ASSERT_TRUE(got.completed) << got.final_error;
  EXPECT_EQ(got.restarts, want.restarts);
  EXPECT_EQ(got.steps, want.steps);
  ASSERT_EQ(got.final_state.size(), want.final_state.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < want.final_state.size(); ++i) {
    if (!bitwise_equal(got.final_state.positions[i],
                       want.final_state.positions[i]))
      ++bad;
    if (!bitwise_equal(got.final_state.velocities[i],
                       want.final_state.velocities[i]))
      ++bad;
  }
  EXPECT_EQ(bad, 0u) << "recovered trajectory diverged across the transport";
}

}  // namespace
}  // namespace fasda
