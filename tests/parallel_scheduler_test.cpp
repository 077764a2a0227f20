// The determinism guarantee behind sim::Scheduler(threads): node-sharded
// parallel execution must be *bitwise identical* to serial execution — same
// particle state, same forces, same cycle counts, same traffic matrices —
// for every cluster shape, sync mode, straggler pattern and thread count.
// This is the property the two-phase tick/commit contract buys us, and this
// suite is what keeps it true. Run under TSan in CI to also prove the
// absence of data races (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "fasda/core/simulation.hpp"
#include "fasda/md/dataset.hpp"
#include "fasda/sim/kernel.hpp"

namespace fasda {
namespace {

// ------------------------------------------------- scheduler-level checks

class Squarer : public sim::Component {
 public:
  Squarer(sim::Fifo<int>* in, sim::Fifo<int>* out)
      : Component("squarer"), in_(in), out_(out) {}
  void tick(sim::Cycle) override {
    if (!in_->empty() && out_->can_push()) {
      const int v = in_->pop();
      out_->push(v * v);
    }
  }

 private:
  sim::Fifo<int>* in_;
  sim::Fifo<int>* out_;
};

class Feeder : public sim::Component {
 public:
  explicit Feeder(sim::Fifo<int>* out, int stride)
      : Component("feeder"), out_(out), stride_(stride) {}
  void tick(sim::Cycle now) override {
    out_->push(static_cast<int>(now) * stride_ + 1);
  }

 private:
  sim::Fifo<int>* out_;
  int stride_;
};

class Collector : public sim::Component {
 public:
  explicit Collector(sim::Fifo<int>* in) : Component("collector"), in_(in) {}
  void tick(sim::Cycle) override {
    if (!in_->empty()) values.push_back(in_->pop());
  }
  std::vector<int> values;

 private:
  sim::Fifo<int>* in_;
};

/// One shard = one feeder -> squarer -> collector pipeline. Shards share no
/// state, mirroring how FPGA-node shards interact only through the global
/// two-phase fabric.
std::vector<std::vector<int>> run_pipelines(sim::Scheduler& s, int shards,
                                            int cycles) {
  std::vector<std::unique_ptr<sim::Fifo<int>>> fifos;
  std::vector<std::unique_ptr<Feeder>> feeders;
  std::vector<std::unique_ptr<Squarer>> squarers;
  std::vector<std::unique_ptr<Collector>> collectors;
  for (int k = 0; k < shards; ++k) {
    fifos.push_back(std::make_unique<sim::Fifo<int>>(64));
    fifos.push_back(std::make_unique<sim::Fifo<int>>(64));
    auto* in = fifos[fifos.size() - 2].get();
    auto* out = fifos.back().get();
    feeders.push_back(std::make_unique<Feeder>(in, k + 1));
    squarers.push_back(std::make_unique<Squarer>(in, out));
    collectors.push_back(std::make_unique<Collector>(out));
    s.add(feeders.back().get(), k);
    s.add(squarers.back().get(), k);
    s.add(collectors.back().get(), k);
    s.add_clocked(in, k);
    s.add_clocked(out, k);
  }
  for (int i = 0; i < cycles; ++i) s.run_cycle();
  std::vector<std::vector<int>> out;
  for (auto& c : collectors) out.push_back(c->values);
  return out;
}

TEST(ParallelScheduler, MatchesSerialOnShardedPipelines) {
  sim::Scheduler serial;
  const auto want = run_pipelines(serial, 7, 50);
  for (std::size_t threads : {1u, 2u, 4u, 16u}) {
    sim::Scheduler parallel(threads);
    EXPECT_EQ(run_pipelines(parallel, 7, 50), want) << "threads=" << threads;
    EXPECT_EQ(parallel.cycle(), serial.cycle());
    EXPECT_EQ(parallel.num_shards(), 7u);
  }
}

TEST(ParallelScheduler, GlobalShardElementsRunOnTheDriver) {
  sim::Scheduler s(4);
  sim::Fifo<int> global_fifo(8);
  Feeder feeder(&global_fifo, 1);
  Collector collector(&global_fifo);
  s.add(&feeder, sim::kGlobalShard);
  s.add(&collector, sim::kGlobalShard);
  s.add_clocked(&global_fifo, sim::kGlobalShard);
  for (int i = 0; i < 5; ++i) s.run_cycle();
  EXPECT_EQ(collector.values, (std::vector<int>{1, 2, 3, 4}));
}

TEST(ParallelScheduler, RejectsNegativeShardIds) {
  sim::Scheduler s(2);
  sim::Fifo<int> fifo(8);
  Collector c(&fifo);
  EXPECT_THROW(s.add(&c, -2), std::invalid_argument);
}

// ---------------------------------------------- full-cluster bitwise runs

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
  int workers = 0;
};

RunResult run_cluster(core::ClusterConfig config, int workers, int iters = 2) {
  config.num_worker_threads = workers;
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
  r.workers = sim.num_workers();
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
    if (!bitwise_equal(got.state.velocities[i], want.state.velocities[i])) ++bad;
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
  EXPECT_EQ(got.migrations.total_packets, want.migrations.total_packets) << label;
  EXPECT_EQ(got.migrations.packets, want.migrations.packets) << label;
}

std::vector<int> sweep_thread_counts() {
  std::vector<int> counts = {1, 2, 4};
  const int hc = static_cast<int>(std::thread::hardware_concurrency());
  if (hc > 1 && hc != 2 && hc != 4) counts.push_back(hc);
  return counts;
}

core::ClusterConfig multi_node_config() {
  core::ClusterConfig c;
  c.node_dims = {2, 2, 2};
  c.cells_per_node = {2, 2, 2};
  c.channel.link_latency = 50;  // faster tests; same mechanics
  return c;
}

TEST(ParallelSimulation, BitwiseIdenticalAcrossThreadCountSweep) {
  const auto config = multi_node_config();
  const RunResult want = run_cluster(config, /*workers=*/1);
  ASSERT_EQ(want.workers, 1);
  ASSERT_GT(want.positions.total_packets, 0u) << "multi-node traffic expected";
  for (const int threads : sweep_thread_counts()) {
    if (threads == 1) continue;
    const RunResult got = run_cluster(config, threads);
    EXPECT_EQ(got.workers, std::min(threads, 8));
    expect_identical(got, want, "threads=" + std::to_string(threads));
  }
}

TEST(ParallelSimulation, BitwiseIdenticalWithStragglers) {
  auto config = multi_node_config();
  config.stragglers = {{3, 2}, {5, 3}};
  const RunResult want = run_cluster(config, 1);
  const RunResult got = run_cluster(config, 4);
  ASSERT_EQ(got.workers, 4);
  EXPECT_GT(want.cycles, run_cluster(multi_node_config(), 1).cycles)
      << "stragglers must actually slow the cluster";
  expect_identical(got, want, "stragglers");
}

TEST(ParallelSimulation, BitwiseIdenticalUnderBulkSync) {
  auto config = multi_node_config();
  config.sync_mode = sync::SyncMode::kBulk;
  config.bulk_barrier_latency = 500;
  const RunResult want = run_cluster(config, 1);
  const RunResult got = run_cluster(config, 4);
  ASSERT_EQ(got.workers, 4);
  expect_identical(got, want, "bulk sync");
}

TEST(ParallelSimulation, SingleNodeClampsToSerial) {
  core::ClusterConfig config;  // 1 node x 3x3x3 cells
  const RunResult want = run_cluster(config, 1, 1);
  const RunResult got = run_cluster(config, 8, 1);
  EXPECT_EQ(got.workers, 1) << "one shard: parallelism can't help";
  expect_identical(got, want, "single node");
}

}  // namespace
}  // namespace fasda
