// In-process shard transport: every shard in one address space, driven by
// Scheduler::run_until — the cycle loop over the scheduler's own steps,
// serial or thread-parallel, so "1 thread" and "N threads" are the same
// transport. Health is the shared check_health over the live nodes.

#include <memory>

#include "fasda/shard/transport.hpp"

namespace fasda::shard {

namespace {

class InProcTransport final : public ShardTransport {
 public:
  explicit InProcTransport(ClusterRefs refs) : r_(refs) {}

  const char* kind() const override { return "inproc"; }
  int num_procs() const override { return 0; }
  sim::Cycle cycle() const override { return r_.scheduler->cycle(); }
  const ClusterFold* fold() const override { return nullptr; }
  const sim::ElisionStats& elision_stats() const override {
    return r_.scheduler->elision_stats();
  }

  void run(int iterations, const RunLimits& limits) override {
    const auto& nodes = *r_.nodes;
    sim::Scheduler& sched = *r_.scheduler;
    for (const auto& node : nodes) {
      node->start(iterations, r_.dt_fs, r_.cutoff, *r_.ff);
    }
    const sim::Cycle budget =
        sched.cycle() + limits.max_cycles_per_iteration *
                            static_cast<sim::Cycle>(iterations);
    // Evaluated on the caller's thread between cycles (workers idle), so
    // reading node state here is race-free and throwing is safe.
    sched.run_until(
        [&] { return check_health(nodes, sched.cycle(), limits); }, budget,
        watchdog_wake(nodes, limits));
  }

 private:
  ClusterRefs r_;
};

}  // namespace

std::unique_ptr<ShardTransport> make_inproc_transport(ClusterRefs refs) {
  return std::make_unique<InProcTransport>(refs);
}

}  // namespace fasda::shard
