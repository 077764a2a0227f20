#pragma once
// Cycle-driven simulation kernel.
//
// One Scheduler cycle models one 200 MHz FPGA clock. Every cycle has two
// phases: all Components tick() (reading only state committed in earlier
// cycles, staging their writes), then all Clocked elements commit().
// Because reads never observe same-cycle writes, results are independent of
// the order components are ticked in — the same property RTL gets from
// edge-triggered registers.
//
// The cluster advances through one loop, drive_until, for every tick mode
// and both shard transports. Scheduler supplies its in-process steps and
// runs each cycle body, serially or fanned out over its own thread pool;
// the process transport drives the same loop through remote steps.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fasda/obs/obs.hpp"
#include "fasda/util/thread_pool.hpp"

namespace fasda::sim {

using Cycle = std::uint64_t;

/// "No self-scheduled event": a component returning this from next_wake can
/// only be re-activated by another component's activity (which executes a
/// cycle and triggers a fresh wake sweep).
inline constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();

/// Anything with two-phase (staged) state.
class Clocked {
 public:
  virtual ~Clocked() = default;
  virtual void commit() = 0;
};

/// Anything that does work each cycle.
class Component {
 public:
  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;
  virtual void tick(Cycle now) = 0;

  /// Wake-time contract (DESIGN.md §13). Earliest cycle >= `now` at which
  /// tick() could change ANY observable state, judged from state committed
  /// through cycle now-1 — exactly what tick(now) would read. Must never
  /// over-predict: returning W means every tick in [now, W) is a no-op
  /// apart from the bookkeeping skip_idle replays. The scheduler re-sweeps
  /// after every executed cycle, so a component only needs to report its
  /// OWN pending work (`now`) or self-scheduled future events (timer
  /// expiry, in-flight packet arrival, barrier release, fault boundary);
  /// activation by another component's output is caught by the re-sweep.
  /// The default — always busy — opts a component out of elision safely.
  virtual Cycle next_wake(Cycle now) const {
    (void)now;
    return now;
  }

  /// Replays the bookkeeping `to - from` naive ticks would have accrued
  /// over a window the oracle declared inert (utilization capacity,
  /// heartbeat stamps). Implementations may rely only on the tick count and
  /// the window end: a straggler gate forwards a count-preserving
  /// sub-window for its open cycles.
  virtual void skip_idle(Cycle from, Cycle to) {
    (void)from;
    (void)to;
  }

  /// Eager idle bookkeeping (DESIGN.md §13). A component returning true
  /// gets its skip_idle replayed at every executed cycle and every window
  /// jump even while its whole shard sleeps, instead of being batched into
  /// one deferred window at shard wake-up. Opt in when the bookkeeping is
  /// read by outside observers mid-sleep — the node heartbeat feeding the
  /// watchdog is the one case.
  virtual bool eager_idle() const { return false; }

  const std::string& name() const { return name_; }

  /// Scheduler-managed cache of the last wake sweep; written on the driving
  /// thread between cycles, read during the tick fan-out. Not part of the
  /// component contract.
  Cycle sched_wake() const { return sched_wake_; }
  void set_sched_wake(Cycle w) { sched_wake_ = w; }

 private:
  std::string name_;
  Cycle sched_wake_ = 0;
};

/// Power-of-two ring queue: O(1) push_back/pop_front over one contiguous
/// slot array. Storage grows by doubling only when a push finds it full and
/// never shrinks, so a queue stops allocating once it has held its peak
/// occupancy — or from the start, after reserve(). The storage under Fifo
/// and the PE's internal pair and pipeline queues.
template <class T>
class RingQueue {
 public:
  /// Grows the storage to hold at least `n` items (rounded up to a power of
  /// two) so later pushes up to that occupancy never allocate.
  void reserve(std::size_t n) {
    if (n > slots_.size()) regrow(std::bit_ceil(n));
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// Oldest item; the queue must not be empty.
  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }

  void push_back(T value) {
    if (count_ == slots_.size()) regrow(slots_.empty() ? 1 : 2 * slots_.size());
    slots_[(head_ + count_) & mask_] = std::move(value);
    ++count_;
  }

  /// Drops the oldest item; the queue must not be empty.
  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --count_;
  }

 private:
  void regrow(std::size_t slots) {
    std::vector<T> next(slots);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & mask_]);
    }
    slots_ = std::move(next);
    head_ = 0;
    mask_ = slots - 1;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;   ///< slot of the oldest item
  std::size_t count_ = 0;  ///< items held
  std::size_t mask_ = 0;   ///< slots_.size() - 1 once allocated
};

/// Two-phase FIFO: push() stages (visible next cycle); pop()/front() operate
/// on the committed view. Intended for a single consumer per FIFO. Callers
/// must check empty() first; pop()/front() on an empty committed queue throw.
///
/// One ring holds the committed items followed by the staged ones, so a push
/// writes the slot after the committed tail and commit() only forgets the
/// staged count. The ring grows lazily up to the capacity rounded up to a
/// power of two: a deep buffer costs nothing until it fills.
template <class T>
class Fifo : public Clocked {
 public:
  explicit Fifo(std::size_t capacity) : capacity_(capacity) {}

  /// Space check against committed + staged occupancy.
  bool can_push() const { return items_.size() < capacity_; }

  /// Stages an item; returns false (and drops nothing) when full.
  bool push(T value) {
    if (!can_push()) return false;
    items_.push_back(std::move(value));
    ++staged_;
    return true;
  }

  bool empty() const { return items_.size() == staged_; }
  std::size_t size() const { return items_.size() - staged_; }
  std::size_t capacity() const { return capacity_; }

  /// Committed + staged: used by drain/quiescence checks, not by datapaths.
  std::size_t total_occupancy() const { return items_.size(); }

  const T& front() const {
    if (empty()) throw std::logic_error("Fifo::front on empty committed queue");
    return items_.front();
  }

  T pop() {
    if (empty()) throw std::logic_error("Fifo::pop on empty committed queue");
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

  void commit() override { staged_ = 0; }

 private:
  RingQueue<T> items_;  ///< committed items, then staged_ staged ones
  std::size_t staged_ = 0;
  std::size_t capacity_;
};

/// Two-phase single-entry register. Writes land only into a slot that was
/// empty at cycle start (conservative handshake: a full slot must be cleared
/// one cycle before it can be refilled), which keeps behaviour independent
/// of component tick order. Rings own their hop slots collectively and do
/// not use this class.
template <class T>
class Reg : public Clocked {
 public:
  bool valid() const { return valid_; }
  const T& value() const { return value_; }

  bool can_write() const { return !valid_ && !write_staged_; }

  void write(T value) {
    if (!can_write()) throw std::logic_error("Reg overwrite");
    staged_value_ = std::move(value);
    write_staged_ = true;
  }

  void clear() { clear_staged_ = true; }

  void commit() override {
    if (clear_staged_) valid_ = false;
    if (write_staged_) {
      value_ = std::move(staged_value_);
      valid_ = true;
    }
    clear_staged_ = write_staged_ = false;
  }

 private:
  T value_{};
  T staged_value_{};
  bool valid_ = false;
  bool write_staged_ = false;
  bool clear_staged_ = false;
};

/// Utilization bookkeeping for Fig. 17. "Hardware utilization" is work done
/// relative to capacity while the whole run lasted; "time utilization" is
/// the fraction of cycles the component was active (pipeline possibly not
/// full, but functioning).
struct UtilCounter {
  std::uint64_t work = 0;
  std::uint64_t capacity = 0;
  std::uint64_t active_cycles = 0;

  void record(std::uint64_t done, std::uint64_t possible, bool active) {
    work += done;
    capacity += possible;
    active_cycles += active ? 1 : 0;
  }

  void merge(const UtilCounter& o) {
    work += o.work;
    capacity += o.capacity;
    active_cycles += o.active_cycles;
  }

  double hardware_utilization() const {
    return capacity == 0 ? 0.0
                         : static_cast<double>(work) / static_cast<double>(capacity);
  }

  double time_utilization(Cycle total_cycles, std::uint64_t instances = 1) const {
    const auto denom = total_cycles * instances;
    return denom == 0 ? 0.0
                      : static_cast<double>(active_cycles) /
                            static_cast<double>(denom);
  }
};

/// Shard tag for registration. Components of one FPGA node share one shard;
/// elements that are touched from more than one shard during a cycle (the
/// net::Fabric instances, for example) register as kGlobalShard and are
/// ticked/committed by the scheduler outside the sharded fan-out.
using ShardId = int;
inline constexpr ShardId kGlobalShard = -1;

/// Busy-shard fast path (DESIGN.md §13). A group that stays awake for
/// kHotStreak consecutive executed cycles without ever having slept is
/// marked hot: its per-cycle wake sweep (one next_wake call per member,
/// which costs more than the ticks it could save on a busy datapath) is
/// skipped and every member is ticked unconditionally — bitwise safe
/// because unconditional ticking is exactly the naive schedule. Every
/// kHotProbePeriod cycles the group is re-swept so a workload that goes
/// idle later is demoted and can sleep again; the probe bounds the elision
/// opportunity a hot group can hide to one period per demotion.
inline constexpr std::uint32_t kHotStreak = 4;
inline constexpr std::uint32_t kHotProbePeriod = 64;

/// How the cycle loop (drive_until) advances the cluster. Every mode runs
/// the same loop; the mode picks only its loop-top step and cycle body.
///   kElide    — idle-cycle elision: the loop top sweeps wakes, so
///               globally-dead windows are jumped outright and the elided
///               body skips the tick of individually-idle components inside
///               executed cycles. Bitwise identical to kNaive by the
///               next_wake contract (DESIGN.md §13).
///   kNaive    — tick every component every cycle: the loop top returns
///               `now` and the naive body shares no elision logic, so it
///               stays the differential reference (and the FASDA_NAIVE_TICK
///               escape hatch).
///   kValidate — the naive body, but the loop top audits the elision oracle
///               each cycle: counts cycles the oracle would have skipped
///               (idle wakes) and oracle violations (mispredicts, must stay
///               zero).
enum class TickMode { kElide, kNaive, kValidate };

/// FASDA_NAIVE_TICK (set and not "0") overrides any configured mode with
/// kNaive — the environment escape hatch for bisecting elision bugs.
inline TickMode resolve_tick_mode(TickMode configured) {
  const char* env = std::getenv("FASDA_NAIVE_TICK");
  if (env != nullptr && env[0] != '\0' &&
      !(env[0] == '0' && env[1] == '\0')) {
    return TickMode::kNaive;
  }
  return configured;
}

/// Elision bookkeeping. Deliberately NOT published through the obs registry
/// on elided runs: metrics snapshots must stay bitwise identical between
/// naive and elided runs, so execution-shape counters live here and only
/// kValidate runs surface them as metrics (core::Simulation::publish).
struct ElisionStats {
  /// Cycles actually executed (tick fan-out ran).
  std::uint64_t executed_cycles = 0;
  /// Cycles skipped outright because every component slept past them.
  std::uint64_t elided_cycles = 0;
  /// Component-ticks skipped inside executed cycles (component slept while
  /// others ran).
  std::uint64_t component_idle_skips = 0;
  /// Shard-cycles spent asleep inside executed cycles: the whole shard's
  /// tick fan-out, wake sweep and commits were skipped (kElide only).
  std::uint64_t shard_sleep_cycles = 0;
  /// kValidate: executed cycles the oracle declared globally dead — naive
  /// ticks that "woke with no state change".
  std::uint64_t idle_wakes = 0;
  /// kValidate: sweeps inside a predicted-quiet window that reported an
  /// earlier wake — "state changed while skipped". Must be zero.
  std::uint64_t mispredicts = 0;
};

/// External wake bound for the cycle loop: earliest cycle at which the
/// done() predicate could change outcome for reasons no component reports
/// itself (in practice the watchdog trip deadline, which depends on
/// heartbeat silence rather than on any component's own pending work).
using ExternalWake = std::function<Cycle(Cycle)>;

/// The cycle loop (DESIGN.md §13, §14), written once for every tick mode
/// and both shard transports. Runs until done() is true (checked between
/// cycles) or the budget is exhausted and returns the cycle count at exit;
/// throws on budget overrun so deadlocks in the model fail loudly.
/// `Driver` supplies the steps — Scheduler in-process, the process
/// transport's remote steps over its workers:
///
///   cycle()             the current cycle;
///   driver_begin_run()  run entry;
///   driver_loop_top()   earliest wake >= cycle(); <= cycle() executes;
///   driver_jump(to)     skips the globally dead window [cycle(), to);
///   driver_execute()    runs one cycle;
///   driver_finish()     settles deferred bookkeeping, on both exits.
///
/// Elision safety: done() is evaluated only between executed cycles and at
/// skip-window boundaries. That is equivalent to the naive every-cycle
/// check because done() reads only state that changes on executed cycles —
/// except the watchdog silence clock, whose trip cycles the caller folds
/// in through `external_wake` so windows never straddle a trip. When done()
/// throws (watchdog, link degradation) the scheduler span stays open and is
/// closed at the trace high-water mark by the next epoch or the export.
template <class Driver>
Cycle drive_until(Driver& d, obs::Hub* hub, const std::function<bool()>& done,
                  Cycle max_cycles, const ExternalWake& external_wake) {
  if (hub != nullptr) {
    hub->trace().begin(obs::kClusterShard, obs::kClusterPid,
                       obs::Comp::kScheduler, "run-until", d.cycle());
  }
  try {
    d.driver_begin_run();
    while (!done()) {
      const Cycle now = d.cycle();
      if (now >= max_cycles) {
        throw std::runtime_error("Scheduler::run_until exceeded cycle budget");
      }
      Cycle wake = d.driver_loop_top();
      if (wake > now && external_wake) {
        wake = std::min(wake, external_wake(now));
      }
      if (wake > now) {
        // Globally dead window [now, wake): no tick can change state, so
        // jump. Clamping to the budget keeps the overrun throw at the same
        // cycle the naive loop reaches it.
        d.driver_jump(std::min(wake, max_cycles));
      } else {
        d.driver_execute();
      }
    }
  } catch (...) {
    d.driver_finish();
    throw;
  }
  d.driver_finish();
  if (hub != nullptr) {
    hub->trace().end(obs::kClusterShard, obs::kClusterPid,
                     obs::Comp::kScheduler, d.cycle());
    hub->metrics().set(obs::kClusterNode, hub->metrics().gauge("sched.cycles"),
                       static_cast<double>(d.cycle()));
  }
  return d.cycle();
}

/// The cycle driver. Components register tagged with a ShardId (one shard
/// per FPGA node). Every cycle is one two-phase fan-out over the shard
/// groups on an owned ThreadPool:
///
///   phase 1 (tick):   global components tick on the caller, then shards
///                     tick concurrently, one participant per contiguous
///                     shard range;
///   -- barrier --     every tick completes before any state commits;
///   phase 2 (commit): shards commit concurrently, then global clocked
///                     elements (the net::Fabric instances) commit on the
///                     caller.
///
/// At one thread the fan-out runs inline on the caller. Why more threads
/// are *bitwise identical*: the tick/commit contract guarantees ticks read
/// only state committed in earlier cycles, so tick order within a cycle is
/// immaterial — concurrent ticks are just one more order. The only
/// cross-shard mutable state is in kGlobalShard elements, which stage
/// writes during tick (per-source, so writers never share a slot) and apply
/// them single-threaded on the caller. Per-shard UtilCounters live inside
/// the shard's own components and are only merged at report time, after
/// run_until returns.
///
/// What a shard-tagged component must never do in tick(): read or write
/// another shard's components, pop/push a Fifo owned by another shard, or
/// touch any shared element that is not two-phase. Cross-node traffic must
/// flow through a kGlobalShard Fabric.
class Scheduler {
 public:
  /// `threads` caps the worker count; shards are statically chunked over
  /// min(threads, num_shards) participants. 0 and 1 both run the fan-out
  /// inline on the caller (no pool threads).
  explicit Scheduler(std::size_t threads = 1) : pool_(threads) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  void add(Component* c, ShardId shard = kGlobalShard) {
    if (shard == kGlobalShard) {
      global_components_.push_back(c);
      return;
    }
    ShardGroup& g = group_at(shard);
    if (c->eager_idle()) {
      g.components.insert(
          g.components.begin() + static_cast<std::ptrdiff_t>(g.eager), c);
      ++g.eager;
    } else {
      g.components.push_back(c);
    }
  }
  void add_clocked(Clocked* c, ShardId shard = kGlobalShard) {
    if (shard == kGlobalShard) {
      global_clocked_.push_back(c);
    } else {
      group_at(shard).clocked.push_back(c);
    }
  }

  Cycle cycle() const { return cycle_; }
  std::size_t num_shards() const { return groups_.size(); }

  /// Telemetry hub (nullable; null is the disabled path). Attach after
  /// registration is complete and never mid-run; run_until brackets each
  /// driving window in a scheduler-track span. Note nothing published here
  /// may depend on the worker count — traces and snapshots are bitwise
  /// identical across 1/2/4 workers, so the execution shape stays out of
  /// the registry.
  void set_obs(obs::Hub* hub) { obs_ = hub; }
  obs::Hub* obs() const { return obs_; }

  /// One naive cycle: every component ticks, then every clocked element
  /// commits. The kNaive and kValidate cycle body; also driven directly by
  /// component tests.
  void run_cycle() {
    const Cycle now = cycle_;
    for (Component* c : global_components_) c->tick(now);
    fan_out(
        [this](Cycle now, std::size_t lo, std::size_t hi) {
          for (std::size_t s = lo; s < hi; ++s) {
            for (Component* c : groups_[s].components) c->tick(now);
          }
        },
        [this](Cycle, std::size_t lo, std::size_t hi) {
          for (std::size_t s = lo; s < hi; ++s) {
            for (Clocked* c : groups_[s].clocked) c->commit();
          }
        });
    for (Clocked* c : global_clocked_) c->commit();
    ++cycle_;
  }

  void set_tick_mode(TickMode mode) { mode_ = mode; }
  TickMode tick_mode() const { return mode_; }
  const ElisionStats& elision_stats() const { return stats_; }

  /// Cross-shard wake pokes (DESIGN.md §13). A sleeping shard is not
  /// re-swept after every executed cycle, so the two mechanisms that can
  /// activate a shard from outside must poke it explicitly:
  ///
  ///   wake_shard      — a fabric delivery to one node's endpoint. Fabric
  ///                     commits run single-threaded on the driving thread,
  ///                     so a plain min on the group wake is race-free.
  ///   wake_all_shards — a bulk-barrier release, computed under the barrier
  ///                     mutex on whichever worker ticked the last arriving
  ///                     node. Folds through an atomic that the elided loop
  ///                     drains before each sweep.
  ///
  /// Pokes may only shorten a sleep (spurious wakes are safe; the woken
  /// shard just re-sweeps and goes back down). Unknown shard ids and calls
  /// outside kElide are harmless no-ops.
  void wake_shard(ShardId shard, Cycle at) {
    if (shard < 0 || static_cast<std::size_t>(shard) >= groups_.size()) return;
    ShardGroup& g = groups_[static_cast<std::size_t>(shard)];
    if (at < g.wake) g.wake = at;
  }
  void wake_all_shards(Cycle at) {
    Cycle cur = poke_all_.load(std::memory_order_relaxed);
    while (at < cur && !poke_all_.compare_exchange_weak(
                           cur, at, std::memory_order_relaxed)) {
    }
  }

  /// Drives this scheduler's own steps through drive_until.
  Cycle run_until(const std::function<bool()>& done, Cycle max_cycles,
                  const ExternalWake& external_wake = {}) {
    return drive_until(*this, obs_, done, max_cycles, external_wake);
  }

  // ------------------------------------------------------- driver steps
  // The drive_until steps over the owned group slice (DESIGN.md §14), each
  // aware of the tick mode. run_until drives them in-process over every
  // group; a shard::ProcTransport worker narrows the slice and its parent
  // drives them remotely through the same drive_until, so the two paths
  // cannot diverge.

  /// Restricts every sharded loop (sweeps, ticks, commits, flushes, stats)
  /// to groups [begin, end). Global components/clocked stay included — a
  /// worker's fabrics only ever stage traffic from its own nodes.
  void set_owned_shards(std::size_t begin, std::size_t end) {
    own_begin_ = begin;
    own_end_ = end;
  }

  /// Run entry. Arbitrary state may have changed since the last run
  /// (loaders, node arming), so every owned group is marked awake for a
  /// total first sweep and the first hot probe is forced; the kValidate
  /// audit restarts its quiet horizon. Only kElide reads the group state.
  void driver_begin_run() {
    const auto [lo, hi] = owned_range();
    for (std::size_t i = lo; i < hi; ++i) {
      ShardGroup& g = groups_[i];
      g.wake = cycle_;
      g.skip_from = kNeverCycle;
      g.idle = 0;
      g.probe_in = 0;
    }
    poke_all_.store(kNeverCycle, std::memory_order_relaxed);
    quiet_until_ = cycle_;
  }

  /// Loop top at now == cycle_. kNaive returns `now`; kValidate audits the
  /// oracle, then returns `now`. kElide drains pokes, sweeps global
  /// components, flushes and re-sweeps due groups (with the busy-shard fast
  /// path), opens deferred windows for groups that fall asleep, and returns
  /// the earliest wake over the owned slice.
  Cycle driver_loop_top() {
    const Cycle now = cycle_;
    switch (mode_) {
      case TickMode::kNaive:
        return now;
      case TickMode::kValidate:
        audit_oracle();
        return now;
      case TickMode::kElide:
        break;
    }
    const auto [lo, hi] = owned_range();
    // Fold worker-thread pokes (barrier releases) into every group.
    const Cycle poke =
        poke_all_.exchange(kNeverCycle, std::memory_order_relaxed);
    if (poke != kNeverCycle) {
      for (std::size_t i = lo; i < hi; ++i) {
        groups_[i].wake = std::min(groups_[i].wake, poke);
      }
    }
    std::size_t idle = 0;
    Cycle wake = sweep(global_components_, now, idle);
    for (std::size_t i = lo; i < hi; ++i) {
      ShardGroup& g = groups_[i];
      if (g.hot) {
        if (g.probe_in == 0) {
          sweep_group(g, now);
          if (g.wake > now) {
            // Probe found the group idle: demote and let it sleep.
            g.hot = false;
            g.ever_slept = true;
            g.busy_streak = 0;
            g.skip_from = now;
          } else {
            g.probe_in = kHotProbePeriod;
          }
        } else {
          --g.probe_in;
          g.wake = now;  // hot groups never have a deferred window open
          g.idle = 0;
        }
      } else if (g.wake <= now) {
        flush_group_idle(g, now);
        sweep_group(g, now);
        if (g.wake > now) {  // falls asleep: open window
          g.skip_from = now;
          g.ever_slept = true;
          g.busy_streak = 0;
        } else if (!g.ever_slept && ++g.busy_streak >= kHotStreak) {
          g.hot = true;
          g.probe_in = kHotProbePeriod;
        }
      }
      wake = std::min(wake, g.wake);
    }
    return wake;
  }

  /// Jumps the clock over a globally dead window [cycle_, to): sleeping
  /// groups' deferred windows absorb it, only global components and the
  /// eager prefixes replay it directly. Reached in kElide only — the other
  /// loop tops never report a future wake.
  void driver_jump(Cycle to) {
    const Cycle now = cycle_;
    const auto [lo, hi] = owned_range();
    for (Component* c : global_components_) c->skip_idle(now, to);
    for (std::size_t i = lo; i < hi; ++i) {
      ShardGroup& g = groups_[i];
      for (std::size_t e = 0; e < g.eager; ++e) {
        g.components[e]->skip_idle(now, to);
      }
    }
    stats_.elided_cycles += to - now;
    cycle_ = to;
  }

  /// Executes one cycle: the naive body in kNaive and kValidate; in kElide
  /// the skip accounting over the owned slice, then the elided body.
  void driver_execute() {
    if (mode_ == TickMode::kElide) {
      const auto [lo, hi] = owned_range();
      for (std::size_t i = lo; i < hi; ++i) {
        const ShardGroup& g = groups_[i];
        if (g.wake > cycle_) {
          stats_.component_idle_skips += g.components.size();
          ++stats_.shard_sleep_cycles;
        } else {
          stats_.component_idle_skips += g.idle;
        }
      }
      run_cycle_elided();
    } else {
      run_cycle();
    }
    ++stats_.executed_cycles;
  }

  /// Run exit, normal or unwinding: flushes every open deferred idle window
  /// so utilization counters observed after the run match the naive
  /// schedule exactly. Outside kElide no window is ever open.
  void driver_finish() {
    const auto [lo, hi] = owned_range();
    for (std::size_t i = lo; i < hi; ++i) flush_group_idle(groups_[i], cycle_);
  }

  /// Global (unsharded) components cannot be split across worker processes;
  /// shard::ProcTransport refuses clusters that register any.
  std::size_t global_component_count() const {
    return global_components_.size();
  }

 private:
  /// One shard's slice of the registration, plus its sleep state. `wake` is
  /// the cached minimum of the members' swept wakes (folded with any poke);
  /// the group is awake when wake <= now. While a group sleeps its members
  /// are neither ticked, swept nor committed — their idle bookkeeping is
  /// deferred into one [skip_from, wake-cycle) window flushed when the
  /// group wakes, except the eager_idle() prefix, which is replayed every
  /// executed cycle and window jump (the watchdog reads node heartbeats
  /// from outside the shard mid-sleep).
  struct ShardGroup {
    std::vector<Component*> components;  // eager_idle() members first
    std::size_t eager = 0;               // length of the eager prefix
    std::vector<Clocked*> clocked;
    Cycle wake = 0;                      // cached group wake (<= now: awake)
    Cycle skip_from = kNeverCycle;       // deferred idle window start
    std::size_t idle = 0;                // sleepers at the last sweep (stats)
    // Busy-shard fast path: `hot` groups skip the per-cycle sweep and tick
    // every member; demoted by the periodic probe the moment a sweep finds
    // the group asleep. ever_slept gates promotion — a group that has ever
    // slept is elision-profitable and never goes hot.
    bool hot = false;
    bool ever_slept = false;
    std::uint32_t busy_streak = 0;
    std::uint32_t probe_in = 0;
  };

  ShardGroup& group_at(ShardId shard) {
    if (shard < 0) throw std::invalid_argument("Scheduler: bad shard id");
    if (static_cast<std::size_t>(shard) >= groups_.size()) {
      groups_.resize(static_cast<std::size_t>(shard) + 1);
    }
    return groups_[static_cast<std::size_t>(shard)];
  }

  /// The two-phase fan-out of cycle cycle_ over the owned slice:
  /// tick(now, lo, hi), then commit(now, lo, hi), over contiguous group
  /// ranges. At one thread both run inline on the caller (no allocation, no
  /// lock); above it they run as pool_.parallel_phases chunks, whose
  /// barrier orders every tick before any commit and the caller's
  /// between-cycle writes (group wakes, wake caches) before both. `now`
  /// travels by value so the per-member loops keep it in a register.
  template <class Tick, class Commit>
  void fan_out(const Tick& tick, const Commit& commit) {
    const Cycle now = cycle_;
    const auto [lo, hi] = owned_range();
    if (pool_.size() == 1) {
      tick(now, lo, hi);
      commit(now, lo, hi);
      return;
    }
    const std::size_t base = lo;
    pool_.parallel_phases(
        hi - lo,
        [&](std::size_t, std::size_t b, std::size_t e) {
          tick(now, base + b, base + e);
        },
        [&](std::size_t, std::size_t b, std::size_t e) {
          commit(now, base + b, base + e);
        });
  }

  /// One elided cycle. Awake groups tick members whose swept wake is due,
  /// replay single-cycle idle bookkeeping for the rest, and commit; hot
  /// groups tick everyone (the loop top skipped their sweep, so the wake
  /// caches are stale — that is the naive schedule for the shard, hence
  /// bitwise identical); sleeping groups replay only the eager prefix. No
  /// sleeping member can have writes staged — the sweep that put the group
  /// to sleep ran after its last awake cycle's commits — so skipping its
  /// commits is exact.
  void run_cycle_elided() {
    for (Component* c : global_components_) tick_or_skip(c, cycle_);
    fan_out(
        [this](Cycle now, std::size_t lo, std::size_t hi) {
          for (std::size_t s = lo; s < hi; ++s) {
            ShardGroup& g = groups_[s];
            if (g.wake > now) {
              for (std::size_t i = 0; i < g.eager; ++i) {
                g.components[i]->skip_idle(now, now + 1);
              }
            } else if (g.hot) {
              for (Component* c : g.components) c->tick(now);
            } else {
              for (Component* c : g.components) tick_or_skip(c, now);
            }
          }
        },
        [this](Cycle now, std::size_t lo, std::size_t hi) {
          for (std::size_t s = lo; s < hi; ++s) {
            ShardGroup& g = groups_[s];
            if (g.wake > now) continue;
            for (Clocked* c : g.clocked) c->commit();
          }
        });
    for (Clocked* c : global_clocked_) c->commit();
    ++cycle_;
  }

  static void tick_or_skip(Component* c, Cycle now) {
    if (c->sched_wake() <= now) {
      c->tick(now);
    } else {
      c->skip_idle(now, now + 1);
    }
  }

  /// Sweeps `cs` from post-commit state (what the next tick would read),
  /// caching each member's wake for the selective fan-out; returns the
  /// minimum and adds the members sleeping past `now` to `idle`.
  static Cycle sweep(const std::vector<Component*>& cs, Cycle now,
                     std::size_t& idle) {
    Cycle min_wake = kNeverCycle;
    std::size_t sleepers = 0;
    for (Component* c : cs) {
      const Cycle w = c->next_wake(now);
      c->set_sched_wake(w);
      if (w < min_wake) min_wake = w;
      if (w > now) ++sleepers;
    }
    idle += sleepers;
    return min_wake;
  }

  /// Re-sweeps one awake group, caching the group minimum for the sleep
  /// decision.
  void sweep_group(ShardGroup& g, Cycle now) {
    g.idle = 0;
    g.wake = sweep(g.components, now, g.idle);
  }

  /// kValidate loop top: a full sweep of every owned component, audited
  /// against the quiet horizon of earlier sweeps. It audits the component
  /// oracle alone — external_wake only ever shortens skip windows, so it
  /// cannot mask a mispredict and stays out of the horizon.
  void audit_oracle() {
    const Cycle now = cycle_;
    std::size_t idle = 0;
    Cycle wake = sweep(global_components_, now, idle);
    const auto [lo, hi] = owned_range();
    for (std::size_t i = lo; i < hi; ++i) {
      wake = std::min(wake, sweep(groups_[i].components, now, idle));
    }
    stats_.component_idle_skips += idle;
    if (now < quiet_until_ && wake <= now) ++stats_.mispredicts;
    if (wake > now) {
      ++stats_.idle_wakes;
      quiet_until_ = std::max(quiet_until_, wake);
    }
  }

  /// Flushes a waking group's deferred idle window: one count-preserving
  /// skip_idle over every cycle the group slept through, for the non-eager
  /// members (the eager prefix was replayed cycle-by-cycle all along).
  void flush_group_idle(ShardGroup& g, Cycle now) {
    if (g.skip_from == kNeverCycle) return;
    if (g.skip_from < now) {
      for (std::size_t i = g.eager; i < g.components.size(); ++i) {
        g.components[i]->skip_idle(g.skip_from, now);
      }
    }
    g.skip_from = kNeverCycle;
  }

  /// The owned slice of groups_, clamped to its current size (groups are
  /// created lazily during registration).
  std::pair<std::size_t, std::size_t> owned_range() const {
    const std::size_t hi = std::min(own_end_, groups_.size());
    return {std::min(own_begin_, hi), hi};
  }

  std::vector<ShardGroup> groups_;  // indexed by ShardId
  std::vector<Component*> global_components_;
  std::vector<Clocked*> global_clocked_;
  /// Pending wake_all_shards poke (kNeverCycle = none); written by workers,
  /// drained by the driving thread before each sweep.
  std::atomic<Cycle> poke_all_{kNeverCycle};
  /// Owned group window [own_begin_, own_end_), see set_owned_shards. The
  /// defaults cover every group — only ProcTransport workers narrow it.
  std::size_t own_begin_ = 0;
  std::size_t own_end_ = std::numeric_limits<std::size_t>::max();
  Cycle cycle_ = 0;
  /// kValidate: end of the predicted-quiet horizon of earlier sweeps.
  Cycle quiet_until_ = 0;
  obs::Hub* obs_ = nullptr;
  TickMode mode_ = TickMode::kNaive;
  ElisionStats stats_;
  util::ThreadPool pool_;
};

}  // namespace fasda::sim
