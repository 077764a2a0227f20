#pragma once
// Cycle-stamped trace/event bus (DESIGN.md §12). Components emit typed
// events — phase spans, sync instants, fault/incident markers — stamped
// with the *simulated* cycle, never wall-clock, so the exported trace is
// bitwise identical for any worker count. Buffering is sharded exactly like
// the metrics registry: shard i is appended to only by the worker ticking
// node i, the cluster shard only from single-threaded phases. Export merges
// the shards under the canonical order (ts, shard, per-shard sequence),
// which is independent of how ticks interleaved across threads.
//
// Supervised runs restart the scheduler clock at cycle 0 on every engine
// rebuild; begin_epoch() closes any spans the crashed attempt left open and
// re-bases subsequent stamps past the trace high-water mark, keeping `ts`
// monotone per thread track while `args.cycle` stays the raw simulated
// cycle within the attempt.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fasda/util/json_text.hpp"

namespace fasda::obs {

/// The one Chrome trace-event JSON writer (TraceBus and ServeTrace both
/// export through it): the trace envelope, one record per line, fields and
/// args in the order the caller adds them, strings escaped.
class ChromeTraceWriter {
 public:
  /// A process_name / thread_name metadata record.
  void metadata(const char* kind, std::int64_t pid, std::uint64_t tid,
                std::string_view name) {
    begin(kind);
    str("ph", "M");
    num("pid", pid);
    num("tid", tid);
    args();
    str("name", name);
    end();
  }
  /// Starts a record with its "name" field; end() closes it.
  void begin(std::string_view name) {
    if (!first_record_) out_ += ",\n";
    first_record_ = false;
    out_ += '{';
    first_field_ = true;
    in_args_ = false;
    str("name", name);
  }
  void str(std::string_view key, std::string_view value) {
    field(key);
    out_ += '"';
    util::append_json_escaped(out_, value);
    out_ += '"';
  }
  template <class T>
  void num(std::string_view key, T value) {
    field(key);
    util::append_decimal(out_, value);
  }
  /// Opens the record's "args" object: later fields go inside it.
  void args() {
    field("args");
    out_ += '{';
    first_field_ = true;
    in_args_ = true;
  }
  void end() { out_ += in_args_ ? "}}" : "}"; }
  std::string finish() { return std::move(out_ += "\n]}\n"); }

 private:
  void field(std::string_view key) {
    if (!first_field_) out_ += ',';
    first_field_ = false;
    out_ += '"';
    util::append_json_escaped(out_, key);
    out_ += "\":";
  }

  std::string out_ = "{\"traceEvents\":[\n";
  bool first_record_ = true;
  bool first_field_ = true;
  bool in_args_ = false;
};

using Cycle = std::uint64_t;

/// Thread track within a node process in the exported Chrome trace: one pid
/// per FPGA node (kClusterPid for cluster-scope events), one tid per
/// component.
enum class Comp : std::uint8_t {
  kFsm = 0,        // node datapath FSM phases (spans)
  kSync = 1,       // EX-node last-flush sends (instants)
  kNetPos = 2,     // position fabric: faults / retransmits (instants)
  kNetFrc = 3,     // force fabric
  kNetMig = 4,     // migration fabric
  kEngine = 5,     // engine StepMetrics samples (instants)
  kScheduler = 6,  // scheduler run_until windows (spans)
  kHealth = 7,     // watchdog / degraded-link detection (instants)
  kSupervisor = 8, // supervisor incidents, checkpoints, restarts (instants)
};

const char* comp_name(Comp comp);

inline constexpr int kClusterPid = -1;
inline constexpr int kClusterShard = -1;

struct TraceEvent {
  Cycle ts = 0;     // epoch-rebased stamp (monotone per track)
  Cycle cycle = 0;  // raw simulated cycle within its epoch
  std::int32_t pid = kClusterPid;
  Comp tid = Comp::kFsm;
  char phase = 'i';             // 'B' span begin, 'E' span end, 'i' instant
  const char* name = "";        // static-lifetime strings only
  const char* arg_name = nullptr;  // optional extra integer argument
  std::int64_t arg = 0;
};

class TraceBus {
 public:
  /// Grows the shard set to cover nodes [0, num_nodes). Never call while
  /// worker threads are running.
  void ensure_nodes(int num_nodes);

  // ---- emission (shard = owning node id, kClusterShard for the caller
  // thread / single-threaded phases; pid may differ from shard, e.g. a
  // fabric commit stamps the source node's pid from the cluster shard) ----
  void begin(int shard, int pid, Comp tid, const char* name, Cycle cycle);
  void end(int shard, int pid, Comp tid, Cycle cycle);
  void instant(int shard, int pid, Comp tid, const char* name, Cycle cycle,
               const char* arg_name = nullptr, std::int64_t arg = 0);

  /// Between engine runs: closes every span still open (a crashed attempt
  /// never reaches its 'E') at the trace high-water mark, then re-bases so
  /// the next epoch's cycle 0 stamps strictly after everything emitted so
  /// far.
  void begin_epoch();

  /// All events in canonical order, with spans still open at export time
  /// closed at the high-water mark. Bitwise identical across worker counts.
  std::vector<TraceEvent> events() const;

  /// Chrome trace_event JSON (one pid per node, one tid per component,
  /// process_name/thread_name metadata) — loadable at ui.perfetto.dev.
  std::string to_chrome_json() const;

  bool empty() const;

 private:
  struct Open {
    std::int32_t pid;
    Comp tid;
    const char* name;
  };
  struct Shard {
    std::vector<TraceEvent> events;
    std::vector<Open> open;  // span stack; spans are well nested per shard
    Cycle max_ts = 0;
  };

  Shard& shard_at(int shard) {
    return shards_[static_cast<std::size_t>(shard + 1)];
  }
  Cycle high_water() const;
  void append(Shard& shard, TraceEvent event);

  std::vector<Shard> shards_{1};  // [0] = cluster, [i + 1] = node i
  Cycle base_ = 0;                // epoch re-base offset
};

}  // namespace fasda::obs
