#pragma once
// Wall-clock observability plane for the serving stack (DESIGN.md §17).
//
// The deterministic plane (obs.hpp) is forbidden from expressing wall-clock
// time: its whole contract is that snapshots are bitwise identical across
// worker counts. A serving daemon needs the opposite — request latency
// distributions, queue-wait, fsync stalls, per-tenant load — all of which
// are real time on a real host. This header is that second plane:
//
//   * ServerStats — a mutex-guarded wrapper over the same 65-bucket log2
//     Registry the deterministic plane uses (one registry instance, never
//     shared with a deterministic Hub). Latencies are observed in
//     microseconds; the log2 bit-width bucketing that indexes cycle counts
//     indexes microseconds just as well.
//   * ServeTrace — a span recorder stamping events with rebased realtime
//     microseconds, exported as Chrome trace JSON. Spans are correlated
//     across daemon incarnations by a span id the server persists in the
//     journal's kAdmitted records (DESIGN.md §16/§17).
//
// Nothing from this file may ever be published into a deterministic
// registry or trace; nothing deterministic may ever read a wall clock.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "fasda/obs/metrics.hpp"

namespace fasda::obs {

/// Microseconds since the Unix epoch, sampled from the monotonic clock and
/// rebased to the realtime epoch captured once at process start — monotone
/// within one process (NTP steps cannot reorder spans) while still being
/// comparable across daemon incarnations.
std::uint64_t wall_micros();

/// The serve daemon's wall-clock metrics. Thread-safe (one short mutex per
/// emission — the serve path is tens of jobs per second, not a per-cycle
/// hot path). Handles are pre-registered public members so call sites pay
/// one lock and one indexed add, no name lookup. Disabled instances
/// (set_enabled(false)) drop every emission before taking the lock, which
/// is what the bench's metrics-off baseline measures against.
class ServerStats {
 public:
  ServerStats();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void add(Handle h, std::uint64_t delta = 1) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    reg_.add(kClusterNode, h, delta);
  }
  void observe(Handle h, std::uint64_t value) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    reg_.observe(kClusterNode, h, value);
  }
  void set(Handle h, double value) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    reg_.set(kClusterNode, h, value);
  }

  /// Per-tenant counter: "serve.tenant.<tenant>.<what>". Registers lazily
  /// on first use (registration scans linearly; tenants number dozens, not
  /// millions — quotas bound them long before the registry would care).
  void tenant_add(std::string_view tenant, std::string_view what,
                  std::uint64_t delta = 1);

  MetricsSnapshot snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reg_.snapshot();
  }

  // ---- latency histograms (microseconds) ----
  Handle submit_to_result_us;  ///< kAccepted sent -> kResult pushed
  Handle queue_wait_us;        ///< enqueue -> a worker popped it
  Handle execute_us;           ///< execute_job wall time
  Handle journal_append_us;    ///< whole append() call incl. fsync
  Handle journal_fsync_us;     ///< the fsync alone
  Handle recovery_us;          ///< startup replay window
  // ---- counters ----
  Handle frames_decoded, frames_bad_length, frames_bad_crc, frames_bad_type;
  Handle rejected_bad_request, rejected_queue_full, rejected_tenant_quota,
      rejected_draining, rejected_stopped, rejected_recovering;
  Handle jobs_submitted, jobs_completed, jobs_recovered, jobs_resumed,
      results_restored;
  Handle journal_appends, journal_disabled, journal_rotations;
  Handle conns_accepted, conns_closed;
  // ---- gauges (refreshed by the server before each scrape/dump) ----
  Handle queue_depth, jobs_running, conns_active, uptime_seconds, recovering;

 private:
  bool enabled_ = true;  // flipped only before the server starts
  mutable std::mutex mu_;
  Registry reg_;
};

/// Wall-clock span recorder for serve jobs. Unlike the deterministic
/// TraceBus this is mutex-guarded (connection threads, queue workers and
/// the recovery thread all emit concurrently) and each event carries the
/// server-assigned job id (the Chrome tid, so every job gets its own
/// track) plus the journal-persisted span id that stitches a job's spans
/// across kill -9 incarnations.
class ServeTrace {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// `name` must have static lifetime (string literals at every call site).
  /// job is the track; job 0 is the server-level track (recovery, etc.).
  void begin(std::uint64_t job, std::uint64_t span, const char* name,
             std::string tenant = {});
  void end(std::uint64_t job, std::uint64_t span, const char* name);
  void instant(std::uint64_t job, std::uint64_t span, const char* name,
               std::int64_t arg = -1, const char* arg_name = nullptr);

  std::size_t size() const;
  std::uint64_t dropped() const;

  /// Chrome trace JSON (via ChromeTraceWriter). Spans still open at export
  /// time are closed at the export timestamp (snapshot semantics), so
  /// periodic dumps from a live daemon — including the last dump a
  /// SIGKILLed incarnation left behind — always validate as well nested.
  std::string to_chrome_json() const;

 private:
  struct Event {
    std::uint64_t ts_us = 0;
    std::uint64_t job = 0;
    std::uint64_t span = 0;
    char phase = 'i';
    const char* name = "";
    std::string tenant{};
    std::int64_t arg = -1;
    const char* arg_name = nullptr;
  };
  void push(Event e);

  bool enabled_ = true;
  mutable std::mutex mu_;
  std::vector<Event> events_;
  /// Memory bound for a long-running daemon: past this many retained
  /// events new ones are dropped (and counted) rather than growing without
  /// limit. ~10 events/job => room for ~26k jobs between dumps.
  std::size_t capacity_ = std::size_t{1} << 18;
  std::uint64_t dropped_ = 0;
};

}  // namespace fasda::obs
