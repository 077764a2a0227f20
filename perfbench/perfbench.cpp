// fasda_perfbench — the benchmark driver behind perfbench/run.py.
//
// One binary runs one workload for a fixed wall-clock window, checks its
// outputs, and prints one JSON result line last on stdout. Every number is
// taken from outside the library: the harness times calls into public
// functions (md::generate_dataset, core::Simulation, pe::ForceModel,
// engine::Registry/Engine, serve::execute_job, serve::Server/Client, the
// wire codec) and reads counters the library already exposes
// (Simulation::elision_stats/pairs_issued/traffic, the server's wall-clock
// stats). Nothing inside src/ is instrumented.
//
//   fasda_perfbench --workload sim_dense|sim_sync|serve_mix --seed N
//                   --seconds S --trace 0|1 [--smoke] [--expect FILE]
//                   [--trace-out FILE] [--state-root DIR] [--bad-digest]
//                   [--command TEXT] [--git-sha SHA]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same window
// with span recording on, adds the baselines and layer probes, writes the
// spans as Chrome trace JSON to --trace-out, and prints the per-layer
// metrics. perfbench/README.md defines every metric per workload.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fasda/core/simulation.hpp"
#include "fasda/engine/registry.hpp"
#include "fasda/fixed/fixed_point.hpp"
#include "fasda/md/dataset.hpp"
#include "fasda/pe/force_model.hpp"
#include "fasda/serve/client.hpp"
#include "fasda/serve/json.hpp"
#include "fasda/serve/server.hpp"
#include "fasda/serve/wire.hpp"
#include "fasda/util/cli.hpp"
#include "fasda/util/crc32.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace fasda;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

/// Seconds since process start on the monotonic clock.
double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

/// CPU seconds used so far by every thread of this process. The kernel's
/// task clock leaves out time a vCPU spent descheduled by the host (steal)
/// and time spent blocked, so on a shared host it tracks the work done,
/// where the wall clock also tracks the neighbours.
double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------
// Span recorder. Spans live in memory (name, start, end, parent, thread) and
// are written once, at exit, as Chrome trace JSON. A Timed scope always
// measures; it records a span only while tracing is on, so the untraced run
// pays one clock read per call and nothing else.

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  std::uint32_t tid = 0;
  double start = 0;
  double end = 0;
};

class Tracer {
 public:
  void enable(std::string run_id) {
    on_ = true;
    run_id_ = std::move(run_id);
  }
  bool on() const { return on_; }
  std::uint64_t next_id() { return next_.fetch_add(1); }

  void record(const Span& s) {
    if (!on_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  std::vector<double> durations(std::string_view name) const {
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.end - s.start);
    }
    return out;
  }

  /// Self time of every span called `name`: its duration minus the part
  /// of its interval that its child spans cover.
  double self_seconds(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
        children;
    for (const Span& s : spans_) children[s.parent].emplace_back(s.start, s.end);
    double total = 0;
    for (const Span& s : spans_) {
      if (name != s.name) continue;
      auto kids = children[s.id];
      std::sort(kids.begin(), kids.end());
      double covered = 0, cursor = s.start;
      for (auto [a, b] : kids) {
        a = std::max(a, cursor);
        b = std::min(b, s.end);
        if (b > a) {
          covered += b - a;
          cursor = b;
        }
      }
      total += (s.end - s.start) - covered;
    }
    return total;
  }

  /// Chrome trace JSON: one track per recording thread (request spans get a
  /// track each, since open-loop requests overlap). Spans of a track are
  /// properly nested, so a start-ordered stack walk emits balanced B/E
  /// events with non-decreasing timestamps.
  std::string to_chrome_json() const {
    std::map<std::uint32_t, std::vector<Span>> tracks;
    for (const Span& s : spans()) tracks[s.tid].push_back(s);
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    const auto emit = [&](const Span& s, char ph, double t) {
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "%s{\"ph\":\"%c\",\"pid\":1,\"tid\":%u,\"name\":\"%s\","
                    "\"ts\":%lld,\"args\":{\"id\":%llu,\"parent\":%llu,"
                    "\"run\":\"%s\"}}",
                    first ? "" : ",", ph, s.tid, s.name,
                    static_cast<long long>(std::floor(t * 1e6)),
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    run_id_.c_str());
      out += buf;
      first = false;
    };
    for (auto& [tid, list] : tracks) {
      std::sort(list.begin(), list.end(), [](const Span& a, const Span& b) {
        return a.start != b.start ? a.start < b.start : a.end > b.end;
      });
      std::vector<const Span*> stack;
      for (const Span& s : list) {
        while (!stack.empty() && stack.back()->end <= s.start) {
          emit(*stack.back(), 'E', stack.back()->end);
          stack.pop_back();
        }
        emit(s, 'B', s.start);
        stack.push_back(&s);
      }
      while (!stack.empty()) {
        emit(*stack.back(), 'E', stack.back()->end);
        stack.pop_back();
      }
    }
    out += "]}\n";
    return out;
  }

 private:
  bool on_ = false;
  std::string run_id_;
  std::atomic<std::uint64_t> next_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer g_tracer;
thread_local std::uint64_t t_current_span = 0;

std::uint32_t thread_track() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid = next.fetch_add(1);
  return tid;
}

/// Times one call into the library; nests under the enclosing Timed scope.
class Timed {
 public:
  explicit Timed(const char* name)
      : name_(name), id_(g_tracer.next_id()), parent_(t_current_span) {
    t_current_span = id_;
    start_ = now_s();
  }
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  double stop() {
    if (!stopped_) {
      end_ = now_s();
      stopped_ = true;
      t_current_span = parent_;
      g_tracer.record({id_, parent_, name_, thread_track(), start_, end_});
    }
    return end_ - start_;
  }

 private:
  const char* name_;
  std::uint64_t id_;
  std::uint64_t parent_;
  double start_ = 0;
  double end_ = 0;
  bool stopped_ = false;
};

// ---------------------------------------------------------------------------
// Statistics and output.

/// Linear interpolation between closest ranks (q in [0,1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Quantile of a wall-clock stats histogram (log2 buckets: bucket k holds
/// values of bit width k), interpolated inside the bucket; microseconds.
/// Below 20 samples no p95 has ten samples beyond it and a bucket
/// interpolation would only echo the bucket, so the exact mean (the
/// histogram's sum / count) stands in for every quantile.
double histogram_quantile_us(const obs::MetricsSnapshot& snap,
                             std::string_view name, double q) {
  const obs::MetricsSnapshot::Series* s = snap.find(name);
  if (!s) return 0;
  std::uint64_t n = 0;
  for (const std::uint64_t b : s->buckets) n += b;
  if (n == 0) return 0;
  if (n < 20) return static_cast<double>(s->sum) / static_cast<double>(n);
  const double target = q * static_cast<double>(n);
  double seen = 0;
  for (std::size_t k = 0; k < s->buckets.size(); ++k) {
    const double b = static_cast<double>(s->buckets[k]);
    if (b > 0 && seen + b >= target) {
      const double lo = k == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(k) - 1);
      const double hi = k == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(k));
      return lo + (hi - lo) * ((target - seen) / b);
    }
    seen += b;
  }
  return 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count / meaning, human lines only
};

struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;
  void fail(std::string why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(std::move(why));
  }
};

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Workload parameters. The seed picks the dataset (sim) or the request
// stream (serve); everything else is fixed here.

struct SimWorkload {
  std::string space;   ///< whole simulation space, cells per axis
  int per_cell = 0;
  int steps = 0;       ///< timesteps per measured run()
  int workers = 0;     ///< cycle-scheduler threads of the measured run
};

// The measured run is serial. Its process CPU time is the work itself: a
// multi-threaded run adds barrier wake-ups whose count and cost depend on
// how the host schedules the other workers (on a shared 4-vCPU host, CPU
// per step of a 2-worker sim_sync run rose by up to 46% when other
// processes were busy; the serial run's by under 1%). The 4-thread and
// proc_workers=4 runs are traced baselines.
SimWorkload sim_workload(const std::string& name, bool smoke) {
  // Fig. 16 right panel: 64 FPGAs x 2x2x2 cells, variant C, 64 Na/cell.
  if (name == "sim_dense") return smoke ? SimWorkload{"444", 64, 1, 1}
                                        : SimWorkload{"888", 64, 2, 1};
  // Few pairs per cycle: 8 FPGAs x 2x2x2 cells, 16 Na/cell, 40 steps.
  return smoke ? SimWorkload{"444", 16, 4, 1}
               : SimWorkload{"444", 16, 40, 1};
}

/// The sim workload as a serve job: the cycle engine on the same dataset
/// (make_replica_state(req, 0) is the workload's input) and cluster shape.
serve::JobRequest sim_job(const SimWorkload& w, std::uint64_t seed) {
  serve::JobRequest req;
  req.tenant = "sim";
  req.engine = "cycle";
  req.space = w.space;
  req.per_cell = w.per_cell;
  req.seed = seed;
  req.cells = "222";
  req.pes = 3;
  req.spes = 2;
  req.workers = w.workers;
  req.steps = w.steps;
  req.replicas = 1;
  req.batch_workers = 1;
  return req;
}

struct ServeWorkload {
  double writes_per_s = 48;     ///< executed jobs offered per second
  double read_share = 0.25;     ///< one request in four is a read
  double latency_limit_ms = 250;  ///< fixed limit for goodput
  int warmup_jobs = 128;       ///< journaled before set-up; recovery parses them
  int restarts = 15;           ///< setup_s samples
  int check_sample = 16;       ///< served results re-executed directly
  std::size_t queue_workers = 2;
};

serve::JobRequest serve_job(std::uint64_t seed, int index) {
  // The serve_throughput shape: 8 functional replicas of a 3x3x3 space.
  serve::JobRequest req;
  req.tenant = "mix";
  req.replicas = 8;
  req.steps = 2;
  req.space = "333";
  req.per_cell = 4;
  req.seed = seed * 1000003ull + static_cast<std::uint64_t>(index);
  req.batch_workers = 1;
  return req;
}

// ---------------------------------------------------------------------------
// Per-layer numbers that are not spans: exact counters and ratios. Spans
// supply the timings; this struct holds what the program's own counters
// report, filled by whichever path ran the layer.

struct SimCounts {
  std::uint32_t state_crc32 = 0;
  std::uint32_t force_crc32 = 0;
  std::uint64_t executed_cycles = 0;
  std::uint64_t elided_cycles = 0;
  std::uint64_t pairs_issued = 0;
  std::uint64_t pos_packets = 0;
  std::uint64_t frc_packets = 0;
  double us_per_day = 0;
  bool operator==(const SimCounts&) const = default;
};

std::uint32_t forces_crc32(const std::vector<geom::Vec3f>& forces) {
  util::Crc32 crc;
  crc.add_bytes(forces.data(), forces.size() * sizeof(geom::Vec3f));
  return crc.value();
}

SimCounts counts_of(const core::Simulation& sim, const md::SystemState& st,
                    const std::vector<geom::Vec3f>& forces) {
  SimCounts c;
  c.state_crc32 = serve::state_crc32(st);
  c.force_crc32 = forces_crc32(forces);
  c.executed_cycles = sim.elision_stats().executed_cycles;
  c.elided_cycles = sim.elision_stats().elided_cycles;
  c.pairs_issued = sim.pairs_issued();
  const core::TrafficReport tr = sim.traffic();
  c.pos_packets = tr.positions.total_packets;
  c.frc_packets = tr.forces.total_packets;
  c.us_per_day = sim.microseconds_per_day();
  return c;
}

std::string describe(const SimCounts& c) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"state_crc32\": %u, \"force_crc32\": %u, "
                "\"executed_cycles\": %llu, \"elided_cycles\": %llu, "
                "\"pairs_issued\": %llu, \"pos_packets\": %llu, "
                "\"frc_packets\": %llu, \"us_per_day\": %.17g}",
                c.state_crc32, c.force_crc32,
                static_cast<unsigned long long>(c.executed_cycles),
                static_cast<unsigned long long>(c.elided_cycles),
                static_cast<unsigned long long>(c.pairs_issued),
                static_cast<unsigned long long>(c.pos_packets),
                static_cast<unsigned long long>(c.frc_packets), c.us_per_day);
  return buf;
}

/// The recorded outputs for (workload, size, seed) in --expect, if any.
std::optional<SimCounts> expected_counts(const std::string& path,
                                         const std::string& workload,
                                         bool smoke, std::uint64_t seed) {
  if (path.empty()) return std::nullopt;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string error;
  const auto doc = serve::json::parse(ss.str(), &error);
  if (!doc) throw std::runtime_error(path + ": " + error);
  const std::string key = workload + (smoke ? "/smoke/" : "/full/") +
                          std::to_string(seed);
  const serve::json::Value* v = doc->find(key);
  if (!v) return std::nullopt;
  const auto u64 = [&](const char* k) {
    const serve::json::Value* f = v->find(k);
    if (!f) throw std::runtime_error(path + ": " + key + " lacks " + k);
    return static_cast<std::uint64_t>(f->int_or(0));
  };
  SimCounts c;
  c.state_crc32 = static_cast<std::uint32_t>(u64("state_crc32"));
  c.force_crc32 = static_cast<std::uint32_t>(u64("force_crc32"));
  c.executed_cycles = u64("executed_cycles");
  c.elided_cycles = u64("elided_cycles");
  c.pairs_issued = u64("pairs_issued");
  c.pos_packets = u64("pos_packets");
  c.frc_packets = u64("frc_packets");
  const serve::json::Value* rate = v->find("us_per_day");
  c.us_per_day = rate ? rate->num_or(0) : 0;
  return c;
}

bool same_counts(const SimCounts& a, const SimCounts& b) {
  SimCounts x = a, y = b;
  // us/day is a derived double: equal cycles give equal rates, but the
  // recorded value went through decimal text.
  const bool rate_ok =
      std::abs(x.us_per_day - y.us_per_day) <= 1e-12 * std::abs(y.us_per_day);
  x.us_per_day = y.us_per_day = 0;
  return rate_ok && x == y;
}

// ---------------------------------------------------------------------------
// Layer probes shared by the workloads.

struct KernelTiming {
  double pair_force_ns = 0;
  double r2_ns = 0;
  std::size_t pairs = 0;
};

/// Times pe::ForceModel::pair_force and fixed::r2_fixed on in-cutoff pairs
/// drawn from `state` (home cell vs. its 27-cell neighbourhood, in the
/// cell-relative fixed-point frame the pipelines use).
KernelTiming time_kernels(const md::SystemState& state) {
  const md::ForceField ff = md::ForceField::sodium();
  const pe::ForceModel model(ff, 8.5, interp::InterpConfig{});
  const geom::IVec3 dims = state.cell_dims;
  const auto cell_of = [&](const geom::Vec3d& p) {
    return geom::IVec3{
        std::min(dims.x - 1, static_cast<int>(p.x / state.cell_size)),
        std::min(dims.y - 1, static_cast<int>(p.y / state.cell_size)),
        std::min(dims.z - 1, static_cast<int>(p.z / state.cell_size))};
  };
  const auto rel = [&](int c, int home, int n) {
    int d = c - home;
    if (d > 1) d -= n;
    if (d < -1) d += n;
    return d;
  };
  struct Pair {
    fixed::FixedVec3 a, b;
    md::ElementId ea, eb;
  };
  std::vector<Pair> pairs;
  const std::size_t kMaxPairs = 1u << 17;
  for (std::size_t i = 0; i < state.size() && pairs.size() < kMaxPairs; ++i) {
    const geom::IVec3 home = cell_of(state.positions[i]);
    const auto coord = [&](std::size_t k) -> std::optional<fixed::FixedVec3> {
      const geom::IVec3 c = cell_of(state.positions[k]);
      const int dx = rel(c.x, home.x, dims.x), dy = rel(c.y, home.y, dims.y),
                dz = rel(c.z, home.z, dims.z);
      if (std::abs(dx) > 1 || std::abs(dy) > 1 || std::abs(dz) > 1) {
        return std::nullopt;
      }
      const geom::Vec3d& p = state.positions[k];
      const auto frac = [&](double v, int cell) {
        return v / state.cell_size - cell;
      };
      return fixed::FixedVec3{
          fixed::FixedCoord::from_cell_offset(dx + 2, frac(p.x, c.x)),
          fixed::FixedCoord::from_cell_offset(dy + 2, frac(p.y, c.y)),
          fixed::FixedCoord::from_cell_offset(dz + 2, frac(p.z, c.z))};
    };
    const fixed::FixedVec3 a = *coord(i);
    for (std::size_t k = i + 1; k < state.size() && pairs.size() < kMaxPairs;
         ++k) {
      const auto b = coord(k);
      if (b && model.filter(fixed::r2_fixed(a, *b))) {
        pairs.push_back({a, *b, state.elements[i], state.elements[k]});
      }
    }
  }
  KernelTiming t;
  t.pairs = pairs.size();
  if (pairs.empty()) return t;
  // Repeat passes until each kernel has run for >= 50 ms; the sinks keep
  // the loops from being optimised away.
  volatile float force_sink = 0;
  volatile std::uint64_t r2_sink = 0;
  for (const char* name : {"interp.pair_force", "fixed.r2_fixed"}) {
    const bool force = name[0] == 'i';
    std::size_t evaluated = 0;
    Timed span(name);
    const double start = now_s();
    do {
      float fs = 0;
      std::uint64_t rs = 0;
      for (const Pair& p : pairs) {
        if (force) {
          fs += model.pair_force(p.a, p.ea, p.b, p.eb).x;
        } else {
          rs += fixed::r2_fixed(p.a, p.b);
        }
      }
      force_sink = force_sink + fs;
      r2_sink = r2_sink + rs;
      evaluated += pairs.size();
    } while (now_s() - start < 0.05);
    const double ns = span.stop() * 1e9 / static_cast<double>(evaluated);
    (force ? t.pair_force_ns : t.r2_ns) = ns;
  }
  return t;
}

/// Encode + incremental decode (4 KiB chunks, as Conn::recv feeds it) of
/// one kResult frame; median microseconds over >= 50 ms of round trips.
double time_wire_roundtrip_us(const std::string& payload, Outcome& out) {
  std::vector<double> samples;
  const double start = now_s();
  while (samples.size() < 20 || now_s() - start < 0.05) {
    Timed span("wire.roundtrip");
    const std::vector<std::uint8_t> bytes =
        serve::encode_frame(serve::MsgType::kResult, payload);
    serve::FrameDecoder decoder;
    serve::WireFrame frame;
    serve::DecodeStatus st = serve::DecodeStatus::kNeedMore;
    for (std::size_t off = 0; off < bytes.size(); off += 4096) {
      decoder.feed(bytes.data() + off, std::min<std::size_t>(4096, bytes.size() - off));
      st = decoder.next(frame);
    }
    samples.push_back(span.stop() * 1e6);
    if (st != serve::DecodeStatus::kFrame || frame.payload != payload) {
      out.fail("wire round trip changed a kResult frame");
      break;
    }
  }
  return median(samples);
}

/// Registry::create + Engine::step for replica 0 of `req`.
void probe_engine(const serve::JobRequest& req, int& steps_out) {
  steps_out = req.steps;
  const md::SystemState state = serve::make_replica_state(req, 0);
  const engine::EngineSpec spec = serve::engine_spec_for(req);
  std::unique_ptr<engine::Engine> eng;
  {
    Timed span("engine.create");
    eng = engine::Registry::instance().create(state, md::ForceField::sodium(),
                                              spec);
  }
  Timed span("engine.step");
  eng->step(req.steps);
}

// Baseline runs of one simulation input under other scheduler settings.
struct SimBaselines {
  double serial_run_s = 0;
  double thread4_run_s = 0;
  double proc4_run_s = 0;
};

SimBaselines run_baselines(const md::SystemState& state,
                           const core::ClusterConfig& base, int steps,
                           const SimCounts& want, Outcome& out) {
  struct Setting {
    const char* span;
    int threads;
    int procs;
    double SimBaselines::*slot;
  };
  SimBaselines b;
  const md::ForceField ff = md::ForceField::sodium();
  for (const Setting& s :
       {Setting{"core.run.serial", 1, 0, &SimBaselines::serial_run_s},
        Setting{"core.run.threads4", 4, 0, &SimBaselines::thread4_run_s},
        Setting{"core.run.procs4", 1, 4, &SimBaselines::proc4_run_s}}) {
    core::ClusterConfig cfg = base;
    cfg.num_worker_threads = s.threads;
    cfg.proc_workers = s.procs;
    ++out.attempted;
    try {
      core::Simulation sim(state, ff, cfg);
      {
        Timed span(s.span);
        sim.run(steps);
        b.*s.slot = span.stop();
      }
      const SimCounts got =
          counts_of(sim, sim.state(), sim.forces_by_particle());
      // Scheduling must not change a simulated bit.
      if (got.state_crc32 != want.state_crc32 ||
          got.force_crc32 != want.force_crc32 ||
          got.pairs_issued != want.pairs_issued) {
        out.fail(std::string(s.span) + " diverged from the measured run");
      }
    } catch (const std::exception& e) {
      out.fail(std::string(s.span) + ": " + e.what());
    }
  }
  return b;
}

/// Collected per-layer values that come from counters, not spans.
struct LayerCounters {
  SimCounts counts;
  int sim_workers = 1;
  KernelTiming kernels;
  SimBaselines baselines;
  double median_run_s = 0;
  int engine_steps = 1;
  double wire_roundtrip_us = 0;
  double submit_rtt_p50_ms = 0, submit_rtt_p95_ms = 0;
  double write_p50_ms = 0, write_p95_ms = 0;
  double read_rtt_ms = 0, read_p50_ms = 0, read_p95_ms = 0, read_hit_frac = 0;
  double lag_p95_ms = 0;
  double fsync_p50_us = 0, fsync_p95_us = 0;
  double queue_wait_p50_us = 0, queue_wait_p95_us = 0;
  std::uint64_t rejected_queue_full = 0, rejected_tenant_quota = 0,
                rejected_other = 0;
};

void read_server_stats(serve::Server& server, LayerCounters& lc) {
  const obs::MetricsSnapshot snap = server.wall_stats().snapshot();
  lc.fsync_p50_us =
      histogram_quantile_us(snap, "serve.latency.journal_fsync_us", 0.5);
  lc.fsync_p95_us =
      histogram_quantile_us(snap, "serve.latency.journal_fsync_us", 0.95);
  lc.queue_wait_p50_us =
      histogram_quantile_us(snap, "serve.latency.queue_wait_us", 0.5);
  lc.queue_wait_p95_us =
      histogram_quantile_us(snap, "serve.latency.queue_wait_us", 0.95);
  lc.rejected_queue_full = snap.counter_total("serve.rejected.queue_full");
  lc.rejected_tenant_quota = snap.counter_total("serve.rejected.tenant_quota");
  lc.rejected_other = snap.counter_total("serve.rejected.bad_request") +
                      snap.counter_total("serve.rejected.draining") +
                      snap.counter_total("serve.rejected.stopped") +
                      snap.counter_total("serve.rejected.recovering");
}

serve::ServerConfig server_config(const std::string& state_dir,
                                  std::size_t queue_workers) {
  serve::ServerConfig cfg;
  cfg.queue_workers = queue_workers;
  cfg.state_dir = state_dir;
  cfg.journal_fsync = serve::JournalFsync::kAlways;
  return cfg;
}

/// Starts a server and returns once it has left recovery and answered a
/// ping on a fresh connection.
std::unique_ptr<serve::Server> start_server(const serve::ServerConfig& cfg) {
  auto server = std::make_unique<serve::Server>(cfg);
  server->start();
  while (server->recovering()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  serve::Client probe("127.0.0.1", server->port());
  probe.ping();
  return server;
}

// ---------------------------------------------------------------------------
// Shared context of one run.

struct Run {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool bad_digest = false;
  std::string expect_path;
  std::string state_root;
  Outcome out;
  LayerCounters lc;
  std::vector<Metric> e2e;
  std::vector<std::string> params;  ///< provenance: workload parameters
  double window_s = 0;             ///< measured-window wall time
};

// ---------------------------------------------------------------------------
// sim_dense / sim_sync.

void run_sim(Run& r) {
  const SimWorkload w = sim_workload(r.workload, r.smoke);
  const serve::JobRequest req = sim_job(w, r.seed);
  const md::ForceField ff = md::ForceField::sodium();
  md::DatasetParams dp;  // identical to serve::make_replica_state(req, 0)
  dp.particles_per_cell = req.per_cell;
  dp.seed = req.seed;
  dp.temperature = req.temperature;
  const geom::IVec3 space = util::parse_dims(req.space);
  r.params = {"space=" + w.space, "cells_per_node=222", "variant=C(2x3)",
              "per_cell=" + std::to_string(w.per_cell),
              "steps=" + std::to_string(w.steps),
              "workers=" + std::to_string(w.workers),
              "dataset_seed=" + std::to_string(req.seed)};

  std::optional<SimCounts> reference =
      expected_counts(r.expect_path, r.workload, r.smoke, r.seed);
  const bool recorded = reference.has_value();

  // Per rep: set-up and run() as process CPU time (the end-to-end
  // metrics), and run() as wall time (core.run_s, traced).
  std::vector<double> setup_s, step_ms, step_wall_ms;
  md::SystemState first_state, first_final;
  std::vector<geom::Vec3f> first_forces;
  core::ClusterConfig cfg;

  const double window_start = now_s();
  do {
    Timed rep("bench.rep");
    ++r.out.attempted;
    try {
      const double setup_cpu = cpu_now_s();
      md::SystemState state;
      {
        Timed span("md.generate_dataset");
        state = md::generate_dataset(space, 8.5, ff, dp);
      }
      std::optional<core::Simulation> sim;
      {
        Timed span("core.build");
        cfg = engine::cluster_config_for(serve::engine_spec_for(req), state);
        sim.emplace(state, ff, cfg);
      }
      setup_s.push_back(cpu_now_s() - setup_cpu);
      {
        const double run_cpu = cpu_now_s();
        Timed span("core.run");
        sim->run(w.steps);
        step_wall_ms.push_back(span.stop() * 1e3 / w.steps);
        step_ms.push_back((cpu_now_s() - run_cpu) * 1e3 / w.steps);
      }
      md::SystemState final_state;
      std::vector<geom::Vec3f> forces;
      {
        Timed span("core.export");
        final_state = sim->state();
        forces = sim->forces_by_particle();
      }
      const SimCounts got = counts_of(*sim, final_state, forces);
      if (!reference) reference = got;
      if (r.bad_digest && setup_s.size() == 1) reference->state_crc32 ^= 1u;
      if (!same_counts(got, *reference)) {
        r.out.fail("rep " + std::to_string(setup_s.size()) + ": outputs " +
                   describe(got) + " != " + (recorded ? "recorded " : "") +
                   "reference " + describe(*reference));
      }
      if (setup_s.size() == 1) {
        r.lc.counts = got;
        r.lc.sim_workers = sim->num_workers();
        first_state = std::move(state);
        first_final = std::move(final_state);
        first_forces = std::move(forces);
      }
    } catch (const std::exception& e) {
      r.out.fail(std::string("sim rep: ") + e.what());
    }
  } while (now_s() - window_start < r.seconds);
  r.window_s = now_s() - window_start;
  if (step_ms.empty()) return;

  // Physics check, independent of the cycle machine: the functional model
  // of the same numerics must land on the same trajectory up to float
  // summation order (tests/core_simulation_test.cpp uses the same bounds).
  ++r.out.attempted;
  {
    Timed span("check.functional");
    engine::EngineSpec spec;
    spec.engine = "functional";
    spec.threads = 4;
    auto golden = engine::Registry::instance().create(first_state, ff, spec);
    golden->step(w.steps);
    const auto want_f = golden->forces_by_particle();
    const md::SystemState want_s = golden->state();
    const geom::CellGrid grid = first_state.grid();
    double worst_f = 0, scale = 0, worst_x = 0;
    for (std::size_t i = 0; i < want_s.size(); ++i) {
      const geom::Vec3d got{first_forces[i].x, first_forces[i].y,
                            first_forces[i].z};
      worst_f = std::max(worst_f, (got - want_f[i]).norm());
      scale = std::max(scale, want_f[i].norm());
      worst_x = std::max(worst_x, grid.min_image(first_final.positions[i],
                                                 want_s.positions[i])
                                      .norm());
    }
    const double rel_f = scale > 0 ? worst_f / scale : worst_f;
    std::printf("check: functional engine: worst force error %.3g "
                "(relative), worst position gap %.3g A\n",
                rel_f, worst_x);
    if (!(rel_f < 1e-4) || !(worst_x < 1e-3)) {
      r.out.fail("cycle simulation disagrees with the functional engine");
    }
  }

  r.lc.median_run_s = median(step_wall_ms) * w.steps / 1e3;
  const double cpu_ms = median(step_ms);
  r.e2e = {
      {"setup_s", median(setup_s), "s",
       "n=" + std::to_string(setup_s.size()) +
           "; CPU of dataset + Simulation ctor"},
      {"cpu_ms_per_result", cpu_ms, "ms",
       "n=" + std::to_string(step_ms.size()) +
           "; CPU ms per simulated timestep of run()"},
      {"goodput_per_s", 1e3 / cpu_ms, "1/s",
       "verified timesteps per CPU second of run()"},
  };
  std::printf("wall: sim_step_s %.6g (median of %zu reps, %d workers)\n",
              median(step_wall_ms) / 1e3, step_wall_ms.size(), w.workers);
  std::printf("outputs: %s\n", describe(r.lc.counts).c_str());

  if (!r.trace) return;
  // Traced-only layer probes on the same input.
  r.lc.baselines =
      run_baselines(first_state, cfg, w.steps, r.lc.counts, r.out);
  r.lc.kernels = time_kernels(first_state);
  probe_engine(req, r.lc.engine_steps);

  // The same workload served as a job: direct execute_job, then one write
  // and one idempotent read through a journaled server.
  ++r.out.attempted;
  try {
    serve::JobResult direct;
    {
      Timed span("serve.execute_job");
      direct = serve::execute_job(1, req);
    }
    if (direct.replicas.empty() ||
        direct.replicas[0].state_crc32 != r.lc.counts.state_crc32) {
      r.out.fail("execute_job final state differs from Simulation::state()");
    }
    r.lc.wire_roundtrip_us = time_wire_roundtrip_us(direct.to_json(), r.out);
    const std::string dir = r.state_root + "/probe";
    std::filesystem::remove_all(dir);
    auto server = start_server(server_config(dir, 2));
    serve::Client client("127.0.0.1", server->port());
    serve::JobRequest job = req;
    job.idempotency = "probe-" + std::to_string(r.seed);
    std::uint64_t write_id = 0;
    // Sent on a one-request schedule: due 1 ms from now, so the lag is how
    // late the sending thread woke.
    const double due = now_s() + 1e-3;
    {
      std::this_thread::sleep_until(
          g_epoch + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due)));
      r.lc.lag_p95_ms = (now_s() - due) * 1e3;
      Timed span("serve.submit");
      write_id = client.submit(job).job_id;
      r.lc.submit_rtt_p50_ms = r.lc.submit_rtt_p95_ms = span.stop() * 1e3;
    }
    serve::JobResult served;
    {
      Timed span("serve.wait_result");
      served = client.wait_result(write_id);
    }
    r.lc.write_p50_ms = r.lc.write_p95_ms = (now_s() - due) * 1e3;
    {
      Timed span("serve.read");
      const serve::Client::SubmitReply again = client.submit(job);
      const serve::JobResult replay = client.wait_result(again.job_id);
      r.lc.read_rtt_ms = r.lc.read_p50_ms = r.lc.read_p95_ms =
          span.stop() * 1e3;
      r.lc.read_hit_frac = again.job_id == write_id ? 1.0 : 0.0;
      if (replay.to_json(true) != served.to_json(true)) {
        r.out.fail("idempotent read returned a different result");
      }
    }
    if (served.to_json(true) != direct.to_json(true)) {
      r.out.fail("served result differs from direct execute_job");
    }
    read_server_stats(*server, r.lc);
    server->drain_and_stop();
    std::filesystem::remove_all(dir);
  } catch (const std::exception& e) {
    r.out.fail(std::string("serve probe: ") + e.what());
  }
}

// ---------------------------------------------------------------------------
// serve_mix: open-loop writes and reads against a journaled server.

struct Request {
  double due = 0;       ///< seconds after window start
  bool read = false;
  int target = -1;      ///< read: index into `jobs` of the job re-read
  int job = -1;         ///< write: index into `jobs`
  // Filled by the generator and receivers.
  double sent = 0, accepted = 0, done = 0;
  std::uint64_t job_id = 0;
  bool ok = false;
  bool finished = false;
  std::string result_json;  ///< deterministic_only form
};

/// One connection: the sender writes frames, a receiver thread reads them.
/// The library's Client is synchronous (it reads its own reply before
/// returning), so an open loop drives the Client's connection through its
/// Conn: sends never wait for replies, and replies are matched here.
class Channel {
 public:
  Channel(std::uint16_t port, std::vector<Request>& reqs)
      : client_("127.0.0.1", port), reqs_(reqs) {}

  void send(int idx, const std::string& payload) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      fifo_.push_back(idx);
      ++outstanding_;
    }
    client_.conn().send(serve::MsgType::kSubmit, payload);
  }

  void start() { reader_ = std::thread([this] { receive(); }); }

  /// Waits for every sent request to finish or the deadline; then closes.
  void finish(double deadline) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock,
                   std::chrono::duration<double>(
                       std::max(0.0, deadline - now_s())),
                   [&] { return outstanding_ == 0 || broken_; });
    }
    client_.conn().shutdown_both();
    if (reader_.joinable()) reader_.join();
  }

  std::string error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }

  ~Channel() {
    client_.conn().shutdown_both();
    if (reader_.joinable()) reader_.join();
  }
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

 private:
  void complete(int idx, double t, bool ok, std::string json) {
    Request& q = reqs_[idx];
    q.done = t;
    q.ok = ok;
    q.finished = true;
    q.result_json = std::move(json);
    --outstanding_;
  }

  void receive() {
    // kResult frames may overtake the kAccepted that names their job id.
    std::unordered_map<std::uint64_t, std::deque<int>> waiting;
    std::unordered_map<std::uint64_t, std::deque<std::pair<double, std::string>>>
        early;
    try {
      for (;;) {
        serve::WireFrame frame;
        if (client_.conn().recv(frame) != serve::DecodeStatus::kFrame) {
          throw serve::WireError("bad frame from server");
        }
        const double t = now_s();
        std::lock_guard<std::mutex> lock(mu_);
        if (frame.type == serve::MsgType::kStatus) continue;
        if (frame.type == serve::MsgType::kAccepted ||
            frame.type == serve::MsgType::kRejected) {
          if (fifo_.empty()) throw serve::WireError("unsolicited reply");
          const int idx = fifo_.front();
          fifo_.pop_front();
          if (frame.type == serve::MsgType::kRejected) {
            complete(idx, t, false, "rejected: " + frame.payload);
          } else {
            const auto v = serve::json::parse(frame.payload);
            const std::uint64_t id =
                v && v->find("job")
                    ? static_cast<std::uint64_t>(v->find("job")->int_or(0))
                    : 0;
            reqs_[idx].accepted = t;
            reqs_[idx].job_id = id;
            auto e = early.find(id);
            if (e != early.end() && !e->second.empty()) {
              auto [te, json] = std::move(e->second.front());
              e->second.pop_front();
              complete(idx, te, true, std::move(json));
            } else {
              waiting[id].push_back(idx);
            }
          }
        } else if (frame.type == serve::MsgType::kResult) {
          const auto v = serve::json::parse(frame.payload);
          std::string error;
          const auto result =
              v ? serve::JobResult::from_json(*v, error) : std::nullopt;
          if (!result) throw serve::WireError("unparseable kResult");
          const bool ok = result->outcome == serve::JobOutcome::kOk;
          std::string json = ok ? result->to_json(true)
                                : "outcome " + result->to_json(true);
          auto it = waiting.find(result->job_id);
          if (it != waiting.end() && !it->second.empty()) {
            const int idx = it->second.front();
            it->second.pop_front();
            complete(idx, t, ok, std::move(json));
          } else {
            early[result->job_id].emplace_back(t, std::move(json));
          }
        } else {
          throw serve::WireError("unexpected frame: " + frame.payload);
        }
        if (outstanding_ == 0) cv_.notify_all();
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu_);
      if (outstanding_ > 0) {
        error_ = e.what();
        broken_ = true;
      }
      cv_.notify_all();
    }
  }

  serve::Client client_;
  std::vector<Request>& reqs_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int> fifo_;
  long outstanding_ = 0;
  bool broken_ = false;
  std::string error_;
  std::thread reader_;
};

void run_serve(Run& r) {
  const ServeWorkload w;
  const int warmup = r.smoke ? 8 : w.warmup_jobs;
  const int restarts = r.smoke ? 2 : w.restarts;
  const int check_sample = r.smoke ? 4 : w.check_sample;
  r.params = {"queue_workers=2", "journal_fsync=always", "connections=2",
              "arrivals=one per 1/rate slot at a seeded offset",
              "writes_per_s=" + std::to_string(w.writes_per_s),
              "read_share=0.25", "job=functional,space=333,per_cell=4,"
              "replicas=8,steps=2",
              "latency_limit_ms=" + std::to_string(w.latency_limit_ms),
              "warmup_jobs=" + std::to_string(warmup)};

  // Jobs: warm-up jobs first, then the window's writes.
  std::mt19937_64 rng(r.seed * 0x9e3779b97f4a7c15ull + 17);
  std::vector<serve::JobRequest> jobs;
  std::vector<std::string> job_results;  // deterministic_only JSON
  const auto new_job = [&]() {
    serve::JobRequest job = serve_job(r.seed, static_cast<int>(jobs.size()));
    job.idempotency = "s" + std::to_string(r.seed) + "-j" +
                      std::to_string(jobs.size());
    jobs.push_back(job);
    job_results.emplace_back();
    return static_cast<int>(jobs.size()) - 1;
  };

  // Open-loop schedule: one arrival per 1/rate slot at a seeded offset
  // inside its slot, each a read with p = 1/4. Slots keep the offered load
  // fixed while the draw stays random; Poisson bursts would make the tail
  // measure the draw more than the server.
  const double total_rate = w.writes_per_s / (1.0 - w.read_share);
  const int n = std::max(4, static_cast<int>(std::lround(total_rate * r.seconds)));
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<double> dues(n);
  for (int i = 0; i < n; ++i) dues[i] = (i + uni(rng)) / total_rate;
  for (int i = 0; i < warmup; ++i) new_job();
  std::vector<Request> reqs(n);
  // Jobs a read may target, in admission order: warm-up jobs, then writes
  // due >= 2 s before the read (long finished at this load). Targets stay
  // among the newest 192 jobs, inside the server's 256-result history.
  std::vector<int> readable;
  for (int j = 0; j < warmup; ++j) readable.push_back(j);
  for (int i = 0, next_readable = 0; i < n; ++i) {
    Request& q = reqs[i];
    q.due = dues[i];
    while (next_readable < i && reqs[next_readable].due < q.due - 2.0) {
      if (!reqs[next_readable].read) readable.push_back(reqs[next_readable].job);
      ++next_readable;
    }
    q.read = uni(rng) < w.read_share;
    if (q.read) {
      const int newest = static_cast<int>(jobs.size());
      const auto first = std::lower_bound(readable.begin(), readable.end(),
                                          newest - 192);
      const auto pool = static_cast<std::size_t>(readable.end() - first);
      if (pool == 0) {
        q.read = false;
      } else {
        q.target = *(first + static_cast<std::ptrdiff_t>(std::min(
                                 pool - 1, static_cast<std::size_t>(uni(rng) * pool))));
      }
    }
    if (!q.read) q.job = new_job();
  }

  const std::string dir = r.state_root + "/serve";
  std::filesystem::remove_all(dir);
  const serve::ServerConfig cfg = server_config(dir, w.queue_workers);

  // Warm-up: a first incarnation runs the warm-up jobs closed-loop, so the
  // measured server starts over a journal holding completed results.
  {
    auto server = start_server(cfg);
    serve::Client client("127.0.0.1", server->port());
    for (int j = 0; j < warmup; ++j) {
      ++r.out.attempted;
      try {
        serve::Client::SubmitReply reply;
        {
          Timed span("serve.submit");
          reply = client.submit(jobs[j]);
        }
        if (!reply.accepted) throw std::runtime_error("rejected: " + reply.reason);
        Timed span("serve.wait_result");
        const serve::JobResult res = client.wait_result(reply.job_id);
        if (res.outcome != serve::JobOutcome::kOk) {
          throw std::runtime_error("outcome " + res.to_json(true));
        }
        job_results[j] = res.to_json(true);
      } catch (const std::exception& e) {
        r.out.fail(std::string("warm-up job: ") + e.what());
      }
    }
    server->drain_and_stop();
  }

  // Set-up: restart over the journal until recovered and accepting.
  std::vector<double> setup_s;
  std::unique_ptr<serve::Server> server;
  for (int k = 0; k < restarts; ++k) {
    if (server) server->drain_and_stop();
    server.reset();
    const double cpu = cpu_now_s();
    Timed span("serve.start");
    server = start_server(cfg);
    span.stop();
    setup_s.push_back(cpu_now_s() - cpu);
  }

  // The measured window.
  std::vector<double> lags;
  double window_cpu = 0;  ///< process CPU seconds from first send to last reply
  {
    Timed window("serve.window");
    Channel writes(server->port(), reqs), reads(server->port(), reqs);
    writes.start();
    reads.start();
    const double t0 = now_s();
    window_cpu = cpu_now_s();
    for (int i = 0; i < n; ++i) {
      Request& q = reqs[i];
      std::this_thread::sleep_until(
          g_epoch + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(t0 + q.due)));
      ++r.out.attempted;
      q.sent = now_s() - t0;
      lags.push_back((q.sent - q.due) * 1e3);
      const serve::JobRequest& job = jobs[q.read ? q.target : q.job];
      try {
        (q.read ? reads : writes).send(i, job.to_json());
      } catch (const std::exception& e) {
        r.out.fail(std::string("send: ") + e.what());
      }
    }
    const double deadline = now_s() + (r.smoke ? 10.0 : 30.0);
    writes.finish(deadline);
    reads.finish(deadline);
    window_cpu = cpu_now_s() - window_cpu;
    for (const Channel* c : {&writes, &reads}) {
      if (!c->error().empty()) r.out.fail("connection: " + c->error());
    }
    for (Request& q : reqs) {
      q.accepted -= t0;
      q.done -= t0;
    }
    r.window_s = now_s() - t0;
  }
  read_server_stats(*server, r.lc);
  server->drain_and_stop();
  server.reset();
  std::filesystem::remove_all(dir);

  // Outcomes, latencies from each request's due time, and read checks.
  // Latencies are kept per sub-window (five equal slices of the window by
  // due time); a metric is the median of its per-slice quantiles, so one
  // transient host stall moves at most one slice.
  constexpr int kSlices = 5;
  std::vector<double> write_ms, read_ms, submit_ms, read_rtt_ms;
  std::vector<std::vector<double>> write_slices(kSlices), read_slices(kSlices);
  const auto slice_of = [&](double due) {
    return std::min(kSlices - 1, static_cast<int>(due / r.seconds * kSlices));
  };
  const auto sliced = [&](const std::vector<std::vector<double>>& slices,
                          double q) {
    std::vector<double> per;
    for (const auto& v : slices) {
      if (!v.empty()) per.push_back(quantile(v, q));
    }
    return median(per);
  };
  double last_done = 0;
  long good = 0, hits = 0, reads_sent = 0, answered = 0;
  for (int i = 0; i < n; ++i) {
    Request& q = reqs[i];
    if (q.read) ++reads_sent;
    if (!q.finished || !q.ok) {
      r.out.fail(std::string(q.read ? "read" : "write") + " request " +
                 std::to_string(i) +
                 (q.finished ? ": " + q.result_json.substr(0, 120)
                             : ": no result before the deadline"));
      continue;
    }
    const double latency = (q.done - q.due) * 1e3;
    last_done = std::max(last_done, q.done);
    ++answered;
    if (g_tracer.on()) {
      g_tracer.record({g_tracer.next_id(), 0,
                       q.read ? "serve.request.read" : "serve.request.write",
                       static_cast<std::uint32_t>(100000 + i), q.due, q.done});
    }
    if (q.read) {
      read_ms.push_back(latency);
      read_slices[slice_of(q.due)].push_back(latency);
      read_rtt_ms.push_back((q.done - q.sent) * 1e3);
      const std::string& want = job_results[q.target];
      // A hit is answered from the stored result: same job id, and the
      // original job's result bit for bit.
      if (q.job_id != 0 && !want.empty() && q.result_json == want) ++hits;
      else r.out.fail("read " + std::to_string(i) + " not served from the "
                      "stored result");
    } else {
      write_ms.push_back(latency);
      write_slices[slice_of(q.due)].push_back(latency);
      submit_ms.push_back((q.accepted - q.sent) * 1e3);
      job_results[q.job] = q.result_json;
    }
    if (latency <= w.latency_limit_ms) ++good;
  }

  // Served vs direct: a seeded sample of writes re-executed in-process.
  std::vector<int> writes_done;
  for (int i = 0; i < n; ++i) {
    if (!reqs[i].read && reqs[i].ok) writes_done.push_back(i);
  }
  std::shuffle(writes_done.begin(), writes_done.end(), rng);
  writes_done.resize(std::min<std::size_t>(writes_done.size(), check_sample));
  for (const int i : writes_done) {
    ++r.out.attempted;
    try {
      serve::JobResult direct;
      {
        Timed span("serve.execute_job");
        direct = serve::execute_job(reqs[i].job_id, jobs[reqs[i].job]);
      }
      if (r.bad_digest) direct.replicas.at(0).state_crc32 ^= 1u;
      if (direct.to_json(true) != reqs[i].result_json) {
        r.out.fail("served job " + std::to_string(reqs[i].job_id) +
                   " differs from direct execute_job");
      }
      if (i == writes_done.front() && r.trace) {
        r.lc.wire_roundtrip_us = time_wire_roundtrip_us(direct.to_json(), r.out);
      }
    } catch (const std::exception& e) {
      r.out.fail(std::string("direct execute_job: ") + e.what());
    }
  }

  r.lc.submit_rtt_p50_ms = median(submit_ms);
  r.lc.submit_rtt_p95_ms = quantile(submit_ms, 0.95);
  r.lc.read_rtt_ms = median(read_rtt_ms);
  r.lc.read_p50_ms = sliced(read_slices, 0.5);
  r.lc.read_p95_ms = sliced(read_slices, 0.95);
  r.lc.write_p50_ms = sliced(write_slices, 0.5);
  r.lc.write_p95_ms = sliced(write_slices, 0.95);
  r.lc.read_hit_frac =
      reads_sent > 0 ? static_cast<double>(hits) / reads_sent : 0.0;
  r.lc.lag_p95_ms = quantile(lags, 0.95);
  r.e2e = {
      {"setup_s", median(setup_s), "s",
       "n=" + std::to_string(setup_s.size()) +
           "; CPU of server start -> recovered and accepting"},
      {"cpu_ms_per_result",
       answered > 0 ? window_cpu * 1e3 / static_cast<double>(answered) : 0.0,
       "ms",
       "n=" + std::to_string(answered) +
           "; process CPU of the window per answered request"},
      {"goodput_per_s",
       last_done > 0 ? static_cast<double>(good) / last_done : 0.0, "1/s",
       "serve_goodput_jobs_per_s; " + std::to_string(good) + " of " +
           std::to_string(n) + " within " +
           std::to_string(static_cast<int>(w.latency_limit_ms)) + " ms"},
  };
  std::printf("loadgen: lag p95 %.3f ms, submit rtt p50 %.3f ms\n",
              r.lc.lag_p95_ms, r.lc.submit_rtt_p50_ms);
  std::printf("wall: serve_p50_ms %.6g (n=%zu), serve_p95_ms %.6g, "
              "serve_read_p95_ms %.6g (n=%zu), from due time\n",
              r.lc.write_p50_ms, write_ms.size(), r.lc.write_p95_ms,
              r.lc.read_p95_ms, read_ms.size());

  if (!r.trace) return;
  // Layer probes on this workload's own requests: engine build/step on
  // sampled jobs, and the cycle simulator on the first sampled replica.
  const int probe_jobs = std::min<int>(4, static_cast<int>(jobs.size()));
  for (int j = 0; j < probe_jobs; ++j) {
    Timed span("md.generate_dataset");
    serve::make_replica_state(jobs[j], 0);
  }
  for (int j = 0; j < probe_jobs; ++j) probe_engine(jobs[j], r.lc.engine_steps);
  serve::JobRequest cyc = jobs[0];
  cyc.engine = "cycle";
  cyc.replicas = 1;
  cyc.workers = 2;
  const md::SystemState state = serve::make_replica_state(cyc, 0);
  const core::ClusterConfig ccfg =
      engine::cluster_config_for(serve::engine_spec_for(cyc), state);
  ++r.out.attempted;
  try {
    std::optional<core::Simulation> sim;
    {
      Timed span("core.build");
      sim.emplace(state, md::ForceField::sodium(), ccfg);
    }
    {
      Timed span("core.run");
      sim->run(cyc.steps);
      r.lc.median_run_s = span.stop();
    }
    md::SystemState fin;
    std::vector<geom::Vec3f> forces;
    {
      Timed span("core.export");
      fin = sim->state();
      forces = sim->forces_by_particle();
    }
    r.lc.counts = counts_of(*sim, fin, forces);
    r.lc.sim_workers = sim->num_workers();
    r.lc.baselines = run_baselines(state, ccfg, cyc.steps, r.lc.counts, r.out);
  } catch (const std::exception& e) {
    r.out.fail(std::string("cycle probe: ") + e.what());
  }
  r.lc.kernels = time_kernels(state);
}

// ---------------------------------------------------------------------------
// Per-layer metrics from the spans plus the counters above.

std::vector<Metric> layer_metrics(const Run& r, double overhead_frac) {
  const LayerCounters& lc = r.lc;
  const auto med = [](std::string_view name) {
    return median(g_tracer.durations(name));
  };
  const double run_s = lc.median_run_s;
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const SimCounts& c = lc.counts;
  const double total_cycles =
      static_cast<double>(c.executed_cycles + c.elided_cycles);
  const std::vector<double> root = g_tracer.durations("bench.run");
  return {
      {"md.dataset_s", med("md.generate_dataset"), "s", ""},
      {"core.build_s", med("core.build"), "s", ""},
      {"core.run_s", med("core.run"), "s", ""},
      {"core.export_s", med("core.export"), "s", ""},
      {"pe.ns_per_pair", ratio(run_s * 1e9, static_cast<double>(c.pairs_issued)),
       "ns", "run_s / pairs_issued"},
      {"interp.pair_force_ns", lc.kernels.pair_force_ns, "ns",
       std::to_string(lc.kernels.pairs) + " dataset pairs"},
      {"fixed.r2_ns", lc.kernels.r2_ns, "ns", ""},
      {"interp.kernel_share",
       ratio(static_cast<double>(c.pairs_issued) * lc.kernels.pair_force_ns *
                 1e-9,
             run_s * lc.sim_workers),
       "fraction", "pairs x pair_force_ns / (run_s x workers)"},
      {"sim.ns_per_executed_cycle",
       ratio(run_s * 1e9, static_cast<double>(c.executed_cycles)), "ns", ""},
      {"sim.elided_frac", ratio(static_cast<double>(c.elided_cycles), total_cycles),
       "fraction", ""},
      {"sim.speedup_4v1",
       ratio(lc.baselines.serial_run_s, lc.baselines.thread4_run_s), "x",
       "serial run_s / 4-thread run_s"},
      {"shard.proc_vs_thread",
       ratio(lc.baselines.proc4_run_s, lc.baselines.thread4_run_s), "x",
       "proc_workers=4 run_s / 4-thread run_s"},
      {"sim.executed_cycles", static_cast<double>(c.executed_cycles), "count", ""},
      {"sim.elided_cycles", static_cast<double>(c.elided_cycles), "count", ""},
      {"pe.pairs_issued", static_cast<double>(c.pairs_issued), "count", ""},
      {"net.pos_packets", static_cast<double>(c.pos_packets), "count", ""},
      {"net.frc_packets", static_cast<double>(c.frc_packets), "count", ""},
      {"engine.build_ms", med("engine.create") * 1e3, "ms", ""},
      {"engine.step_ms", med("engine.step") * 1e3 / lc.engine_steps, "ms",
       "per timestep"},
      {"serve.execute_ms", med("serve.execute_job") * 1e3, "ms", ""},
      {"serve.submit_rtt_p50_ms", lc.submit_rtt_p50_ms, "ms", ""},
      {"serve.submit_rtt_p95_ms", lc.submit_rtt_p95_ms, "ms", ""},
      {"serve.journal_fsync_p50_ms", lc.fsync_p50_us / 1e3, "ms", "kStats"},
      {"serve.journal_fsync_p95_ms", lc.fsync_p95_us / 1e3, "ms", "kStats"},
      {"serve.queue_wait_p50_ms", lc.queue_wait_p50_us / 1e3, "ms", "kStats"},
      {"serve.queue_wait_p95_ms", lc.queue_wait_p95_us / 1e3, "ms", "kStats"},
      {"serve.read_rtt_ms", lc.read_rtt_ms, "ms", ""},
      {"serve.p50_ms", lc.write_p50_ms, "ms", "executed jobs, from due time"},
      {"serve.p95_ms", lc.write_p95_ms, "ms", "executed jobs, from due time"},
      {"serve.read_p50_ms", lc.read_p50_ms, "ms", "from due time"},
      {"serve.read_p95_ms", lc.read_p95_ms, "ms", "from due time"},
      {"serve.read_hit_frac", lc.read_hit_frac, "fraction", ""},
      {"wire.roundtrip_us", lc.wire_roundtrip_us, "us", ""},
      {"serve.rejected.queue_full", static_cast<double>(lc.rejected_queue_full),
       "count", ""},
      {"serve.rejected.tenant_quota",
       static_cast<double>(lc.rejected_tenant_quota), "count", ""},
      {"serve.rejected.other", static_cast<double>(lc.rejected_other), "count",
       ""},
      {"loadgen.lag_p95_ms", lc.lag_p95_ms, "ms", ""},
      {"bench.trace_overhead_frac", overhead_frac, "fraction",
       "span recording cost / window wall time"},
      {"bench.harness_self_frac",
       ratio(g_tracer.self_seconds("bench.run"), root.empty() ? 0 : root[0]),
       "fraction", "run time outside timed calls"},
  };
}

/// Measured cost of recording one span, in seconds.
double span_cost_s() {
  Tracer scratch;
  scratch.enable("cost");
  constexpr int kSpans = 20000;
  const double start = now_s();
  for (int i = 0; i < kSpans; ++i) {
    const double t = now_s();
    scratch.record({scratch.next_id(), 0, "x", thread_track(), t, now_s()});
  }
  return (now_s() - start) / kSpans;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  Run r;
  r.workload = cli.get_or("workload", "");
  r.seed = static_cast<std::uint64_t>(cli.get_or("seed", 1L));
  r.seconds = cli.get_or("seconds", 10.0);
  r.trace = cli.get_or("trace", 0L) != 0;
  r.smoke = cli.has("smoke");
  r.bad_digest = cli.has("bad-digest");
  r.expect_path = cli.get_or("expect", "");
  r.state_root = cli.get_or("state-root", ".bench_build/state");
  const std::string trace_out = cli.get_or("trace-out", "");
  if (r.workload != "sim_dense" && r.workload != "sim_sync" &&
      r.workload != "serve_mix") {
    std::fprintf(stderr,
                 "perfbench: --workload must be sim_dense|sim_sync|serve_mix\n");
    return 2;
  }
  if (!(r.seconds > 0)) {
    std::fprintf(stderr, "perfbench: --seconds must be > 0\n");
    return 2;
  }
  r.state_root += "/" + std::to_string(getpid());
  if (r.trace) {
    g_tracer.enable(r.workload + "-" + std::to_string(r.seed) + "-" +
                    std::to_string(getpid()));
  }

  try {
    Timed root("bench.run");
    if (r.workload == "serve_mix") {
      run_serve(r);
    } else {
      run_sim(r);
    }
  } catch (const std::exception& e) {
    r.out.fail(std::string("harness: ") + e.what());
  }
  std::filesystem::remove_all(r.state_root);
  if (r.out.attempted == 0) {
    r.out.attempted = 1;
    r.out.failed = 1;
  }

  std::string params;
  for (const std::string& p : r.params) {
    params += (params.empty() ? "\"" : ", \"") + json_escape(p) + "\"";
  }
  std::printf(
      "{\"provenance\": {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": "
      "\"%s\", \"build_type\": \"%s\", \"git_sha\": \"%s\", \"command\": "
      "\"%s\", \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"smoke\": %s, \"params\": [%s]}}\n",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      json_escape(cli.get_or("git-sha", "unknown")).c_str(),
      json_escape(cli.get_or("command", "")).c_str(), r.workload.c_str(),
      static_cast<unsigned long long>(r.seed), r.seconds, r.trace ? 1 : 0,
      r.smoke ? "true" : "false", params.c_str());
  for (const std::string& f : r.out.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }

  std::vector<Metric> metrics;
  if (r.trace) {
    const std::size_t spans = g_tracer.spans().size();
    const double overhead =
        r.window_s > 0 ? spans * span_cost_s() / r.window_s : 0.0;
    metrics = layer_metrics(r, overhead);
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      out << g_tracer.to_chrome_json();
      if (!out) r.out.fail("cannot write " + trace_out);
      std::printf("trace: %zu spans -> %s\n", spans, trace_out.c_str());
    }
  } else {
    metrics = r.e2e;
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB", "getrusage"});
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %14.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }

  const bool correct = r.out.failed == 0 && !metrics.empty() &&
                       (r.trace || r.e2e.size() == 3);
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.out.attempted) +
                     ", \"failed\": " + std::to_string(r.out.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}
