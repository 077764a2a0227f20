#include "fasda/obs/trace.hpp"

#include <algorithm>
#include <set>
#include <utility>

namespace fasda::obs {

const char* comp_name(Comp comp) {
  switch (comp) {
    case Comp::kFsm: return "fsm";
    case Comp::kSync: return "sync";
    case Comp::kNetPos: return "net.pos";
    case Comp::kNetFrc: return "net.frc";
    case Comp::kNetMig: return "net.mig";
    case Comp::kEngine: return "engine";
    case Comp::kScheduler: return "scheduler";
    case Comp::kHealth: return "health";
    case Comp::kSupervisor: return "supervisor";
  }
  return "?";
}

void TraceBus::ensure_nodes(int num_nodes) {
  while (static_cast<int>(shards_.size()) - 1 < num_nodes) {
    shards_.emplace_back();
  }
}

void TraceBus::append(Shard& shard, TraceEvent event) {
  if (event.ts > shard.max_ts) shard.max_ts = event.ts;
  shard.events.push_back(event);
}

void TraceBus::begin(int shard, int pid, Comp tid, const char* name,
                     Cycle cycle) {
  Shard& s = shard_at(shard);
  append(s, {base_ + cycle, cycle, pid, tid, 'B', name});
  s.open.push_back({pid, tid, name});
}

void TraceBus::end(int shard, int pid, Comp tid, Cycle cycle) {
  Shard& s = shard_at(shard);
  // Spans are well nested per shard; pop the innermost open span on this
  // (pid, tid) track. An end with no matching begin is dropped.
  for (auto it = s.open.rbegin(); it != s.open.rend(); ++it) {
    if (it->pid == pid && it->tid == tid) {
      s.open.erase(std::next(it).base());
      append(s, {base_ + cycle, cycle, pid, tid, 'E', ""});
      return;
    }
  }
}

void TraceBus::instant(int shard, int pid, Comp tid, const char* name,
                       Cycle cycle, const char* arg_name, std::int64_t arg) {
  append(shard_at(shard),
         {base_ + cycle, cycle, pid, tid, 'i', name, arg_name, arg});
}

Cycle TraceBus::high_water() const {
  Cycle hw = 0;
  for (const Shard& s : shards_) hw = std::max(hw, s.max_ts);
  return hw;
}

void TraceBus::begin_epoch() {
  const Cycle hw = high_water();
  const Cycle cycle = hw >= base_ ? hw - base_ : 0;
  for (Shard& s : shards_) {
    // Close abandoned spans innermost-first at the high-water mark so the
    // exported B/E pairs stay balanced across a crashed attempt.
    while (!s.open.empty()) {
      const Open open = s.open.back();
      s.open.pop_back();
      append(s, {hw, cycle, open.pid, open.tid, 'E', ""});
    }
  }
  base_ = hw + 1;
}

std::vector<TraceEvent> TraceBus::events() const {
  struct Keyed {
    Cycle ts;
    int shard;
    std::size_t seq;
    TraceEvent event;
  };
  std::vector<Keyed> keyed;
  const Cycle hw = high_water();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = shards_[i];
    for (std::size_t k = 0; k < s.events.size(); ++k) {
      keyed.push_back({s.events[k].ts, static_cast<int>(i), k, s.events[k]});
    }
    // Close spans still open at export time without mutating the live bus.
    const Cycle close_cycle = hw >= base_ ? hw - base_ : 0;
    std::size_t seq = s.events.size();
    for (auto it = s.open.rbegin(); it != s.open.rend(); ++it, ++seq) {
      keyed.push_back({hw, static_cast<int>(i), seq,
                       {hw, close_cycle, it->pid, it->tid, 'E', ""}});
    }
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.seq < b.seq;
  });
  std::vector<TraceEvent> out;
  out.reserve(keyed.size());
  for (Keyed& k : keyed) out.push_back(k.event);
  return out;
}

bool TraceBus::empty() const {
  for (const Shard& s : shards_) {
    if (!s.events.empty() || !s.open.empty()) return false;
  }
  return true;
}

std::string TraceBus::to_chrome_json() const {
  const std::vector<TraceEvent> all = events();

  // process_name / thread_name metadata for every track seen, in id order.
  std::set<int> pids;
  std::set<std::pair<int, int>> tracks;
  for (const TraceEvent& e : all) {
    pids.insert(e.pid);
    tracks.insert({e.pid, static_cast<int>(e.tid)});
  }

  ChromeTraceWriter w;
  for (int pid : pids) {
    w.metadata("process_name", pid, 0,
               pid == kClusterPid ? "cluster" : "node" + std::to_string(pid));
  }
  for (const auto& [pid, tid] : tracks) {
    w.metadata("thread_name", pid, static_cast<std::uint64_t>(tid),
               comp_name(static_cast<Comp>(tid)));
  }
  for (const TraceEvent& e : all) {
    w.begin(e.name);
    w.str("cat", comp_name(e.tid));
    w.str("ph", std::string_view(&e.phase, 1));
    if (e.phase == 'i') w.str("s", "t");
    w.num("ts", e.ts);
    w.num("pid", e.pid);
    w.num("tid", static_cast<int>(e.tid));
    if (e.phase != 'E') {
      w.args();
      w.num("cycle", e.cycle);
      if (e.arg_name != nullptr) w.num(e.arg_name, e.arg);
    }
    w.end();
  }
  return w.finish();
}

}  // namespace fasda::obs
