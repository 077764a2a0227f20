#include "fasda/cbb/cbb.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fasda::cbb {

namespace {

fixed::FixedCoord rebase(fixed::FixedCoord c, int dcells) {
  return fixed::FixedCoord::from_raw(
      c.raw() +
      static_cast<std::uint32_t>(dcells * static_cast<int>(fixed::FixedCoord::kOne)));
}

fixed::FixedVec3 rebase(const fixed::FixedVec3& p, const geom::IVec3& rcid) {
  return {rebase(p.x, rcid.x - 2), rebase(p.y, rcid.y - 2),
          rebase(p.z, rcid.z - 2)};
}

}  // namespace

FcProbe::Fn FcProbe::hook;

// ---------------------------------------------------------------- stations

class Cbb::PosStation : public ring::Station<ring::PosToken> {
 public:
  PosStation(Cbb* cbb, int spe) : cbb_(cbb), spe_(spe) {}

  Action classify(const ring::PosToken& t) const override {
    if (!cbb_->map_.accepts_position(t.src_lcid, cbb_->lcell_)) {
      return Action::kPass;
    }
    return t.deliveries_remaining <= 1 ? Action::kDeliverAndDrop
                                       : Action::kDeliver;
  }

  bool try_deliver(ring::PosToken& t) override {
    auto& fifo = *cbb_->arrivals_[spe_];
    if (!fifo.can_push()) return false;
    pe::Reference ref;
    ref.pos = rebase(t.offset, cbb_->map_.lcid_to_rcid(t.src_lcid, cbb_->lcell_));
    ref.elem = t.elem;
    ref.is_home = false;
    ref.src_lcid = t.src_lcid;
    ref.slot = t.slot;
    fifo.push(ref);
    t.deliveries_remaining--;
    return true;
  }

  sim::Fifo<ring::PosToken>* inject_source() override {
    return cbb_->pr_inject_[spe_].get();
  }

 private:
  Cbb* cbb_;
  int spe_;
};

class Cbb::FrcStation : public ring::Station<ring::ForceToken> {
 public:
  FrcStation(Cbb* cbb, int spe) : cbb_(cbb), spe_(spe) {}

  Action classify(const ring::ForceToken& t) const override {
    return t.dest_lcid == cbb_->lcell_ ? Action::kDeliverAndDrop : Action::kPass;
  }

  bool try_deliver(ring::ForceToken& t) override {
    // The FC-N write port accepts one ring delivery per cycle, which is the
    // most the FRN can hand over anyway.
    assert(t.slot < cbb_->forces_.size());
    if (FcProbe::hook) FcProbe::hook(cbb_->gcell_, t.slot, t.force, -1);
    cbb_->forces_[t.slot].add(t.force);
    return true;
  }

  sim::Fifo<ring::ForceToken>* inject_source() override {
    return cbb_->fr_inject_[spe_].get();
  }

 private:
  Cbb* cbb_;
  int spe_;
};

class Cbb::MuStation : public ring::Station<ring::MigrateToken> {
 public:
  explicit MuStation(Cbb* cbb) : cbb_(cbb) {}

  Action classify(const ring::MigrateToken& t) const override {
    return t.dest_lcid == cbb_->lcell_ ? Action::kDeliverAndDrop : Action::kPass;
  }

  bool try_deliver(ring::MigrateToken& t) override {
    return cbb_->mu_arrivals_->push(t);
  }

  sim::Fifo<ring::MigrateToken>* inject_source() override {
    return cbb_->mu_inject_.get();
  }

 private:
  Cbb* cbb_;
};

// ---------------------------------------------------------------- lifecycle

Cbb::Cbb(std::string name, const CbbConfig& config, const pe::ForceModel& model,
         const idmap::ClusterMap& map, geom::IVec3 node, geom::IVec3 lcell)
    : Component(std::move(name)),
      config_(config),
      model_(model),
      map_(map),
      node_(node),
      lcell_(lcell),
      gcell_(map.global_cell(node, lcell)) {
  // How many of this cell's 13 forward neighbour cells live on this node
  // (the multicast count for locally injected position tokens).
  for (const geom::IVec3& d : geom::half_shell_offsets()) {
    const geom::IVec3 target = map_.grid().wrap(gcell_ + d);
    if (map_.node_of_cell(target) == node_) ++local_pos_deliveries_;
  }
  has_remote_dests_ = !map_.remote_destinations(gcell_).empty();

  for (int s = 0; s < config_.spes; ++s) {
    pr_inject_.push_back(
        std::make_unique<sim::Fifo<ring::PosToken>>(config_.fifo_depth));
    fr_inject_.push_back(
        std::make_unique<sim::Fifo<ring::ForceToken>>(config_.fifo_depth));
    arrivals_.push_back(std::make_unique<sim::Fifo<pe::Reference>>(
        config_.arrival_buffer_depth));
    dispatch_.emplace_back();
    pos_stations_.push_back(std::make_unique<PosStation>(this, s));
    frc_stations_.push_back(std::make_unique<FrcStation>(this, s));
    for (int k = 0; k < config_.pes_per_spe; ++k) {
      const int fc_index = s * (config_.pes_per_spe + 1) + k;
      pes_.push_back(std::make_unique<pe::ProcessingElement>(
          Component::name() + "/pe" + std::to_string(s) + "." + std::to_string(k),
          config_.pe, model_, &particles_, this, fc_index));
    }
  }
  mu_station_ = std::make_unique<MuStation>(this);
  mu_inject_ = std::make_unique<sim::Fifo<ring::MigrateToken>>(config_.fifo_depth);
  mu_arrivals_ = std::make_unique<sim::Fifo<ring::MigrateToken>>(config_.fifo_depth);
}

Cbb::~Cbb() = default;

std::vector<sim::Component*> Cbb::components() { return {this}; }

std::vector<sim::Clocked*> Cbb::clocked() {
  std::vector<sim::Clocked*> out;
  for (auto& f : pr_inject_) out.push_back(f.get());
  for (auto& f : fr_inject_) out.push_back(f.get());
  for (auto& f : arrivals_) out.push_back(f.get());
  out.push_back(mu_inject_.get());
  out.push_back(mu_arrivals_.get());
  for (auto& p : pes_) {
    out.push_back(&p->input());
    out.push_back(&p->output());
  }
  return out;
}

ring::Station<ring::PosToken>& Cbb::pos_station(int spe) {
  return *pos_stations_[spe];
}
ring::Station<ring::ForceToken>& Cbb::frc_station(int spe) {
  return *frc_stations_[spe];
}
ring::Station<ring::MigrateToken>& Cbb::mu_station() { return *mu_station_; }

// ---------------------------------------------------------------- phases

void Cbb::begin_force_phase() {
  // Fold in migrations before the phase fixes slot numbering.
  if (!migrated_.empty()) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < particles_.size(); ++r) {
      if (r < migrated_.size() && migrated_[r]) continue;
      particles_[w++] = particles_[r];
    }
    particles_.resize(w);
    migrated_.clear();
  }
  forces_.assign(particles_.size(), fixed::ForceAccum{});
  inject_cursor_ = 0;
  // Intra-cell pairs: every home particle becomes a home reference exactly
  // once, spread round-robin over the SPE dispatch queues.
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    pe::Reference ref;
    ref.pos = particles_[i].pos;
    ref.elem = particles_[i].elem;
    ref.is_home = true;
    ref.home_index = static_cast<std::uint16_t>(i);
    dispatch_[i % dispatch_.size()].push_back(ref);
  }
  for (auto& p : pes_) p->reset_phase();
  phase_ = Phase::kForce;
}

bool Cbb::force_quiescent() const {
  if (inject_cursor_ < particles_.size()) return false;
  for (int s = 0; s < config_.spes; ++s) {
    if (pr_inject_[s]->total_occupancy() != 0) return false;
    if (fr_inject_[s]->total_occupancy() != 0) return false;
    if (arrivals_[s]->total_occupancy() != 0) return false;
    if (!dispatch_[s].empty()) return false;
  }
  for (const auto& p : pes_) {
    if (!p->quiescent()) return false;
  }
  return true;
}

void Cbb::begin_motion_update(float dt_fs, double cell_size,
                              const md::ForceField& ff) {
  phase_ = Phase::kMotionUpdate;
  mu_cursor_ = 0;
  mu_limit_ = particles_.size();
  migrated_.assign(particles_.size(), false);
  mu_dt_ = dt_fs;
  mu_inv_cell_ = 1.0 / cell_size;
  mu_ff_ = &ff;
}

bool Cbb::mu_done() const {
  return phase_ == Phase::kMotionUpdate && mu_cursor_ >= mu_limit_ &&
         mu_inject_->total_occupancy() == 0;
}

// ---------------------------------------------------------------- per cycle

void Cbb::tick(sim::Cycle now) {
  tick_own_stages();
  for (auto& p : pes_) p->tick(now);
}

void Cbb::tick_own_stages() {
  // Migration arrivals may land in any phase tail; they are already updated
  // by their previous home cell's MU, so they are appended verbatim.
  while (!mu_arrivals_->empty()) {
    const ring::MigrateToken t = mu_arrivals_->pop();
    particles_.push_back(pe::CellParticle{t.offset, t.vel, t.elem, t.particle_id});
  }

  switch (phase_) {
    case Phase::kIdle:
      mu_util_.record(0, 1, false);
      break;
    case Phase::kForce:
      tick_force_phase();
      mu_util_.record(0, 1, false);
      break;
    case Phase::kMotionUpdate:
      tick_motion_update();
      break;
  }
}

void Cbb::tick_force_phase() {
  // 1. Home position broadcast: one particle per SPE ring per cycle, taken
  //    in slot order (the PC read port). The same read feeds the P2R chain
  //    when the cell borders another FPGA.
  if (inject_cursor_ < particles_.size()) {
    const int spe = static_cast<int>(inject_cursor_) % config_.spes;
    const pe::CellParticle& p = particles_[inject_cursor_];
    const bool needs_local_ring = local_pos_deliveries_ > 0;
    if (!needs_local_ring || pr_inject_[spe]->can_push()) {
      if (needs_local_ring) {
        ring::PosToken token;
        token.src_lcid = lcell_;
        token.offset = p.pos;
        token.elem = p.elem;
        token.slot = static_cast<std::uint16_t>(inject_cursor_);
        token.deliveries_remaining =
            static_cast<std::uint8_t>(local_pos_deliveries_);
        pr_inject_[spe]->push(token);
      }
      if (has_remote_dests_ && offer_remote_) {
        offer_remote_(RemotePosition{
            gcell_, p.pos, p.elem, static_cast<std::uint16_t>(inject_cursor_)});
      }
      ++inject_cursor_;
    }
  }

  for (int s = 0; s < config_.spes; ++s) {
    // 2. Arrival intake: PRN deliveries queue up for the dispatcher.
    if (!arrivals_[s]->empty() &&
        dispatch_[s].size() < config_.arrival_buffer_depth) {
      dispatch_[s].push_back(arrivals_[s]->pop());
    }
    // 3. Dispatch: one reference per cycle to the least-loaded PE (Fig. 6's
    //    P-Dispatcher).
    if (!dispatch_[s].empty()) {
      pe::ProcessingElement* best = nullptr;
      std::size_t best_space = 0;
      for (int k = 0; k < config_.pes_per_spe; ++k) {
        auto& candidate = pe_at(s, k);
        const std::size_t space =
            candidate.input().capacity() - candidate.input().total_occupancy();
        if (space > best_space) {
          best_space = space;
          best = &candidate;
        }
      }
      if (best != nullptr) {
        best->input().push(dispatch_[s].front());
        dispatch_[s].pop_front();
      }
    }
    // 4. Force-output arbitration: one retired neighbour force per cycle per
    //    SPE onto its force ring.
    if (fr_inject_[s]->can_push()) {
      for (int k = 0; k < config_.pes_per_spe; ++k) {
        auto& out = pe_at(s, k).output();
        if (!out.empty()) {
          fr_inject_[s]->push(out.pop());
          break;
        }
      }
    }
  }
}

void Cbb::tick_motion_update() {
  if (mu_cursor_ >= mu_limit_) {
    mu_util_.record(0, 1, false);
    return;
  }
  pe::CellParticle& p = particles_[mu_cursor_];
  const float inv_mass =
      static_cast<float>(1.0 / mu_ff_->element(p.elem).mass);
  // Leapfrog kick with the adder-tree-combined force, then drift with the
  // delta quantized straight onto the fixed-point grid (§4.2).
  const geom::Vec3f vel =
      p.vel + forces_[mu_cursor_].to_vec3f() * (mu_dt_ * inv_mass);

  geom::IVec3 shift{};
  fixed::FixedVec3 pos = p.pos;
  auto advance = [&](fixed::FixedCoord& c, float v, int& shift_c) {
    const double delta_cells =
        static_cast<double>(v) * static_cast<double>(mu_dt_) * mu_inv_cell_;
    const auto delta_q = static_cast<std::int64_t>(
        std::llround(delta_cells * fixed::FixedCoord::kOne));
    std::int64_t raw = static_cast<std::int64_t>(c.raw()) + delta_q;
    shift_c = static_cast<int>(raw >> fixed::FixedCoord::kFracBits) - 2;
    raw -= static_cast<std::int64_t>(shift_c) *
           static_cast<std::int64_t>(fixed::FixedCoord::kOne);
    c = fixed::FixedCoord::from_raw(static_cast<std::uint32_t>(raw));
  };
  advance(pos.x, vel.x, shift.x);
  advance(pos.y, vel.y, shift.y);
  advance(pos.z, vel.z, shift.z);

  if (shift == geom::IVec3{0, 0, 0}) {
    p.vel = vel;
    p.pos = pos;
    ++mu_cursor_;
    mu_util_.record(1, 1, true);
    return;
  }
  // Migration: LCID arithmetic wraps in the global frame, so the token's
  // destination is valid whether the target cell is local or remote.
  if (!mu_inject_->can_push()) {
    mu_util_.record(0, 1, true);  // stalled on the MU ring
    return;
  }
  ring::MigrateToken token;
  token.dest_lcid = map_.grid().wrap(lcell_ + shift);
  token.offset = pos;
  token.vel = vel;
  token.elem = p.elem;
  token.particle_id = p.id;
  mu_inject_->push(token);
  migrated_[mu_cursor_] = true;
  ++mu_cursor_;
  mu_util_.record(1, 1, true);
}

sim::Cycle Cbb::next_wake(sim::Cycle now) const {
  sim::Cycle wake = own_wake(now);
  for (const auto& p : pes_) {
    if (wake <= now) break;
    wake = std::min(wake, p->next_wake(now));
  }
  return wake;
}

sim::Cycle Cbb::own_wake(sim::Cycle now) const {
  if (!mu_arrivals_->empty()) return now;
  switch (phase_) {
    case Phase::kIdle:
      break;
    case Phase::kForce: {
      if (inject_cursor_ < particles_.size()) return now;
      for (int s = 0; s < config_.spes; ++s) {
        if (!arrivals_[s]->empty() || !dispatch_[s].empty()) return now;
      }
      for (const auto& p : pes_) {
        if (!p->output().empty()) return now;
      }
      break;
    }
    case Phase::kMotionUpdate:
      if (mu_cursor_ < mu_limit_) return now;
      break;
  }
  return sim::kNeverCycle;
}

void Cbb::skip_idle(sim::Cycle from, sim::Cycle to) {
  // Every phase's idle tick path records mu_util_(0, 1, false) and nothing
  // else — the kIdle case, a drained force phase, and a finished MU cursor
  // all hit the same bookkeeping.
  mu_util_.record(0, to - from, false);
  // Every PE is idle too: the CBB's wake is the minimum over them.
  for (auto& p : pes_) p->skip_idle(from, to);
}

void Cbb::accumulate(std::uint16_t slot, const geom::Vec3f& force,
                     int fc_index) {
  assert(slot < forces_.size());
  if (FcProbe::hook) FcProbe::hook(gcell_, slot, force, fc_index);
  forces_[slot].add(force);
}

std::vector<geom::Vec3f> Cbb::forces() const {
  std::vector<geom::Vec3f> out;
  out.reserve(forces_.size());
  for (const fixed::ForceAccum& f : forces_) out.push_back(f.to_vec3f());
  return out;
}

// ---------------------------------------------------------------- stats

sim::UtilCounter Cbb::pe_util() const {
  sim::UtilCounter out;
  for (const auto& p : pes_) out.merge(p->pe_util());
  return out;
}

sim::UtilCounter Cbb::filter_util() const {
  sim::UtilCounter out;
  for (const auto& p : pes_) out.merge(p->filter_util());
  return out;
}

std::uint64_t Cbb::pairs_issued() const {
  std::uint64_t n = 0;
  for (const auto& p : pes_) n += p->pairs_issued();
  return n;
}

}  // namespace fasda::cbb
