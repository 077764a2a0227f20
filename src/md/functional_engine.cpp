#include "fasda/md/functional_engine.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "fasda/interp/ewald.hpp"
#include "fasda/md/energy.hpp"

namespace fasda::md {

namespace {

/// Re-expresses an in-cell offset (RCID = 2) in a frame displaced by
/// `dcells` cells along one axis: RCID becomes 2 + dcells ∈ {1,2,3}.
fixed::FixedCoord rebase(fixed::FixedCoord c, int dcells) {
  return fixed::FixedCoord::from_raw(
      c.raw() + static_cast<std::uint32_t>(dcells * static_cast<int>(
                                                        fixed::FixedCoord::kOne)));
}

fixed::FixedVec3 rebase(const fixed::FixedVec3& p, const geom::IVec3& d) {
  return {rebase(p.x, d.x), rebase(p.y, d.y), rebase(p.z, d.z)};
}

}  // namespace

FunctionalEngine::FunctionalEngine(const SystemState& state, ForceField ff,
                                   const FunctionalConfig& config)
    : ff_(std::move(ff)),
      grid_(state.cell_dims, state.cell_size),
      config_(config),
      force_kernel_(ff_, config.cutoff, config.table, config.terms),
      num_elements_(ff_.num_elements()),
      num_particles_(state.size()),
      pool_(config.threads) {
  if (std::abs(state.cell_size - config.cutoff) > 1e-9) {
    throw std::invalid_argument(
        "FunctionalEngine requires cell_size == cutoff: the hardware "
        "normalizes R_c to one cell edge (§3.4)");
  }
  cells_.resize(grid_.num_cells());
  for (std::size_t i = 0; i < state.size(); ++i) {
    const geom::Vec3d p = grid_.wrap_position(state.positions[i]);
    const geom::IVec3 c = grid_.cell_of(p);
    const double inv = 1.0 / grid_.cell_size();
    Slot slot;
    slot.pos = {fixed::FixedCoord::from_cell_offset(2, p.x * inv - c.x),
                fixed::FixedCoord::from_cell_offset(2, p.y * inv - c.y),
                fixed::FixedCoord::from_cell_offset(2, p.z * inv - c.z)};
    slot.vel = state.velocities[i].cast<float>();
    slot.elem = state.elements[i];
    slot.id = static_cast<std::uint32_t>(i);
    cells_[grid_.cid(c)].push_back(slot);
  }
  worker_pair_counts_.resize(pool_.size(), 0);
}

/// Calls visit(a, j_pos, j_elem, r2, owned) for every ordered pair of cell
/// `cell` with the home particle first, full shell: the home pairs (a, b),
/// a != b, then the particles of all 26 neighbour cells, each rebased into
/// this cell's frame exactly as the RCID conversion does on arrival (§4.2).
/// Only pairs with fixed-point r² inside the cutoff and above the bottom of
/// the interpolation table are visited. `a` indexes the home cell, `r2` is
/// the normalized float32 r², and `owned` marks the side of each unordered
/// pair this cell counts (a < b at home, forward neighbour offsets).
template <class Visitor>
void FunctionalEngine::for_each_cell_pair(std::size_t cell,
                                          Visitor&& visit) const {
  const auto& home = cells_[cell];
  const geom::IVec3 hc = grid_.coords(static_cast<geom::CellId>(cell));
  // Exclusion threshold in Q6.56 (the bottom of the interpolation table).
  const std::uint64_t min_r2q = fixed::kR2One >> config_.table.num_sections;

  auto try_pair = [&](std::size_t a, const fixed::FixedVec3& j_pos,
                      ElementId j_elem, bool owned) {
    const std::uint64_t r2q = fixed::r2_fixed(home[a].pos, j_pos);
    if (r2q >= fixed::kR2One || r2q < min_r2q) return;
    visit(a, j_pos, j_elem, fixed::r2_to_float(r2q), owned);
  };

  for (std::size_t a = 0; a < home.size(); ++a) {
    for (std::size_t b = 0; b < home.size(); ++b) {
      if (a != b) try_pair(a, home[b].pos, home[b].elem, a < b);
    }
  }
  for (const geom::IVec3& d : geom::full_shell_offsets()) {
    const auto& nbr = cells_[grid_.cid(grid_.wrap(hc + d))];
    const bool forward = geom::is_forward_offset(d);
    for (const Slot& j : nbr) {
      const fixed::FixedVec3 j_pos = rebase(j.pos, d);
      for (std::size_t a = 0; a < home.size(); ++a) {
        try_pair(a, j_pos, j.elem, forward);
      }
    }
  }
}

std::size_t FunctionalEngine::evaluate_cell_forces(std::size_t cell) {
  auto& home = cells_[cell];
  for (auto& slot : home) slot.force = {};

  // Each unordered pair is evaluated from both sides, so it contributes
  // once to each particle and is counted once, by the cell that owns it.
  std::size_t pairs = 0;
  for_each_cell_pair(cell, [&](std::size_t a, const fixed::FixedVec3& j_pos,
                               ElementId j_elem, float r2, bool owned) {
    Slot& i = home[a];
    const float magnitude = force_kernel_.magnitude(r2, i.elem, j_elem);
    const geom::Vec3f u = fixed::displacement_to_float(i.pos, j_pos);
    i.force += u * magnitude;
    if (owned) ++pairs;
  });
  return pairs;
}

void FunctionalEngine::evaluate_forces() {
  std::fill(worker_pair_counts_.begin(), worker_pair_counts_.end(), 0);
  pool_.parallel_for(
      cells_.size(), [&](std::size_t worker, std::size_t begin, std::size_t end) {
        std::size_t pairs = 0;
        for (std::size_t cell = begin; cell < end; ++cell) {
          pairs += evaluate_cell_forces(cell);
        }
        worker_pair_counts_[worker] = pairs;
      });
  last_pair_count_ = 0;
  for (const std::size_t c : worker_pair_counts_) last_pair_count_ += c;
}

void FunctionalEngine::motion_update() {
  const float dt = static_cast<float>(config_.dt);
  const double inv_cell = 1.0 / grid_.cell_size();
  std::vector<std::pair<geom::CellId, Slot>> migrations;

  for (std::size_t cell = 0; cell < cells_.size(); ++cell) {
    auto& slots = cells_[cell];
    const geom::IVec3 hc = grid_.coords(static_cast<geom::CellId>(cell));
    for (std::size_t s = 0; s < slots.size();) {
      Slot& slot = slots[s];
      const float inv_mass =
          static_cast<float>(1.0 / ff_.element(slot.elem).mass);
      slot.vel += slot.force * (dt * inv_mass);

      // Position delta quantized straight onto the fixed-point grid, per
      // axis; the MU adds it as an integer so tiny deltas never round away
      // against a large float mantissa.
      geom::IVec3 shift{};
      auto advance = [&](fixed::FixedCoord& c, float v, int& shift_c) {
        const double delta_cells = static_cast<double>(v) * dt * inv_cell;
        const auto delta_q = static_cast<std::int64_t>(
            std::llround(delta_cells * fixed::FixedCoord::kOne));
        std::int64_t raw = static_cast<std::int64_t>(c.raw()) + delta_q;
        const std::int64_t one = fixed::FixedCoord::kOne;
        shift_c = static_cast<int>(raw >> fixed::FixedCoord::kFracBits) - 2;
        raw -= static_cast<std::int64_t>(shift_c) * one;
        c = fixed::FixedCoord::from_raw(static_cast<std::uint32_t>(raw));
      };
      advance(slot.pos.x, slot.vel.x, shift.x);
      advance(slot.pos.y, slot.vel.y, shift.y);
      advance(slot.pos.z, slot.vel.z, shift.z);

      if (shift == geom::IVec3{0, 0, 0}) {
        ++s;
        continue;
      }
      // Migration: the MU ring routes the particle to its new home cell.
      const geom::CellId dest = grid_.cid(grid_.wrap(hc + shift));
      migrations.emplace_back(dest, slot);
      slots[s] = slots.back();
      slots.pop_back();
    }
  }
  for (auto& [dest, slot] : migrations) cells_[dest].push_back(slot);
}

void FunctionalEngine::step(int n) {
  for (int it = 0; it < n; ++it) {
    evaluate_forces();
    motion_update();
  }
}

SystemState FunctionalEngine::state() const {
  SystemState out;
  out.cell_dims = grid_.dims();
  out.cell_size = grid_.cell_size();
  out.positions.resize(num_particles_);
  out.velocities.resize(num_particles_);
  out.elements.resize(num_particles_);
  for (std::size_t cell = 0; cell < cells_.size(); ++cell) {
    const geom::IVec3 hc = grid_.coords(static_cast<geom::CellId>(cell));
    for (const Slot& slot : cells_[cell]) {
      out.positions[slot.id] = {(hc.x + slot.pos.x.frac()) * grid_.cell_size(),
                                (hc.y + slot.pos.y.frac()) * grid_.cell_size(),
                                (hc.z + slot.pos.z.frac()) * grid_.cell_size()};
      out.velocities[slot.id] = slot.vel.cast<double>();
      out.elements[slot.id] = slot.elem;
    }
  }
  return out;
}

double FunctionalEngine::potential_energy() const {
  return compute_potential_energy(state(), ff_, config_.cutoff,
                                  config_.terms);
}

double FunctionalEngine::total_energy() const {
  const SystemState s = state();
  return compute_potential_energy(s, ff_, config_.cutoff, config_.terms) +
         kinetic_energy(s, ff_);
}

double FunctionalEngine::interp_potential_energy() const {
  // The energy tables share the force tables' InterpConfig, hence one flat
  // index for all three.
  const interp::InterpTable table12 =
      interp::InterpTable::build_r_pow(12, config_.table);
  const interp::InterpTable table6 =
      interp::InterpTable::build_r_pow(6, config_.table);
  const std::optional<interp::InterpTable> table_ew =
      config_.terms.ewald_real
          ? std::optional(interp::build_ewald_energy_table(
                config_.terms.ewald_beta * config_.cutoff, config_.table))
          : std::nullopt;
  const std::vector<PairEnergyCoeffs> energy_coeffs =
      ff_.energy_coeff_table(config_.cutoff);
  const std::vector<float> ewald_energy_coeffs =
      ff_.ewald_energy_coeff_table(config_.cutoff);

  double pe = 0.0;  // halved double-count of float32 pair terms
  for (std::size_t cell = 0; cell < cells_.size(); ++cell) {
    const auto& home = cells_[cell];
    float cell_pe = 0.0f;
    for_each_cell_pair(cell, [&](std::size_t a, const fixed::FixedVec3&,
                                 ElementId j_elem, float r2, bool) {
      const std::size_t bin = table12.flat_index(r2);
      const std::size_t pair = home[a].elem * num_elements_ + j_elem;
      if (config_.terms.lj) {
        const PairEnergyCoeffs& k = energy_coeffs[pair];
        cell_pe += k.e12 * table12.eval_at(bin, r2) -
                   k.e6 * table6.eval_at(bin, r2);
      }
      if (table_ew) {
        cell_pe += ewald_energy_coeffs[pair] * table_ew->eval_at(bin, r2);
      }
    });
    pe += static_cast<double>(cell_pe);
  }
  return pe / 2.0;
}

std::vector<geom::Vec3f> FunctionalEngine::forces_by_particle() const {
  std::vector<geom::Vec3f> out(num_particles_);
  for (const auto& cell : cells_) {
    for (const Slot& slot : cell) out[slot.id] = slot.force;
  }
  return out;
}

}  // namespace fasda::md
