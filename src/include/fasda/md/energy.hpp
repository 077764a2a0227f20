#pragma once
// The double-precision pair walk over a cell list, and the standalone
// observables built on it. ReferenceEngine runs its force and energy loops
// through the same walk, and the Fig. 19 harness measures both trajectories
// with these observables (one yardstick).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fasda/md/system_state.hpp"

namespace fasda::md {

/// Particle indices per cell (indexed by CellId), each in ascending order.
using CellList = std::vector<std::vector<std::uint32_t>>;

/// Bins every position into its cell, reusing the storage of `cells`.
void bin_particles(const geom::CellGrid& grid,
                   const std::vector<geom::Vec3d>& positions, CellList& cells);

/// Calls visit(i, j, dr, r2) for every pair with r2 < cutoff2 whose first
/// particle lies in cells [cell_begin, cell_end), where dr is the minimum
/// image of x_j - x_i and r2 = |dr|². Cells run in ascending order; within
/// a cell, its own pairs (a < b in bin order) come first, then the pairs
/// with each `forward` offset cell in the given order. The offsets must be
/// one half of the neighbourhood (Newton's third law covers the other), e.g.
/// geom::half_shell_offsets() when the cutoff is at most one cell edge.
template <class Visitor>
void for_each_pair(const geom::CellGrid& grid,
                   const std::vector<geom::Vec3d>& positions,
                   const CellList& cells, std::span<const geom::IVec3> forward,
                   double cutoff2, std::size_t cell_begin, std::size_t cell_end,
                   Visitor&& visit) {
  auto try_pair = [&](std::uint32_t i, std::uint32_t j) {
    const geom::Vec3d dr = grid.min_image(positions[j], positions[i]);
    const double r2 = dr.norm2();
    if (r2 < cutoff2) visit(i, j, dr, r2);
  };
  for (std::size_t cell = cell_begin; cell < cell_end; ++cell) {
    const auto& home = cells[cell];
    for (std::size_t a = 0; a < home.size(); ++a) {
      for (std::size_t b = a + 1; b < home.size(); ++b) {
        try_pair(home[a], home[b]);
      }
    }
    const geom::IVec3 hc = grid.coords(static_cast<geom::CellId>(cell));
    for (const geom::IVec3& d : forward) {
      const auto& nbr = cells[grid.cid(grid.wrap(hc + d))];
      for (const std::uint32_t i : home) {
        for (const std::uint32_t j : nbr) try_pair(i, j);
      }
    }
  }
}

/// Potential energy of the enabled force terms with the given cutoff (Å),
/// internal units.
double compute_potential_energy(const SystemState& state, const ForceField& ff,
                                double cutoff, const ForceTerms& terms = {});

/// Analytic per-particle forces with the given cutoff (internal units).
std::vector<geom::Vec3d> compute_forces(const SystemState& state,
                                        const ForceField& ff, double cutoff,
                                        const ForceTerms& terms = {});

/// Number of unordered pairs within the cutoff.
std::size_t count_pairs_within_cutoff(const SystemState& state, double cutoff);

}  // namespace fasda::md
