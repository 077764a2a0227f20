#include "fasda/md/energy.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace fasda::md {

void bin_particles(const geom::CellGrid& grid,
                   const std::vector<geom::Vec3d>& positions, CellList& cells) {
  cells.resize(grid.num_cells());
  for (auto& cell : cells) cell.clear();
  for (std::size_t i = 0; i < positions.size(); ++i) {
    cells[grid.cid(grid.cell_of(positions[i]))].push_back(
        static_cast<std::uint32_t>(i));
  }
}

namespace {

/// Runs the pair walk over every pair within the cutoff, for any
/// cell-size/cutoff ratio: the neighbour reach is ceil(cutoff / cell_size)
/// cells. When the periodic box is too small for that reach to be
/// unambiguous, every particle goes into one bin with no offsets, so the
/// walk's own-cell loop enumerates all N² / 2 pairs.
template <class Visitor>
void for_each_pair_within(const SystemState& state, double cutoff,
                          Visitor&& visit) {
  const geom::CellGrid grid = state.grid();
  const int reach =
      static_cast<int>(std::ceil(cutoff / state.cell_size - 1e-12));
  const geom::IVec3 dims = grid.dims();

  CellList cells;
  // Forward half-space offsets up to `reach` (lexicographic-positive), the
  // generalization of the 13-cell half shell (equal to it at reach 1).
  std::vector<geom::IVec3> offsets;
  if (2 * reach + 1 > std::min({dims.x, dims.y, dims.z})) {
    cells.assign(1, std::vector<std::uint32_t>(state.size()));
    std::iota(cells[0].begin(), cells[0].end(), 0u);
  } else {
    bin_particles(grid, state.positions, cells);
    for (int dx = -reach; dx <= reach; ++dx) {
      for (int dy = -reach; dy <= reach; ++dy) {
        for (int dz = -reach; dz <= reach; ++dz) {
          const geom::IVec3 d{dx, dy, dz};
          if (d != geom::IVec3{0, 0, 0} && geom::is_forward_offset(d)) {
            offsets.push_back(d);
          }
        }
      }
    }
  }
  for_each_pair(grid, state.positions, cells, offsets, cutoff * cutoff, 0,
                cells.size(), visit);
}

}  // namespace

double compute_potential_energy(const SystemState& state, const ForceField& ff,
                                double cutoff, const ForceTerms& terms) {
  double pe = 0.0;
  for_each_pair_within(state, cutoff,
                       [&](std::uint32_t i, std::uint32_t j,
                           const geom::Vec3d&, double r2) {
                         pe += ff.pair_energy(r2, state.elements[i],
                                              state.elements[j], terms);
                       });
  return pe;
}

std::vector<geom::Vec3d> compute_forces(const SystemState& state,
                                        const ForceField& ff, double cutoff,
                                        const ForceTerms& terms) {
  std::vector<geom::Vec3d> forces(state.size());
  for_each_pair_within(state, cutoff,
                       [&](std::uint32_t i, std::uint32_t j,
                           const geom::Vec3d& dr, double) {
                         const geom::Vec3d fij = ff.pair_force(
                             dr, state.elements[i], state.elements[j], terms);
                         forces[i] += fij;
                         forces[j] -= fij;
                       });
  return forces;
}

std::size_t count_pairs_within_cutoff(const SystemState& state, double cutoff) {
  std::size_t n = 0;
  for_each_pair_within(
      state, cutoff,
      [&](std::uint32_t, std::uint32_t, const geom::Vec3d&, double) { ++n; });
  return n;
}

}  // namespace fasda::md
