#pragma once
// FunctionalEngine: the FASDA datapath numerics without the timing model.
//
// Reproduces exactly what the hardware computes each timestep:
//   * positions stored per cell as Q2.28 fixed-point in-cell offsets (§4.2),
//   * pair filtering on exact fixed-point r² against R_c normalized to 1,
//     with the small-r region below the interpolation table excluded (§3.4),
//   * pair forces via float32 section/bin interpolation of r^-14 and r^-8
//     with element-indexed folded coefficients (Fig. 6),
//   * float32 force and velocity accumulation (FC/VC are 32-bit, §3.1),
//   * leapfrog motion update with the position delta re-quantized to the
//     fixed-point grid, and cell-to-cell migration (the MU ring's job).
//
// Force evaluation iterates the full shell (every pair is computed from both
// sides). Because fixed-point r² is exactly symmetric and the interpolated
// magnitude depends only on r², the two evaluations are exact negations —
// the same invariant the hardware gets from Newton's third law — while
// keeping the cell loop embarrassingly parallel and deterministic.
//
// The cycle-level simulator (src/core) produces forces that match this
// engine pair-for-pair; tests cross-validate the two.

#include <cstdint>
#include <vector>

#include "fasda/fixed/fixed_point.hpp"
#include "fasda/geom/cell_grid.hpp"
#include "fasda/interp/interp_table.hpp"
#include "fasda/md/force_kernel.hpp"
#include "fasda/md/system_state.hpp"
#include "fasda/util/thread_pool.hpp"

namespace fasda::md {

struct FunctionalConfig {
  double cutoff = 8.5;  ///< Å; also the cell edge (cell_size must equal it)
  double dt = 2.0;      ///< fs
  interp::InterpConfig table{};
  ForceTerms terms{};  ///< LJ and/or Ewald real-space (§2.1)
  std::size_t threads = 1;
};

class FunctionalEngine {
 public:
  FunctionalEngine(const SystemState& state, ForceField ff,
                   const FunctionalConfig& config);

  void step(int n = 1);

  /// Exports the current state (absolute double positions reconstructed from
  /// the fixed-point cell offsets, float32 velocities widened).
  SystemState state() const;

  /// Potential/total energy of the current configuration, measured in double
  /// precision from the exported trajectory — the same observable the paper
  /// dumps from the boards and compares against OpenMM in Fig. 19.
  double potential_energy() const;
  double total_energy() const;

  /// Potential energy evaluated with the hardware's own float32
  /// interpolation tables (α = 12, 6, and the Ewald real-space energy when
  /// enabled), built per call from the engine's InterpConfig; tests use it
  /// to check the energy tables against the analytic energy.
  double interp_potential_energy() const;

  /// Forces (internal units, float32 accumulated) from the last force
  /// evaluation, indexed by original particle id.
  std::vector<geom::Vec3f> forces_by_particle() const;

  /// Runs force evaluation only (no motion update); lets tests compare
  /// forces on a frozen configuration.
  void evaluate_forces();

  std::size_t size() const { return num_particles_; }
  const geom::CellGrid& grid() const { return grid_; }

  /// Pairs accepted by the fixed-point filter in the last evaluation,
  /// counted once per unordered pair.
  std::size_t last_pair_count() const { return last_pair_count_; }

 private:
  struct Slot {
    fixed::FixedVec3 pos;  ///< in-cell offset, RCID = 2 on every axis
    geom::Vec3f vel;       ///< Å/fs
    geom::Vec3f force;     ///< internal units, valid after evaluate_forces()
    ElementId elem = 0;
    std::uint32_t id = 0;  ///< original particle index
  };

  /// Walks every ordered pair of cell `cell` with a home particle first
  /// that the fixed-point filter accepts; see the definition.
  template <class Visitor>
  void for_each_cell_pair(std::size_t cell, Visitor&& visit) const;

  /// Returns the number of accepted unordered pairs owned by this cell.
  std::size_t evaluate_cell_forces(std::size_t cell);
  void motion_update();

  ForceField ff_;
  geom::CellGrid grid_;
  FunctionalConfig config_;
  ForceKernel force_kernel_;  ///< the PE pipeline's own pair formula
  std::size_t num_elements_;
  std::size_t num_particles_;

  std::vector<std::vector<Slot>> cells_;
  util::ThreadPool pool_;
  std::vector<std::size_t> worker_pair_counts_;
  std::size_t last_pair_count_ = 0;
};

}  // namespace fasda::md
