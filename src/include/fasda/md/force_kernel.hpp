#pragma once
// The force pipeline's pair-force magnitude (Fig. 6, §3.4): the r^-14 and
// r^-8 LJ tables and the optional Ewald real-space table, all built from one
// InterpConfig, so one table index per pair reads all three. The cycle
// simulator's PEs (pe::ForceModel) and the functional engine both evaluate
// pairs through this one formula, which keeps their float32 bits equal.

#include <cstddef>
#include <vector>

#include "fasda/interp/interp_table.hpp"
#include "fasda/md/force_field.hpp"

namespace fasda::md {

class ForceKernel {
 public:
  /// `terms` selects which RL components are computed (default LJ only,
  /// the paper's evaluation). Enabling ewald_real adds one more table read
  /// and a charge-product coefficient per pair — "nearly identical"
  /// pipelines (§2.1).
  ForceKernel(const ForceField& ff, double cutoff,
              const interp::InterpConfig& table_config,
              const ForceTerms& terms);

  /// Force magnitude over distance for a pair of elements at normalized r²
  /// (float32): multiplied by the displacement it gives the force on the
  /// first particle.
  float magnitude(float r2, ElementId ea, ElementId eb) const {
    const std::size_t bin = table14_.flat_index(r2);
    const std::size_t pair = ea * num_elements_ + eb;
    float magnitude = 0.0f;
    if (terms_.lj) {
      const PairForceCoeffs& k = coeffs_[pair];
      magnitude += k.c14 * table14_.eval_at(bin, r2) -
                   k.c8 * table8_.eval_at(bin, r2);
    }
    if (terms_.ewald_real) {
      magnitude += ewald_coeffs_[pair] * table_ew_.eval_at(bin, r2);
    }
    return magnitude;
  }

  const ForceTerms& terms() const { return terms_; }

 private:
  ForceTerms terms_;
  interp::InterpTable table14_;
  interp::InterpTable table8_;
  interp::InterpTable table_ew_;
  std::vector<PairForceCoeffs> coeffs_;
  std::vector<float> ewald_coeffs_;
  std::size_t num_elements_;
};

}  // namespace fasda::md
