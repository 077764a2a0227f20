#pragma once
// The numeric context shared by every force pipeline in a cluster: the
// filter's exclusion bounds and the pair-force kernel — interpolation tables
// plus the element-pair coefficient ROM (Fig. 6). Owned by the Simulation;
// PEs hold a const reference.

#include <cstdint>

#include "fasda/fixed/fixed_point.hpp"
#include "fasda/geom/vec3.hpp"
#include "fasda/interp/interp_table.hpp"
#include "fasda/md/force_field.hpp"
#include "fasda/md/force_kernel.hpp"

namespace fasda::pe {

class ForceModel {
 public:
  /// `terms` selects which RL components the pipelines compute (see
  /// md::ForceKernel).
  ForceModel(const md::ForceField& ff, double cutoff,
             const interp::InterpConfig& table_config,
             const md::ForceTerms& terms = {})
      : kernel_(ff, cutoff, table_config, terms),
        min_r2q_(fixed::kR2One >> table_config.num_sections) {}

  /// The filter acceptance test: inside the cutoff and above the excluded
  /// small-r region, computed on exact fixed-point r² (§3.3).
  bool filter(std::uint64_t r2q) const {
    return r2q < fixed::kR2One && r2q >= min_r2q_;
  }

  /// Force on particle `a` due to `b`, with both positions in the same
  /// cell-relative frame. Float32 datapath.
  geom::Vec3f pair_force(const fixed::FixedVec3& a, md::ElementId ea,
                         const fixed::FixedVec3& b, md::ElementId eb) const {
    const float r2 = fixed::r2_to_float(fixed::r2_fixed(a, b));
    return fixed::displacement_to_float(a, b) * kernel_.magnitude(r2, ea, eb);
  }

  std::uint64_t min_r2q() const { return min_r2q_; }
  const md::ForceTerms& terms() const { return kernel_.terms(); }

 private:
  md::ForceKernel kernel_;
  std::uint64_t min_r2q_;
};

}  // namespace fasda::pe
