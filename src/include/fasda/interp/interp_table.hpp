#pragma once
// Force table-lookup interpolation (§3.4, Eqs. 8-10, Fig. 7).
//
// Instead of computing r^-α directly (α = 14, 8 for the LJ force; 12, 6 for
// the potential), the hardware evaluates f(r²) by piecewise-linear
// interpolation:   f(r²) ≈ a(s,b)·r² + b(s,b)
// where the section index s comes from the exponent bits of the float32 r²
// (Eq. 9) and the bin index b from its mantissa bits (Eq. 10). With the
// cutoff radius normalized to 1, valid r² lies in (0, 1], so sections cover
// [2^-ns, 1) and the region below 2^-ns is excluded as non-physically high
// energy (Fig. 7).
//
// Tables are built for arbitrary f, which is how the paper supports
// "different force models with trivial modification".

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

namespace fasda::interp {

struct InterpConfig {
  int num_sections = 14;  ///< n_s: sections below r² = 1, one per exponent
  int num_bins = 256;     ///< n_b: equal-width bins per section

  bool operator==(const InterpConfig&) const = default;
};

/// Section/bin index pair for a given r² (float32 semantics).
struct TableIndex {
  int section = 0;
  int bin = 0;
  bool below_range = false;  ///< r² < 2^-ns: excluded small-r region
  bool above_range = false;  ///< r² >= 1: beyond the cutoff
};

class InterpTable {
 public:
  /// Builds a table for f over (0, 1]; f is sampled in double precision and
  /// coefficients are stored as float32, exactly like coefficient BRAMs.
  static InterpTable build(const std::function<double(double)>& f,
                           const InterpConfig& config);

  /// Convenience: f(r²) = r^-alpha = (r²)^(-alpha/2).
  static InterpTable build_r_pow(int alpha, const InterpConfig& config);

  const InterpConfig& config() const { return config_; }

  /// Computes the section/bin index of a float32 r² (Eqs. 9-10).
  TableIndex index_of(float r2) const;

  /// The section/bin index flattened row-major, read straight off the
  /// float's bits (r² = 1.m · 2^e): the section is e + n_s (Eq. 9) and the
  /// bin is (1.m − 1)·n_b (Eq. 10). Out-of-range inputs clamp to the
  /// nearest bin (the hardware filter guarantees in-range inputs; the clamp
  /// keeps the functional model total). Every table built from the same
  /// InterpConfig shares the index, so a pipeline computes it once per pair
  /// and reads each of its tables with eval_at.
  std::size_t flat_index(float r2) const {
    if (!(r2 >= min_r2_)) return 0;  // below range, zero, negative or NaN
    if (r2 >= 1.0f) return a_.size() - 1;
    const auto bits = std::bit_cast<std::uint32_t>(r2);
    const int section =
        static_cast<int>(bits >> 23) - 127 + config_.num_sections;
    // 1.m: the mantissa bits under a zero exponent.
    const float mantissa =
        std::bit_cast<float>((bits & 0x007FFFFFu) | 0x3F800000u);
    int bin = static_cast<int>((mantissa - 1.0f) * config_.num_bins);
    if (bin >= config_.num_bins) bin = config_.num_bins - 1;
    return static_cast<std::size_t>(section) * config_.num_bins + bin;
  }

  /// Evaluates the Eq. 8 line of flat bin `i` at r² in float32.
  float eval_at(std::size_t i, float r2) const { return a_[i] * r2 + b_[i]; }

  /// eval_at(flat_index(r2), r2).
  float eval(float r2) const { return eval_at(flat_index(r2), r2); }

  /// Maximum |eval - f| / |f| over `samples_per_bin` probes per bin,
  /// restricted to the covered range. Used by accuracy tests/ablation.
  double max_relative_error(const std::function<double(double)>& f,
                            int samples_per_bin = 8) const;

  /// Coefficient storage footprint in bits (two float32 per bin), used by
  /// the resource model.
  std::uint64_t storage_bits() const {
    return static_cast<std::uint64_t>(a_.size()) * 2 * 32;
  }

 private:
  explicit InterpTable(InterpConfig config);

  double bin_left_edge(int section, int bin) const;

  InterpConfig config_;
  float min_r2_;  ///< 2^-ns: the table's lower edge
  // Row-major [section][bin]; a_ and b_ are the Eq. 8 coefficient arrays.
  std::vector<float> a_;
  std::vector<float> b_;
};

}  // namespace fasda::interp
