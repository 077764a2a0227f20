#include "fasda/interp/interp_table.hpp"

#include <cmath>

namespace fasda::interp {

InterpTable::InterpTable(InterpConfig config)
    : config_(config), min_r2_(std::ldexp(1.0f, -config.num_sections)) {}

InterpTable InterpTable::build(const std::function<double(double)>& f,
                               const InterpConfig& config) {
  if (config.num_sections < 1 || config.num_bins < 1) {
    throw std::invalid_argument("InterpConfig must have >=1 section and bin");
  }
  // flat_index reads the exponent of a normal float: the lowest section's
  // edge 2^-ns must be one.
  if (config.num_sections > 126) {
    throw std::invalid_argument("InterpConfig must have <=126 sections");
  }
  InterpTable table(config);
  table.a_.resize(static_cast<std::size_t>(config.num_sections) * config.num_bins);
  table.b_.resize(table.a_.size());
  for (int s = 0; s < config.num_sections; ++s) {
    for (int b = 0; b < config.num_bins; ++b) {
      const double x0 = table.bin_left_edge(s, b);
      const double x1 = table.bin_left_edge(s, b + 1);
      const double f0 = f(x0);
      const double f1 = f(x1);
      const double slope = (f1 - f0) / (x1 - x0);
      const std::size_t i =
          static_cast<std::size_t>(s) * config.num_bins + b;
      table.a_[i] = static_cast<float>(slope);
      table.b_[i] = static_cast<float>(f0 - slope * x0);
    }
  }
  return table;
}

InterpTable InterpTable::build_r_pow(int alpha, const InterpConfig& config) {
  const double exponent = -static_cast<double>(alpha) / 2.0;
  return build([exponent](double r2) { return std::pow(r2, exponent); }, config);
}

double InterpTable::bin_left_edge(int section, int bin) const {
  // Section s covers [2^(s-ns), 2^(s-ns+1)); bin b starts at
  // 2^(s-ns) * (1 + b/nb).
  const double section_base = std::ldexp(1.0, section - config_.num_sections);
  return section_base *
         (1.0 + static_cast<double>(bin) / config_.num_bins);
}

TableIndex InterpTable::index_of(float r2) const {
  TableIndex idx;
  idx.below_range = !(r2 >= min_r2_);
  idx.above_range = r2 >= 1.0f;
  const std::size_t i = flat_index(r2);
  idx.section = static_cast<int>(i / config_.num_bins);
  idx.bin = static_cast<int>(i % config_.num_bins);
  return idx;
}

double InterpTable::max_relative_error(const std::function<double(double)>& f,
                                       int samples_per_bin) const {
  double worst = 0.0;
  for (int s = 0; s < config_.num_sections; ++s) {
    for (int b = 0; b < config_.num_bins; ++b) {
      const double x0 = bin_left_edge(s, b);
      const double x1 = bin_left_edge(s, b + 1);
      for (int k = 0; k < samples_per_bin; ++k) {
        const double x =
            x0 + (x1 - x0) * (k + 0.5) / samples_per_bin;
        const double exact = f(x);
        const double approx = eval(static_cast<float>(x));
        const double rel = std::abs(approx - exact) / std::abs(exact);
        if (rel > worst) worst = rel;
      }
    }
  }
  return worst;
}

}  // namespace fasda::interp
