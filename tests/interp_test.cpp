#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>

#include "fasda/interp/ewald.hpp"
#include "fasda/interp/interp_table.hpp"
#include "fasda/pe/force_model.hpp"
#include "fasda/util/rng.hpp"

namespace fasda::interp {
namespace {

TEST(InterpTable, IndexSectionMatchesEq9) {
  const InterpConfig cfg{.num_sections = 14, .num_bins = 256};
  const auto table = InterpTable::build_r_pow(8, cfg);
  // r² in [0.5, 1) is the top section ns-1; [0.25, 0.5) is ns-2; etc.
  EXPECT_EQ(table.index_of(0.75f).section, 13);
  EXPECT_EQ(table.index_of(0.5f).section, 13);
  EXPECT_EQ(table.index_of(0.49f).section, 12);
  EXPECT_EQ(table.index_of(0.26f).section, 12);
  EXPECT_EQ(table.index_of(std::ldexp(1.5f, -14)).section, 0);
}

TEST(InterpTable, IndexBinMatchesEq10) {
  const InterpConfig cfg{.num_sections = 4, .num_bins = 8};
  const auto table = InterpTable::build_r_pow(8, cfg);
  // Section covering [0.5, 1): bins of width 1/16.
  EXPECT_EQ(table.index_of(0.5f).bin, 0);
  EXPECT_EQ(table.index_of(0.5f + 0.062f).bin, 0);
  EXPECT_EQ(table.index_of(0.5f + 0.0626f).bin, 1);
  EXPECT_EQ(table.index_of(0.99f).bin, 7);
}

TEST(InterpTable, FlagsOutOfRangeInputs) {
  const InterpConfig cfg{.num_sections = 6, .num_bins = 16};
  const auto table = InterpTable::build_r_pow(14, cfg);
  EXPECT_TRUE(table.index_of(std::ldexp(0.9f, -6)).below_range);
  EXPECT_TRUE(table.index_of(0.0f).below_range);
  EXPECT_TRUE(table.index_of(1.0f).above_range);
  EXPECT_TRUE(table.index_of(2.0f).above_range);
  EXPECT_FALSE(table.index_of(0.5f).below_range);
  EXPECT_FALSE(table.index_of(0.5f).above_range);
}

TEST(InterpTable, ExactAtBinEndpoints) {
  const InterpConfig cfg{.num_sections = 8, .num_bins = 32};
  const auto table = InterpTable::build_r_pow(8, cfg);
  // At a bin's left edge the linear fit passes through f exactly (up to
  // float32 coefficient rounding).
  for (int s = 0; s < cfg.num_sections; ++s) {
    const double base = std::ldexp(1.0, s - cfg.num_sections);
    for (int b = 0; b < cfg.num_bins; b += 7) {
      const double x = base * (1.0 + static_cast<double>(b) / cfg.num_bins);
      const double exact = std::pow(x, -4.0);
      EXPECT_NEAR(table.eval(static_cast<float>(x)), exact, 2e-6 * exact);
    }
  }
}

// Property sweep over interpolation depth: error shrinks ~quadratically with
// bin count; the default (14, 256) is comfortably below float32 resolution
// demands of the force pipeline. DepthCase has no padding bytes: gtest names
// each case by a byte dump of its parameter, and padding would put stack
// garbage into the test name.
struct DepthCase {
  std::int64_t bins;
  double max_rel_error;
};
static_assert(sizeof(DepthCase) == sizeof(std::int64_t) + sizeof(double));

class InterpDepth : public ::testing::TestWithParam<DepthCase> {};

TEST_P(InterpDepth, R14ErrorBelowBound) {
  const auto [bins, bound] = GetParam();
  const InterpConfig cfg{.num_sections = 14,
                         .num_bins = static_cast<int>(bins)};
  const auto table = InterpTable::build_r_pow(14, cfg);
  const double err = table.max_relative_error(
      [](double x) { return std::pow(x, -7.0); }, 8);
  EXPECT_LT(err, bound);
}

INSTANTIATE_TEST_SUITE_P(Sweep, InterpDepth,
                         ::testing::Values(DepthCase{16, 4e-2},
                                           DepthCase{64, 2.5e-3},
                                           DepthCase{256, 2e-4},
                                           DepthCase{1024, 2e-5}));

class InterpAlpha : public ::testing::TestWithParam<int> {};

TEST_P(InterpAlpha, DefaultDepthAccurate) {
  const int alpha = GetParam();
  const auto table = InterpTable::build_r_pow(alpha, InterpConfig{});
  const double err = table.max_relative_error(
      [alpha](double x) { return std::pow(x, -alpha / 2.0); }, 8);
  EXPECT_LT(err, 2e-4) << "alpha=" << alpha;
}

INSTANTIATE_TEST_SUITE_P(LJExponents, InterpAlpha, ::testing::Values(6, 8, 12, 14));

TEST(InterpTable, SupportsArbitraryForceModels) {
  // The paper claims different force models need only a table swap; check a
  // non-LJ kernel (screened Coulomb-like) interpolates equally well.
  const auto f = [](double r2) {
    const double r = std::sqrt(r2);
    return std::exp(-3.0 * r) / r;
  };
  const auto table = InterpTable::build(f, InterpConfig{});
  EXPECT_LT(table.max_relative_error(f, 8), 1e-5);
}

TEST(InterpTable, EvalClampsOutOfRange) {
  const auto table = InterpTable::build_r_pow(8, InterpConfig{});
  EXPECT_GT(table.eval(std::ldexp(1.0f, -20)), 0.0f);  // clamps, stays finite
  EXPECT_NEAR(table.eval(1.0f), 1.0f, 2e-2);           // top bin extrapolation
}

TEST(InterpTable, StorageBitsCountsCoefficients) {
  const InterpConfig cfg{.num_sections = 4, .num_bins = 8};
  const auto table = InterpTable::build_r_pow(8, cfg);
  EXPECT_EQ(table.storage_bits(), 4u * 8u * 2u * 32u);
}

TEST(InterpTable, RejectsEmptyConfig) {
  EXPECT_THROW(InterpTable::build_r_pow(8, InterpConfig{.num_sections = 0,
                                                        .num_bins = 8}),
               std::invalid_argument);
  EXPECT_THROW(InterpTable::build_r_pow(8, InterpConfig{.num_sections = 4,
                                                        .num_bins = 0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------- fused index

// The frexp formulation of Eqs. 9-10 that flat_index replaced, kept as the
// reference the bit-level index must reproduce exactly: r² = m·2^e with m
// in [0.5, 1), so the section is e − 1 + n_s and the bin (2m − 1)·n_b.
std::size_t frexp_index(float r2, const InterpConfig& cfg) {
  if (!(r2 > 0.0f) || r2 < std::ldexp(1.0f, -cfg.num_sections)) return 0;
  if (r2 >= 1.0f) {
    return static_cast<std::size_t>(cfg.num_sections) * cfg.num_bins - 1;
  }
  int exponent = 0;
  const float mantissa = std::frexp(r2, &exponent);
  const int section = exponent - 1 + cfg.num_sections;
  int bin = static_cast<int>((2.0f * mantissa - 1.0f) * cfg.num_bins);
  if (bin >= cfg.num_bins) bin = cfg.num_bins - 1;
  return static_cast<std::size_t>(section) * cfg.num_bins + bin;
}

void expect_fused_matches_frexp(const InterpTable& table, float r2) {
  const InterpConfig& cfg = table.config();
  const std::size_t want = frexp_index(r2, cfg);
  ASSERT_EQ(table.flat_index(r2), want) << "r2=" << r2;
  const TableIndex idx = table.index_of(r2);
  ASSERT_EQ(static_cast<std::size_t>(idx.section) * cfg.num_bins + idx.bin,
            want)
      << "r2=" << r2;
  ASSERT_EQ(std::bit_cast<std::uint32_t>(table.eval(r2)),
            std::bit_cast<std::uint32_t>(table.eval_at(want, r2)))
      << "r2=" << r2;
}

class FusedIndex : public ::testing::TestWithParam<InterpConfig> {};

// The index reads a normal float's exponent, so the table's lower edge
// 2^-ns must itself be normal.
TEST(FusedIndex, RejectsSectionsBelowTheNormalFloats) {
  EXPECT_NO_THROW(InterpTable::build_r_pow(8, InterpConfig{.num_sections = 126,
                                                           .num_bins = 1}));
  EXPECT_THROW(InterpTable::build_r_pow(8, InterpConfig{.num_sections = 127,
                                                        .num_bins = 1}),
               std::invalid_argument);
}

TEST_P(FusedIndex, MatchesFrexpAtEveryBinEdge) {
  const InterpConfig cfg = GetParam();
  const auto table = InterpTable::build_r_pow(14, cfg);
  for (int s = 0; s < cfg.num_sections; ++s) {
    const double base = std::ldexp(1.0, s - cfg.num_sections);
    for (int b = 0; b <= cfg.num_bins; ++b) {
      const auto edge = static_cast<float>(
          base * (1.0 + static_cast<double>(b) / cfg.num_bins));
      expect_fused_matches_frexp(table, edge);
      expect_fused_matches_frexp(table, std::nextafter(edge, 0.0f));
      expect_fused_matches_frexp(table, std::nextafter(edge, 2.0f));
    }
  }
}

TEST_P(FusedIndex, MatchesFrexpOnRandomFloats) {
  const InterpConfig cfg = GetParam();
  const auto table = InterpTable::build_r_pow(8, cfg);
  std::mt19937 rng(0xF5DAu + static_cast<unsigned>(cfg.num_bins));
  std::uniform_real_distribution<float> linear(0.0f, 2.0f);
  // Half uniform in value (mostly the top sections), half uniform in the
  // exponent across the table's sections and just beyond (every section).
  std::uniform_int_distribution<int> exponent(-cfg.num_sections - 2, 0);
  std::uniform_int_distribution<std::uint32_t> mantissa(0, 0x7FFFFFu);
  for (int i = 0; i < 500000; ++i) {
    float r2 = linear(rng);
    if (r2 <= 0.0f) r2 = std::numeric_limits<float>::min();
    expect_fused_matches_frexp(table, r2);
    const auto bits = static_cast<std::uint32_t>(exponent(rng) + 127) << 23 |
                      mantissa(rng);
    expect_fused_matches_frexp(table, std::bit_cast<float>(bits));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FusedIndex,
    ::testing::Values(InterpConfig{.num_sections = 14, .num_bins = 256},
                      InterpConfig{.num_sections = 10, .num_bins = 100},
                      InterpConfig{.num_sections = 1, .num_bins = 1}),
    [](const ::testing::TestParamInfo<InterpConfig>& info) {
      return std::to_string(info.param.num_sections) + "x" +
             std::to_string(info.param.num_bins);
    });

// ForceModel reads all three tables through one fused index; with the Ewald
// term on, every pair must still equal the unfused three-eval formula bit for
// bit.
TEST(FusedIndex, PairForceEqualsUnfusedThreeTableFormula) {
  const md::ForceField ff = md::ForceField::sodium_chloride();
  const double cutoff = 8.5;
  const InterpConfig cfg{};
  const md::ForceTerms terms{.lj = true, .ewald_real = true};
  const pe::ForceModel model(ff, cutoff, cfg, terms);
  const auto t14 = InterpTable::build_r_pow(14, cfg);
  const auto t8 = InterpTable::build_r_pow(8, cfg);
  const auto tew = build_ewald_force_table(terms.ewald_beta * cutoff, cfg);
  const auto coeffs = ff.force_coeff_table(cutoff);
  const auto ewald = ff.ewald_force_coeff_table(cutoff);
  const std::size_t n = ff.num_elements();

  std::mt19937 rng(7);
  std::uniform_real_distribution<double> frac(0.0, 1.0);
  std::uniform_int_distribution<int> rcid(1, 3);
  std::uniform_int_distribution<int> elem(0, static_cast<int>(n) - 1);
  auto coord = [&](int cell) {
    return fixed::FixedCoord::from_cell_offset(cell, frac(rng));
  };
  int in_range = 0;
  for (int i = 0; i < 200000; ++i) {
    const fixed::FixedVec3 a{coord(2), coord(2), coord(2)};
    const fixed::FixedVec3 b{coord(rcid(rng)), coord(rcid(rng)),
                             coord(rcid(rng))};
    const auto ea = static_cast<md::ElementId>(elem(rng));
    const auto eb = static_cast<md::ElementId>(elem(rng));
    const std::uint64_t r2q = fixed::r2_fixed(a, b);
    if (model.filter(r2q)) ++in_range;
    const float r2 = fixed::r2_to_float(r2q);
    float magnitude = 0.0f;
    const md::PairForceCoeffs& k = coeffs[ea * n + eb];
    magnitude += k.c14 * t14.eval(r2) - k.c8 * t8.eval(r2);
    magnitude += ewald[ea * n + eb] * tew.eval(r2);
    const geom::Vec3f want = fixed::displacement_to_float(a, b) * magnitude;
    const geom::Vec3f got = model.pair_force(a, ea, b, eb);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.x),
              std::bit_cast<std::uint32_t>(want.x)) << "pair " << i;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.y),
              std::bit_cast<std::uint32_t>(want.y)) << "pair " << i;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.z),
              std::bit_cast<std::uint32_t>(want.z)) << "pair " << i;
  }
  EXPECT_GT(in_range, 10000) << "too few pairs inside the cutoff";
}

}  // namespace
}  // namespace fasda::interp
