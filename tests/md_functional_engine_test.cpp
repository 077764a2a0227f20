#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "fasda/md/dataset.hpp"
#include "fasda/md/energy.hpp"
#include "fasda/md/functional_engine.hpp"
#include "fasda/md/reference_engine.hpp"
#include "fasda/util/crc32.hpp"

namespace fasda::md {
namespace {

SystemState small_system(geom::IVec3 dims = {3, 3, 3}, int per_cell = 16,
                         double temperature = 150.0) {
  DatasetParams p;
  p.particles_per_cell = per_cell;
  p.seed = 7;
  p.temperature = temperature;
  return generate_dataset(dims, 8.5, ForceField::sodium(), p);
}

FunctionalConfig config(std::size_t threads = 1) {
  FunctionalConfig c;
  c.cutoff = 8.5;
  c.dt = 2.0;
  c.threads = threads;
  return c;
}

TEST(FunctionalEngine, RequiresCellSizeEqualCutoff) {
  auto s = small_system();
  s.cell_size = 9.0;
  EXPECT_THROW(FunctionalEngine(s, ForceField::sodium(), config()),
               std::invalid_argument);
}

TEST(FunctionalEngine, StateRoundTripsThroughImport) {
  const auto s = small_system();
  FunctionalEngine engine(s, ForceField::sodium(), config());
  const auto out = engine.state();
  ASSERT_EQ(out.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    // Positions were generated on the fixed grid, so the round trip is exact
    // up to one quantum.
    EXPECT_NEAR(out.positions[i].x, s.positions[i].x, 1e-6);
    EXPECT_NEAR(out.positions[i].y, s.positions[i].y, 1e-6);
    EXPECT_NEAR(out.positions[i].z, s.positions[i].z, 1e-6);
    // Velocities pass through float32.
    EXPECT_NEAR(out.velocities[i].x, s.velocities[i].x, 1e-7);
  }
}

TEST(FunctionalEngine, ForcesMatchAnalyticReference) {
  const auto s = small_system();
  const auto ff = ForceField::sodium();
  FunctionalEngine engine(s, ff, config());
  engine.evaluate_forces();
  const auto approx = engine.forces_by_particle();
  const auto exact = compute_forces(engine.state(), ff, 8.5);
  double worst = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    worst = std::max(worst, (approx[i].cast<double>() - exact[i]).norm());
    scale = std::max(scale, exact[i].norm());
  }
  // Interpolation + float32 accumulation: relative error well under 1e-3.
  EXPECT_LT(worst / scale, 1e-3);
  EXPECT_GT(scale, 0.0);
}

TEST(FunctionalEngine, PairCountMatchesReference) {
  const auto s = small_system();
  FunctionalEngine engine(s, ForceField::sodium(), config());
  engine.evaluate_forces();
  EXPECT_EQ(engine.last_pair_count(), count_pairs_within_cutoff(engine.state(), 8.5));
}

TEST(FunctionalEngine, ThreadingDoesNotChangeResults) {
  const auto s = small_system();
  FunctionalEngine e1(s, ForceField::sodium(), config(1));
  FunctionalEngine e4(s, ForceField::sodium(), config(4));
  e1.step(10);
  e4.step(10);
  const auto s1 = e1.state();
  const auto s4 = e4.state();
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1.positions[i], s4.positions[i]);
    EXPECT_EQ(s1.velocities[i], s4.velocities[i]);
  }
}

TEST(FunctionalEngine, MomentumNearConserved) {
  // Float32 accumulation: momentum conserved to float precision because the
  // full-shell evaluation produces exactly antisymmetric pair forces.
  const auto s = small_system();
  const auto ff = ForceField::sodium();
  FunctionalEngine engine(s, ff, config());
  engine.step(50);
  const auto p = total_momentum(engine.state(), ff);
  const double scale = static_cast<double>(s.size());
  EXPECT_LT(p.norm() / scale, 1e-6);
}

TEST(FunctionalEngine, TracksReferenceTrajectoryShortTerm) {
  const auto s = small_system({3, 3, 3}, 32);
  const auto ff = ForceField::sodium();
  FunctionalEngine fasda(s, ff, config(2));
  ReferenceEngine reference(s, ff, 8.5, 2.0, 2);
  fasda.step(20);
  reference.step(20);
  const auto sf = fasda.state();
  const auto& sr = reference.state();
  const auto grid = s.grid();
  double worst = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    worst = std::max(worst,
                     grid.min_image(sf.positions[i], sr.positions[i]).norm());
  }
  EXPECT_LT(worst, 1e-3);  // Å after 20 steps
}

TEST(FunctionalEngine, EnergyTracksReferenceOverLongerRun) {
  // The Fig. 19 property in miniature: total energy of the FASDA trajectory
  // stays within ~1e-3 relative of the double-precision engine's.
  const auto s = small_system({3, 3, 3}, 64, 300.0);
  const auto ff = ForceField::sodium();
  FunctionalEngine fasda(s, ff, config(4));
  ReferenceEngine reference(s, ff, 8.5, 2.0, 4);
  const double scale =
      std::abs(reference.total_energy()) + reference.kinetic();
  for (int block = 0; block < 5; ++block) {
    fasda.step(100);
    reference.step(100);
    const double ef = fasda.total_energy();
    const double er = reference.total_energy();
    EXPECT_LT(std::abs(ef - er) / scale, 2e-3) << "block " << block;
  }
}

TEST(FunctionalEngine, MigrationPreservesParticleCount) {
  const auto s = small_system({3, 3, 3}, 32, 400.0);  // hot: many migrations
  FunctionalEngine engine(s, ForceField::sodium(), config(2));
  engine.step(200);
  const auto out = engine.state();
  EXPECT_EQ(out.size(), s.size());
  // Every particle position must still be inside the box.
  const auto box = out.grid().box();
  for (const auto& p : out.positions) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, box.x);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, box.y);
    EXPECT_GE(p.z, 0.0);
    EXPECT_LT(p.z, box.z);
  }
}

TEST(FunctionalEngine, InterpPotentialCloseToAnalytic) {
  const auto s = small_system();
  FunctionalEngine engine(s, ForceField::sodium(), config());
  const double via_tables = engine.interp_potential_energy();
  const double exact = engine.potential_energy();
  EXPECT_LT(std::abs(via_tables - exact) / std::abs(exact), 1e-3);
}

TEST(FunctionalEngine, CoarseTablesDegradeForceAccuracy) {
  // Ablation hook: 16 bins must be visibly worse than the default 256.
  const auto s = small_system();
  const auto ff = ForceField::sodium();
  auto coarse_cfg = config();
  coarse_cfg.table.num_bins = 16;
  FunctionalEngine coarse(s, ff, coarse_cfg);
  FunctionalEngine fine(s, ff, config());
  coarse.evaluate_forces();
  fine.evaluate_forces();
  const auto exact = compute_forces(fine.state(), ff, 8.5);
  auto worst_error = [&](const FunctionalEngine& e) {
    const auto f = e.forces_by_particle();
    double worst = 0.0;
    for (std::size_t i = 0; i < exact.size(); ++i) {
      worst = std::max(worst, (f[i].cast<double>() - exact[i]).norm());
    }
    return worst;
  };
  EXPECT_GT(worst_error(coarse), 5.0 * worst_error(fine));
}

// Bit pins for the fixed-point cell walk: forces, exported state, pair
// count and the table-interpolated energy after ten steps, with LJ only and
// with the Ewald real-space term on. The walk's visit order and the
// per-cell float32 sums fix every bit.
TEST(FunctionalEngine, BitPinnedAfterTenSteps) {
  struct Pin {
    const char* name;
    bool ewald;
    std::uint32_t forces_crc;
    std::uint32_t state_crc;
    std::size_t pairs;
    std::uint64_t interp_pe_bits;
  };
  const Pin pins[] = {
      {"lj", false, 0x62ac5b5du, 0x4d5640c7u, 12777, 0xbf9aa522a7000000u},
      {"lj+ewald_real", true, 0x1a3f323cu, 0xa3165a52u, 12589,
       0xc011b42aa6000000u},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    const auto ff =
        pin.ewald ? ForceField::sodium_chloride() : ForceField::sodium();
    DatasetParams p;
    p.particles_per_cell = 16;
    p.seed = 7;
    p.temperature = 150.0;
    p.elements = ElementAssignment::kAlternating;
    const auto s = generate_dataset({3, 3, 3}, 8.5, ff, p);
    auto cfg = config(2);
    cfg.terms.ewald_real = pin.ewald;
    cfg.terms.ewald_beta = 0.3;
    FunctionalEngine engine(s, ff, cfg);
    engine.step(10);

    util::Crc32 forces;
    for (const geom::Vec3f& f : engine.forces_by_particle()) {
      forces.add(f.x);
      forces.add(f.y);
      forces.add(f.z);
    }
    util::Crc32 state;
    const auto out = engine.state();
    for (std::size_t i = 0; i < out.size(); ++i) {
      state.add(out.positions[i].x);
      state.add(out.positions[i].y);
      state.add(out.positions[i].z);
      state.add(out.velocities[i].x);
      state.add(out.velocities[i].y);
      state.add(out.velocities[i].z);
      state.add(out.elements[i]);
    }
    const auto pe_bits =
        std::bit_cast<std::uint64_t>(engine.interp_potential_energy());
    EXPECT_EQ(forces.value(), pin.forces_crc);
    EXPECT_EQ(state.value(), pin.state_crc);
    EXPECT_EQ(engine.last_pair_count(), pin.pairs);
    EXPECT_EQ(pe_bits, pin.interp_pe_bits);
  }
}

}  // namespace
}  // namespace fasda::md
