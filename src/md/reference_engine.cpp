#include "fasda/md/reference_engine.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace fasda::md {

ReferenceEngine::ReferenceEngine(SystemState state, ForceField ff, double cutoff,
                                 double dt, std::size_t threads,
                                 ForceTerms terms)
    : state_(std::move(state)),
      ff_(std::move(ff)),
      grid_(state_.cell_dims, state_.cell_size),
      cutoff2_(cutoff * cutoff),
      dt_(dt),
      terms_(terms),
      pool_(threads) {
  if (cutoff > state_.cell_size) {
    std::ostringstream msg;
    msg << "ReferenceEngine requires cutoff <= cell_size: it walks the 13 "
           "half-shell neighbour cells only (cutoff "
        << cutoff << " Å, cell_size " << state_.cell_size << " Å)";
    throw std::invalid_argument(msg.str());
  }
  forces_.resize(state_.size());
  worker_forces_.resize(pool_.size());
  for (auto& buf : worker_forces_) buf.resize(state_.size());
  worker_pair_counts_.resize(pool_.size(), 0);
}

void ReferenceEngine::compute_forces() {
  pool_.parallel_for(cell_particles_.size(), [&](std::size_t worker,
                                                 std::size_t begin,
                                                 std::size_t end) {
    auto& f = worker_forces_[worker];
    std::fill(f.begin(), f.end(), geom::Vec3d{});
    std::size_t pairs = 0;
    for_each_pair(grid_, state_.positions, cell_particles_,
                  geom::half_shell_offsets(), cutoff2_, begin, end,
                  [&](std::uint32_t i, std::uint32_t j, const geom::Vec3d& dr,
                      double) {
                    const geom::Vec3d fij = ff_.pair_force(
                        dr, state_.elements[i], state_.elements[j], terms_);
                    f[i] += fij;
                    f[j] -= fij;
                    ++pairs;
                  });
    worker_pair_counts_[worker] = pairs;
  });

  // Parallel reduction across worker buffers.
  pool_.parallel_for(state_.size(), [&](std::size_t, std::size_t begin,
                                        std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      geom::Vec3d sum{};
      for (const auto& buf : worker_forces_) sum += buf[i];
      forces_[i] = sum;
    }
  });

  last_pair_count_ = 0;
  for (std::size_t p = 0; p < pool_.size(); ++p) {
    last_pair_count_ += worker_pair_counts_[p];
    worker_pair_counts_[p] = 0;
  }
}

void ReferenceEngine::step(int n) {
  for (int it = 0; it < n; ++it) {
    bin_particles(grid_, state_.positions, cell_particles_);
    compute_forces();
    pool_.parallel_for(state_.size(), [&](std::size_t, std::size_t begin,
                                          std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const double m = ff_.element(state_.elements[i]).mass;
        state_.velocities[i] += forces_[i] * (dt_ / m);
        state_.positions[i] = grid_.wrap_position(
            state_.positions[i] + state_.velocities[i] * dt_);
      }
    });
  }
}

double ReferenceEngine::potential_energy() {
  bin_particles(grid_, state_.positions, cell_particles_);
  std::vector<double> partial(pool_.size(), 0.0);

  pool_.parallel_for(cell_particles_.size(), [&](std::size_t worker,
                                                 std::size_t begin,
                                                 std::size_t end) {
    double pe = 0.0;
    for_each_pair(grid_, state_.positions, cell_particles_,
                  geom::half_shell_offsets(), cutoff2_, begin, end,
                  [&](std::uint32_t i, std::uint32_t j, const geom::Vec3d&,
                      double r2) {
                    pe += ff_.pair_energy(r2, state_.elements[i],
                                          state_.elements[j], terms_);
                  });
    partial[worker] += pe;
  });

  double pe = 0.0;
  for (double p : partial) pe += p;
  return pe;
}

}  // namespace fasda::md
