#include "fasda/md/force_kernel.hpp"

#include "fasda/interp/ewald.hpp"

namespace fasda::md {

ForceKernel::ForceKernel(const ForceField& ff, double cutoff,
                         const interp::InterpConfig& table_config,
                         const ForceTerms& terms)
    : terms_(terms),
      table14_(interp::InterpTable::build_r_pow(14, table_config)),
      table8_(interp::InterpTable::build_r_pow(8, table_config)),
      table_ew_(terms.ewald_real
                    ? interp::build_ewald_force_table(terms.ewald_beta * cutoff,
                                                      table_config)
                    : interp::InterpTable::build_r_pow(2, table_config)),
      coeffs_(ff.force_coeff_table(cutoff)),
      ewald_coeffs_(ff.ewald_force_coeff_table(cutoff)),
      num_elements_(ff.num_elements()) {}

}  // namespace fasda::md
