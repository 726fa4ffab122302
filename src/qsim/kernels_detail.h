// ISA-specific kernel entry points shared between the dispatch TU
// (kernels.cpp) and the AVX2 TU (kernels_avx2.cpp, compiled with
// -mavx2 -mfma -ffp-contract=off and present only when
// QUORUM_HAVE_AVX2_KERNELS is defined for the library). Nothing outside
// those two files should include this header — dispatch goes through
// qsim/kernels.h.
#ifndef QUORUM_QSIM_KERNELS_DETAIL_H
#define QUORUM_QSIM_KERNELS_DETAIL_H

#include <cstddef>
#include <span>

#include "qsim/kernels.h"
#include "qsim/types.h"

namespace quorum::qsim::kernels::detail {

void apply_1q_scalar(amp* data, std::size_t dim, const amp* u, qubit_t q);
void apply_block_scalar(amp* data, std::size_t dim, const amp* u,
                        std::span<const qubit_t> sorted,
                        std::span<const std::size_t> offsets, amp* scratch);
void collapse_scalar(amp* data, std::size_t dim, qubit_t q, bool outcome,
                     double scale);

void apply_1q_avx2(amp* data, std::size_t dim, const amp* u, qubit_t q);
void apply_block_avx2(amp* data, std::size_t dim, const amp* u,
                      std::span<const qubit_t> sorted,
                      std::span<const std::size_t> offsets, amp* scratch);
void collapse_avx2(amp* data, std::size_t dim, qubit_t q, bool outcome,
                   double scale);
/// Density kernels take the matrix side `dim` (2^n; at least 4 for 1q and
/// 8 for cx). `factor` holds d_r * conj(d_c) for a diagonal u, indexed
/// 2 * r + c.
void density_1q_avx2(amp* rho, std::size_t dim, const amp* u, const amp* factor,
                     qubit_t q, const density_channels& noise);
void density_cx_avx2(amp* rho, std::size_t dim, qubit_t control, qubit_t target,
                     const density_channels& noise);

} // namespace quorum::qsim::kernels::detail

#endif // QUORUM_QSIM_KERNELS_DETAIL_H
