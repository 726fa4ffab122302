// Scalar reference kernels + runtime ISA dispatch. This TU is compiled
// with -ffp-contract=off (see src/CMakeLists.txt) so the reference
// semantics — one rounding per multiply, per add — cannot drift on
// targets whose baseline ISA has fused multiply-add.
#include "qsim/kernels.h"

#include <complex>
#include <cstdlib>
#include <stdexcept>

#include "qsim/bit_ops.h"
#include "qsim/kernels_detail.h"

namespace quorum::qsim::kernels {

namespace detail {

void apply_1q_scalar(amp* data, std::size_t dim, const amp* u, qubit_t q) {
    const amp u00 = u[0];
    const amp u01 = u[1];
    const amp u10 = u[2];
    const amp u11 = u[3];
    const std::size_t step = std::size_t{1} << q;
    for (std::size_t block = 0; block < dim; block += 2 * step) {
        for (std::size_t i = block; i < block + step; ++i) {
            const amp a = data[i];
            const amp b = data[i + step];
            data[i] = u00 * a + u01 * b;
            data[i + step] = u10 * a + u11 * b;
        }
    }
}

void apply_block_scalar(amp* data, std::size_t dim, const amp* u,
                        std::span<const qubit_t> sorted,
                        std::span<const std::size_t> offsets, amp* scratch) {
    const std::size_t k = sorted.size();
    const std::size_t block = std::size_t{1} << k;
    const std::size_t groups = dim >> k;
    for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t base = expand_index(g, sorted);
        for (std::size_t j = 0; j < block; ++j) {
            scratch[j] = data[base + offsets[j]];
        }
        for (std::size_t row = 0; row < block; ++row) {
            amp sum{};
            const amp* u_row = u + row * block;
            for (std::size_t col = 0; col < block; ++col) {
                sum += u_row[col] * scratch[col];
            }
            data[base + offsets[row]] = sum;
        }
    }
}

void collapse_scalar(amp* data, std::size_t dim, qubit_t q, bool outcome,
                     double scale) {
    const std::size_t mask = std::size_t{1} << q;
    for (std::size_t i = 0; i < dim; ++i) {
        const bool bit = (i & mask) != 0;
        if (bit == outcome) {
            data[i] *= scale;
        } else {
            data[i] = 0.0;
        }
    }
}

} // namespace detail

bool avx2_compiled() noexcept {
#ifdef QUORUM_HAVE_AVX2_KERNELS
    return true;
#else
    return false;
#endif
}

bool avx2_supported() noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

isa detect_isa() noexcept {
    if (!avx2_compiled() || !avx2_supported()) {
        return isa::scalar;
    }
    if (std::getenv("QUORUM_DISABLE_AVX2") != nullptr) {
        return isa::scalar;
    }
    return isa::avx2;
}

isa active_isa() noexcept {
    static const isa cached = detect_isa();
    return cached;
}

void apply_1q(amp* data, std::size_t n_qubits, const amp* u, qubit_t q,
              isa which) {
    const std::size_t dim = std::size_t{1} << n_qubits;
#ifdef QUORUM_HAVE_AVX2_KERNELS
    if (which == isa::avx2) {
        detail::apply_1q_avx2(data, dim, u, q);
        return;
    }
#else
    (void)which;
#endif
    detail::apply_1q_scalar(data, dim, u, q);
}

void apply_1q(amp* data, std::size_t n_qubits, const amp* u, qubit_t q) {
    apply_1q(data, n_qubits, u, q, active_isa());
}

void apply_block(amp* data, std::size_t n_qubits, const amp* u,
                 std::span<const qubit_t> sorted,
                 std::span<const std::size_t> offsets, amp* scratch,
                 isa which) {
    const std::size_t dim = std::size_t{1} << n_qubits;
#ifdef QUORUM_HAVE_AVX2_KERNELS
    if (which == isa::avx2) {
        detail::apply_block_avx2(data, dim, u, sorted, offsets, scratch);
        return;
    }
#else
    (void)which;
#endif
    detail::apply_block_scalar(data, dim, u, sorted, offsets, scratch);
}

void apply_block(amp* data, std::size_t n_qubits, const amp* u,
                 std::span<const qubit_t> sorted,
                 std::span<const std::size_t> offsets, amp* scratch) {
    apply_block(data, n_qubits, u, sorted, offsets, scratch, active_isa());
}

void collapse(amp* data, std::size_t n_qubits, qubit_t q, bool outcome,
              double scale, isa which) {
    const std::size_t dim = std::size_t{1} << n_qubits;
#ifdef QUORUM_HAVE_AVX2_KERNELS
    if (which == isa::avx2) {
        detail::collapse_avx2(data, dim, q, outcome, scale);
        return;
    }
#else
    (void)which;
#endif
    detail::collapse_scalar(data, dim, q, outcome, scale);
}

void collapse(amp* data, std::size_t n_qubits, qubit_t q, bool outcome,
              double scale) {
    collapse(data, n_qubits, q, outcome, scale, active_isa());
}

bool density_1q(amp* rho, std::size_t n_qubits, const amp* u, qubit_t q,
                const density_channels& noise, isa which) {
#ifdef QUORUM_HAVE_AVX2_KERNELS
    if (which == isa::avx2 && n_qubits >= 2) {
        // The diagonal gate's factors d_r * conj(d_c), formed here: in the
        // AVX2 TU the compiler may turn a std::complex product into a
        // fused vfmaddsub despite -ffp-contract=off.
        const amp factor[4] = {u[0] * std::conj(u[0]), u[0] * std::conj(u[3]),
                               u[3] * std::conj(u[0]), u[3] * std::conj(u[3])};
        detail::density_1q_avx2(rho, std::size_t{1} << n_qubits, u, factor, q,
                                noise);
        return true;
    }
#else
    (void)rho, (void)n_qubits, (void)u, (void)q, (void)noise, (void)which;
#endif
    return false;
}

bool density_1q(amp* rho, std::size_t n_qubits, const amp* u, qubit_t q,
                const density_channels& noise) {
    return density_1q(rho, n_qubits, u, q, noise, active_isa());
}

bool density_cx(amp* rho, std::size_t n_qubits, qubit_t control, qubit_t target,
                const density_channels& noise, isa which) {
#ifdef QUORUM_HAVE_AVX2_KERNELS
    if (which == isa::avx2 && n_qubits >= 3) {
        detail::density_cx_avx2(rho, std::size_t{1} << n_qubits, control,
                                target, noise);
        return true;
    }
#else
    (void)rho, (void)n_qubits, (void)control, (void)target;
    (void)noise, (void)which;
#endif
    return false;
}

bool density_cx(amp* rho, std::size_t n_qubits, qubit_t control, qubit_t target,
                const density_channels& noise) {
    return density_cx(rho, n_qubits, control, target, noise, active_isa());
}

#ifndef QUORUM_HAVE_AVX2_KERNELS
// The lane kernels live in the AVX2 unit. Without it active_isa() is
// never isa::avx2, so no caller enters them.
namespace {
[[noreturn]] void no_lane_kernels() {
    throw std::logic_error("lane kernels need the AVX2 unit");
}
} // namespace

void lanes_1q(double*, double*, std::size_t, const amp*, qubit_t) {
    no_lane_kernels();
}
void lanes_1q_each(double*, double*, std::size_t, const lane_1q_matrices&,
                   qubit_t) {
    no_lane_kernels();
}
void lanes_x(double*, double*, std::size_t, qubit_t) {
    no_lane_kernels();
}
void lanes_cx(double*, double*, std::size_t, qubit_t, qubit_t) {
    no_lane_kernels();
}
void lanes_reset(double*, double*, std::size_t, std::size_t, qubit_t,
                 double*, std::uint64_t*) {
    no_lane_kernels();
}
void lanes_overlap(const double*, const double*, const double*, const double*,
                   std::size_t, std::size_t, const double*,
                   const std::uint64_t*, double*) {
    no_lane_kernels();
}
#endif

} // namespace quorum::qsim::kernels
