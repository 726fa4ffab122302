// AVX2 apply kernels. Compiled with -mavx2 -mfma -ffp-contract=off and
// linked only when the build enables QUORUM_HAVE_AVX2_KERNELS; callers
// must check CPU support at runtime (kernels::active_isa) before
// entering.
//
// Bit-exactness strategy: vectorise ACROSS independent amplitude groups,
// density blocks (two per 256-bit vector, one complex value per 128-bit
// lane half) or samples (the lane kernels: four samples' re or im parts
// per vector) so that every element experiences exactly the
// reference's operation sequence — multiply, multiply, addsub for a
// complex product (one rounding each, matching (a*c - b*d, a*d + b*c)),
// then plain adds in the reference's accumulation order. No FMA
// instructions are emitted in these kernels and -ffp-contract=off keeps
// the compiler from introducing any: the results are IEEE-identical to
// the references (the scalar kernels for the statevector, the multi-pass
// density_matrix methods for the density kernels, the per-sample replay
// for the lane kernels), which tests/qsim/test_kernels.cpp,
// tests/qsim/test_density_kernels.cpp and tests/exec/test_lane_replay.cpp
// pin bit for bit. The one gap in
// -ffp-contract=off is std::complex arithmetic, which GCC's vectoriser
// may still turn into vfmaddsub, so this TU multiplies no std::complex
// values itself: setup products arrive precomputed from kernels.cpp.
#include "qsim/kernels_detail.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <complex>

#include "qsim/bit_ops.h"

namespace quorum::qsim::kernels::detail {

namespace {

/// Complex product u * x for two independent complex amplitudes packed
/// as [x0.re, x0.im, x1.re, x1.im], with u broadcast as (u_re, u_im).
/// Per lane pair this computes exactly
///   re = (x.re * u.re) - (x.im * u.im)
///   im = (x.im * u.re) + (x.re * u.im)
/// — the same three roundings, in the same order, as the scalar
/// std::complex product (multiplication operands commuted, which IEEE
/// multiplication keeps bit-identical).
inline __m256d cmul(__m256d u_re, __m256d u_im, __m256d x) {
    const __m256d t1 = _mm256_mul_pd(x, u_re);
    const __m256d xs = _mm256_permute_pd(x, 0b0101);
    const __m256d t2 = _mm256_mul_pd(xs, u_im);
    return _mm256_addsub_pd(t1, t2);
}

struct bcast {
    __m256d re;
    __m256d im;
};

inline bcast broadcast(const amp* entry) {
    const double* parts = reinterpret_cast<const double*>(entry);
    return {_mm256_broadcast_sd(parts), _mm256_broadcast_sd(parts + 1)};
}

/// Vector-path ceiling for dense blocks: 2^4 x 2^4. Larger blocks (not
/// produced by fusion; only by exotic direct apply_matrix calls) fall
/// back to the scalar reference.
constexpr std::size_t max_vector_block_qubits = 4;

} // namespace

void apply_1q_avx2(amp* data, std::size_t dim, const amp* u, qubit_t q) {
    if (dim < 4) {
        apply_1q_scalar(data, dim, u, q);
        return;
    }
    double* p = reinterpret_cast<double*>(data);
    const bcast u00 = broadcast(u + 0);
    const bcast u01 = broadcast(u + 1);
    const bcast u10 = broadcast(u + 2);
    const bcast u11 = broadcast(u + 3);
    const std::size_t step = std::size_t{1} << q;
    if (q == 0) {
        // Pairs are adjacent complex values: gather two pairs per
        // iteration and split them into an a-vector and a b-vector.
        for (std::size_t i = 0; i < dim; i += 4) {
            const __m256d v0 = _mm256_loadu_pd(p + 2 * i);
            const __m256d v1 = _mm256_loadu_pd(p + 2 * i + 4);
            const __m256d a = _mm256_permute2f128_pd(v0, v1, 0x20);
            const __m256d b = _mm256_permute2f128_pd(v0, v1, 0x31);
            const __m256d na =
                _mm256_add_pd(cmul(u00.re, u00.im, a), cmul(u01.re, u01.im, b));
            const __m256d nb =
                _mm256_add_pd(cmul(u10.re, u10.im, a), cmul(u11.re, u11.im, b));
            _mm256_storeu_pd(p + 2 * i, _mm256_permute2f128_pd(na, nb, 0x20));
            _mm256_storeu_pd(p + 2 * i + 4,
                             _mm256_permute2f128_pd(na, nb, 0x31));
        }
        return;
    }
    // step >= 2: the a-run [block, block + step) and the b-run shifted by
    // `step` are both contiguous, so two amplitude pairs load directly.
    for (std::size_t block = 0; block < dim; block += 2 * step) {
        for (std::size_t i = block; i < block + step; i += 2) {
            double* pa = p + 2 * i;
            double* pb = p + 2 * (i + step);
            const __m256d a = _mm256_loadu_pd(pa);
            const __m256d b = _mm256_loadu_pd(pb);
            const __m256d na =
                _mm256_add_pd(cmul(u00.re, u00.im, a), cmul(u01.re, u01.im, b));
            const __m256d nb =
                _mm256_add_pd(cmul(u10.re, u10.im, a), cmul(u11.re, u11.im, b));
            _mm256_storeu_pd(pa, na);
            _mm256_storeu_pd(pb, nb);
        }
    }
}

void apply_block_avx2(amp* data, std::size_t dim, const amp* u,
                      std::span<const qubit_t> sorted,
                      std::span<const std::size_t> offsets, amp* scratch) {
    const std::size_t k = sorted.size();
    const std::size_t groups = dim >> k;
    if (k < 2 || k > max_vector_block_qubits || groups < 2) {
        apply_block_scalar(data, dim, u, sorted, offsets, scratch);
        return;
    }
    const std::size_t block = std::size_t{1} << k;
    // Two groups per iteration: groups g (even) and g+1 differ only in
    // bit 0 of the group index, which expand_index maps onto the lowest
    // qubit position NOT occupied by an operand. Both groups' element j
    // therefore sit `delta` complex values apart, for every j.
    std::size_t lowest_free = 0;
    for (const qubit_t q : sorted) {
        if (q != lowest_free) {
            break;
        }
        ++lowest_free;
    }
    const std::size_t delta = std::size_t{1} << lowest_free;
    double* p = reinterpret_cast<double*>(data);
    __m256d s[std::size_t{1} << max_vector_block_qubits];
    for (std::size_t g = 0; g < groups; g += 2) {
        const std::size_t base = expand_index(g, sorted);
        for (std::size_t j = 0; j < block; ++j) {
            double* lo = p + 2 * (base + offsets[j]);
            if (delta == 1) {
                s[j] = _mm256_loadu_pd(lo);
            } else {
                s[j] = _mm256_set_m128d(_mm_loadu_pd(lo + 2 * delta),
                                        _mm_loadu_pd(lo));
            }
        }
        for (std::size_t row = 0; row < block; ++row) {
            __m256d acc = _mm256_setzero_pd();
            const amp* u_row = u + row * block;
            for (std::size_t col = 0; col < block; ++col) {
                const bcast e = broadcast(u_row + col);
                acc = _mm256_add_pd(acc, cmul(e.re, e.im, s[col]));
            }
            double* lo = p + 2 * (base + offsets[row]);
            if (delta == 1) {
                _mm256_storeu_pd(lo, acc);
            } else {
                _mm_storeu_pd(lo, _mm256_castpd256_pd128(acc));
                _mm_storeu_pd(lo + 2 * delta, _mm256_extractf128_pd(acc, 1));
            }
        }
    }
}

void collapse_avx2(amp* data, std::size_t dim, qubit_t q, bool outcome,
                   double scale) {
    if (dim < 4) {
        collapse_scalar(data, dim, q, outcome, scale);
        return;
    }
    double* p = reinterpret_cast<double*>(data);
    const __m256d vs = _mm256_set1_pd(scale);
    const __m256d vz = _mm256_setzero_pd();
    if (q == 0) {
        // Complex values alternate kept/zeroed: blend per 2-amplitude
        // vector. Zeroed amplitudes are ASSIGNED +0.0 (not multiplied),
        // exactly like the scalar reference.
        for (std::size_t i = 0; i < dim; i += 2) {
            const __m256d v = _mm256_loadu_pd(p + 2 * i);
            const __m256d scaled = _mm256_mul_pd(v, vs);
            const __m256d out = outcome ? _mm256_blend_pd(scaled, vz, 0b0011)
                                        : _mm256_blend_pd(scaled, vz, 0b1100);
            _mm256_storeu_pd(p + 2 * i, out);
        }
        return;
    }
    // Runs of 2^q complex values share the bit: scale one run, zero the
    // other. q >= 1 makes every run a whole number of 256-bit vectors.
    const std::size_t step = std::size_t{1} << q;
    for (std::size_t block = 0; block < dim; block += 2 * step) {
        const std::size_t zero_run = outcome ? block : block + step;
        const std::size_t scale_run = outcome ? block + step : block;
        for (std::size_t i = 0; i < step; i += 2) {
            _mm256_storeu_pd(p + 2 * (zero_run + i), vz);
        }
        for (std::size_t i = 0; i < step; i += 2) {
            double* pi = p + 2 * (scale_run + i);
            _mm256_storeu_pd(pi, _mm256_mul_pd(_mm256_loadu_pd(pi), vs));
        }
    }
}

namespace {

/// The next index above `index` whose `mask` bits are all clear: walks
/// the base indices of every block without a per-index test.
[[nodiscard]] constexpr std::size_t next_clear(std::size_t index,
                                               std::size_t mask) noexcept {
    return ((index | mask) + 1) & ~mask;
}

/// Where block-local index `local` of a cx block reads from: the
/// control-set indices `cbit` (target clear) and 3 (target set) trade
/// places. Local bit 0 is the lower operand, bit 1 the higher.
[[nodiscard]] constexpr std::size_t cx_source(std::size_t local,
                                              std::size_t cbit) noexcept {
    return local == cbit ? 3 : local == 3 ? cbit : local;
}

/// Splat of a real constant (complex * double scales re and im alike).
inline __m256d splat(double value) { return _mm256_set1_pd(value); }

/// u * x for a broadcast u (see cmul above).
inline __m256d cmul(const bcast& u, __m256d x) { return cmul(u.re, u.im, x); }

/// a * x + b * y, the reference's two-term complex sum, per lane.
inline __m256d cmul_add(const bcast& a, __m256d x, const bcast& b, __m256d y) {
    return _mm256_add_pd(cmul(a, x), cmul(b, y));
}

/// Per-call constants of the density kernels, broadcast once: keep is
/// 1 - p, mix the depolarizer's weight on the traced part (p/2 for 1q,
/// p/4 for cx), thermal_keep sqrt((1 - gamma)(1 - lambda)) and decay_keep
/// 1 - gamma.
struct density_constants {
    bool depolarize = false;
    bool thermal = false;
    __m256d keep;
    __m256d mix;
    __m256d thermal_keep;
    __m256d gamma;
    __m256d decay_keep;
};

density_constants make_constants(const density_channels& noise, double mix) {
    const double thermal_keep =
        std::sqrt((1.0 - noise.gamma) * (1.0 - noise.lambda));
    density_constants k;
    k.depolarize = noise.p != 0.0;
    k.thermal = noise.gamma != 0.0 || noise.lambda != 0.0;
    k.keep = splat(1.0 - noise.p);
    k.mix = splat(mix);
    k.thermal_keep = splat(thermal_keep);
    k.gamma = splat(noise.gamma);
    k.decay_keep = splat(1.0 - noise.gamma);
    return k;
}

/// Thermal relaxation on one 2x2 (qubit-bit) sub-block: coherences scale,
/// gamma * rho_11 moves into rho_00 — apply_thermal's arithmetic.
inline void thermal_2x2(const density_constants& k, __m256d& e00, __m256d& e01,
                        __m256d& e10, __m256d& e11) {
    e01 = _mm256_mul_pd(e01, k.thermal_keep);
    e10 = _mm256_mul_pd(e10, k.thermal_keep);
    e00 = _mm256_add_pd(e00, _mm256_mul_pd(e11, k.gamma));
    e11 = _mm256_mul_pd(e11, k.decay_keep);
}

/// The 1q channel on a 2x2 block [e00 e01; e10 e11], each vector holding
/// the same element of two independent blocks. factor[2 * r + c] is
/// d_r * conj(d_c) for a diagonal gate.
struct channel_1q {
    bool diagonal = false;
    bcast u[4];
    bcast conj_u[4];
    bcast factor[4];
    density_constants k;

    void operator()(__m256d& e00, __m256d& e01, __m256d& e10,
                    __m256d& e11) const {
        if (diagonal) {
            e00 = cmul(factor[0], e00);
            e01 = cmul(factor[1], e01);
            e10 = cmul(factor[2], e10);
            e11 = cmul(factor[3], e11);
        } else {
            // rho -> u rho (row axis), then rho -> rho u† (columns).
            const __m256d r00 = cmul_add(u[0], e00, u[1], e10);
            const __m256d r10 = cmul_add(u[2], e00, u[3], e10);
            const __m256d r01 = cmul_add(u[0], e01, u[1], e11);
            const __m256d r11 = cmul_add(u[2], e01, u[3], e11);
            e00 = cmul_add(conj_u[0], r00, conj_u[1], r01);
            e01 = cmul_add(conj_u[2], r00, conj_u[3], r01);
            e10 = cmul_add(conj_u[0], r10, conj_u[1], r11);
            e11 = cmul_add(conj_u[2], r10, conj_u[3], r11);
        }
        if (k.depolarize) {
            const __m256d mixed = _mm256_mul_pd(_mm256_add_pd(e00, e11), k.mix);
            e00 = _mm256_add_pd(_mm256_mul_pd(e00, k.keep), mixed);
            e11 = _mm256_add_pd(_mm256_mul_pd(e11, k.keep), mixed);
            e01 = _mm256_mul_pd(e01, k.keep);
            e10 = _mm256_mul_pd(e10, k.keep);
        }
        if (k.thermal) {
            thermal_2x2(k, e00, e01, e10, e11);
        }
    }
};

/// The noiseless diagonal gate: rho_rc *= d_r * conj(d_c), elementwise.
void density_diagonal(double* p, std::size_t dim, const amp* factor,
                      qubit_t q) {
    const std::size_t step = std::size_t{1} << q;
    for (std::size_t r = 0; r < dim; ++r) {
        const amp* row_factor = factor + ((r & step) != 0 ? 2 : 0);
        double* row = p + 2 * r * dim;
        if (q == 0) {
            // Columns alternate the bit: one vector holds both factors.
            const double* f = reinterpret_cast<const double*>(row_factor);
            const __m256d f_re = _mm256_set_pd(f[2], f[2], f[0], f[0]);
            const __m256d f_im = _mm256_set_pd(f[3], f[3], f[1], f[1]);
            for (std::size_t c = 0; c < dim; c += 2) {
                double* x = row + 2 * c;
                _mm256_storeu_pd(x, cmul(f_re, f_im, _mm256_loadu_pd(x)));
            }
            continue;
        }
        // Runs of 2^q columns share the bit, and so the factor.
        const bcast f0 = broadcast(row_factor);
        const bcast f1 = broadcast(row_factor + 1);
        for (std::size_t run = 0; run < dim; run += 2 * step) {
            for (std::size_t c = run; c < run + step; c += 2) {
                double* x = row + 2 * c;
                double* y = x + 2 * step;
                _mm256_storeu_pd(x, cmul(f0, _mm256_loadu_pd(x)));
                _mm256_storeu_pd(y, cmul(f1, _mm256_loadu_pd(y)));
            }
        }
    }
}

/// Regroups two packed pairs: v0 = [a0, a1] and v1 = [b0, b1] give
/// first = [a0, b0] and second = [a1, b1]. The shuffle is its own
/// inverse, so the same call packs them back.
inline void split_pairs(__m256d v0, __m256d v1, __m256d& first,
                        __m256d& second) {
    first = _mm256_permute2f128_pd(v0, v1, 0x20);
    second = _mm256_permute2f128_pd(v0, v1, 0x31);
}

/// Loads the complex pairs at x and x + gap (in doubles) regrouped by
/// split_pairs: element 0 of both in `first`, element 1 in `second`.
inline void load_split(const double* x, std::size_t gap, __m256d& first,
                       __m256d& second) {
    split_pairs(_mm256_loadu_pd(x), _mm256_loadu_pd(x + gap), first, second);
}

/// The inverse of load_split.
inline void store_split(double* x, std::size_t gap, __m256d first,
                        __m256d second) {
    __m256d lo;
    __m256d hi;
    split_pairs(first, second, lo, hi);
    _mm256_storeu_pd(x, lo);
    _mm256_storeu_pd(x + gap, hi);
}

/// A 4x4 density block, two independent blocks per vector, indexed
/// [row][column] by block-local index (bit 0: lower operand, bit 1:
/// higher operand).
using block4 = __m256d[4][4];

/// Thermal relaxation on block-local bit `Bit` of a 4x4 block.
template <std::size_t Bit>
inline void thermal_local(const density_constants& k, block4& e) {
    constexpr std::size_t clear[2] = {0, 3 ^ Bit};
    for (const std::size_t i : clear) {
        for (const std::size_t j : clear) {
            thermal_2x2(k, e[i][j], e[i][j | Bit], e[i | Bit][j],
                        e[i | Bit][j | Bit]);
        }
    }
}

/// One cx-channel sweep. ControlLow: the control is the lower operand
/// (block-local bit 0). Paired: the lower operand is qubit 0, so local
/// columns 0/1 and 2/3 are adjacent in memory and go through
/// load_split/store_split. The partner block starts `delta` columns on,
/// delta = 2^(the lowest qubit that is not an operand).
template <bool ControlLow, bool Paired>
void density_cx_sweep(double* p, std::size_t dim, std::size_t low,
                      std::size_t high, const density_constants& k) {
    constexpr std::size_t cbit = ControlLow ? 1 : 2;
    constexpr std::size_t tbit = 3 ^ cbit;
    constexpr std::size_t column_step = Paired ? 2 : 1;
    const std::size_t mask = low | high;
    const std::size_t delta = ~mask & (mask + 1);
    const std::size_t offset[4] = {0, low, high, mask};
    for (std::size_t r = 0; r < dim; r = next_clear(r, mask)) {
        double* rows[4];
        for (std::size_t i = 0; i < 4; ++i) {
            rows[i] = p + 2 * (r + offset[i]) * dim;
        }
        for (std::size_t c = 0; c < dim; c = next_clear(c, mask | delta)) {
            block4 m;
            for (std::size_t i = 0; i < 4; ++i) {
                for (std::size_t j = 0; j < 4; j += column_step) {
                    const double* x = rows[i] + 2 * (c + offset[j]);
                    if constexpr (Paired) {
                        load_split(x, 2 * delta, m[i][j], m[i][j + 1]);
                    } else {
                        m[i][j] = _mm256_loadu_pd(x);
                    }
                }
            }
            // The cx permutation is a pure relabelling.
            block4 e;
            for (std::size_t i = 0; i < 4; ++i) {
                for (std::size_t j = 0; j < 4; ++j) {
                    e[i][j] = m[cx_source(i, cbit)][cx_source(j, cbit)];
                }
            }
            if (k.depolarize) {
                // Tr over the operands before scaling, summed from zero in
                // ascending-offset order: depolarize's partial trace.
                __m256d sum = _mm256_setzero_pd();
                for (std::size_t a = 0; a < 4; ++a) {
                    sum = _mm256_add_pd(sum, e[a][a]);
                }
                for (auto& row : e) {
                    for (__m256d& value : row) {
                        value = _mm256_mul_pd(value, k.keep);
                    }
                }
                const __m256d contribution = _mm256_mul_pd(sum, k.mix);
                for (std::size_t a = 0; a < 4; ++a) {
                    e[a][a] = _mm256_add_pd(e[a][a], contribution);
                }
            }
            if (k.thermal) {
                thermal_local<cbit>(k, e);
                thermal_local<tbit>(k, e);
            }
            for (std::size_t i = 0; i < 4; ++i) {
                for (std::size_t j = 0; j < 4; j += column_step) {
                    double* x = rows[i] + 2 * (c + offset[j]);
                    if constexpr (Paired) {
                        store_split(x, 2 * delta, e[i][j], e[i][j + 1]);
                    } else {
                        _mm256_storeu_pd(x, e[i][j]);
                    }
                }
            }
        }
    }
}

} // namespace

void density_1q_avx2(amp* rho, std::size_t dim, const amp* u, const amp* factor,
                     qubit_t q, const density_channels& noise) {
    channel_1q channel;
    channel.diagonal = u[1] == amp{} && u[2] == amp{};
    for (std::size_t i = 0; i < 4; ++i) {
        const amp conj_u = std::conj(u[i]);
        channel.u[i] = broadcast(u + i);
        channel.conj_u[i] = broadcast(&conj_u);
        channel.factor[i] = broadcast(factor + i);
    }
    channel.k = make_constants(noise, 0.5 * noise.p);
    double* p = reinterpret_cast<double*>(rho);
    if (channel.diagonal && !channel.k.depolarize && !channel.k.thermal) {
        density_diagonal(p, dim, factor, q);
        return;
    }
    if (q == 0) {
        // A block's two columns are adjacent: the blocks at columns c and
        // c + 2 go together, each row's pairs regrouped.
        for (std::size_t r = 0; r < dim; r += 2) {
            double* row0 = p + 2 * r * dim;
            double* row1 = row0 + 2 * dim;
            for (std::size_t c = 0; c < dim; c += 4) {
                __m256d e00;
                __m256d e01;
                __m256d e10;
                __m256d e11;
                load_split(row0 + 2 * c, 4, e00, e01);
                load_split(row1 + 2 * c, 4, e10, e11);
                channel(e00, e01, e10, e11);
                store_split(row0 + 2 * c, 4, e00, e01);
                store_split(row1 + 2 * c, 4, e10, e11);
            }
        }
        return;
    }
    // q >= 1: the blocks at columns c and c + 1 load as one vector.
    const std::size_t step = std::size_t{1} << q;
    for (std::size_t r = 0; r < dim; r = next_clear(r, step)) {
        double* row0 = p + 2 * r * dim;
        double* row1 = row0 + 2 * step * dim;
        for (std::size_t c = 0; c < dim; c = next_clear(c, step | 1)) {
            double* x00 = row0 + 2 * c;
            double* x01 = x00 + 2 * step;
            double* x10 = row1 + 2 * c;
            double* x11 = x10 + 2 * step;
            __m256d e00 = _mm256_loadu_pd(x00);
            __m256d e01 = _mm256_loadu_pd(x01);
            __m256d e10 = _mm256_loadu_pd(x10);
            __m256d e11 = _mm256_loadu_pd(x11);
            channel(e00, e01, e10, e11);
            _mm256_storeu_pd(x00, e00);
            _mm256_storeu_pd(x01, e01);
            _mm256_storeu_pd(x10, e10);
            _mm256_storeu_pd(x11, e11);
        }
    }
}

void density_cx_avx2(amp* rho, std::size_t dim, qubit_t control, qubit_t target,
                     const density_channels& noise) {
    const std::size_t cmask = std::size_t{1} << control;
    const std::size_t tmask = std::size_t{1} << target;
    const std::size_t low = cmask < tmask ? cmask : tmask;
    const std::size_t high = cmask ^ tmask ^ low;
    const density_constants k = make_constants(noise, noise.p / 4.0);
    double* p = reinterpret_cast<double*>(rho);
    if (cmask < tmask && low == 1) {
        density_cx_sweep<true, true>(p, dim, low, high, k);
    } else if (cmask < tmask) {
        density_cx_sweep<true, false>(p, dim, low, high, k);
    } else if (low == 1) {
        density_cx_sweep<false, true>(p, dim, low, high, k);
    } else {
        density_cx_sweep<false, false>(p, dim, low, high, k);
    }
}

} // namespace quorum::qsim::kernels::detail

namespace quorum::qsim::kernels {

namespace {

static_assert(lane_width % 4 == 0, "a lane row is whole 256-bit vectors");

inline __m256d load(const double* p) { return _mm256_loadu_pd(p); }
inline void store(double* p, __m256d v) { _mm256_storeu_pd(p, v); }

/// Row `row` of a lane array.
inline double* lane_row(double* base, std::size_t row) {
    return base + row * lane_width;
}
inline const double* lane_row(const double* base, std::size_t row) {
    return base + row * lane_width;
}

/// Real and imaginary parts of u * x, u broadcast as (ur, ui):
/// (u.re x.re - u.im x.im, u.re x.im + u.im x.re).
inline __m256d product_re(__m256d ur, __m256d ui, __m256d xr, __m256d xi) {
    return _mm256_sub_pd(_mm256_mul_pd(ur, xr), _mm256_mul_pd(ui, xi));
}
inline __m256d product_im(__m256d ur, __m256d ui, __m256d xr, __m256d xi) {
    return _mm256_add_pd(_mm256_mul_pd(ur, xi), _mm256_mul_pd(ui, xr));
}

void swap_rows(double* re, double* im, std::size_t a, std::size_t b) {
    for (std::size_t v = 0; v < lane_width; v += 4) {
        double* ra = lane_row(re, a) + v;
        double* rb = lane_row(re, b) + v;
        double* ia = lane_row(im, a) + v;
        double* ib = lane_row(im, b) + v;
        const __m256d tr = load(ra);
        const __m256d ti = load(ia);
        store(ra, load(rb));
        store(ia, load(ib));
        store(rb, tr);
        store(ib, ti);
    }
}

/// One matrix for every lane: entry e broadcast as (re(e), im(e)).
struct shared_matrix {
    __m256d r[4];
    __m256d i[4];

    explicit shared_matrix(const amp* u) {
        const double* parts = reinterpret_cast<const double*>(u);
        for (std::size_t e = 0; e < 4; ++e) {
            r[e] = _mm256_set1_pd(parts[2 * e]);
            i[e] = _mm256_set1_pd(parts[2 * e + 1]);
        }
    }
    [[nodiscard]] __m256d re(std::size_t e, std::size_t) const { return r[e]; }
    [[nodiscard]] __m256d im(std::size_t e, std::size_t) const { return i[e]; }
};

/// A matrix per lane: entry e of lanes [v, v + 4).
struct per_lane_matrix {
    const lane_1q_matrices& u;

    [[nodiscard]] __m256d re(std::size_t e, std::size_t v) const {
        return load(u.re[e] + v);
    }
    [[nodiscard]] __m256d im(std::size_t e, std::size_t v) const {
        return load(u.im[e] + v);
    }
};

/// lanes_1q's loop over a matrix source, so both kernels run one
/// expression per output.
template <typename Matrix>
void lanes_1q_with(double* re, double* im, std::size_t rows, const Matrix& u,
                   qubit_t q) {
    const std::size_t step = std::size_t{1} << q;
    for (std::size_t block = 0; block < rows; block += 2 * step) {
        for (std::size_t i = block; i < block + step; ++i) {
            for (std::size_t v = 0; v < lane_width; v += 4) {
                double* par = lane_row(re, i) + v;
                double* pai = lane_row(im, i) + v;
                double* pbr = lane_row(re, i + step) + v;
                double* pbi = lane_row(im, i + step) + v;
                const __m256d ar = load(par);
                const __m256d ai = load(pai);
                const __m256d br = load(pbr);
                const __m256d bi = load(pbi);
                store(par, _mm256_add_pd(
                               product_re(u.re(0, v), u.im(0, v), ar, ai),
                               product_re(u.re(1, v), u.im(1, v), br, bi)));
                store(pai, _mm256_add_pd(
                               product_im(u.re(0, v), u.im(0, v), ar, ai),
                               product_im(u.re(1, v), u.im(1, v), br, bi)));
                store(pbr, _mm256_add_pd(
                               product_re(u.re(2, v), u.im(2, v), ar, ai),
                               product_re(u.re(3, v), u.im(3, v), br, bi)));
                store(pbi, _mm256_add_pd(
                               product_im(u.re(2, v), u.im(2, v), ar, ai),
                               product_im(u.re(3, v), u.im(3, v), br, bi)));
            }
        }
    }
}

} // namespace

void lanes_1q(double* re, double* im, std::size_t rows, const amp* u,
              qubit_t q) {
    lanes_1q_with(re, im, rows, shared_matrix(u), q);
}

void lanes_1q_each(double* re, double* im, std::size_t rows,
                   const lane_1q_matrices& u, qubit_t q) {
    lanes_1q_with(re, im, rows, per_lane_matrix{u}, q);
}

void lanes_x(double* re, double* im, std::size_t rows, qubit_t q) {
    const std::size_t step = std::size_t{1} << q;
    for (std::size_t block = 0; block < rows; block += 2 * step) {
        for (std::size_t i = block; i < block + step; ++i) {
            swap_rows(re, im, i, i + step);
        }
    }
}

void lanes_cx(double* re, double* im, std::size_t rows, qubit_t control,
              qubit_t target) {
    const std::size_t cmask = std::size_t{1} << control;
    const std::size_t tmask = std::size_t{1} << target;
    for (std::size_t i = 0; i < rows; ++i) {
        if ((i & cmask) != 0 && (i & tmask) == 0) {
            swap_rows(re, im, i, i | tmask);
        }
    }
}

void lanes_reset(double* re, double* im, std::size_t dim, std::size_t slots,
                 qubit_t q, double* weight, std::uint64_t* alive) {
    const std::size_t mask = std::size_t{1} << q;
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d epsilon = _mm256_set1_pd(probability_epsilon);
    const __m256d zero = _mm256_setzero_pd();
    double* alive_bits = reinterpret_cast<double*>(alive);
    // Parents in descending order: branch s writes branches 2s and 2s + 1,
    // which are either free or parents already split; branch 0 writes its
    // outcome-1 child before overwriting itself with the outcome-0 child.
    for (std::size_t s = slots; s-- > 0;) {
        const std::size_t parent = s * dim;
        const std::size_t child0 = 2 * s * dim;
        const std::size_t child1 = child0 + dim;
        for (std::size_t v = 0; v < lane_width; v += 4) {
            __m256d p_one = zero;
            for (std::size_t i = 0; i < dim; ++i) {
                if ((i & mask) != 0) {
                    const __m256d r = load(lane_row(re, parent + i) + v);
                    const __m256d m = load(lane_row(im, parent + i) + v);
                    p_one = _mm256_add_pd(
                        p_one, _mm256_add_pd(_mm256_mul_pd(r, r),
                                             _mm256_mul_pd(m, m)));
                }
            }
            const __m256d p_zero = _mm256_sub_pd(one, p_one);
            const __m256d w = load(weight + s * lane_width + v);
            const __m256d live = load(alive_bits + s * lane_width + v);
            const __m256d scale0 = _mm256_div_pd(one, _mm256_sqrt_pd(p_zero));
            const __m256d scale1 = _mm256_div_pd(one, _mm256_sqrt_pd(p_one));
            store(weight + (2 * s) * lane_width + v,
                  _mm256_mul_pd(w, p_zero));
            store(weight + (2 * s + 1) * lane_width + v,
                  _mm256_mul_pd(w, p_one));
            store(alive_bits + (2 * s) * lane_width + v,
                  _mm256_and_pd(live,
                                _mm256_cmp_pd(p_zero, epsilon, _CMP_GT_OQ)));
            store(alive_bits + (2 * s + 1) * lane_width + v,
                  _mm256_and_pd(live,
                                _mm256_cmp_pd(p_one, epsilon, _CMP_GT_OQ)));
            // Outcome 1, then x on q: row i (bit clear) takes the scaled
            // amplitude of row i | mask, and row i | mask is +0.0.
            for (std::size_t i = 0; i < dim; ++i) {
                if ((i & mask) == 0) {
                    const std::size_t from = parent + (i | mask);
                    store(lane_row(re, child1 + i) + v,
                          _mm256_mul_pd(load(lane_row(re, from) + v), scale1));
                    store(lane_row(im, child1 + i) + v,
                          _mm256_mul_pd(load(lane_row(im, from) + v), scale1));
                    store(lane_row(re, child1 + (i | mask)) + v, zero);
                    store(lane_row(im, child1 + (i | mask)) + v, zero);
                }
            }
            // Outcome 0: bit-clear rows scaled, bit-set rows +0.0.
            for (std::size_t i = 0; i < dim; ++i) {
                double* r = lane_row(re, child0 + i) + v;
                double* m = lane_row(im, child0 + i) + v;
                if ((i & mask) == 0) {
                    const double* from_r = lane_row(re, parent + i) + v;
                    const double* from_m = lane_row(im, parent + i) + v;
                    store(r, _mm256_mul_pd(load(from_r), scale0));
                    store(m, _mm256_mul_pd(load(from_m), scale0));
                } else {
                    store(r, zero);
                    store(m, zero);
                }
            }
        }
    }
}

void lanes_overlap(const double* chi_re, const double* chi_im,
                   const double* re, const double* im, std::size_t dim,
                   std::size_t slots, const double* weight,
                   const std::uint64_t* alive, double* fidelity) {
    const double* alive_bits = reinterpret_cast<const double*>(alive);
    for (std::size_t v = 0; v < lane_width; v += 4) {
        __m256d sum = _mm256_setzero_pd();
        for (std::size_t s = 0; s < slots; ++s) {
            __m256d inner_re = _mm256_setzero_pd();
            __m256d inner_im = _mm256_setzero_pd();
            for (std::size_t i = 0; i < dim; ++i) {
                const __m256d cr = load(lane_row(chi_re, i) + v);
                const __m256d ci = load(lane_row(chi_im, i) + v);
                const __m256d br = load(lane_row(re, s * dim + i) + v);
                const __m256d bi = load(lane_row(im, s * dim + i) + v);
                // conj(c) * b = (c.re b.re - (-c.im) b.im,
                //                c.re b.im + (-c.im) b.re), which IEEE
                // arithmetic rounds exactly as the sum and difference below.
                inner_re = _mm256_add_pd(
                    inner_re, _mm256_add_pd(_mm256_mul_pd(cr, br),
                                            _mm256_mul_pd(ci, bi)));
                inner_im = _mm256_add_pd(
                    inner_im, _mm256_sub_pd(_mm256_mul_pd(cr, bi),
                                            _mm256_mul_pd(ci, br)));
            }
            const __m256d norm =
                _mm256_add_pd(_mm256_mul_pd(inner_re, inner_re),
                              _mm256_mul_pd(inner_im, inner_im));
            const __m256d next = _mm256_add_pd(
                sum, _mm256_mul_pd(load(weight + s * lane_width + v), norm));
            sum = _mm256_blendv_pd(sum, next,
                                   load(alive_bits + s * lane_width + v));
        }
        store(fidelity + v, sum);
    }
}

} // namespace quorum::qsim::kernels

#endif // __AVX2__ && __FMA__
