// Scalar-vs-AVX2 bit-exactness suite for the kernel layer. Every
// comparison here is IEEE == on the raw double bits: the AVX2 kernels are
// contractually bit-identical to the scalar reference (qsim/kernels.h),
// which is what keeps the golden fixtures stable across ISAs.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "qsim/bit_ops.h"
#include "qsim/kernels.h"
#include "qsim/statevector.h"
#include "util/rng.h"

namespace {

using quorum::qsim::amp;
using quorum::qsim::make_offsets;
using quorum::qsim::qubit_t;
namespace kernels = quorum::qsim::kernels;

bool both_isas_available() {
    return kernels::avx2_compiled() && kernels::avx2_supported();
}

std::vector<amp> random_state(std::size_t dim, quorum::util::rng& gen) {
    std::vector<amp> state(dim);
    for (amp& a : state) {
        a = amp{gen.uniform(-1.0, 1.0), gen.uniform(-1.0, 1.0)};
    }
    return state;
}

std::vector<amp> random_matrix(std::size_t block, quorum::util::rng& gen) {
    return random_state(block * block, gen);
}

/// Bit-pattern equality (distinguishes -0.0 from +0.0 and compares NaN
/// payloads, unlike operator==) — the strongest form of "identical".
::testing::AssertionResult bits_equal(const std::vector<amp>& a,
                                      const std::vector<amp>& b) {
    if (a.size() != b.size()) {
        return ::testing::AssertionFailure() << "size mismatch";
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto re_a = std::bit_cast<std::uint64_t>(a[i].real());
        const auto re_b = std::bit_cast<std::uint64_t>(b[i].real());
        const auto im_a = std::bit_cast<std::uint64_t>(a[i].imag());
        const auto im_b = std::bit_cast<std::uint64_t>(b[i].imag());
        if (re_a != re_b || im_a != im_b) {
            return ::testing::AssertionFailure()
                   << "amplitude " << i << " differs: (" << a[i].real() << ", "
                   << a[i].imag() << ") vs (" << b[i].real() << ", "
                   << b[i].imag() << ")";
        }
    }
    return ::testing::AssertionSuccess();
}

/// Operand sets exercising every layout regime at a given n: adjacent low
/// (contiguous 256-bit loads), high/wrapping (strided pairs), mixed
/// strides, and permuted (unsorted) declaration order.
std::vector<std::vector<qubit_t>> operand_sets(std::size_t n, std::size_t k) {
    std::vector<std::vector<qubit_t>> sets;
    if (n < k) {
        return sets;
    }
    const auto hi = static_cast<qubit_t>(n - 1);
    if (k == 2) {
        sets.push_back({0, 1});
        if (n >= 3) {
            sets.push_back({0, hi});            // max stride
            sets.push_back({hi, 0});            // permuted order
            sets.push_back({1, 2});             // off-origin adjacent
        }
        if (n >= 4) {
            sets.push_back({static_cast<qubit_t>(hi - 1), hi}); // top pair
        }
    } else if (k == 3) {
        sets.push_back({0, 1, 2});
        if (n >= 4) {
            sets.push_back({0, 1, hi});
            sets.push_back({hi, 1, 0}); // permuted order
        }
        if (n >= 5) {
            sets.push_back({1, static_cast<qubit_t>(n / 2), hi});
        }
    } else if (k == 4) {
        sets.push_back({0, 1, 2, 3});
        if (n >= 5) {
            sets.push_back({0, 2, static_cast<qubit_t>(hi - 1), hi});
            sets.push_back({hi, 0, 2, 1}); // permuted order
        }
    }
    // Drop sets with duplicate/overflowing qubits at small n.
    std::erase_if(sets, [n](const std::vector<qubit_t>& qs) {
        for (std::size_t i = 0; i < qs.size(); ++i) {
            if (qs[i] >= n) {
                return true;
            }
            for (std::size_t j = i + 1; j < qs.size(); ++j) {
                if (qs[i] == qs[j]) {
                    return true;
                }
            }
        }
        return false;
    });
    return sets;
}

TEST(kernels, apply_1q_avx2_matches_scalar_bit_for_bit) {
    if (!both_isas_available()) {
        GTEST_SKIP() << "AVX2 kernels not available on this build/host";
    }
    quorum::util::rng gen(20250801);
    for (std::size_t n = 1; n <= 12; ++n) {
        const std::size_t dim = std::size_t{1} << n;
        for (qubit_t q = 0; q < n; ++q) {
            const std::vector<amp> u = random_matrix(2, gen);
            const std::vector<amp> input = random_state(dim, gen);
            std::vector<amp> scalar = input;
            std::vector<amp> avx2 = input;
            kernels::apply_1q(scalar.data(), n, u.data(), q,
                              kernels::isa::scalar);
            kernels::apply_1q(avx2.data(), n, u.data(), q,
                              kernels::isa::avx2);
            EXPECT_TRUE(bits_equal(scalar, avx2))
                << "n=" << n << " q=" << q;
        }
    }
}

TEST(kernels, apply_block_avx2_matches_scalar_bit_for_bit) {
    if (!both_isas_available()) {
        GTEST_SKIP() << "AVX2 kernels not available on this build/host";
    }
    quorum::util::rng gen(20250802);
    for (std::size_t n = 2; n <= 12; ++n) {
        const std::size_t dim = std::size_t{1} << n;
        for (std::size_t k = 2; k <= 4; ++k) {
            for (const std::vector<qubit_t>& qubits : operand_sets(n, k)) {
                const std::size_t block = std::size_t{1} << k;
                const std::vector<amp> u = random_matrix(block, gen);
                const std::vector<std::size_t> offsets = make_offsets(qubits);
                std::vector<qubit_t> sorted = qubits;
                std::sort(sorted.begin(), sorted.end());
                const std::vector<amp> input = random_state(dim, gen);
                std::vector<amp> scratch(block);
                std::vector<amp> scalar = input;
                std::vector<amp> avx2 = input;
                kernels::apply_block(scalar.data(), n, u.data(), sorted,
                                     offsets, scratch.data(),
                                     kernels::isa::scalar);
                kernels::apply_block(avx2.data(), n, u.data(), sorted,
                                     offsets, scratch.data(),
                                     kernels::isa::avx2);
                EXPECT_TRUE(bits_equal(scalar, avx2))
                    << "n=" << n << " k=" << k << " q0=" << qubits[0];
            }
        }
    }
}

TEST(kernels, collapse_avx2_matches_scalar_bit_for_bit) {
    if (!both_isas_available()) {
        GTEST_SKIP() << "AVX2 kernels not available on this build/host";
    }
    quorum::util::rng gen(20250803);
    for (std::size_t n = 1; n <= 12; ++n) {
        const std::size_t dim = std::size_t{1} << n;
        for (qubit_t q = 0; q < n; ++q) {
            for (const bool outcome : {false, true}) {
                const double scale = gen.uniform(0.5, 2.0);
                const std::vector<amp> input = random_state(dim, gen);
                std::vector<amp> scalar = input;
                std::vector<amp> avx2 = input;
                kernels::collapse(scalar.data(), n, q, outcome, scale,
                                  kernels::isa::scalar);
                kernels::collapse(avx2.data(), n, q, outcome, scale,
                                  kernels::isa::avx2);
                EXPECT_TRUE(bits_equal(scalar, avx2))
                    << "n=" << n << " q=" << q << " outcome=" << outcome;
            }
        }
    }
}

TEST(kernels, collapse_zeroes_are_positive_zero) {
    // The scalar reference ASSIGNS 0.0 to pruned amplitudes; a
    // multiply-by-zero implementation would leak -0.0 from negative
    // inputs. Pin the assignment semantics on both ISAs.
    for (const kernels::isa which : {kernels::isa::scalar,
                                     kernels::isa::avx2}) {
        if (which == kernels::isa::avx2 && !both_isas_available()) {
            continue;
        }
        std::vector<amp> state(16, amp{-1.0, -1.0});
        kernels::collapse(state.data(), 4, 1, true, 1.0, which);
        for (std::size_t i = 0; i < state.size(); ++i) {
            if ((i & 2u) == 0) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(state[i].real()),
                          std::bit_cast<std::uint64_t>(0.0));
                EXPECT_EQ(std::bit_cast<std::uint64_t>(state[i].imag()),
                          std::bit_cast<std::uint64_t>(0.0));
            }
        }
    }
}

TEST(kernels, dispatch_honours_disable_env_var) {
    if (!kernels::avx2_compiled() || !kernels::avx2_supported()) {
        EXPECT_EQ(kernels::detect_isa(), kernels::isa::scalar);
        GTEST_SKIP() << "AVX2 kernels not available on this build/host";
    }
    const char* before = std::getenv("QUORUM_DISABLE_AVX2");
    ASSERT_EQ(setenv("QUORUM_DISABLE_AVX2", "1", 1), 0);
    EXPECT_EQ(kernels::detect_isa(), kernels::isa::scalar);
    if (before == nullptr) {
        ASSERT_EQ(unsetenv("QUORUM_DISABLE_AVX2"), 0);
        EXPECT_EQ(kernels::detect_isa(), kernels::isa::avx2);
    } else {
        ASSERT_EQ(setenv("QUORUM_DISABLE_AVX2", before, 1), 0);
    }
}

TEST(kernels, lanes_1q_each_matches_lanes_1q_and_apply_1q_per_lane) {
    // Eight distinct matrices, one per lane: every lane must hold exactly
    // what lanes_1q with that lane's matrix and the scalar apply_1q on
    // that lane's state give. Inputs and matrices carry -0.0 entries.
    if (!both_isas_available()) {
        GTEST_SKIP() << "AVX2 kernels not available on this build/host";
    }
    constexpr std::size_t width = kernels::lane_width;
    quorum::util::rng gen(20251018);
    const auto salted = [&gen] {
        return gen.uniform() < 0.25 ? -0.0 : gen.uniform(-1.0, 1.0);
    };
    const auto same = [](double a, double b) {
        return std::bit_cast<std::uint64_t>(a) ==
               std::bit_cast<std::uint64_t>(b);
    };
    for (std::size_t n = 1; n <= 5; ++n) {
        const std::size_t rows = std::size_t{1} << n;
        for (qubit_t q = 0; q < n; ++q) {
            std::vector<std::vector<amp>> u(width);
            kernels::lane_1q_matrices table{};
            for (std::size_t lane = 0; lane < width; ++lane) {
                for (std::size_t e = 0; e < 4; ++e) {
                    u[lane].emplace_back(salted(), salted());
                }
                table.set(lane, u[lane].data());
            }
            std::vector<double> re(rows * width);
            std::vector<double> im(rows * width);
            for (std::size_t i = 0; i < re.size(); ++i) {
                re[i] = salted();
                im[i] = salted();
            }
            std::vector<double> each_re = re;
            std::vector<double> each_im = im;
            kernels::lanes_1q_each(each_re.data(), each_im.data(), rows, table,
                                   q);
            for (std::size_t lane = 0; lane < width; ++lane) {
                std::vector<double> shared_re = re;
                std::vector<double> shared_im = im;
                kernels::lanes_1q(shared_re.data(), shared_im.data(), rows,
                                  u[lane].data(), q);
                std::vector<amp> state(rows);
                for (std::size_t r = 0; r < rows; ++r) {
                    state[r] = amp{re[r * width + lane], im[r * width + lane]};
                }
                kernels::apply_1q(state.data(), n, u[lane].data(), q,
                                  kernels::isa::scalar);
                for (std::size_t r = 0; r < rows; ++r) {
                    const std::size_t at = r * width + lane;
                    EXPECT_TRUE(same(each_re[at], shared_re[at]) &&
                                same(each_im[at], shared_im[at]) &&
                                same(each_re[at], state[r].real()) &&
                                same(each_im[at], state[r].imag()))
                        << "n=" << n << " q=" << q << " lane=" << lane
                        << " row=" << r;
                }
            }
        }
    }
}

TEST(kernels, statevector_and_kernel_apply_agree) {
    // The statevector engine routes through the dispatching kernel
    // overloads; a direct kernel call on the raw amplitudes must match.
    quorum::util::rng gen(20250804);
    const std::size_t n = 6;
    std::vector<amp> raw = random_state(std::size_t{1} << n, gen);
    double norm = 0.0;
    for (const amp& a : raw) {
        norm += std::norm(a);
    }
    const double inv = 1.0 / std::sqrt(norm);
    for (amp& a : raw) {
        a *= inv;
    }
    quorum::qsim::statevector state =
        quorum::qsim::statevector::from_amplitudes(raw);
    const std::vector<amp> u = random_matrix(2, gen);
    const quorum::util::cmatrix m =
        quorum::util::cmatrix::from_rows(2, 2, u);
    state.apply_1q(m, 3);
    kernels::apply_1q(raw.data(), n, u.data(), 3);
    EXPECT_TRUE(bits_equal(
        raw, std::vector<amp>(state.amplitudes().begin(),
                              state.amplitudes().end())));
}

} // namespace
