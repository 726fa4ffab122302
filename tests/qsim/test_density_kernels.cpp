// Bit-identity suite for the fused density-matrix channel kernels
// (kernels::density_1q / density_cx, AVX2 only). Their reference is the
// multi-pass density_matrix primitives the noisy runner applied one after
// another before the kernels existed (apply_gate, then depolarize, then
// apply_thermal per operand); outputs are compared as raw double bits.
// Inputs are random Hermitian matrices salted with negative zeros, so a
// kernel that swaps where the reference multiplies, or skips an add the
// reference performs, shows up in a sign bit.
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qsim/density_matrix.h"
#include "qsim/gates.h"
#include "qsim/kernels.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace {

using quorum::qsim::amp;
using quorum::qsim::density_matrix;
using quorum::qsim::gate_kind;
using quorum::qsim::qubit_t;
namespace kernels = quorum::qsim::kernels;

constexpr std::size_t max_qubits = 8;

bool avx2_available() {
    return kernels::avx2_compiled() && kernels::avx2_supported();
}

std::vector<amp> random_hermitian(std::size_t n, quorum::util::rng& gen) {
    const std::size_t dim = std::size_t{1} << n;
    std::vector<amp> rho(dim * dim);
    for (std::size_t r = 0; r < dim; ++r) {
        rho[r * dim + r] = amp{r % 3 == 0 ? -0.0 : gen.uniform(-1.0, 1.0)};
        for (std::size_t c = r + 1; c < dim; ++c) {
            amp value{gen.uniform(-1.0, 1.0), gen.uniform(-1.0, 1.0)};
            if ((r + 2 * c) % 5 == 0) {
                value.real(-0.0);
            }
            rho[r * dim + c] = value;
            rho[c * dim + r] = std::conj(value);
        }
    }
    return rho;
}

struct channel_set {
    std::string name;
    kernels::density_channels noise;
};

/// {none, depolarize only, thermal only, dephasing only, both, p = 1}.
std::vector<channel_set> channel_sets(quorum::util::rng& gen) {
    const double p = gen.uniform(0.01, 0.3);
    const double gamma = gen.uniform(0.01, 0.3);
    const double lambda = gen.uniform(0.01, 0.3);
    std::vector<channel_set> sets;
    sets.push_back({"none", {}});
    sets.push_back({"depolarize", {p, 0.0, 0.0}});
    sets.push_back({"thermal", {0.0, gamma, lambda}});
    sets.push_back({"dephasing", {0.0, 0.0, lambda}});
    sets.push_back({"both", {p, gamma, lambda}});
    sets.push_back({"p=1", {1.0, gamma, lambda}});
    return sets;
}

struct gate_case {
    gate_kind kind;
    std::vector<double> params;
};

/// One point of the sweep; `input` is shared by every case at this n.
struct sweep_case {
    std::size_t n = 0;
    std::shared_ptr<const std::vector<amp>> input;
    gate_case gate;
    std::vector<qubit_t> qubits;
    channel_set channels;

    [[nodiscard]] std::string label() const {
        std::string text = "n=" + std::to_string(n) + " gate=";
        text += quorum::qsim::gate_name(gate.kind);
        for (const qubit_t q : qubits) {
            text += " q=" + std::to_string(q);
        }
        return text + " channels=" + channels.name;
    }
};

/// n = 1..8 (2..8 for cx), every operand (every ordered distinct pair for
/// cx), every gate, every channel set. The 1q gates are rz (diagonal; at
/// a random angle and at pi/2, whose factors d_r * conj(d_c) cancel to a
/// last-bit residue that any fused multiply-add would change), sx and x
/// (the basis) and h (any other 1q gate the runner routes through the
/// fused kernel). The kernels decline n = 1 (1q) and n = 2 (cx).
std::vector<sweep_case> make_sweep(bool two_qubit, std::uint64_t seed) {
    quorum::util::rng gen(seed);
    const std::vector<channel_set> sets = channel_sets(gen);
    std::vector<gate_case> gates;
    if (two_qubit) {
        gates.push_back({gate_kind::cx, {}});
    } else {
        gates.push_back({gate_kind::rz, {gen.angle()}});
        gates.push_back({gate_kind::rz, {quorum::qsim::pi / 2}});
        gates.push_back({gate_kind::sx, {}});
        gates.push_back({gate_kind::x, {}});
        gates.push_back({gate_kind::h, {}});
    }
    std::vector<sweep_case> cases;
    for (std::size_t n = two_qubit ? 2 : 1; n <= max_qubits; ++n) {
        const auto input =
            std::make_shared<const std::vector<amp>>(random_hermitian(n, gen));
        std::vector<std::vector<qubit_t>> operands;
        for (qubit_t a = 0; a < n; ++a) {
            if (!two_qubit) {
                operands.push_back({a});
                continue;
            }
            for (qubit_t b = 0; b < n; ++b) {
                if (a != b) {
                    operands.push_back({a, b});
                }
            }
        }
        for (const std::vector<qubit_t>& qubits : operands) {
            for (const gate_case& gate : gates) {
                for (const channel_set& set : sets) {
                    cases.push_back({n, input, gate, qubits, set});
                }
            }
        }
    }
    return cases;
}

/// The reference: the multi-pass primitives, one after another.
std::vector<amp> multi_pass(std::size_t n, const std::vector<amp>& input,
                            const gate_case& gate,
                            std::span<const qubit_t> qubits,
                            const kernels::density_channels& noise) {
    density_matrix rho = density_matrix::from_elements(n, input);
    rho.apply_noisy_gate(gate.kind, qubits, gate.params, noise);
    return {rho.elements().begin(), rho.elements().end()};
}

std::vector<amp> multi_pass(const sweep_case& c) {
    return multi_pass(c.n, *c.input, c.gate, c.qubits, c.channels.noise);
}

/// The AVX2 kernel on a copy of the input; `ran` reports whether it took
/// the matrix (false: it declined and must not have touched it).
std::vector<amp> avx2_kernel(const sweep_case& c, bool& ran) {
    std::vector<amp> rho = *c.input;
    const kernels::density_channels& noise = c.channels.noise;
    if (c.gate.kind == gate_kind::cx) {
        ran = kernels::density_cx(rho.data(), c.n, c.qubits[0], c.qubits[1],
                                  noise, kernels::isa::avx2);
        return rho;
    }
    const quorum::util::cmatrix u =
        quorum::qsim::gate_matrix(c.gate.kind, c.gate.params);
    ran = kernels::density_1q(rho.data(), c.n, u.data().data(), c.qubits[0],
                              noise, kernels::isa::avx2);
    return rho;
}

::testing::AssertionResult bits_equal(const std::vector<amp>& a,
                                      const std::vector<amp>& b) {
    if (a.size() != b.size()) {
        return ::testing::AssertionFailure() << "size mismatch";
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::bit_cast<std::uint64_t>(a[i].real()) !=
                std::bit_cast<std::uint64_t>(b[i].real()) ||
            std::bit_cast<std::uint64_t>(a[i].imag()) !=
                std::bit_cast<std::uint64_t>(b[i].imag())) {
            return ::testing::AssertionFailure()
                   << "element " << i << " differs: (" << a[i].real() << ", "
                   << a[i].imag() << ") vs (" << b[i].real() << ", "
                   << b[i].imag() << ")";
        }
    }
    return ::testing::AssertionSuccess();
}

/// Every sweep case on the AVX2 kernel: bit-identical to the multi-pass
/// reference where it runs (n >= min_n), untouched input where it
/// declines.
void expect_avx2_matches_multi_pass(bool two_qubit, std::uint64_t seed,
                                    std::size_t min_n) {
    for (const sweep_case& c : make_sweep(two_qubit, seed)) {
        bool ran = false;
        const std::vector<amp> actual = avx2_kernel(c, ran);
        EXPECT_EQ(ran, c.n >= min_n) << c.label();
        EXPECT_TRUE(bits_equal(ran ? multi_pass(c) : *c.input, actual))
            << c.label();
    }
}

TEST(density_kernels, density_1q_avx2_matches_multi_pass_bit_for_bit) {
    if (!avx2_available()) {
        GTEST_SKIP() << "AVX2 kernels not available on this build/host";
    }
    expect_avx2_matches_multi_pass(false, 20261017, 2);
}

TEST(density_kernels, density_cx_avx2_matches_multi_pass_bit_for_bit) {
    if (!avx2_available()) {
        GTEST_SKIP() << "AVX2 kernels not available on this build/host";
    }
    expect_avx2_matches_multi_pass(true, 20261018, 3);
}

TEST(density_kernels, scalar_isa_declines_and_leaves_the_matrix) {
    quorum::util::rng gen(20261019);
    const std::size_t n = 4;
    const std::vector<amp> input = random_hermitian(n, gen);
    const kernels::density_channels noise{0.02, 0.01, 0.03};
    const quorum::util::cmatrix sx = quorum::qsim::gate_matrix(gate_kind::sx);
    std::vector<amp> rho = input;
    EXPECT_FALSE(kernels::density_1q(rho.data(), n, sx.data().data(), 1, noise,
                                     kernels::isa::scalar));
    EXPECT_FALSE(kernels::density_cx(rho.data(), n, 2, 0, noise,
                                     kernels::isa::scalar));
    EXPECT_TRUE(bits_equal(input, rho));
}

TEST(density_kernels, channel_methods_match_multi_pass_on_active_isa) {
    // density_matrix's channel entry points dispatch on active_isa(), fall
    // back to the multi-pass path where no kernel runs (n = 1 for 1q,
    // n = 2 for cx, or the scalar ISA), and check their operands and
    // channel parameters.
    quorum::util::rng gen(20261021);
    const kernels::density_channels noise{0.02, 0.01, 0.03};
    const gate_case sx_gate{gate_kind::sx, {}};
    const gate_case rz_gate{gate_kind::rz, {0.7}};
    const gate_case cx_gate{gate_kind::cx, {}};
    const std::size_t sizes[] = {1, 2, 5};
    for (const std::size_t n : sizes) {
        const std::vector<amp> input = random_hermitian(n, gen);
        const qubit_t last[] = {static_cast<qubit_t>(n - 1)};
        const qubit_t pair[] = {static_cast<qubit_t>(n - 1), 0};
        density_matrix rho = density_matrix::from_elements(n, input);
        rho.apply_1q_channel(gate_kind::sx, last[0], {}, noise);
        rho.apply_1q_channel(gate_kind::rz, 0, rz_gate.params, noise);
        std::vector<amp> expected = multi_pass(n, input, sx_gate, last, noise);
        const qubit_t first[] = {0};
        expected = multi_pass(n, expected, rz_gate, first, noise);
        if (n >= 2) {
            rho.apply_cx_channel(pair[0], pair[1], noise);
            expected = multi_pass(n, expected, cx_gate, pair, noise);
        }
        const std::span<const amp> actual = rho.elements();
        EXPECT_TRUE(bits_equal(expected, {actual.begin(), actual.end()}))
            << "n=" << n;
    }

    density_matrix rho(5);
    EXPECT_THROW(rho.apply_1q_channel(gate_kind::sx, 5, {}, noise),
                 quorum::util::contract_error);
    EXPECT_THROW(rho.apply_1q_channel(gate_kind::cx, 0, {}, noise),
                 quorum::util::contract_error);
    EXPECT_THROW(rho.apply_cx_channel(1, 5, noise),
                 quorum::util::contract_error);
    EXPECT_THROW(rho.apply_cx_channel(2, 2, noise),
                 quorum::util::contract_error);
    EXPECT_THROW(rho.apply_1q_channel(gate_kind::sx, 0, {}, {1.5, 0.0, 0.0}),
                 quorum::util::contract_error);
    EXPECT_THROW(rho.apply_cx_channel(0, 1, {0.0, -0.1, 0.0}),
                 quorum::util::contract_error);
    EXPECT_THROW(rho.apply_cx_channel(0, 1, {0.0, 0.0, 2.0}),
                 quorum::util::contract_error);
}

} // namespace
