#include <cmath>

#include <gtest/gtest.h>

#include "qsim/density_matrix.h"
#include "qsim/noise.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace {

using namespace quorum::qsim;
namespace util = quorum::util;
using cd = std::complex<double>;

statevector random_state(std::size_t n, quorum::util::rng& gen) {
    statevector state(n);
    for (std::size_t q = 0; q < n; ++q) {
        const qubit_t operand[] = {static_cast<qubit_t>(q)};
        const double theta[] = {gen.angle()};
        state.apply_gate(gate_kind::ry, operand, theta);
    }
    for (std::size_t q = 0; q + 1 < n; ++q) {
        const qubit_t operands[] = {static_cast<qubit_t>(q),
                                    static_cast<qubit_t>(q + 1)};
        state.apply_gate(gate_kind::cx, operands);
    }
    return state;
}

TEST(DensityMatrix, StartsInGroundState) {
    density_matrix rho(2);
    EXPECT_NEAR(rho.trace_real(), 1.0, 1e-12);
    EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
    EXPECT_EQ(rho.element(0, 0), cd(1.0));
}

TEST(DensityMatrix, FromStatevectorIsPure) {
    quorum::util::rng gen(3);
    const statevector psi = random_state(3, gen);
    const density_matrix rho = density_matrix::from_statevector(psi);
    EXPECT_NEAR(rho.trace_real(), 1.0, 1e-10);
    EXPECT_NEAR(rho.purity(), 1.0, 1e-10);
    for (std::size_t q = 0; q < 3; ++q) {
        EXPECT_NEAR(rho.probability_one(static_cast<qubit_t>(q)),
                    psi.probability_one(static_cast<qubit_t>(q)), 1e-10);
    }
}

TEST(DensityMatrix, UnitaryEvolutionMatchesStatevector) {
    quorum::util::rng gen(5);
    for (int trial = 0; trial < 15; ++trial) {
        statevector psi(3);
        density_matrix rho(3);
        for (int g = 0; g < 10; ++g) {
            const auto q = static_cast<qubit_t>(gen.uniform_index(3));
            const auto q2 =
                static_cast<qubit_t>((q + 1 + gen.uniform_index(2)) % 3);
            const int pick = static_cast<int>(gen.uniform_index(4));
            if (pick == 0) {
                const qubit_t operand[] = {q};
                const double theta[] = {gen.angle()};
                psi.apply_gate(gate_kind::rx, operand, theta);
                rho.apply_gate(gate_kind::rx, operand, theta);
            } else if (pick == 1) {
                const qubit_t operand[] = {q};
                psi.apply_gate(gate_kind::h, operand);
                rho.apply_gate(gate_kind::h, operand);
            } else if (pick == 2) {
                const qubit_t operands[] = {q, q2};
                psi.apply_gate(gate_kind::cx, operands);
                rho.apply_gate(gate_kind::cx, operands);
            } else {
                const qubit_t operand[] = {q};
                const double theta[] = {gen.angle()};
                psi.apply_gate(gate_kind::rz, operand, theta);
                rho.apply_gate(gate_kind::rz, operand, theta);
            }
        }
        const density_matrix expected = density_matrix::from_statevector(psi);
        for (std::size_t r = 0; r < 8; ++r) {
            for (std::size_t c = 0; c < 8; ++c) {
                EXPECT_NEAR(
                    std::abs(rho.element(r, c) - expected.element(r, c)), 0.0,
                    1e-10);
            }
        }
    }
}

TEST(DensityMatrix, KrausChannelPreservesTrace) {
    quorum::util::rng gen(7);
    density_matrix rho = density_matrix::from_statevector(random_state(3, gen));
    const noise_model nm = noise_model::ibm_brisbane_median();
    const auto kraus = nm.thermal_kraus(660.0);
    ASSERT_FALSE(kraus.empty());
    const qubit_t operand[] = {1};
    rho.apply_kraus(kraus, operand);
    EXPECT_NEAR(rho.trace_real(), 1.0, 1e-10);
}

TEST(DensityMatrix, DepolarizeReducesPurity) {
    quorum::util::rng gen(9);
    density_matrix rho = density_matrix::from_statevector(random_state(2, gen));
    const double before = rho.purity();
    const qubit_t operand[] = {0};
    rho.depolarize(operand, 0.2);
    EXPECT_LT(rho.purity(), before);
    EXPECT_NEAR(rho.trace_real(), 1.0, 1e-10);
}

TEST(DensityMatrix, FullDepolarizeGivesMaximallyMixed) {
    quorum::util::rng gen(11);
    density_matrix rho = density_matrix::from_statevector(random_state(2, gen));
    const qubit_t operands[] = {0, 1};
    rho.depolarize(operands, 1.0);
    EXPECT_NEAR(rho.purity(), 0.25, 1e-10);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_NEAR(rho.element(i, i).real(), 0.25, 1e-10);
    }
}

TEST(DensityMatrix, DepolarizeZeroIsNoop) {
    quorum::util::rng gen(13);
    density_matrix rho = density_matrix::from_statevector(random_state(2, gen));
    const double before = rho.purity();
    const qubit_t operand[] = {1};
    rho.depolarize(operand, 0.0);
    EXPECT_NEAR(rho.purity(), before, 1e-12);
}

TEST(DensityMatrix, ResetChannelForcesGround) {
    quorum::util::rng gen(15);
    density_matrix rho = density_matrix::from_statevector(random_state(3, gen));
    rho.reset_qubit(1);
    EXPECT_NEAR(rho.probability_one(1), 0.0, 1e-12);
    EXPECT_NEAR(rho.trace_real(), 1.0, 1e-10);
}

TEST(DensityMatrix, ResetOfBellHalfLeavesPartnerMixed) {
    statevector psi(2);
    const qubit_t q0[] = {0};
    psi.apply_gate(gate_kind::h, q0);
    const qubit_t cx01[] = {0, 1};
    psi.apply_gate(gate_kind::cx, cx01);
    density_matrix rho = density_matrix::from_statevector(psi);
    rho.reset_qubit(0);
    EXPECT_NEAR(rho.probability_one(1), 0.5, 1e-12);
    EXPECT_NEAR(rho.purity(), 0.5, 1e-10); // |0><0| (x) I/2
}

TEST(DensityMatrix, ThermalFastPathMatchesKraus) {
    quorum::util::rng gen(17);
    const noise_model nm = noise_model::ibm_brisbane_median();
    for (const double duration : {60.0, 660.0, 1300.0}) {
        const auto coeff = nm.thermal_coefficients(duration);
        const auto kraus = nm.thermal_kraus(duration);
        density_matrix fast =
            density_matrix::from_statevector(random_state(3, gen));
        density_matrix slow = fast;
        fast.apply_thermal(2, coeff.gamma, coeff.lambda);
        const qubit_t operand[] = {2};
        slow.apply_kraus(kraus, operand);
        for (std::size_t r = 0; r < 8; ++r) {
            for (std::size_t c = 0; c < 8; ++c) {
                EXPECT_NEAR(std::abs(fast.element(r, c) - slow.element(r, c)),
                            0.0, 1e-12);
            }
        }
    }
}

TEST(DensityMatrix, ThermalDampsExcitedPopulation) {
    density_matrix rho(1);
    const qubit_t q0[] = {0};
    rho.apply_gate(gate_kind::x, q0);
    rho.apply_thermal(0, 0.3, 0.0);
    EXPECT_NEAR(rho.probability_one(0), 0.7, 1e-12);
    EXPECT_NEAR(rho.trace_real(), 1.0, 1e-12);
}

TEST(DensityMatrix, PartialTraceOfProductState) {
    // |+> (x) |1>: tracing out qubit 1 leaves |+><+|.
    statevector psi(2);
    const qubit_t q0[] = {0};
    psi.apply_gate(gate_kind::h, q0);
    const qubit_t q1[] = {1};
    psi.apply_gate(gate_kind::x, q1);
    const density_matrix rho = density_matrix::from_statevector(psi);
    const qubit_t traced[] = {1};
    const density_matrix reduced = rho.partial_trace(traced);
    EXPECT_EQ(reduced.num_qubits(), 1u);
    EXPECT_NEAR(reduced.element(0, 1).real(), 0.5, 1e-12);
    EXPECT_NEAR(reduced.element(0, 0).real(), 0.5, 1e-12);
    EXPECT_NEAR(reduced.purity(), 1.0, 1e-12);
}

TEST(DensityMatrix, PartialTraceOfBellIsMixed) {
    statevector psi(2);
    const qubit_t q0[] = {0};
    psi.apply_gate(gate_kind::h, q0);
    const qubit_t cx01[] = {0, 1};
    psi.apply_gate(gate_kind::cx, cx01);
    const density_matrix rho = density_matrix::from_statevector(psi);
    const qubit_t traced[] = {0};
    const density_matrix reduced = rho.partial_trace(traced);
    EXPECT_NEAR(reduced.purity(), 0.5, 1e-12);
    EXPECT_NEAR(reduced.element(0, 0).real(), 0.5, 1e-12);
    EXPECT_NEAR(std::abs(reduced.element(0, 1)), 0.0, 1e-12);
}

TEST(DensityMatrix, InitializeRegisterMatchesStatevector) {
    quorum::util::rng gen(19);
    std::vector<amp> sub(4);
    double norm = 0.0;
    for (auto& a : sub) {
        a = cd(gen.uniform(), 0.0);
        norm += std::norm(a);
    }
    for (auto& a : sub) {
        a /= std::sqrt(norm);
    }
    const qubit_t reg[] = {0, 1};

    density_matrix rho(3);
    rho.initialize_register(reg, sub);

    statevector psi(3);
    psi.initialize_register(reg, sub);
    const density_matrix expected = density_matrix::from_statevector(psi);
    for (std::size_t r = 0; r < 8; ++r) {
        for (std::size_t c = 0; c < 8; ++c) {
            EXPECT_NEAR(std::abs(rho.element(r, c) - expected.element(r, c)),
                        0.0, 1e-12);
        }
    }
}

TEST(DensityMatrix, OverlapOfPureStatesIsFidelity) {
    quorum::util::rng gen(21);
    const statevector a = random_state(2, gen);
    const statevector b = random_state(2, gen);
    const density_matrix rho_a = density_matrix::from_statevector(a);
    const density_matrix rho_b = density_matrix::from_statevector(b);
    const double expected = std::norm(a.inner_product(b));
    EXPECT_NEAR(rho_a.overlap(rho_b), expected, 1e-10);
    EXPECT_NEAR(rho_a.overlap(rho_a), 1.0, 1e-10);
}

TEST(DensityMatrix, CxFastPathMatchesGeneric) {
    quorum::util::rng gen(23);
    for (int trial = 0; trial < 10; ++trial) {
        density_matrix fast =
            density_matrix::from_statevector(random_state(3, gen));
        density_matrix slow = fast;
        const auto c = static_cast<qubit_t>(gen.uniform_index(3));
        const auto t = static_cast<qubit_t>((c + 1 + gen.uniform_index(2)) % 3);
        const qubit_t operands[] = {c, t};
        fast.apply_gate(gate_kind::cx, operands); // permutation fast path
        slow.apply_matrix(gate_matrix(gate_kind::cx), operands); // generic

        for (std::size_t r = 0; r < 8; ++r) {
            for (std::size_t col = 0; col < 8; ++col) {
                EXPECT_NEAR(std::abs(fast.element(r, col) -
                                     slow.element(r, col)),
                            0.0, 1e-12);
            }
        }
    }
}

TEST(DensityMatrix, DepolarizeRejectsBadOperands) {
    density_matrix rho(2);
    const qubit_t out_of_range[] = {5};
    EXPECT_THROW(rho.depolarize(out_of_range, 0.1),
                 quorum::util::contract_error);
    const qubit_t duplicate[] = {0, 0};
    EXPECT_THROW(rho.depolarize(duplicate, 0.5), quorum::util::contract_error);
}

TEST(DensityMatrix, PartialTraceRejectsBadOperands) {
    const density_matrix rho(3);
    const qubit_t out_of_range[] = {3};
    EXPECT_THROW((void)rho.partial_trace(out_of_range),
                 quorum::util::contract_error);
    const qubit_t duplicate[] = {1, 1};
    EXPECT_THROW((void)rho.partial_trace(duplicate),
                 quorum::util::contract_error);
}

TEST(DensityMatrix, InitializeRegisterRejectsBadOperands) {
    density_matrix rho(3);
    const std::vector<amp> one_qubit = {1.0, 0.0};
    const qubit_t out_of_range[] = {7};
    EXPECT_THROW(rho.initialize_register(out_of_range, one_qubit),
                 quorum::util::contract_error);
    const std::vector<amp> two_qubits = {1.0, 0.0, 0.0, 0.0};
    const qubit_t duplicate[] = {2, 2};
    EXPECT_THROW(rho.initialize_register(duplicate, two_qubits),
                 quorum::util::contract_error);
}

} // namespace
