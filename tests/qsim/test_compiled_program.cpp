#include <cmath>

#include <gtest/gtest.h>

#include "qml/amplitude_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "qsim/compiled_program.h"
#include "qsim/statevector.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace {

using namespace quorum;
using qsim::circuit;
using qsim::compiled_program;
using qsim::fused_op;
using qsim::gate_kind;

/// Builds a random gates-only circuit out of 1q rotations and cx/cz.
circuit random_circuit(std::size_t n_qubits, std::size_t gates,
                       util::rng& gen) {
    circuit c(n_qubits);
    for (std::size_t g = 0; g < gates; ++g) {
        const std::size_t choice = gen.uniform_index(5);
        const auto q = static_cast<qsim::qubit_t>(
            gen.uniform_index(n_qubits));
        auto other = static_cast<qsim::qubit_t>(
            gen.uniform_index(n_qubits));
        if (other == q) {
            other = static_cast<qsim::qubit_t>((q + 1) % n_qubits);
        }
        switch (choice) {
        case 0:
            c.rx(gen.angle(), q);
            break;
        case 1:
            c.rz(gen.angle(), q);
            break;
        case 2:
            c.h(q);
            break;
        case 3:
            c.cx(q, other);
            break;
        default:
            c.cz(q, other);
            break;
        }
    }
    return c;
}

/// Dense unitary realised by a fused-op sequence (columns via the engine).
util::cmatrix fused_unitary(std::span<const fused_op> ops,
                            std::size_t n_qubits) {
    const std::size_t dim = std::size_t{1} << n_qubits;
    util::cmatrix u(dim, dim);
    std::vector<qsim::amp> scratch(8);
    for (std::size_t col = 0; col < dim; ++col) {
        qsim::statevector state =
            qsim::statevector::basis_state(n_qubits, col);
        for (const fused_op& op : ops) {
            EXPECT_TRUE(op.op == fused_op::kind::unitary) << "gates only";
            if (op.qubits.size() == 1) {
                state.apply_1q(op.matrix, op.qubits[0]);
            } else {
                state.apply_matrix_prepared(op.matrix, op.sorted_qubits,
                                            op.offsets, scratch);
            }
        }
        const std::span<const qsim::amp> amps = state.amplitudes();
        for (std::size_t row = 0; row < dim; ++row) {
            u(row, col) = amps[row];
        }
    }
    return u;
}

TEST(CompiledProgram, FusedSuffixMatchesUnfusedOnRandomCircuits) {
    util::rng gen(41);
    for (std::size_t trial = 0; trial < 20; ++trial) {
        const std::size_t n = 2 + trial % 3;
        const circuit c = random_circuit(n, 24, gen);
        const util::cmatrix reference = qsim::circuit_unitary(c);
        const std::vector<fused_op> fused = qsim::fuse_operations(c.ops());
        const util::cmatrix actual = fused_unitary(fused, n);
        EXPECT_LT(actual.distance(reference), 1e-10) << "trial " << trial;
    }
}

TEST(CompiledProgram, FusionShrinksTheAnsatzSuffix) {
    util::rng gen(7);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    const compiled_program program = compiled_program::compile(
        qml::autoencoder_template(params, 1));
    EXPECT_GT(program.suffix_gate_count(), 0u);
    std::vector<qsim::operation> suffix_ops;
    for (const qsim::compiled_op& compiled : program.suffix()) {
        suffix_ops.push_back(compiled.op);
    }
    // RX+RZ rows merge, and rotations fold into the CX ladder blocks: the
    // fused suffix must be materially smaller than the gate list.
    std::size_t unitaries = 0;
    for (const fused_op& op : qsim::fuse_operations(suffix_ops)) {
        if (op.op == fused_op::kind::unitary) {
            ++unitaries;
            EXPECT_TRUE(op.matrix.is_unitary(1e-9));
        }
    }
    EXPECT_LT(2 * unitaries, program.suffix_gate_count());
}

TEST(CompiledProgram, SplitsSlotsPrefixAndSuffix) {
    util::rng gen(11);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    const compiled_program program = compiled_program::compile(
        qml::autoencoder_template(params, 1));
    // Full circuit: two initialize slots (registers A and B), no prefix,
    // one terminal measure on the ancilla.
    EXPECT_EQ(program.num_qubits(), 7u);
    ASSERT_EQ(program.slots().size(), 2u);
    EXPECT_EQ(program.slots()[0].qubits.size(), 3u);
    EXPECT_TRUE(program.prefix().empty());
    ASSERT_EQ(program.measures().size(), 1u);
    EXPECT_EQ(program.measures()[0].second, qml::swap_result_cbit);
}

TEST(CompiledProgram, ParameterizedPrefixSubstitutesAngles) {
    circuit c(2);
    c.ry(0.0, 0).rz(0.0, 1).cx(0, 1);
    compiled_program::options options;
    options.parameterized_ops = 3;
    const compiled_program program = compiled_program::compile(c, options);
    EXPECT_EQ(program.prefix().size(), 3u);
    EXPECT_EQ(program.prefix_param_count(), 2u);
    EXPECT_TRUE(program.suffix().empty());

    const double angles[] = {0.4, -1.3};
    const circuit materialized = program.materialize({}, angles);
    ASSERT_EQ(materialized.ops().size(), 3u);
    EXPECT_DOUBLE_EQ(materialized.ops()[0].params[0], 0.4);
    EXPECT_DOUBLE_EQ(materialized.ops()[1].params[0], -1.3);
}

TEST(CompiledProgram, MaterializeReproducesTheOriginalCircuit) {
    util::rng gen(13);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    std::vector<double> features(7);
    for (double& f : features) {
        f = gen.uniform() * 0.3;
    }
    const std::vector<double> amps = qml::to_amplitudes(features, 3);
    const circuit original =
        qml::build_autoencoder_circuit(amps, params, 1);
    const compiled_program program = compiled_program::compile(
        qml::autoencoder_template(params, 1));
    const circuit rebuilt = program.materialize(amps);
    // Barriers are dropped; every remaining op must match in order.
    std::vector<qsim::operation> expected;
    for (const qsim::operation& op : original.ops()) {
        if (op.kind != qsim::op_kind::barrier) {
            expected.push_back(op);
        }
    }
    ASSERT_EQ(rebuilt.ops().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(rebuilt.ops()[i].kind, expected[i].kind) << i;
        EXPECT_EQ(rebuilt.ops()[i].gate, expected[i].gate) << i;
        EXPECT_EQ(rebuilt.ops()[i].qubits, expected[i].qubits) << i;
        EXPECT_EQ(rebuilt.ops()[i].params, expected[i].params) << i;
        EXPECT_EQ(rebuilt.ops()[i].init_amplitudes,
                  expected[i].init_amplitudes)
            << i;
    }
}

TEST(CompiledProgram, ResetsAndMeasuresFenceFusion) {
    circuit c(2, 1);
    c.h(0).h(1).reset(0).h(0).measure(0, 0);
    const std::vector<fused_op> fused = qsim::fuse_operations(c.ops());
    // h(0), h(1) fuse-or-stay before the reset; h(0) after it must not
    // merge across the fence.
    ASSERT_EQ(fused.size(), 5u);
    EXPECT_EQ(fused[2].op, fused_op::kind::reset);
    EXPECT_EQ(fused[3].op, fused_op::kind::unitary);
    EXPECT_EQ(fused[4].op, fused_op::kind::measure);
}

TEST(CompiledProgram, RejectsNonTerminalMeasurements) {
    circuit c(1, 1);
    c.measure(0, 0);
    c.x(0);
    EXPECT_THROW((void)compiled_program::compile(c),
                 quorum::util::contract_error);
}

TEST(CompiledProgram, RejectsOverlongParameterizedPrefix) {
    circuit c(1);
    c.rx(0.1, 0);
    compiled_program::options options;
    options.parameterized_ops = 2;
    EXPECT_THROW((void)compiled_program::compile(c, options),
                 quorum::util::contract_error);
}

TEST(CompiledProgram, SharedSuffixOpsFindsTheNestedResetPrefix) {
    // Two compression levels of one Quorum group share state prep,
    // encoder, and the nested reset run: level 2's suffix is level 1's
    // [encoder + reset] prefix plus one more reset before the decoder.
    util::rng gen(33);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    const compiled_program level1 = compiled_program::compile(
        qml::autoencoder_reg_a_template(params, 1));
    const compiled_program level2 = compiled_program::compile(
        qml::autoencoder_reg_a_template(params, 2));

    const std::size_t shared = qsim::shared_suffix_ops(level1, level2);
    // Everything up to and including the first reset is shared; the next
    // op diverges (decoder gate vs. second reset).
    std::size_t first_reset = 0;
    while (level1.suffix()[first_reset].op.kind != qsim::op_kind::reset) {
        ++first_reset;
    }
    EXPECT_EQ(shared, first_reset + 1);
    EXPECT_EQ(qsim::shared_suffix_ops(level1, level1),
              level1.suffix().size());
}

TEST(CompiledProgram, SharedSuffixOpsIsZeroForDifferentAngles) {
    util::rng gen(35);
    const qml::ansatz_params a = qml::random_ansatz_params(3, 2, gen);
    const qml::ansatz_params b = qml::random_ansatz_params(3, 2, gen);
    const compiled_program first = compiled_program::compile(
        qml::autoencoder_reg_a_template(a, 1));
    const compiled_program second = compiled_program::compile(
        qml::autoencoder_reg_a_template(b, 1));
    EXPECT_EQ(qsim::shared_suffix_ops(first, second), 0u);
}

TEST(CompiledProgram, TrailingGateRunIsTheDecoder) {
    // The register-A program ends in the decoder: a pure gate run after
    // the last reset, exactly what the SWAP-test short-circuit adjoints.
    util::rng gen(37);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    const compiled_program program = compiled_program::compile(
        qml::autoencoder_reg_a_template(params, 2));
    const std::size_t start = qsim::trailing_gate_run_start(program);
    ASSERT_LT(start, program.suffix().size());
    EXPECT_EQ(program.suffix()[start - 1].op.kind, qsim::op_kind::reset);
    for (std::size_t i = start; i < program.suffix().size(); ++i) {
        EXPECT_EQ(program.suffix()[i].op.kind, qsim::op_kind::gate);
    }
    // Decoder length == encoder length for the inverse ansatz: the suffix
    // is encoder + 2 resets + decoder.
    const std::size_t decoder_gates = program.suffix().size() - start;
    EXPECT_EQ(2 * decoder_gates + 2, program.suffix().size());
}

TEST(CompiledProgram, ReplaysIdenticallyComparesParamsAndMatrices) {
    circuit a(2);
    a.rx(0.25, 0);
    circuit b(2);
    b.rx(0.25, 0);
    circuit c(2);
    c.rx(0.5, 0);
    const compiled_program pa = compiled_program::compile(a);
    const compiled_program pb = compiled_program::compile(b);
    const compiled_program pc = compiled_program::compile(c);
    EXPECT_TRUE(qsim::replays_identically(pa.suffix()[0], pb.suffix()[0]));
    EXPECT_FALSE(qsim::replays_identically(pa.suffix()[0], pc.suffix()[0]));
}

} // namespace
