#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "util/contracts.h"

#include "qsim/density_runner.h"
#include "qsim/statevector_runner.h"
#include "qsim/transpile.h"
#include "util/rng.h"

namespace {

using namespace quorum::qsim;

circuit quorum_like_circuit(quorum::util::rng& gen) {
    // A miniature Quorum circuit: 2-qubit registers + ancilla.
    circuit c(5, 1);
    const qubit_t reg_a[] = {0, 1};
    const qubit_t reg_b[] = {2, 3};
    std::vector<double> amps{0.5, 0.5, 0.5, 0.5};
    c.initialize(reg_a, std::span<const double>(amps));
    c.initialize(reg_b, std::span<const double>(amps));
    c.rx(gen.angle(), 0).rz(gen.angle(), 1).cx(0, 1);
    c.reset(1);
    c.cx(0, 1).rz(-1.0, 1).rx(-0.5, 0);
    c.h(4);
    c.cswap(4, 0, 2);
    c.cswap(4, 1, 3);
    c.h(4);
    c.measure(4, 0);
    return c;
}

TEST(DensityRunner, IdealNoiseMatchesExactStatevector) {
    quorum::util::rng gen(61);
    for (int trial = 0; trial < 8; ++trial) {
        const circuit c = quorum_like_circuit(gen);
        const double p_exact =
            statevector_runner::run_exact(c).cbit_probability_one(0);
        const noisy_run_result result =
            density_runner::run(c, noise_model::ideal());
        EXPECT_NEAR(result.cbit_probability_one(0, noise_model::ideal()),
                    p_exact, 1e-9);
    }
}

TEST(DensityRunner, NoiseReducesPurity) {
    quorum::util::rng gen(67);
    const circuit c = quorum_like_circuit(gen);
    const noise_model noisy = noise_model::ibm_brisbane_median();
    const noisy_run_result ideal_run =
        density_runner::run(c, noise_model::ideal());
    const noisy_run_result noisy_run = density_runner::run(c, noisy);
    EXPECT_LT(noisy_run.state.purity(), ideal_run.state.purity());
    EXPECT_NEAR(noisy_run.state.trace_real(), 1.0, 1e-8);
}

TEST(DensityRunner, NoisyProbabilityStaysCloseToIdeal) {
    // The paper's noise-resilience claim at circuit level: Brisbane-median
    // noise shifts the SWAP ancilla probability only slightly.
    quorum::util::rng gen(71);
    const noise_model noisy = noise_model::ibm_brisbane_median();
    for (int trial = 0; trial < 5; ++trial) {
        const circuit c = quorum_like_circuit(gen);
        const double p_ideal =
            statevector_runner::run_exact(c).cbit_probability_one(0);
        const double p_noisy =
            density_runner::run(c, noisy).cbit_probability_one(0, noisy);
        EXPECT_NEAR(p_noisy, p_ideal, 0.08);
    }
}

TEST(DensityRunner, ReadoutErrorAppliedToMeasurement) {
    noise_model nm;
    nm.set_readout(readout_error{0.25, 0.25});
    circuit c(1, 1);
    c.measure(0, 0); // qubit in |0>
    const noisy_run_result result = density_runner::run(c, nm);
    EXPECT_NEAR(result.cbit_probability_one(0, nm), 0.25, 1e-10);
}

TEST(DensityRunner, UnknownCbitThrows) {
    circuit c(1, 1);
    c.h(0).measure(0, 0);
    const noisy_run_result result =
        density_runner::run(c, noise_model::ideal());
    EXPECT_THROW((void)result.cbit_probability_one(5, noise_model::ideal()),
                 quorum::util::contract_error);
}

TEST(DensityRunner, ProbabilityOneHelper) {
    circuit c(2, 1);
    c.x(1).measure(1, 0);
    EXPECT_NEAR(density_runner::probability_one(c, 1, noise_model::ideal()),
                1.0, 1e-10);
    noise_model nm;
    nm.set_readout(readout_error{0.0, 0.1}); // p(0|1) = 0.1
    EXPECT_NEAR(density_runner::probability_one(c, 1, nm), 0.9, 1e-10);
}

TEST(DensityRunner, DepolarizingOnlyModelShiftsBellProbability) {
    noise_model nm;
    nm.set_gate_error(gate_kind::cx, 0.2); // exaggerated for the test
    circuit c(2, 1);
    c.h(0).cx(0, 1).measure(1, 0);
    const noisy_run_result result = density_runner::run(c, nm);
    // Depolarizing pulls P(1) toward 1/2 from both sides; here the ideal is
    // already 1/2, so the probability should remain 1/2 but purity drops.
    EXPECT_NEAR(result.state.probability_one(1), 0.5, 1e-9);
    EXPECT_LT(result.state.purity(), 1.0);
}

TEST(DensityRunner, ThermalOnlyModelRelaxesExcitedState) {
    noise_model nm;
    nm.set_thermal(thermal_params{10.0, 15.0});
    nm.set_gate_duration(gate_kind::x, 5000.0); // 5us X pulse, T1 = 10us
    circuit c(1, 1);
    c.x(0).measure(0, 0);
    const noisy_run_result result = density_runner::run(c, nm);
    // gamma = 1 - exp(-0.5) ~ 0.39: excited population decays accordingly.
    EXPECT_NEAR(result.state.probability_one(0), std::exp(-0.5), 1e-6);
}

TEST(DensityRunner, FusedChannelsMatchMultiPassReplayWithNoisyRz) {
    // The runner takes each 1q/cx gate and its channels in one fused
    // sweep. Replay the same lowered circuit through the separate
    // primitives — including the diagonal rz, which this custom model
    // gives a depolarizing error and a duration — and demand equal bits.
    noise_model nm = noise_model::ibm_brisbane_median();
    nm.set_depolarizing_param(gate_kind::rz, 0.01);
    nm.set_gate_duration(gate_kind::rz, 35.0);
    quorum::util::rng gen(73);
    const circuit lowered = transpile_for_hardware(quorum_like_circuit(gen));

    density_matrix reference(lowered.num_qubits());
    for (const operation& op : lowered.ops()) {
        if (op.kind == op_kind::reset) {
            reference.reset_qubit(op.qubits[0]);
            continue;
        }
        double ns = nm.measure_duration_ns(); // measure: readout window
        if (op.kind == op_kind::gate) {
            reference.apply_gate(op.gate, op.qubits, op.params);
            const double p = nm.depolarizing_param(op.gate);
            if (p > 0.0) {
                reference.depolarize(op.qubits, p);
            }
            ns = nm.duration_ns(op.gate);
        }
        const auto thermal = nm.thermal_coefficients(ns);
        if (thermal.gamma > 0.0 || thermal.lambda > 0.0) {
            for (const qubit_t q : op.qubits) {
                reference.apply_thermal(q, thermal.gamma, thermal.lambda);
            }
        }
    }

    const noisy_run_result fused = density_runner::run_lowered(lowered, nm);
    const std::span<const amp> a = fused.state.elements();
    const std::span<const amp> b = reference.elements();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i].real()),
                  std::bit_cast<std::uint64_t>(b[i].real()))
            << "element " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i].imag()),
                  std::bit_cast<std::uint64_t>(b[i].imag()))
            << "element " << i;
    }
}

} // namespace
