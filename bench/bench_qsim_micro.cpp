// Microbenchmarks of the simulator substrate (google-benchmark): the cost
// model behind every figure bench. Covers state-vector kernels, the
// density-matrix channel kernels and noisy circuit, state-prep synthesis,
// SWAP-test evaluation, the full 7-qubit Quorum circuit, and
// transpilation.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "qml/amplitude_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "qsim/bit_ops.h"
#include "qsim/density_matrix.h"
#include "qsim/density_runner.h"
#include "qsim/kernels.h"
#include "qsim/statevector_runner.h"
#include "qsim/transpile.h"
#include "util/rng.h"

namespace {

using namespace quorum;
using namespace quorum::qsim;

/// Adds the related-work sized rows (n = 10, 12) when
/// QUORUM_BENCH_SCALE >= 2 — see bench_common.h.
void extended_sizes(benchmark::internal::Benchmark* b) {
    if (bench::bench_extended_sizes()) {
        b->Arg(10)->Arg(12);
    }
}

void bm_statevector_1q_gate(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    statevector sv(n);
    const qubit_t operand[] = {static_cast<qubit_t>(n / 2)};
    const double theta[] = {0.7};
    for (auto _ : state) {
        sv.apply_gate(gate_kind::rx, operand, theta);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(sv.dim()));
}
BENCHMARK(bm_statevector_1q_gate)->Arg(3)->Arg(7)->Arg(10)->Arg(14);

void bm_statevector_cx(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    statevector sv(n);
    const qubit_t operands[] = {0, static_cast<qubit_t>(n - 1)};
    for (auto _ : state) {
        sv.apply_gate(gate_kind::cx, operands);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
}
BENCHMARK(bm_statevector_cx)->Arg(3)->Arg(7)->Arg(10)->Arg(14);

void bm_statevector_cswap(benchmark::State& state) {
    statevector sv(7);
    const qubit_t operands[] = {6, 0, 3};
    for (auto _ : state) {
        sv.apply_gate(gate_kind::cswap, operands);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
}
BENCHMARK(bm_statevector_cswap);

// ---- kernel-layer benches: scalar reference vs the dispatched ISA ----
// Both apply the same bounded unitary in place, so amplitudes stay finite
// across iterations (no denormal/NaN timing artefacts).

void run_kernel_1q_bench(benchmark::State& state, kernels::isa which) {
    if (which == kernels::isa::avx2 &&
        (!kernels::avx2_compiled() || !kernels::avx2_supported())) {
        state.SkipWithError("AVX2 kernels unavailable on this build/host");
        return;
    }
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<amp> data(std::size_t{1} << n);
    data[0] = 1.0;
    const double theta[] = {0.7};
    const util::cmatrix u = gate_matrix(gate_kind::rx, theta);
    const auto q = static_cast<qubit_t>(n / 2);
    for (auto _ : state) {
        kernels::apply_1q(data.data(), n, u.data().data(), q, which);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(data.size()));
}

void bm_kernel_1q_scalar(benchmark::State& state) {
    run_kernel_1q_bench(state, kernels::isa::scalar);
}
BENCHMARK(bm_kernel_1q_scalar)->Arg(3)->Arg(7)->Apply(extended_sizes);

void bm_kernel_1q_simd(benchmark::State& state) {
    run_kernel_1q_bench(state, kernels::active_isa());
}
BENCHMARK(bm_kernel_1q_simd)->Arg(3)->Arg(7)->Apply(extended_sizes);

void run_kernel_block4_bench(benchmark::State& state, kernels::isa which) {
    if (which == kernels::isa::avx2 &&
        (!kernels::avx2_compiled() || !kernels::avx2_supported())) {
        state.SkipWithError("AVX2 kernels unavailable on this build/host");
        return;
    }
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<amp> data(std::size_t{1} << n);
    data[0] = 1.0;
    // A strided qubit pair — the fused 4x4 block shape PR 2's fusion
    // emits for the autoencoder families.
    const std::vector<qubit_t> qubits = {1, static_cast<qubit_t>(n - 1)};
    const std::vector<std::size_t> offsets = make_offsets(qubits);
    const util::cmatrix u = gate_matrix(gate_kind::cx, {});
    std::vector<amp> scratch(4);
    for (auto _ : state) {
        kernels::apply_block(data.data(), n, u.data().data(), qubits,
                             offsets, scratch.data(), which);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(data.size()));
}

void bm_kernel_block4_scalar(benchmark::State& state) {
    run_kernel_block4_bench(state, kernels::isa::scalar);
}
BENCHMARK(bm_kernel_block4_scalar)->Arg(3)->Arg(7)->Apply(extended_sizes);

void bm_kernel_block4_simd(benchmark::State& state) {
    run_kernel_block4_bench(state, kernels::active_isa());
}
BENCHMARK(bm_kernel_block4_simd)->Arg(3)->Arg(7)->Apply(extended_sizes);

// ---- density channel benches: multi-pass reference vs dispatched ----
// One noisy basis gate with its Brisbane channels on a dense 7-qubit
// (128x128) density matrix — the Quorum circuit's width. *_reference
// takes density_matrix::apply_noisy_gate (apply_gate -> depolarize ->
// apply_thermal per operand, the bit-exactness oracle); *_dispatched
// takes the runner's entry point (apply_1q_channel / apply_cx_channel),
// which is one fused kernel sweep on AVX2 hosts and the reference path
// elsewhere. Every 256 steps the state is restored, so repeated damping
// never reaches subnormals.

void run_density_bench(benchmark::State& state, gate_kind kind,
                       bool dispatched) {
    const std::size_t n = 7;
    util::rng gen(17);
    statevector psi(n);
    for (qubit_t q = 0; q < n; ++q) {
        const qubit_t operand[] = {q};
        const double theta[] = {gen.angle()};
        psi.apply_gate(gate_kind::ry, operand, theta);
        psi.apply_gate(gate_kind::rz, operand, theta);
    }
    const density_matrix initial = density_matrix::from_statevector(psi);
    const noise_model noise = noise_model::ibm_brisbane_median();
    const auto thermal = noise.thermal_coefficients(noise.duration_ns(kind));
    const kernels::density_channels channels{noise.depolarizing_param(kind),
                                             thermal.gamma, thermal.lambda};
    std::vector<qubit_t> qubits = {3};
    std::vector<double> params;
    if (kind == gate_kind::cx) {
        qubits = {1, 5};
    }
    if (kind == gate_kind::rz) {
        params = {0.7};
    }
    density_matrix rho = initial;
    std::size_t step = 0;
    for (auto _ : state) {
        if (++step % 256 == 0) {
            rho = initial;
        }
        if (!dispatched) {
            rho.apply_noisy_gate(kind, qubits, params, channels);
        } else if (kind == gate_kind::cx) {
            rho.apply_cx_channel(qubits[0], qubits[1], channels);
        } else {
            rho.apply_1q_channel(kind, qubits[0], params, channels);
        }
        benchmark::DoNotOptimize(rho.elements().data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(rho.elements().size()));
}

void bm_density_rz_reference(benchmark::State& state) {
    run_density_bench(state, gate_kind::rz, false);
}
BENCHMARK(bm_density_rz_reference);

void bm_density_rz_dispatched(benchmark::State& state) {
    run_density_bench(state, gate_kind::rz, true);
}
BENCHMARK(bm_density_rz_dispatched);

void bm_density_sx_reference(benchmark::State& state) {
    run_density_bench(state, gate_kind::sx, false);
}
BENCHMARK(bm_density_sx_reference);

void bm_density_sx_dispatched(benchmark::State& state) {
    run_density_bench(state, gate_kind::sx, true);
}
BENCHMARK(bm_density_sx_dispatched);

void bm_density_cx_reference(benchmark::State& state) {
    run_density_bench(state, gate_kind::cx, false);
}
BENCHMARK(bm_density_cx_reference);

void bm_density_cx_dispatched(benchmark::State& state) {
    run_density_bench(state, gate_kind::cx, true);
}
BENCHMARK(bm_density_cx_dispatched);

void bm_state_prep_synthesis(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    util::rng gen(3);
    std::vector<double> features(qml::max_features(n));
    // The paper's 1/M normalisation (§IV-A): without it, sums of squares
    // exceed unit probability mass once M = 2^n - 1 grows past ~11.
    for (double& f : features) {
        f = gen.uniform() / static_cast<double>(features.size());
    }
    for (auto _ : state) {
        const circuit prep = qml::encoding_circuit(features, n);
        benchmark::DoNotOptimize(prep.gate_count());
    }
}
BENCHMARK(bm_state_prep_synthesis)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void bm_analytic_swap_p1(benchmark::State& state) {
    util::rng gen(5);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    std::vector<double> features(7);
    for (double& f : features) {
        f = gen.uniform() * 0.3;
    }
    const std::vector<double> amps = qml::to_amplitudes(features, 3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(qml::analytic_swap_p1(amps, params, 1));
    }
}
BENCHMARK(bm_analytic_swap_p1);

void bm_full_circuit_exact(benchmark::State& state) {
    util::rng gen(7);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    std::vector<double> features(7);
    for (double& f : features) {
        f = gen.uniform() * 0.3;
    }
    const std::vector<double> amps = qml::to_amplitudes(features, 3);
    const circuit c = qml::build_autoencoder_circuit(amps, params, 1);
    for (auto _ : state) {
        const exact_run_result result = statevector_runner::run_exact(c);
        benchmark::DoNotOptimize(
            result.cbit_probability_one(qml::swap_result_cbit));
    }
}
BENCHMARK(bm_full_circuit_exact);

void bm_noisy_density_circuit(benchmark::State& state) {
    util::rng gen(9);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    std::vector<double> features(7);
    for (double& f : features) {
        f = gen.uniform() * 0.3;
    }
    const std::vector<double> amps = qml::to_amplitudes(features, 3);
    const circuit c = qml::build_autoencoder_circuit(amps, params, 1);
    const noise_model noise = noise_model::ibm_brisbane_median();
    for (auto _ : state) {
        const noisy_run_result result = density_runner::run(c, noise);
        benchmark::DoNotOptimize(
            result.cbit_probability_one(qml::swap_result_cbit, noise));
    }
}
BENCHMARK(bm_noisy_density_circuit);

void bm_transpile_autoencoder(benchmark::State& state) {
    util::rng gen(11);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    std::vector<double> features(7);
    for (double& f : features) {
        f = gen.uniform() * 0.3;
    }
    const std::vector<double> amps = qml::to_amplitudes(features, 3);
    const circuit c = qml::build_autoencoder_circuit(amps, params, 1);
    for (auto _ : state) {
        const circuit lowered = transpile_for_hardware(c);
        benchmark::DoNotOptimize(lowered.gate_count());
    }
}
BENCHMARK(bm_transpile_autoencoder);

void bm_shot_sampling(benchmark::State& state) {
    util::rng gen(13);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.binomial(4096, 0.137));
    }
}
BENCHMARK(bm_shot_sampling);

} // namespace

BENCHMARK_MAIN();
