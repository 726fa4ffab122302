#include <cmath>
#include <memory>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "exec/registry.h"
#include "qml/amplitude_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "qsim/statevector_runner.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace {

using namespace quorum;

struct batch_fixture {
    qml::ansatz_params params;
    std::vector<std::vector<double>> amplitudes;

    explicit batch_fixture(std::uint64_t seed, std::size_t samples = 12) {
        util::rng gen(seed);
        params = qml::random_ansatz_params(3, 2, gen);
        amplitudes.resize(samples);
        for (auto& amps : amplitudes) {
            std::vector<double> features(7);
            for (double& f : features) {
                f = gen.uniform() / 7.0;
            }
            amps = qml::to_amplitudes(features, 3);
        }
    }

    [[nodiscard]] std::vector<exec::sample>
    make_samples(std::vector<util::rng>* gens = nullptr) const {
        std::vector<exec::sample> samples(amplitudes.size());
        for (std::size_t i = 0; i < amplitudes.size(); ++i) {
            samples[i].amplitudes = amplitudes[i];
            if (gens != nullptr) {
                samples[i].gen = &(*gens)[i];
            }
        }
        return samples;
    }

    [[nodiscard]] std::vector<util::rng>
    make_gens(std::uint64_t seed) const {
        std::vector<util::rng> gens;
        gens.reserve(amplitudes.size());
        for (std::size_t i = 0; i < amplitudes.size(); ++i) {
            gens.emplace_back(util::derive_seed(seed, i));
        }
        return gens;
    }
};

exec::program analytic_program(const qml::ansatz_params& params,
                               std::size_t level) {
    exec::program program;
    program.circuit = qsim::compiled_program::compile(
        qml::autoencoder_reg_a_template(params, level));
    program.readout.kind = exec::readout_kind::prep_overlap_p1;
    return program;
}

exec::program full_program(const qml::ansatz_params& params,
                           std::size_t level) {
    exec::program program;
    program.circuit = qsim::compiled_program::compile(
        qml::autoencoder_template(params, level));
    program.readout.kind = exec::readout_kind::cbit_probability;
    program.readout.cbit = qml::swap_result_cbit;
    return program;
}

TEST(StatevectorBackend, ExactBatchMatchesAnalyticShortcut) {
    const batch_fixture fixture(3);
    const auto engine =
        exec::make_executor("statevector", exec::engine_config{});
    const exec::program program = analytic_program(fixture.params, 1);
    const std::vector<exec::sample> samples = fixture.make_samples();
    std::vector<double> out(samples.size());
    engine->run_batch(program, samples, out);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        // The engine evaluates <psi|D phi_b> as <D†psi|phi_b> (the
        // SWAP-test short-circuit — D applied once to the reference, not
        // to every reset branch), so it agrees with the circuit-order
        // reference to reassociation rounding, not bitwise. Bitwise
        // contracts live in the golden fixtures and the fused-vs-per-level
        // suite (test_fused_levels.cpp).
        EXPECT_NEAR(out[i],
                    qml::analytic_swap_p1(fixture.amplitudes[i],
                                          fixture.params, 1),
                    1e-12)
            << i;
    }
}

TEST(StatevectorBackend, ExactFullCircuitIsBitIdenticalToLegacyRunner) {
    const batch_fixture fixture(5);
    const auto engine =
        exec::make_executor("statevector", exec::engine_config{});
    const exec::program program = full_program(fixture.params, 2);
    const std::vector<exec::sample> samples = fixture.make_samples();
    std::vector<double> out(samples.size());
    engine->run_batch(program, samples, out);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const qsim::circuit c = qml::build_autoencoder_circuit(
            fixture.amplitudes[i], fixture.params, 2);
        const qsim::exact_run_result result =
            qsim::statevector_runner::run_exact(c);
        EXPECT_EQ(out[i],
                  result.cbit_probability_one(qml::swap_result_cbit))
            << i;
    }
}

TEST(StatevectorBackend, FullCircuitAgreesWithAnalyticShortcut) {
    const batch_fixture fixture(7);
    const auto engine =
        exec::make_executor("statevector", exec::engine_config{});
    std::vector<double> analytic(fixture.amplitudes.size());
    std::vector<double> full(fixture.amplitudes.size());
    const std::vector<exec::sample> samples = fixture.make_samples();
    engine->run_batch(analytic_program(fixture.params, 1), samples, analytic);
    engine->run_batch(full_program(fixture.params, 1), samples, full);
    for (std::size_t i = 0; i < analytic.size(); ++i) {
        EXPECT_NEAR(analytic[i], full[i], 1e-12) << i;
    }
}

TEST(StatevectorBackend, BinomialSamplingIsDeterministicPerStream) {
    const batch_fixture fixture(9);
    exec::engine_config config;
    config.sampling_mode = exec::sampling::binomial;
    config.shots = 512;
    const auto engine = exec::make_executor("statevector", config);
    const exec::program program = analytic_program(fixture.params, 1);

    std::vector<util::rng> gens_a = fixture.make_gens(77);
    std::vector<util::rng> gens_b = fixture.make_gens(77);
    std::vector<double> out_a(fixture.amplitudes.size());
    std::vector<double> out_b(fixture.amplitudes.size());
    engine->run_batch(program, fixture.make_samples(&gens_a), out_a);
    engine->run_batch(program, fixture.make_samples(&gens_b), out_b);
    EXPECT_EQ(out_a, out_b);
}

TEST(StatevectorBackend, PerShotConvergesToExactProbability) {
    const batch_fixture fixture(11, 4);
    exec::engine_config config;
    config.sampling_mode = exec::sampling::per_shot;
    config.shots = 4096;
    const auto engine = exec::make_executor("statevector", config);
    const exec::program shot_program = full_program(fixture.params, 1);

    const auto exact_engine =
        exec::make_executor("statevector", exec::engine_config{});
    std::vector<double> exact(fixture.amplitudes.size());
    exact_engine->run_batch(analytic_program(fixture.params, 1),
                            fixture.make_samples(), exact);

    std::vector<util::rng> gens = fixture.make_gens(123);
    std::vector<double> sampled(fixture.amplitudes.size());
    engine->run_batch(shot_program, fixture.make_samples(&gens), sampled);
    for (std::size_t i = 0; i < exact.size(); ++i) {
        EXPECT_NEAR(sampled[i], exact[i], 0.05) << i;
    }
}

TEST(StatevectorBackend, PerShotRejectsASuffixHoldingInitialize) {
    // Per-shot replay fuses the suffix it replays, and fusion takes gates,
    // resets and measures only: an initialize behind the first gate is a
    // contract error that names the per-shot replay.
    qsim::circuit c(1, 1);
    const qsim::qubit_t reg[] = {0};
    const double amps[] = {0.6, 0.8};
    c.h(0);
    c.initialize(reg, amps);
    c.measure(0, 0);
    exec::program program;
    program.circuit = qsim::compiled_program::compile(c);
    program.readout.cbit = 0;
    exec::engine_config config;
    config.sampling_mode = exec::sampling::per_shot;
    config.shots = 8;
    const auto engine = exec::make_executor("statevector", config);
    util::rng gen(3);
    exec::sample s;
    s.gen = &gen;
    const exec::sample batch[] = {s};
    double out = 0.0;
    try {
        engine->run_batch(program, batch, std::span<double>(&out, 1));
        ADD_FAILURE() << "per-shot replay accepted a suffix initialize";
    } catch (const util::contract_error& error) {
        EXPECT_NE(std::string(error.what()).find("per-shot replay"),
                  std::string::npos)
            << error.what();
    }
}

TEST(StatevectorBackend, RunMatchesRunBatchOnACompleteCircuit) {
    const batch_fixture fixture(13, 1);
    const auto engine =
        exec::make_executor("statevector", exec::engine_config{});
    const qsim::circuit c = qml::build_autoencoder_circuit(
        fixture.amplitudes[0], fixture.params, 1);
    const double via_run = engine->run(c, qml::swap_result_cbit, nullptr);
    std::vector<double> via_batch(1);
    engine->run_batch(full_program(fixture.params, 1),
                      fixture.make_samples(), via_batch);
    EXPECT_EQ(via_run, via_batch[0]);
}

TEST(StatevectorBackend, RejectsMismatchedBatchSpans) {
    const batch_fixture fixture(15, 2);
    const auto engine =
        exec::make_executor("statevector", exec::engine_config{});
    const exec::program program = analytic_program(fixture.params, 1);
    const std::vector<exec::sample> samples = fixture.make_samples();
    std::vector<double> too_small(1);
    EXPECT_THROW(engine->run_batch(program, samples, too_small),
                 util::contract_error);
}

TEST(StatevectorBackend, SamplingWithoutStreamsThrows) {
    const batch_fixture fixture(17, 2);
    exec::engine_config config;
    config.sampling_mode = exec::sampling::binomial;
    config.shots = 16;
    const auto engine = exec::make_executor("statevector", config);
    const exec::program program = analytic_program(fixture.params, 1);
    std::vector<double> out(fixture.amplitudes.size());
    EXPECT_THROW(engine->run_batch(program, fixture.make_samples(), out),
                 util::contract_error);
}

TEST(DensityBackend, NoiselessDensityAgreesWithStatevector) {
    const batch_fixture fixture(19, 3);
    exec::engine_config config;
    config.noise = qsim::noise_model::ideal();
    const auto density = exec::make_executor("density", config);
    const auto statevector =
        exec::make_executor("statevector", exec::engine_config{});
    const exec::program program = full_program(fixture.params, 1);
    std::vector<double> noisy(fixture.amplitudes.size());
    std::vector<double> pure(fixture.amplitudes.size());
    density->run_batch(program, fixture.make_samples(), noisy);
    statevector->run_batch(program, fixture.make_samples(), pure);
    for (std::size_t i = 0; i < noisy.size(); ++i) {
        EXPECT_NEAR(noisy[i], pure[i], 1e-8) << i;
    }
}

TEST(DensityBackend, BrisbaneNoiseShiftsProbabilitiesSlightly) {
    const batch_fixture fixture(21, 3);
    exec::engine_config config;
    config.noise = qsim::noise_model::ibm_brisbane_median();
    const auto density = exec::make_executor("density", config);
    const auto statevector =
        exec::make_executor("statevector", exec::engine_config{});
    const exec::program program = full_program(fixture.params, 1);
    std::vector<double> noisy(fixture.amplitudes.size());
    std::vector<double> pure(fixture.amplitudes.size());
    density->run_batch(program, fixture.make_samples(), noisy);
    statevector->run_batch(program, fixture.make_samples(), pure);
    for (std::size_t i = 0; i < noisy.size(); ++i) {
        EXPECT_NE(noisy[i], pure[i]) << i;       // noise does something
        EXPECT_NEAR(noisy[i], pure[i], 0.1) << i; // but not much
    }
}

TEST(DensityBackend, BatchedDensityMatchesPerSampleMaterializedRuns) {
    // The batched density path (shared-suffix transpile cache) must stay
    // bit-identical to transpiling each sample's materialized circuit.
    const batch_fixture fixture(39, 4);
    exec::engine_config config;
    config.noise = qsim::noise_model::ibm_brisbane_median();
    const auto engine = exec::make_executor("density", config);
    const exec::program program = full_program(fixture.params, 1);
    std::vector<double> batched(fixture.amplitudes.size());
    engine->run_batch(program, fixture.make_samples(), batched);
    for (std::size_t i = 0; i < fixture.amplitudes.size(); ++i) {
        const qsim::circuit c =
            program.circuit.materialize(fixture.amplitudes[i]);
        EXPECT_EQ(batched[i],
                  engine->run(c, qml::swap_result_cbit, nullptr))
            << i;
    }
}

TEST(DensityBackend, RejectsPerShotSampling) {
    exec::engine_config config;
    config.sampling_mode = exec::sampling::per_shot;
    config.shots = 8;
    EXPECT_THROW((void)exec::make_executor("density", config),
                 util::contract_error);
}

} // namespace
