// Fused-vs-per-level bit-identity property suite — the contract of the
// multi-level execution path: run_batch_levels over a compression-level
// family returns values EQUAL (IEEE ==, i.e. identical at 17 significant
// digits) to running each level alone through run_batch with that level's
// rng stream, on every registered backend and sampling mode. The fused
// implementations only amortise shared work (state prep + encoder + nested
// reset prefix, the adjoint decoder of the SWAP-test short-circuit, the
// density engine's cached prefix evolution); they may never change a
// number.
#include <vector>

#include <gtest/gtest.h>

#include "../loopback.h"
#include "exec/fleet.h"
#include "exec/registry.h"
#include "qml/amplitude_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "qsim/compiled_program.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace {

using namespace quorum;

struct level_fixture {
    qml::ansatz_params params;
    std::vector<std::vector<double>> amplitudes;

    explicit level_fixture(std::uint64_t seed, std::size_t samples = 10,
                           std::size_t n_qubits = 3) {
        util::rng gen(seed);
        params = qml::random_ansatz_params(n_qubits, 2, gen);
        amplitudes.resize(samples);
        for (auto& amps : amplitudes) {
            std::vector<double> features((std::size_t{1} << n_qubits) - 1);
            for (double& f : features) {
                f = gen.uniform() / static_cast<double>(features.size());
            }
            amps = qml::to_amplitudes(features, n_qubits);
        }
    }

    /// Register-A shortcut family (prep-overlap readout).
    [[nodiscard]] std::vector<exec::program>
    analytic_family(std::span<const std::size_t> levels) const {
        std::vector<exec::program> family;
        for (const std::size_t level : levels) {
            exec::program program;
            program.circuit = qsim::compiled_program::compile(
                qml::autoencoder_reg_a_template(params, level));
            program.readout.kind = exec::readout_kind::prep_overlap_p1;
            family.push_back(std::move(program));
        }
        return family;
    }

    /// Full 2n+1-qubit SWAP-test family (classical-bit readout).
    [[nodiscard]] std::vector<exec::program>
    full_family(std::span<const std::size_t> levels) const {
        std::vector<exec::program> family;
        for (const std::size_t level : levels) {
            exec::program program;
            program.circuit = qsim::compiled_program::compile(
                qml::autoencoder_template(params, level));
            program.readout.kind = exec::readout_kind::cbit_probability;
            program.readout.cbit = qml::swap_result_cbit;
            family.push_back(std::move(program));
        }
        return family;
    }
};

/// Per-(level, sample) rng streams, derived exactly like core's ensemble
/// loop: independent of evaluation order.
struct stream_table {
    std::vector<util::rng> gens;
    std::vector<util::rng*> pointers;
    std::size_t levels = 0;

    stream_table(std::uint64_t seed, std::size_t samples,
                 std::size_t level_count)
        : levels(level_count) {
        gens.reserve(samples * level_count);
        pointers.reserve(samples * level_count);
        for (std::size_t i = 0; i < samples; ++i) {
            for (std::size_t k = 0; k < level_count; ++k) {
                gens.emplace_back(util::derive_seed(seed, k * samples + i));
                pointers.push_back(&gens.back());
            }
        }
    }

    [[nodiscard]] std::span<util::rng* const>
    for_sample(std::size_t i) const {
        return {pointers.data() + i * levels, levels};
    }
    [[nodiscard]] util::rng* at(std::size_t i, std::size_t k) const {
        return pointers[i * levels + k];
    }
};

std::vector<exec::sample> make_samples(const level_fixture& fixture,
                                       const stream_table* streams) {
    std::vector<exec::sample> samples(fixture.amplitudes.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        samples[i].amplitudes = fixture.amplitudes[i];
        if (streams != nullptr) {
            samples[i].level_gens = streams->for_sample(i);
        }
    }
    return samples;
}

/// The reference: each level evaluated alone through run_batch, with a
/// FRESH copy of the per-(level, sample) streams so the fused run draws
/// from identical rng states.
std::vector<double> per_level_reference(const exec::executor& engine,
                                        std::span<const exec::program> family,
                                        const level_fixture& fixture,
                                        std::uint64_t stream_seed,
                                        bool stochastic) {
    const std::size_t n = fixture.amplitudes.size();
    std::vector<double> reference(n * family.size());
    std::vector<exec::sample> samples = make_samples(fixture, nullptr);
    stream_table streams(stream_seed, n, family.size());
    std::vector<double> out(n);
    for (std::size_t k = 0; k < family.size(); ++k) {
        for (std::size_t i = 0; i < n; ++i) {
            samples[i].gen = stochastic ? streams.at(i, k) : nullptr;
        }
        engine.run_batch(family[k], samples, out);
        for (std::size_t i = 0; i < n; ++i) {
            reference[i * family.size() + k] = out[i];
        }
    }
    return reference;
}

void expect_fused_matches(const exec::executor& engine,
                          std::span<const exec::program> family,
                          const level_fixture& fixture,
                          std::uint64_t stream_seed, bool stochastic) {
    const std::size_t n = fixture.amplitudes.size();
    const std::vector<double> reference = per_level_reference(
        engine, family, fixture, stream_seed, stochastic);

    stream_table streams(stream_seed, n, family.size());
    const std::vector<exec::sample> samples =
        make_samples(fixture, stochastic ? &streams : nullptr);
    std::vector<double> fused(n * family.size());
    engine.run_batch_levels(family, samples, fused);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < family.size(); ++k) {
            // IEEE ==, i.e. identical at 17 significant digits.
            EXPECT_EQ(fused[i * family.size() + k],
                      reference[i * family.size() + k])
                << "sample " << i << " level index " << k;
        }
    }
}

constexpr std::size_t nested_levels[] = {1, 2};
constexpr std::size_t reversed_levels[] = {2, 1};
constexpr std::size_t single_level[] = {1};

TEST(FusedLevels, StatevectorExactAnalyticFamily) {
    const level_fixture fixture(3);
    const auto engine =
        exec::make_executor("statevector", exec::engine_config{});
    expect_fused_matches(*engine, fixture.analytic_family(nested_levels),
                         fixture, 17, false);
}

TEST(FusedLevels, StatevectorExactFourLevelFamily) {
    // The flagship fused shape: 5-qubit registers, levels {1, 2, 3, 4}.
    const level_fixture fixture(5, 6, 5);
    const std::size_t levels[] = {1, 2, 3, 4};
    const auto engine =
        exec::make_executor("statevector", exec::engine_config{});
    expect_fused_matches(*engine, fixture.analytic_family(levels), fixture,
                         19, false);
}

TEST(FusedLevels, StatevectorExactFullCircuitFamily) {
    const level_fixture fixture(7);
    const auto engine =
        exec::make_executor("statevector", exec::engine_config{});
    expect_fused_matches(*engine, fixture.full_family(nested_levels),
                         fixture, 23, false);
}

TEST(FusedLevels, StatevectorBinomialAnalyticFamily) {
    const level_fixture fixture(9);
    exec::engine_config config;
    config.sampling_mode = exec::sampling::binomial;
    config.shots = 512;
    const auto engine = exec::make_executor("statevector", config);
    expect_fused_matches(*engine, fixture.analytic_family(nested_levels),
                         fixture, 29, true);
}

TEST(FusedLevels, StatevectorPerShotFullCircuitFamily) {
    const level_fixture fixture(11, 4);
    exec::engine_config config;
    config.sampling_mode = exec::sampling::per_shot;
    config.shots = 32;
    const auto engine = exec::make_executor("statevector", config);
    expect_fused_matches(*engine, fixture.full_family(nested_levels),
                         fixture, 31, true);
}

TEST(FusedLevels, DensityExactFullCircuitFamily) {
    const level_fixture fixture(13, 4);
    exec::engine_config config;
    config.noise = qsim::noise_model::ibm_brisbane_median();
    const auto engine = exec::make_executor("density", config);
    expect_fused_matches(*engine, fixture.full_family(nested_levels),
                         fixture, 37, false);
}

TEST(FusedLevels, DensityBinomialFullCircuitFamily) {
    const level_fixture fixture(15, 3);
    exec::engine_config config;
    config.sampling_mode = exec::sampling::binomial;
    config.shots = 256;
    config.noise = qsim::noise_model::ibm_brisbane_median();
    const auto engine = exec::make_executor("density", config);
    expect_fused_matches(*engine, fixture.full_family(nested_levels),
                         fixture, 41, true);
}

TEST(FusedLevels, RemoteStatevectorEveryWorkerCount) {
    // Through loopback workers: each span of the plan runs the family
    // through the worker's own fused path.
    const level_fixture fixture(17);
    for (const std::size_t workers : {1u, 2u, 3u}) {
        exec::engine_config config;
        config.sampling_mode = exec::sampling::binomial;
        config.shots = 256;
        config.shards = workers;
        const exec::fleet_executor engine(config, "statevector",
                                          test::loopback_factory());
        expect_fused_matches(engine, fixture.analytic_family(nested_levels),
                             fixture, 43, true);
    }
}

TEST(FusedLevels, RemoteDensityExact) {
    const level_fixture fixture(19, 4);
    exec::engine_config config;
    config.noise = qsim::noise_model::ibm_brisbane_median();
    config.shards = 2;
    const exec::fleet_executor engine(config, "density",
                                      test::loopback_factory());
    expect_fused_matches(engine, fixture.full_family(nested_levels),
                         fixture, 47, false);
}

TEST(FusedLevels, NonNestedLevelOrderMatchesToo) {
    // Levels in descending order share no usable trunk beyond the encoder
    // — the rebuild path must still be ==-equal to per-level evaluation.
    const level_fixture fixture(21);
    const auto engine =
        exec::make_executor("statevector", exec::engine_config{});
    expect_fused_matches(*engine, fixture.analytic_family(reversed_levels),
                         fixture, 53, false);
}

TEST(FusedLevels, SingleLevelFamilyWorks) {
    const level_fixture fixture(23);
    const auto engine =
        exec::make_executor("statevector", exec::engine_config{});
    expect_fused_matches(*engine, fixture.analytic_family(single_level),
                         fixture, 59, false);
}

TEST(FusedLevels, CapabilityIsAdvertisedPerBackend) {
    exec::engine_config exact;
    EXPECT_TRUE(exec::make_executor("statevector", exact)
                    ->supports(exec::capability::fused_levels));
    EXPECT_TRUE(exec::make_executor("density", exact)
                    ->supports(exec::capability::fused_levels));
    EXPECT_TRUE(exec::make_executor("remote:statevector", exact)
                    ->supports(exec::capability::fused_levels));

    exec::engine_config per_shot;
    per_shot.sampling_mode = exec::sampling::per_shot;
    per_shot.shots = 8;
    // Per-shot replay is stochastic per shot: nothing to fuse, and the
    // naive fallback serves run_batch_levels instead.
    EXPECT_FALSE(exec::make_executor("statevector", per_shot)
                     ->supports(exec::capability::fused_levels));
    EXPECT_FALSE(exec::make_executor("remote:statevector", per_shot)
                     ->supports(exec::capability::fused_levels));
}

TEST(FusedLevels, MissingLevelStreamsAreRejected) {
    const level_fixture fixture(25, 3);
    exec::engine_config config;
    config.sampling_mode = exec::sampling::binomial;
    config.shots = 16;
    const auto engine = exec::make_executor("statevector", config);
    const std::vector<exec::program> family =
        fixture.analytic_family(nested_levels);
    const std::vector<exec::sample> samples =
        make_samples(fixture, nullptr); // no level_gens
    std::vector<double> out(samples.size() * family.size());
    EXPECT_THROW(engine->run_batch_levels(family, samples, out),
                 util::contract_error);
}

TEST(FusedLevels, DivergentFamilyHeadsAreRejected) {
    // Mixing register sizes (different prep-slot layouts) in one family
    // must fail loudly: fused implementations prepare ONE state from one
    // level's head and reuse it for every level.
    const level_fixture small(29, 3, 3);
    const level_fixture large(29, 3, 4);
    std::vector<exec::program> family =
        small.analytic_family(single_level);
    std::vector<exec::program> other =
        large.analytic_family(single_level);
    family.push_back(std::move(other.front()));
    const auto engine =
        exec::make_executor("statevector", exec::engine_config{});
    const std::vector<exec::sample> samples = make_samples(small, nullptr);
    std::vector<double> out(samples.size() * family.size());
    EXPECT_THROW(engine->run_batch_levels(family, samples, out),
                 util::contract_error);
}

TEST(FusedLevels, SharedGenWithoutLevelStreamsIsRejectedByBasePath) {
    // The naive base implementation must not silently thread one rng
    // stream through all levels sequentially (that would make level k's
    // draws depend on level k-1's).
    const level_fixture fixture(31, 3);
    exec::engine_config config;
    config.sampling_mode = exec::sampling::per_shot; // base-path fallback
    config.shots = 8;
    const auto engine = exec::make_executor("statevector", config);
    const std::vector<exec::program> family =
        fixture.full_family(nested_levels);
    std::vector<util::rng> gens;
    gens.reserve(fixture.amplitudes.size());
    std::vector<exec::sample> samples = make_samples(fixture, nullptr);
    for (exec::sample& s : samples) {
        gens.emplace_back(util::derive_seed(9, gens.size()));
        s.gen = &gens.back();
    }
    std::vector<double> out(samples.size() * family.size());
    EXPECT_THROW(engine->run_batch_levels(family, samples, out),
                 util::contract_error);
}

TEST(FusedLevels, MismatchedOutputSpanIsRejected) {
    const level_fixture fixture(27, 3);
    const auto engine =
        exec::make_executor("statevector", exec::engine_config{});
    const std::vector<exec::program> family =
        fixture.analytic_family(nested_levels);
    const std::vector<exec::sample> samples = make_samples(fixture, nullptr);
    std::vector<double> too_small(samples.size()); // needs samples * levels
    EXPECT_THROW(engine->run_batch_levels(family, samples, too_small),
                 util::contract_error);
}

} // namespace
