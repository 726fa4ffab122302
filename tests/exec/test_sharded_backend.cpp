// Shard-invariance property suite: the sharded backend must produce
// BIT-identical batch results for any shard count, in every execution
// mode — determinism is the engine contract that keeps Quorum's scores
// reproducible when the ensemble fans out (and the regression the related
// QAE reproductions are notoriously brittle against).
#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/registry.h"
#include "exec/sharded_backend.h"
#include "qml/amplitude_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace {

using namespace quorum;

constexpr std::size_t shard_counts[] = {1, 2, 3, 7};

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

    [[nodiscard]] std::vector<util::rng> make_gens(std::uint64_t seed) const {
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

/// Runs the batch through "sharded:<inner>" at every shard count and
/// asserts bitwise equality with the unsharded inner backend. Stochastic
/// configs re-derive fresh per-sample streams per run, exactly as the
/// ensemble loop does — shard invariance must hold for them too.
void expect_shard_invariant(const batch_fixture& fixture,
                            const exec::program& program,
                            const std::string& inner,
                            exec::engine_config config,
                            bool stochastic) {
    std::vector<double> reference(fixture.amplitudes.size());
    {
        config.shards = 1;
        const auto engine = exec::make_executor(inner, config);
        std::vector<util::rng> gens = fixture.make_gens(99);
        engine->run_batch(
            program, fixture.make_samples(stochastic ? &gens : nullptr),
            reference);
    }
    for (const std::size_t shards : shard_counts) {
        config.shards = shards;
        const auto engine = exec::make_executor("sharded:" + inner, config);
        std::vector<util::rng> gens = fixture.make_gens(99);
        std::vector<double> out(fixture.amplitudes.size());
        engine->run_batch(
            program, fixture.make_samples(stochastic ? &gens : nullptr),
            out);
        for (std::size_t i = 0; i < out.size(); ++i) {
            // EXPECT_EQ on doubles = bit-identical (==> equality at 17
            // significant digits, the strongest printable guarantee).
            EXPECT_EQ(out[i], reference[i])
                << "shards=" << shards << " sample=" << i;
        }
    }
}

TEST(ShardedBackend, ExactModeIsBitIdenticalForAnyShardCount) {
    const batch_fixture fixture(31);
    expect_shard_invariant(fixture, analytic_program(fixture.params, 1),
                           "statevector", exec::engine_config{},
                           /*stochastic=*/false);
    expect_shard_invariant(fixture, full_program(fixture.params, 2),
                           "statevector", exec::engine_config{},
                           /*stochastic=*/false);
}

TEST(ShardedBackend, SampledModeIsBitIdenticalForAnyShardCount) {
    const batch_fixture fixture(33);
    exec::engine_config config;
    config.sampling_mode = exec::sampling::binomial;
    config.shots = 512;
    expect_shard_invariant(fixture, analytic_program(fixture.params, 1),
                           "statevector", config, /*stochastic=*/true);
}

TEST(ShardedBackend, PerShotModeIsBitIdenticalForAnyShardCount) {
    const batch_fixture fixture(35, 6);
    exec::engine_config config;
    config.sampling_mode = exec::sampling::per_shot;
    config.shots = 64;
    expect_shard_invariant(fixture, full_program(fixture.params, 1),
                           "statevector", config, /*stochastic=*/true);
}

TEST(ShardedBackend, NoisyModeIsBitIdenticalForAnyShardCount) {
    const batch_fixture fixture(37, 5);
    exec::engine_config config;
    config.noise = qsim::noise_model::ibm_brisbane_median();
    config.sampling_mode = exec::sampling::binomial;
    config.shots = 256;
    expect_shard_invariant(fixture, full_program(fixture.params, 1),
                           "density", config, /*stochastic=*/true);
}

TEST(ShardedBackend, BatchedDensityMatchesPerSampleMaterializedRuns) {
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

TEST(ShardedBackend, MoreShardsThanSamplesStillCoversEverySample) {
    const batch_fixture fixture(41, 3);
    exec::engine_config config;
    config.shards = 7; // > samples: some shards get no work
    const auto engine = exec::make_executor("sharded:statevector", config);
    const exec::program program = analytic_program(fixture.params, 1);
    std::vector<double> out(fixture.amplitudes.size(), -1.0);
    engine->run_batch(program, fixture.make_samples(), out);
    for (const double value : out) {
        EXPECT_GE(value, 0.0);
        EXPECT_LE(value, 1.0);
    }
}

TEST(ShardedBackend, PlanIsStableContiguousAndBalanced) {
    for (const std::size_t n : {1u, 7u, 60u, 241u}) {
        for (const std::size_t shards : {1u, 2u, 3u, 7u, 64u}) {
            const auto plan = exec::make_shard_plan(n, shards);
            const auto replay = exec::make_shard_plan(n, shards);
            ASSERT_EQ(plan.size(), replay.size());
            std::size_t covered = 0;
            for (std::size_t k = 0; k < plan.size(); ++k) {
                // Keyed by sample index only: re-planning is bit-stable.
                EXPECT_EQ(plan[k].shard, replay[k].shard);
                EXPECT_EQ(plan[k].first, replay[k].first);
                EXPECT_EQ(plan[k].count, replay[k].count);
                EXPECT_EQ(plan[k].first, covered); // contiguous, in order
                EXPECT_GT(plan[k].count, 0u);      // no empty spans
                // Balanced to within one sample.
                EXPECT_LE(plan[k].count, n / shards + 1);
                covered += plan[k].count;
            }
            EXPECT_EQ(covered, n) << n << " samples, " << shards
                                  << " shards";
        }
    }
}

TEST(ShardedBackend, PathologicalShardCountsAreCappedNotLooped) {
    // An unsigned wrap of "-1" (or any huge value) must not spin 2^64
    // plan iterations or overflow the span arithmetic.
    const auto plan =
        exec::make_shard_plan(5, std::numeric_limits<std::size_t>::max());
    ASSERT_EQ(plan.size(), 5u);
    for (std::size_t k = 0; k < plan.size(); ++k) {
        EXPECT_EQ(plan[k].first, k);
        EXPECT_EQ(plan[k].count, 1u);
    }
    // The backend clamps its lane count too (lanes are real threads).
    exec::engine_config config;
    config.shards = std::numeric_limits<std::size_t>::max();
    const exec::sharded_backend engine(config, "statevector");
    EXPECT_EQ(engine.shard_count(), 256u);
}

TEST(ShardedBackend, FailingShardSurfacesAsStructuredError) {
    const batch_fixture fixture(43, 8);
    exec::engine_config config;
    config.sampling_mode = exec::sampling::binomial;
    config.shots = 0; // invalid: the INNER constructor must reject this
    EXPECT_THROW((void)exec::make_executor("sharded:statevector", config),
                 util::contract_error);

    // A malformed batch is rejected by the upfront whole-batch validation
    // (before any shard runs), deterministically, never a hang.
    config.shots = 16;
    config.shards = 3;
    const auto engine = exec::make_executor("sharded:statevector", config);
    const exec::program program = analytic_program(fixture.params, 1);
    std::vector<double> out(fixture.amplitudes.size());
    try {
        engine->run_batch(program, fixture.make_samples(), out); // no rng
        FAIL() << "expected contract_error";
    } catch (const util::contract_error& error) {
        EXPECT_NE(std::strstr(error.what(), "rng"), nullptr)
            << error.what();
    }
}

/// A registry backend whose run_batch always throws — drives the
/// per-shard error path that upfront validation can't reach.
class exploding_backend final : public exec::executor {
public:
    explicit exploding_backend(bool contract) : contract_(contract) {}

    [[nodiscard]] std::string_view name() const noexcept override {
        return "exploding";
    }
    [[nodiscard]] bool
    supports(exec::readout_kind) const noexcept override {
        return true;
    }
    [[nodiscard]] double run(const qsim::circuit&, int,
                             util::rng*) const override {
        boom();
    }
    void run_batch(const exec::program&, std::span<const exec::sample>,
                   std::span<double>) const override {
        boom();
    }

private:
    [[noreturn]] void boom() const {
        if (contract_) {
            throw util::contract_error("boom");
        }
        throw std::runtime_error("boom");
    }
    bool contract_;
};

TEST(ShardedBackend, MidRunShardFailureNamesTheShardAndSpan) {
    exec::register_backend("exploding", [](const exec::engine_config&) {
        return std::unique_ptr<exec::executor>(
            new exploding_backend(/*contract=*/true));
    });
    const batch_fixture fixture(47, 9);
    exec::engine_config config;
    config.shards = 3;
    const auto engine = exec::make_executor("sharded:exploding", config);
    const exec::program program = analytic_program(fixture.params, 1);
    std::vector<double> out(fixture.amplitudes.size());
    try {
        engine->run_batch(program, fixture.make_samples(), out);
        FAIL() << "expected contract_error";
    } catch (const util::contract_error& error) {
        // An inner contract violation is rewrapped as a structured error
        // naming the shard and its sample span; first failure wins, all
        // shards still drain (no hang).
        EXPECT_NE(std::strstr(error.what(), "shard "), nullptr)
            << error.what();
        EXPECT_NE(std::strstr(error.what(), "samples ["), nullptr)
            << error.what();
        EXPECT_NE(std::strstr(error.what(), "failed: boom"), nullptr)
            << error.what();
    }
}

TEST(ShardedBackend, NonContractShardFailureKeepsItsType) {
    exec::register_backend("exploding", [](const exec::engine_config&) {
        return std::unique_ptr<exec::executor>(
            new exploding_backend(/*contract=*/false));
    });
    const batch_fixture fixture(49, 6);
    exec::engine_config config;
    config.shards = 2;
    const auto engine = exec::make_executor("sharded:exploding", config);
    const exec::program program = analytic_program(fixture.params, 1);
    std::vector<double> out(fixture.amplitudes.size());
    // Resource-style failures are not contract violations: the original
    // exception type must survive the shard boundary for callers that
    // classify errors (retryable vs programming error).
    EXPECT_THROW(engine->run_batch(program, fixture.make_samples(), out),
                 std::runtime_error);
}

TEST(ShardedBackend, SpecParsingValidatesShape) {
    EXPECT_THROW((void)exec::parse_backend_spec(""), util::contract_error);
    EXPECT_THROW((void)exec::parse_backend_spec(":statevector"),
                 util::contract_error);
    EXPECT_THROW((void)exec::parse_backend_spec("sharded:"),
                 util::contract_error);
    EXPECT_THROW((void)exec::parse_backend_spec("density:foo"),
                 util::contract_error);
    EXPECT_THROW((void)exec::parse_backend_spec("sharded:sharded"),
                 util::contract_error);
    EXPECT_THROW((void)exec::parse_backend_spec("sharded:sharded:density"),
                 util::contract_error);

    const exec::backend_spec plain = exec::parse_backend_spec("density");
    EXPECT_EQ(plain.name, "density");
    EXPECT_TRUE(plain.inner.empty());
    const exec::backend_spec composite =
        exec::parse_backend_spec("sharded:density");
    EXPECT_EQ(composite.name, "sharded");
    EXPECT_EQ(composite.inner, "density");
}

TEST(ShardedBackend, RegistryResolvesShardedSpecs) {
    EXPECT_TRUE(exec::is_backend_registered("sharded"));
    EXPECT_TRUE(exec::is_backend_registered("sharded:statevector"));
    EXPECT_TRUE(exec::is_backend_registered("sharded:density"));
    EXPECT_FALSE(exec::is_backend_registered("sharded:bogus"));
    EXPECT_FALSE(exec::is_backend_registered("sharded:sharded"));
    EXPECT_THROW((void)exec::make_executor("sharded:bogus",
                                           exec::engine_config{}),
                 util::contract_error);

    const auto names = exec::backend_names();
    EXPECT_NE(std::find(names.begin(), names.end(), "sharded"), names.end());

    exec::engine_config config;
    config.shards = 2;
    const auto bare = exec::make_executor("sharded", config);
    EXPECT_EQ(bare->name(), "sharded:statevector"); // default inner
    const auto dense = exec::make_executor("sharded:density", config);
    EXPECT_EQ(dense->name(), "sharded:density");
    EXPECT_TRUE(dense->supports(exec::readout_kind::cbit_probability));
    EXPECT_FALSE(dense->supports(exec::readout_kind::prep_overlap_p1));
}

TEST(ShardedBackend, ShardCountResolvesZeroToHardware) {
    exec::engine_config config;
    config.shards = 3;
    const exec::sharded_backend engine(config, "statevector");
    EXPECT_EQ(engine.shard_count(), 3u);
    EXPECT_EQ(engine.inner().name(), "statevector");

    config.shards = 0;
    const exec::sharded_backend defaulted(config, "statevector");
    EXPECT_GE(defaulted.shard_count(), 1u);
}

TEST(ShardedBackend, RunDelegatesToInnerBackend) {
    const batch_fixture fixture(45, 1);
    exec::engine_config config;
    config.shards = 2;
    const auto sharded = exec::make_executor("sharded:statevector", config);
    const auto inner =
        exec::make_executor("statevector", exec::engine_config{});
    const qsim::circuit c = qml::build_autoencoder_circuit(
        fixture.amplitudes[0], fixture.params, 1);
    EXPECT_EQ(sharded->run(c, qml::swap_result_cbit, nullptr),
              inner->run(c, qml::swap_result_cbit, nullptr));
}

} // namespace
