#include <gtest/gtest.h>

#include "util/contracts.h"

#include "core/config.h"

namespace {

using namespace quorum::core;

TEST(Config, DefaultsAreValid) {
    quorum_config config;
    EXPECT_NO_THROW(config.validate());
    EXPECT_EQ(config.n_qubits, 3u); // paper's primary configuration
    EXPECT_EQ(config.shots, 4096u); // paper §V
}

TEST(Config, EffectiveCompressionLevelsDefault) {
    quorum_config config;
    config.n_qubits = 3;
    EXPECT_EQ(config.effective_compression_levels(),
              (std::vector<std::size_t>{1, 2}));
    config.n_qubits = 4;
    EXPECT_EQ(config.effective_compression_levels(),
              (std::vector<std::size_t>{1, 2, 3}));
}

TEST(Config, ExplicitCompressionLevelsRespected) {
    quorum_config config;
    config.compression_levels = {2};
    EXPECT_EQ(config.effective_compression_levels(),
              (std::vector<std::size_t>{2}));
    EXPECT_NO_THROW(config.validate());
}

TEST(Config, RejectsBadQubitCounts) {
    quorum_config config;
    config.n_qubits = 1;
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
    config.n_qubits = 11;
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
}

TEST(Config, RejectsBadBucketProbability) {
    quorum_config config;
    config.bucket_probability = 0.0;
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
    config.bucket_probability = 1.0;
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
}

TEST(Config, RejectsBadAnomalyRate) {
    quorum_config config;
    config.estimated_anomaly_rate = 0.0;
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
    config.estimated_anomaly_rate = 1.0;
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
}

TEST(Config, RejectsOutOfRangeCompression) {
    quorum_config config;
    config.n_qubits = 3;
    config.compression_levels = {0};
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
    config.compression_levels = {3};
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
}

TEST(Config, RejectsZeroGroupsAndShots) {
    quorum_config config;
    config.ensemble_groups = 0;
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
    config = quorum_config{};
    config.mode = exec_mode::sampled;
    config.shots = 0;
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
    // Noisy mode draws its shots from the exact noisy distribution, so
    // it needs them too.
    config.mode = exec_mode::noisy;
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
    // exact mode doesn't need shots.
    config.mode = exec_mode::exact;
    EXPECT_NO_THROW(config.validate());
}

TEST(Config, ShardedBackendSpecsResolveAndValidate) {
    // --threads splits a table's work in core, so no backend spec shards
    // it: every well-formed spelling of the retired sharded backend
    // resolves to itself (never to another engine) and fails validation,
    // in every mode.
    quorum_config config;
    config.shards = 2;
    for (const exec_mode mode : {exec_mode::exact, exec_mode::noisy}) {
        config.mode = mode;
        for (const char* spec : {"sharded", "sharded:auto",
                                 "sharded:statevector", "sharded:density"}) {
            config.backend = spec;
            EXPECT_EQ(config.resolved_backend(), spec);
            EXPECT_THROW(config.validate(), quorum::util::contract_error)
                << spec;
        }
    }
}

TEST(Config, RemoteBackendSpecsResolveAndValidate) {
    quorum_config config;
    config.backend = "remote";
    config.shards = 2;
    EXPECT_EQ(config.resolved_backend(), "remote:statevector");
    // Validation instantiates the backend; remote construction is
    // process-free (only the local probe of the inner engine), so this
    // must succeed without any quorum_worker binary around.
    EXPECT_NO_THROW(config.validate());

    config.mode = exec_mode::noisy;
    EXPECT_EQ(config.resolved_backend(), "remote:density");
    EXPECT_NO_THROW(config.validate());

    config.backend = "remote:auto";
    EXPECT_EQ(config.resolved_backend(), "remote:density");
    config.mode = exec_mode::exact;
    EXPECT_EQ(config.resolved_backend(), "remote:statevector");

    config.backend = "remote:bogus";
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
    config.backend = "remote:";
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
    config.backend = "remote:remote";
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
    config.backend = "remote:sharded";
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
    EXPECT_EQ(config.to_engine_config().shards, 2u);
    // Incompatible mode/inner pairs fail at the local probe.
    config.backend = "remote:density";
    config.mode = exec_mode::per_shot;
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
}

TEST(Config, RejectsMalformedOrIncompatibleShardedSpecs) {
    quorum_config config;
    config.backend = "sharded:bogus";
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
    config.backend = "sharded:";
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
    config.backend = "sharded:sharded:statevector";
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
    config.backend = "statevector:statevector";
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
    // A registered engine that cannot run the mode is rejected too; the
    // remote:density case is RemoteBackendSpecsResolveAndValidate's.
    config.backend = "density";
    config.mode = exec_mode::per_shot;
    EXPECT_THROW(config.validate(), quorum::util::contract_error);
}

TEST(Config, ModeNames) {
    EXPECT_STREQ(exec_mode_name(exec_mode::exact), "exact");
    EXPECT_STREQ(exec_mode_name(exec_mode::sampled), "sampled");
    EXPECT_STREQ(exec_mode_name(exec_mode::per_shot), "per_shot");
    EXPECT_STREQ(exec_mode_name(exec_mode::noisy), "noisy");
}

TEST(Config, ParseExecModeRoundTripsEveryModeName) {
    for (const exec_mode mode : {exec_mode::exact, exec_mode::sampled,
                                 exec_mode::per_shot, exec_mode::noisy}) {
        exec_mode parsed = mode == exec_mode::exact ? exec_mode::noisy
                                                    : exec_mode::exact;
        EXPECT_TRUE(parse_exec_mode(exec_mode_name(mode), parsed))
            << exec_mode_name(mode);
        EXPECT_EQ(parsed, mode) << exec_mode_name(mode);
    }
    // Strict: no case folding, no empty name; `out` is left untouched.
    for (const char* bad : {"Sampled", "", "per-shot", "exact "}) {
        exec_mode parsed = exec_mode::noisy;
        EXPECT_FALSE(parse_exec_mode(bad, parsed)) << "'" << bad << "'";
        EXPECT_EQ(parsed, exec_mode::noisy) << "'" << bad << "'";
    }
}


TEST(Config, FeatureStrategyNames) {
    EXPECT_STREQ(feature_strategy_name(feature_strategy::uniform_random),
                 "uniform_random");
    EXPECT_STREQ(feature_strategy_name(feature_strategy::top_variance),
                 "top_variance");
    quorum_config config;
    EXPECT_EQ(config.features, feature_strategy::uniform_random);
}

} // namespace
