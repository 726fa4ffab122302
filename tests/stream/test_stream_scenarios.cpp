// Scenario coverage for the streaming scorer: angle encoding through
// the per-arrival encode hot path, the dynamic work-pulling schedule
// under both encodings, and the multivariate sensor-stream generator as
// a data source — all pinned to the "same stream prefix, same scores"
// contract across an epoch boundary.
#include "stream/stream_scorer.h"

#include <vector>

#include <gtest/gtest.h>

#include "../loopback.h"
#include "data/generators.h"
#include "exec/fleet.h"
#include "exec/registry.h"
#include "metrics/roc.h"
#include "util/rng.h"

namespace {

using namespace quorum;

data::dataset sensor_stream(std::size_t samples) {
    util::rng gen(2025);
    data::sensor_stream_spec spec;
    spec.base.samples = samples;
    spec.base.anomalies = std::max<std::size_t>(1, samples / 12);
    spec.base.features = 8;
    return data::generate_sensor_stream(spec, gen);
}

stream::stream_config scenario_config(qml::encoding enc,
                                      core::exec_mode mode) {
    stream::stream_config config;
    config.window = 4;
    config.rebucket_interval = 32;
    config.detector.encoding = enc;
    config.detector.mode = mode;
    config.detector.shots = 256;
    config.detector.ensemble_groups = 4;
    config.detector.seed = 2025;
    return config;
}

std::vector<stream::stream_score> push_all(stream::stream_scorer& scorer,
                                           const data::dataset& d,
                                           std::size_t count) {
    std::vector<stream::stream_score> out;
    out.reserve(count);
    for (std::size_t t = 0; t < count; ++t) {
        out.push_back(scorer.push(d.row(t)));
    }
    return out;
}

TEST(StreamScenarios, AngleEncodingPrefixDeterminismAcrossEpochBoundary) {
    // 96 vs 40 arrivals: the prefix crosses the epoch boundary at 32,
    // so the second scorer re-buckets once while the first re-buckets
    // three times — the shared prefix must still agree bit-for-bit.
    const data::dataset d = sensor_stream(96);
    for (const core::exec_mode mode :
         {core::exec_mode::exact, core::exec_mode::sampled}) {
        stream::stream_scorer full(
            scenario_config(qml::encoding::angle, mode), d.num_features());
        stream::stream_scorer prefix(
            scenario_config(qml::encoding::angle, mode), d.num_features());
        const auto scores_full = push_all(full, d, 96);
        const auto scores_prefix = push_all(prefix, d, 40);
        for (std::size_t t = 0; t < scores_prefix.size(); ++t) {
            EXPECT_EQ(scores_full[t].score, scores_prefix[t].score)
                << "mode=" << core::exec_mode_name(mode) << " t=" << t;
            EXPECT_EQ(scores_full[t].runs, scores_prefix[t].runs)
                << "mode=" << core::exec_mode_name(mode) << " t=" << t;
        }
    }
}

TEST(StreamScenarios, DynamicScheduleMatchesStaticUnderBothEncodings) {
    // --schedule dynamic:3 on a 2-worker remote backend (loopback
    // workers) is a pure span-planning change: per-arrival scores must be
    // IEEE-identical to the plain backend's, whichever encoding fills the
    // prep slots.
    exec::register_backend("stream_test_loopback",
                           [](const exec::engine_config& config) {
                               return std::make_unique<exec::fleet_executor>(
                                   config, "statevector",
                                   test::loopback_factory());
                           });
    const data::dataset d = sensor_stream(64);
    for (const qml::encoding enc :
         {qml::encoding::amplitude, qml::encoding::angle}) {
        stream::stream_config plain =
            scenario_config(enc, core::exec_mode::sampled);
        stream::stream_config dynamic = plain;
        dynamic.detector.backend = "stream_test_loopback";
        dynamic.detector.shards = 2;
        dynamic.detector.schedule = "dynamic:3";
        stream::stream_scorer a(plain, d.num_features());
        stream::stream_scorer b(dynamic, d.num_features());
        const auto scores_a = push_all(a, d, 64);
        const auto scores_b = push_all(b, d, 64);
        for (std::size_t t = 0; t < scores_a.size(); ++t) {
            EXPECT_EQ(scores_a[t].score, scores_b[t].score)
                << qml::encoding_name(enc) << " t=" << t;
        }
    }
}

TEST(StreamScenarios, SensorFaultsScoreAboveNormalTail) {
    // Detection sanity on the new domain: after the first epoch has
    // accumulated statistics, injected stuck/spike faults must rank
    // above normal arrivals (AUC over the warmed-up tail).
    const data::dataset d = sensor_stream(256);
    stream::stream_config config =
        scenario_config(qml::encoding::amplitude, core::exec_mode::exact);
    config.detector.ensemble_groups = 8;
    stream::stream_scorer scorer(config, d.num_features());
    const auto scores = push_all(scorer, d, d.num_samples());
    const std::size_t skip = config.rebucket_interval;
    std::vector<int> labels;
    std::vector<double> values;
    std::size_t tail_anomalies = 0;
    for (std::size_t t = skip; t < d.num_samples(); ++t) {
        labels.push_back(d.label(t));
        values.push_back(scores[t].score);
        tail_anomalies += d.label(t) == 1 ? 1u : 0u;
    }
    ASSERT_GT(tail_anomalies, 0u);
    ASSERT_LT(tail_anomalies, labels.size());
    const double auc = metrics::roc_auc(labels, values);
    EXPECT_GT(auc, 0.75) << "sensor-stream AUC regressed";
}

} // namespace
