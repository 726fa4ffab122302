#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "../loopback.h"
#include "util/contracts.h"

#include "core/quorum.h"
#include "data/bucketing.h"
#include "data/generators.h"
#include "data/preprocess.h"
#include "exec/fleet.h"
#include "exec/registry.h"
#include "metrics/confusion.h"
#include "metrics/detection_curve.h"
#include "util/rng.h"

namespace {

using namespace quorum::core;
using quorum::data::dataset;

dataset planted_dataset(std::uint64_t seed, std::size_t samples = 120,
                        std::size_t anomalies = 6) {
    quorum::util::rng gen(seed);
    quorum::data::generator_spec spec;
    spec.samples = samples;
    spec.anomalies = anomalies;
    spec.features = 12;
    spec.anomaly_shift = 0.35;
    spec.anomaly_feature_fraction = 0.5;
    return quorum::data::generate_clustered(spec, gen);
}

quorum_config fast_config() {
    quorum_config config;
    config.ensemble_groups = 40;
    config.estimated_anomaly_rate = 0.05;
    config.seed = 11;
    return config;
}

TEST(QuorumDetector, ValidatesConfigAtConstruction) {
    quorum_config bad;
    bad.n_qubits = 0;
    EXPECT_THROW((quorum_detector{bad}), quorum::util::contract_error);
}

TEST(QuorumDetector, ScoresEverySample) {
    const dataset d = planted_dataset(3);
    quorum_detector detector(fast_config());
    const score_report report = detector.score(d);
    EXPECT_EQ(report.scores.size(), d.num_samples());
    EXPECT_EQ(report.groups, 40u);
    for (const double s : report.scores) {
        EXPECT_TRUE(std::isfinite(s));
        EXPECT_GE(s, 0.0);
    }
}

TEST(QuorumDetector, SeparatesPlantedAnomalies) {
    const dataset d = planted_dataset(5);
    quorum_detector detector(fast_config());
    const score_report report = detector.score(d);
    const double rate = quorum::metrics::detection_rate_at(
        d.labels(), report.scores, 0.2);
    // Random ranking would find ~20%; require clear signal.
    EXPECT_GT(rate, 0.5);
}

TEST(QuorumDetector, LabelsNeverInfluenceScores) {
    // Unsupervised guarantee: identical scores with and without labels.
    const dataset labelled = planted_dataset(7);
    const dataset unlabelled = labelled.without_labels();
    quorum_detector detector(fast_config());
    const score_report with_labels = detector.score(labelled);
    const score_report without_labels = detector.score(unlabelled);
    EXPECT_EQ(with_labels.scores, without_labels.scores);
}

TEST(QuorumDetector, DeterministicAcrossThreadCounts) {
    const dataset d = planted_dataset(9, 80, 4);
    quorum_config config = fast_config();
    config.ensemble_groups = 16;
    config.threads = 1;
    quorum_detector serial(config);
    const score_report serial_report = serial.score(d);
    for (const std::size_t threads : {2u, 4u, 8u}) {
        config.threads = threads;
        quorum_detector parallel_detector(config);
        const score_report parallel_report = parallel_detector.score(d);
        ASSERT_EQ(parallel_report.scores.size(), serial_report.scores.size());
        for (std::size_t i = 0; i < serial_report.scores.size(); ++i) {
            ASSERT_DOUBLE_EQ(parallel_report.scores[i],
                             serial_report.scores[i])
                << "threads=" << threads << " sample=" << i;
        }
    }
}

TEST(QuorumDetector, DeterministicAcrossRepeats) {
    const dataset d = planted_dataset(11, 60, 3);
    quorum_detector detector(fast_config());
    const score_report a = detector.score(d);
    const score_report b = detector.score(d);
    EXPECT_EQ(a.scores, b.scores);
}

TEST(QuorumDetector, SeedChangesScoresButNotQuality) {
    const dataset d = planted_dataset(13);
    quorum_config config = fast_config();
    quorum_detector first(config);
    config.seed = 9999;
    quorum_detector second(config);
    const score_report a = first.score(d);
    const score_report b = second.score(d);
    EXPECT_NE(a.scores, b.scores);
    // Both seeds must still detect signal.
    EXPECT_GT(quorum::metrics::detection_rate_at(d.labels(), a.scores, 0.2),
              0.4);
    EXPECT_GT(quorum::metrics::detection_rate_at(d.labels(), b.scores, 0.2),
              0.4);
}

TEST(QuorumDetector, SampledModeCloseToExact) {
    const dataset d = planted_dataset(15, 80, 4);
    quorum_config config = fast_config();
    config.ensemble_groups = 30;
    quorum_detector exact_detector(config);
    config.mode = exec_mode::sampled;
    config.shots = 4096; // paper's shot count
    quorum_detector sampled_detector(config);
    const score_report exact = exact_detector.score(d);
    const score_report sampled = sampled_detector.score(d);
    // Rankings should agree broadly: compare top-10% overlap.
    const auto top_exact = quorum::metrics::top_k_indices(exact.scores, 8);
    const auto top_sampled = quorum::metrics::top_k_indices(sampled.scores, 8);
    std::size_t overlap = 0;
    for (const auto i : top_exact) {
        for (const auto j : top_sampled) {
            overlap += i == j ? 1 : 0;
        }
    }
    EXPECT_GE(overlap, 4u);
}

TEST(QuorumDetector, DetectReturnsFlagCountIndices) {
    const dataset d = planted_dataset(17);
    quorum_config config = fast_config();
    config.estimated_anomaly_rate = 0.05;
    quorum_detector detector(config);
    const auto detected = detector.detect(d);
    EXPECT_EQ(detected.size(), detector.flag_count(d.num_samples()));
    EXPECT_EQ(detector.flag_count(120), 6u); // ceil(0.05 * 120)
    EXPECT_EQ(detector.flag_count(10), 1u);  // ceil(0.5) floor of 1
}

TEST(QuorumDetector, FlagCountAndBucketSizingShareCeilRounding) {
    // §IV-C regression: estimated_anomaly_rate * n is rounded with ceil
    // EVERYWHERE — flag_count here, bucket sizing in run_ensemble_group
    // (see Ensemble.FractionalAnomalyEstimatesRoundUpLikeFlagCount). Pin
    // the fractional cases on both sides of .5.
    quorum_config config = fast_config();
    config.estimated_anomaly_rate = 0.12; // 20 * 0.12 = 2.4
    EXPECT_EQ(quorum_detector(config).flag_count(20), 3u);
    config.estimated_anomaly_rate = 0.125; // 20 * 0.125 = 2.5
    EXPECT_EQ(quorum_detector(config).flag_count(20), 3u);

    // The same estimate drives bucket sizing: a 20-sample group plans for
    // 3 anomalies in both cases.
    const dataset d = planted_dataset(29, 20, 2);
    const quorum::data::dataset normalized =
        quorum::data::normalize_for_quorum(d.without_labels());
    for (const double rate : {0.12, 0.125}) {
        config.estimated_anomaly_rate = rate;
        const group_result group = run_ensemble_group(normalized, config, 0);
        EXPECT_EQ(group.bucket_size,
                  quorum::data::solve_bucket_size(
                      20, 3, config.bucket_probability))
            << "rate " << rate;
    }
}

/// Threads of this process right now.
std::size_t live_threads() {
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

/// The most threads a thread_sampling_executor saw inside a batch call.
std::atomic<std::size_t> peak_threads{0};

/// A statevector decorator that samples the process's live threads in
/// every batch call, so inside every group and every row range.
class thread_sampling_executor final : public quorum::exec::executor {
public:
    explicit thread_sampling_executor(const quorum::exec::engine_config& c)
        : inner_(quorum::exec::make_executor("statevector", c)) {}

    [[nodiscard]] std::string_view name() const noexcept override {
        return inner_->name();
    }
    [[nodiscard]] bool
    supports(quorum::exec::readout_kind kind) const noexcept override {
        return inner_->supports(kind);
    }
    [[nodiscard]] bool
    supports(quorum::exec::capability what) const noexcept override {
        return inner_->supports(what);
    }
    [[nodiscard]] double run(const quorum::qsim::circuit& c, int cbit,
                             quorum::util::rng* gen) const override {
        return inner_->run(c, cbit, gen);
    }
    void run_batch(const quorum::exec::program& prog,
                   std::span<const quorum::exec::sample> samples,
                   std::span<double> out) const override {
        sample_threads();
        inner_->run_batch(prog, samples, out);
    }
    void run_batch_levels(std::span<const quorum::exec::program> levels,
                          std::span<const quorum::exec::sample> samples,
                          std::span<double> out) const override {
        sample_threads();
        inner_->run_batch_levels(levels, samples, out);
    }

private:
    static void sample_threads() {
        const std::size_t now = live_threads();
        std::size_t seen = peak_threads.load();
        while (now > seen && !peak_threads.compare_exchange_weak(seen, now)) {
        }
    }

    std::unique_ptr<quorum::exec::executor> inner_;
};

TEST(QuorumDetector, ThreadsBeyondGroupsStartNoIdleThreads) {
    // --threads goes to groups, then to each group's row ranges, so at
    // most min(threads, groups * rows) lanes run: threads = 16 over 2
    // groups of 3 rows starts 5 threads beside the caller, not 15.
    quorum::exec::register_backend(
        "quorum_test_thread_sampling",
        [](const quorum::exec::engine_config& config) {
            return std::make_unique<thread_sampling_executor>(config);
        });
    for (const std::size_t rows : {40u, 3u}) {
        const dataset d = planted_dataset(23, rows, rows > 3 ? 2 : 1);
        quorum_config config = fast_config();
        config.ensemble_groups = 2;
        config.backend = "quorum_test_thread_sampling";
        config.threads = 1;
        const score_report serial = quorum_detector(config).score(d);
        // A first threaded run starts any helper thread the runtime keeps
        // (ThreadSanitizer has one), so `before` counts it.
        config.threads = 2;
        (void)quorum_detector(config).score(d);

        config.threads = 16;
        const quorum_detector wide(config);
        const std::size_t before = live_threads();
        peak_threads = 0;
        EXPECT_EQ(wide.score(d).scores, serial.scores) << rows << " rows";
        EXPECT_LE(peak_threads.load(),
                  before + std::min<std::size_t>(16, 2 * rows) - 1)
            << rows << " rows";
    }
}

TEST(QuorumDetector, RowRangesMatchOneRangeInEveryMode) {
    // With fewer groups than threads each group's rows run as
    // floor(threads / groups) concurrent ranges. Row i at level k draws
    // from the group's child(k * n + i) with i counted over the whole
    // table, so every split lands on the one-thread scores bit for bit.
    struct mode_case {
        exec_mode mode;
        std::size_t rows;
        std::size_t shots;
    };
    for (const mode_case& mc : {mode_case{exec_mode::exact, 24, 0},
                                mode_case{exec_mode::sampled, 24, 512},
                                mode_case{exec_mode::per_shot, 8, 16},
                                mode_case{exec_mode::noisy, 5, 64}}) {
        const dataset d = planted_dataset(31, mc.rows, 1);
        for (const bool fused : {true, false}) {
            for (const std::size_t groups : {1u, 2u, 3u}) {
                quorum_config config = fast_config();
                config.mode = mc.mode;
                config.shots = mc.shots;
                config.fused_levels = fused;
                config.ensemble_groups = groups;
                config.threads = 1;
                const score_report one = quorum_detector(config).score(d);
                for (const std::size_t threads : {2u, 4u, 7u}) {
                    config.threads = threads;
                    const score_report split =
                        quorum_detector(config).score(d);
                    ASSERT_EQ(split.scores.size(), one.scores.size());
                    for (std::size_t i = 0; i < one.scores.size(); ++i) {
                        EXPECT_EQ(split.scores[i], one.scores[i])
                            << exec_mode_name(mc.mode)
                            << (fused ? " fused" : " per-level") << " groups "
                            << groups << " threads " << threads << " row "
                            << i;
                    }
                }
            }
        }
    }
}

TEST(QuorumDetector, RowLanesAreCappedAndOneOnFleetEngines) {
    // The lane count alone: no batch runs, so no thread starts, and a
    // remote engine starts its workers only at its first batch.
    const quorum::exec::engine_config engine_config;
    const auto local =
        quorum::exec::make_executor("statevector", engine_config);
    EXPECT_EQ(row_lanes(1, 1, *local), 1u);
    EXPECT_EQ(row_lanes(2, 40, *local), 1u);
    EXPECT_EQ(row_lanes(4, 2, *local), 2u);
    EXPECT_EQ(row_lanes(7, 3, *local), 2u);
    EXPECT_EQ(row_lanes(max_row_ranges, 1, *local), max_row_ranges);
    EXPECT_EQ(row_lanes(100000, 1, *local), max_row_ranges);
    EXPECT_EQ(row_lanes(100000, 3, *local), max_row_ranges);

    const auto remote =
        quorum::exec::make_executor("remote:statevector", engine_config);
    EXPECT_TRUE(remote->supports(quorum::exec::capability::parallel_batches));
    EXPECT_FALSE(local->supports(quorum::exec::capability::parallel_batches));
    EXPECT_EQ(row_lanes(4, 1, *remote), 1u);
    EXPECT_EQ(row_lanes(100000, 1, *remote), 1u);
}

TEST(QuorumDetector, FleetEnginesScoreEachGroupInOneBatch) {
    // A fleet already spreads every batch over its workers, so score()
    // leaves a group's rows whole on it however many threads it has: one
    // group of 24 rows at 8 threads is one batch, one span per lane, not
    // one batch per row range.
    quorum::exec::fleet_config fleet_config;
    auto fleet = std::make_shared<quorum::exec::worker_fleet>(fleet_config);
    for (std::size_t i = 0; i < 2; ++i) {
        fleet->add_factory_lane(quorum::test::loopback_factory(),
                                "loop #" + std::to_string(i));
    }
    fleet->wait_for_lanes(2, 5000);
    // The registry outlives the test; the fleet must not.
    quorum::exec::register_backend(
        "quorum_test_shared_fleet",
        [weak = std::weak_ptr(fleet)](const quorum::exec::engine_config&) {
            return std::make_unique<quorum::exec::fleet_executor>(
                weak.lock());
        });

    const dataset d = planted_dataset(37, 24, 1);
    quorum_config config = fast_config();
    config.ensemble_groups = 1;
    config.threads = 1;
    const score_report local = quorum_detector(config).score(d);
    config.backend = "quorum_test_shared_fleet";
    config.threads = 8;
    const std::size_t before = fleet->stats().spans_completed;
    EXPECT_EQ(quorum_detector(config).score(d).scores, local.scores);
    EXPECT_EQ(fleet->stats().spans_completed - before, 2u);
}

TEST(QuorumDetector, RejectsDegenerateDatasets) {
    quorum_detector detector(fast_config());
    dataset single(1, 4);
    EXPECT_THROW(detector.score(single), quorum::util::contract_error);
}

TEST(QuorumDetector, WorksWithFewerFeaturesThanRegister) {
    // Power-plant case: 5 features < 2^3 - 1 slots.
    quorum::util::rng gen(23);
    const dataset plant = quorum::data::make_power_plant(gen);
    quorum_config config = fast_config();
    config.ensemble_groups = 20;
    config.estimated_anomaly_rate = 0.03;
    quorum_detector detector(config);
    const score_report report = detector.score(plant);
    EXPECT_GT(quorum::metrics::detection_rate_at(plant.labels(), report.scores,
                                                 0.2),
              0.4);
}

TEST(QuorumDetector, FourQubitEncodingRuns) {
    // §IV-F scalability: larger encodings add compression levels ("moments").
    const dataset d = planted_dataset(25, 60, 3);
    quorum_config config = fast_config();
    config.n_qubits = 4;
    config.ensemble_groups = 10;
    quorum_detector detector(config);
    const score_report report = detector.score(d);
    EXPECT_EQ(report.scores.size(), 60u);
    for (const double s : report.scores) {
        EXPECT_TRUE(std::isfinite(s));
    }
}

// --- degenerate inputs ------------------------------------------------------

dataset constant_table(std::size_t rows, std::size_t features,
                       double value) {
    dataset d(rows, features);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < features; ++j) {
            d.at(i, j) = value;
        }
    }
    return d;
}

quorum_config four_groups(exec_mode mode) {
    quorum_config config;
    config.ensemble_groups = 4;
    config.mode = mode;
    config.seed = 11;
    return config;
}

TEST(QuorumDegenerate, AllConstantTableScoresZeroInExactMode) {
    // Every row is the same point, so every run's spread is zero and no
    // run contributes.
    const score_report report = quorum_detector(four_groups(exec_mode::exact))
                                    .score(constant_table(5, 3, 0.7));
    ASSERT_EQ(report.scores.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(report.scores[i], 0.0) << i;
        EXPECT_EQ(report.run_counts[i], 0u) << i;
    }
}

TEST(QuorumDegenerate, AllConstantTableScoresFiniteInSampledMode) {
    const score_report report =
        quorum_detector(four_groups(exec_mode::sampled))
            .score(constant_table(5, 3, 0.7));
    ASSERT_EQ(report.scores.size(), 5u);
    for (const double s : report.scores) {
        EXPECT_TRUE(std::isfinite(s));
        EXPECT_GE(s, 0.0);
    }
}

TEST(QuorumDegenerate, ConstantColumnNormalisesToZero) {
    dataset d = planted_dataset(29, 24, 2);
    dataset shifted = d;
    for (std::size_t i = 0; i < d.num_samples(); ++i) {
        d.at(i, 3) = 5.0;
        shifted.at(i, 3) = -3.0;
    }
    const dataset normalized = quorum::data::normalize_for_quorum(d);
    for (std::size_t i = 0; i < d.num_samples(); ++i) {
        EXPECT_EQ(normalized.at(i, 3), 0.0) << i;
    }
    // So the constant's value cannot move a score.
    const quorum_detector detector(four_groups(exec_mode::exact));
    EXPECT_EQ(detector.score(d).scores, detector.score(shifted).scores);
}

TEST(QuorumDegenerate, TwoRowTableIsOneBucketOfTwo) {
    // Two distinct rows: every contributing run has z = -1 and +1.
    dataset d(2, 3);
    const double rows[2][3] = {{0.1, 0.5, 0.9}, {0.8, 0.2, 0.4}};
    for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            d.at(i, j) = rows[i][j];
        }
    }
    const score_report report =
        quorum_detector(four_groups(exec_mode::exact)).score(d);
    EXPECT_EQ(report.bucket_size, 2u);
    ASSERT_EQ(report.scores.size(), 2u);
    EXPECT_NEAR(report.scores[0], 1.0, 1e-12);
    EXPECT_NEAR(report.scores[1], 1.0, 1e-12);
}

TEST(QuorumDegenerate, DuplicatedRowsScoreFinite) {
    const dataset base = planted_dataset(31, 12, 1);
    dataset d(24, base.num_features());
    for (std::size_t i = 0; i < d.num_samples(); ++i) {
        for (std::size_t j = 0; j < d.num_features(); ++j) {
            d.at(i, j) = base.at(i % 12, j);
        }
    }
    for (const exec_mode mode : {exec_mode::exact, exec_mode::sampled}) {
        const score_report report = quorum_detector(four_groups(mode)).score(d);
        ASSERT_EQ(report.scores.size(), 24u);
        for (const double s : report.scores) {
            EXPECT_TRUE(std::isfinite(s));
            EXPECT_GE(s, 0.0);
        }
    }
}

TEST(QuorumDetector, OneRowNamesTheRowCountNotASourceFile) {
    try {
        (void)quorum_detector(fast_config()).score(dataset(1, 4));
        FAIL() << "a one-row table was scored";
    } catch (const quorum::util::contract_error& error) {
        EXPECT_STREQ(error.what(),
                     "need at least two samples to compare (got 1)");
    }
}

class QuorumModeSweep : public ::testing::TestWithParam<exec_mode> {};

TEST_P(QuorumModeSweep, AllModesProduceFiniteScores) {
    const dataset d = planted_dataset(27, 24, 2);
    quorum_config config = fast_config();
    config.ensemble_groups = 2;
    config.mode = GetParam();
    config.shots = GetParam() == exec_mode::per_shot ? 64 : 512;
    quorum_detector detector(config);
    const score_report report = detector.score(d);
    for (const double s : report.scores) {
        ASSERT_TRUE(std::isfinite(s));
        ASSERT_GE(s, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, QuorumModeSweep,
                         ::testing::Values(exec_mode::exact,
                                           exec_mode::sampled,
                                           exec_mode::per_shot,
                                           exec_mode::noisy));

} // namespace
