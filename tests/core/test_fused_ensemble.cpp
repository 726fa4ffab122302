// Core-level fused-evaluation contract: run_ensemble_group with
// config.fused_levels (one run_batch_levels call per group, over all of
// its rows) produces scores EQUAL (IEEE ==, identical at 17 significant
// digits) to the per-level path (--no-fused, one run_batch per level) in
// all four execution modes on every registered backend combination. A
// counting decorator pins the call shape: buckets group the z-score
// statistics, not the executor calls. This suite ran green BEFORE the
// run-count-normalization fixture regeneration, so the regenerated golden
// numbers were produced by an evaluation path already proven equivalent.
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/quorum.h"
#include "data/generators.h"
#include "data/preprocess.h"
#include "exec/registry.h"
#include "util/rng.h"

namespace {

using namespace quorum;
using core::exec_mode;
using core::group_result;
using core::quorum_config;

data::dataset small_normalized_dataset(std::uint64_t seed,
                                       std::size_t samples) {
    util::rng gen(seed);
    data::generator_spec spec;
    spec.samples = samples;
    spec.anomalies = 2;
    spec.features = 10;
    spec.anomaly_shift = 0.35;
    const data::dataset raw = data::generate_clustered(spec, gen);
    return data::normalize_for_quorum(raw.without_labels());
}

/// Both paths over `ranges` concurrent row ranges per group.
void expect_fused_equals_per_level(const quorum_config& fused_config,
                                   const data::dataset& d,
                                   const std::string& label,
                                   std::size_t ranges = 1) {
    quorum_config per_level_config = fused_config;
    per_level_config.fused_levels = false;
    const auto engine = exec::make_executor(fused_config.resolved_backend(),
                                            fused_config.to_engine_config());
    for (std::size_t group = 0; group < 2; ++group) {
        const group_result fused =
            core::run_ensemble_group(d, fused_config, group, *engine, ranges);
        const group_result per_level = core::run_ensemble_group(
            d, per_level_config, group, *engine, ranges);
        ASSERT_EQ(fused.abs_z_sum.size(), per_level.abs_z_sum.size());
        for (std::size_t i = 0; i < fused.abs_z_sum.size(); ++i) {
            EXPECT_EQ(fused.abs_z_sum[i], per_level.abs_z_sum[i])
                << label << " group " << group << " sample " << i;
        }
        EXPECT_EQ(fused.run_count, per_level.run_count) << label;
        EXPECT_EQ(fused.bucket_size, per_level.bucket_size) << label;
    }
}

quorum_config mode_config(exec_mode mode, const std::string& backend) {
    quorum_config config;
    config.mode = mode;
    config.shots = mode == exec_mode::per_shot  ? 24
                   : mode == exec_mode::noisy   ? 128
                   : mode == exec_mode::sampled ? 512
                                                : 0;
    config.backend = backend;
    config.seed = 314;
    return config;
}

TEST(FusedEnsemble, ExactModeEveryBackend) {
    const data::dataset d = small_normalized_dataset(51, 24);
    for (const char* backend : {"statevector", "density"}) {
        expect_fused_equals_per_level(
            mode_config(exec_mode::exact, backend), d, backend);
    }
    for (const std::size_t ranges : {1u, 2u, 3u}) {
        expect_fused_equals_per_level(
            mode_config(exec_mode::exact, "statevector"), d,
            "ranges@" + std::to_string(ranges), ranges);
    }
}

TEST(FusedEnsemble, ExactModeFullCircuit) {
    const data::dataset d = small_normalized_dataset(53, 16);
    quorum_config config = mode_config(exec_mode::exact, "statevector");
    config.use_full_circuit = true;
    expect_fused_equals_per_level(config, d, "full-circuit");
}

TEST(FusedEnsemble, SampledModeEveryBackend) {
    const data::dataset d = small_normalized_dataset(55, 24);
    expect_fused_equals_per_level(
        mode_config(exec_mode::sampled, "statevector"), d, "statevector");
    for (const std::size_t ranges : {1u, 2u, 3u}) {
        expect_fused_equals_per_level(
            mode_config(exec_mode::sampled, "statevector"), d,
            "ranges@" + std::to_string(ranges), ranges);
    }
}

TEST(FusedEnsemble, PerShotMode) {
    const data::dataset d = small_normalized_dataset(57, 12);
    expect_fused_equals_per_level(
        mode_config(exec_mode::per_shot, "statevector"), d, "statevector");
    expect_fused_equals_per_level(
        mode_config(exec_mode::per_shot, "statevector"), d, "ranges@2", 2);
}

TEST(FusedEnsemble, NoisyMode) {
    const data::dataset d = small_normalized_dataset(59, 10);
    expect_fused_equals_per_level(mode_config(exec_mode::noisy, "density"),
                                  d, "density");
    expect_fused_equals_per_level(mode_config(exec_mode::noisy, "density"),
                                  d, "density ranges@2", 2);
}

TEST(FusedEnsemble, DetectorScoresIdenticalEitherPath) {
    // End to end through quorum_detector: fused and per-level land on the
    // same final report.
    util::rng gen(61);
    data::generator_spec spec;
    spec.samples = 30;
    spec.anomalies = 2;
    spec.features = 9;
    const data::dataset d = data::generate_clustered(spec, gen);

    quorum_config config;
    config.ensemble_groups = 4;
    config.mode = exec_mode::sampled;
    config.shots = 512;
    config.seed = 7;
    const core::score_report fused = core::quorum_detector(config).score(d);
    config.fused_levels = false;
    const core::score_report per_level =
        core::quorum_detector(config).score(d);
    EXPECT_EQ(fused.scores, per_level.scores);
    EXPECT_EQ(fused.run_counts, per_level.run_counts);
}

/// The batch size of every executor call a counting_executor saw, per
/// entry point, in arrival order.
struct call_log {
    std::mutex mutex;
    std::vector<std::size_t> level_batches; ///< run_batch_levels
    std::vector<std::size_t> batches;       ///< run_batch

    void clear() {
        const std::lock_guard<std::mutex> lock(mutex);
        level_batches.clear();
        batches.clear();
    }
};

call_log& counted_calls() {
    static call_log log;
    return log;
}

/// A decorator over the statevector backend that logs every batch call.
class counting_executor final : public exec::executor {
public:
    explicit counting_executor(const exec::engine_config& config)
        : inner_(exec::make_executor("statevector", config)) {}

    [[nodiscard]] std::string_view name() const noexcept override {
        return inner_->name();
    }
    [[nodiscard]] bool
    supports(exec::readout_kind kind) const noexcept override {
        return inner_->supports(kind);
    }
    [[nodiscard]] bool
    supports(exec::capability what) const noexcept override {
        return inner_->supports(what);
    }
    [[nodiscard]] double run(const qsim::circuit& c, int cbit,
                             util::rng* gen) const override {
        return inner_->run(c, cbit, gen);
    }
    void run_batch(const exec::program& prog,
                   std::span<const exec::sample> samples,
                   std::span<double> out) const override {
        log(counted_calls().batches, samples.size());
        inner_->run_batch(prog, samples, out);
    }
    void run_batch_levels(std::span<const exec::program> levels,
                          std::span<const exec::sample> samples,
                          std::span<double> out) const override {
        log(counted_calls().level_batches, samples.size());
        inner_->run_batch_levels(levels, samples, out);
    }

private:
    static void log(std::vector<std::size_t>& calls, std::size_t size) {
        const std::lock_guard<std::mutex> lock(counted_calls().mutex);
        calls.push_back(size);
    }

    std::unique_ptr<exec::executor> inner_;
};

constexpr const char* counting_backend = "core_test_counting";

void register_counting_backend() {
    exec::register_backend(counting_backend,
                           [](const exec::engine_config& config) {
                               return std::make_unique<counting_executor>(
                                   config);
                           });
}

TEST(FusedEnsemble, OneExecutorCallPerGroupOverAllRows) {
    // Buckets are the unit of the z-score statistics, not of execution:
    // a detector with G groups makes G run_batch_levels calls over all n
    // rows (G x L run_batch calls per-level), and scores equal the plain
    // backend's.
    register_counting_backend();
    util::rng gen(63);
    data::generator_spec spec;
    spec.samples = 120;
    spec.anomalies = 4;
    spec.features = 9;
    const data::dataset d = data::generate_clustered(spec, gen);
    constexpr std::size_t groups = 5;
    for (const exec_mode mode : {exec_mode::exact, exec_mode::sampled}) {
        quorum_config config;
        config.ensemble_groups = groups;
        config.mode = mode;
        config.shots = 512;
        config.seed = 11;
        config.threads = 2;
        const std::size_t levels =
            config.effective_compression_levels().size();
        const core::score_report plain =
            core::quorum_detector(config).score(d);
        ASSERT_LT(2 * plain.bucket_size, spec.samples)
            << "the table must hold at least two buckets";

        config.backend = counting_backend;
        counted_calls().clear();
        const core::score_report fused =
            core::quorum_detector(config).score(d);
        EXPECT_EQ(counted_calls().level_batches,
                  std::vector<std::size_t>(groups, spec.samples));
        EXPECT_TRUE(counted_calls().batches.empty());
        EXPECT_EQ(fused.scores, plain.scores)
            << core::exec_mode_name(mode);
        EXPECT_EQ(fused.run_counts, plain.run_counts);

        config.fused_levels = false;
        counted_calls().clear();
        const core::score_report per_level =
            core::quorum_detector(config).score(d);
        EXPECT_TRUE(counted_calls().level_batches.empty());
        EXPECT_EQ(counted_calls().batches,
                  std::vector<std::size_t>(groups * levels, spec.samples));
        EXPECT_EQ(per_level.scores, plain.scores)
            << core::exec_mode_name(mode);
        EXPECT_EQ(per_level.run_counts, plain.run_counts);
    }
}

TEST(FusedEnsemble, GroupOnePastTheChunkSizeSplitsInTwoCalls) {
    register_counting_backend();
    const std::size_t rows = core::ensemble_chunk_rows + 1;
    const data::dataset d = small_normalized_dataset(65, rows);
    for (const exec_mode mode : {exec_mode::exact, exec_mode::sampled}) {
        quorum_config config = mode_config(mode, counting_backend);
        const std::unique_ptr<exec::executor> engine = exec::make_executor(
            config.resolved_backend(), config.to_engine_config());
        counted_calls().clear();
        const group_result fused = core::run_ensemble_group(d, config, 0,
                                                            *engine);
        EXPECT_EQ(counted_calls().level_batches,
                  (std::vector<std::size_t>{core::ensemble_chunk_rows, 1}));

        config.fused_levels = false;
        counted_calls().clear();
        const group_result per_level =
            core::run_ensemble_group(d, config, 0, *engine);
        // Chunk by chunk, one run_batch per level (L = 2 at 3 qubits).
        EXPECT_EQ(counted_calls().batches,
                  (std::vector<std::size_t>{core::ensemble_chunk_rows,
                                            core::ensemble_chunk_rows, 1,
                                            1}));
        EXPECT_EQ(fused.abs_z_sum, per_level.abs_z_sum)
            << core::exec_mode_name(mode);
        EXPECT_EQ(fused.run_count, per_level.run_count);
    }
}

} // namespace
