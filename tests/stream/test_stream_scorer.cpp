// stream/stream_scorer.h: the streaming determinism contract ("same
// stream prefix, same scores"), fused-vs-per-level equivalence, one
// group-session call per push, and end-to-end detection sanity on a
// drifting stream.
#include "stream/stream_scorer.h"

#include <cstddef>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "exec/registry.h"
#include "metrics/roc.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace {

using namespace quorum;

data::dataset drifting_stream(std::size_t samples, double shift = 0.3) {
    util::rng gen(2025);
    data::stream_spec spec;
    spec.base.samples = samples;
    spec.base.anomalies = std::max<std::size_t>(1, samples / 16);
    spec.base.features = 8;
    spec.base.anomaly_shift = shift;
    return data::generate_drifting_stream(spec, gen);
}

stream::stream_config small_config(core::exec_mode mode) {
    stream::stream_config config;
    config.window = 4;
    config.rebucket_interval = 32;
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

TEST(StreamScorer, SameStreamPrefixSameScores) {
    // The pinned contract: a scorer that saw 200 arrivals and a fresh
    // scorer that saw only the first 120 agree bit-for-bit on those 120
    // — across three re-bucketing boundaries (32, 64, 96).
    const data::dataset d = drifting_stream(200);
    for (const core::exec_mode mode :
         {core::exec_mode::exact, core::exec_mode::sampled}) {
        stream::stream_scorer full(small_config(mode), d.num_features());
        stream::stream_scorer prefix(small_config(mode), d.num_features());
        const auto scores_full = push_all(full, d, 200);
        const auto scores_prefix = push_all(prefix, d, 120);
        for (std::size_t t = 0; t < scores_prefix.size(); ++t) {
            EXPECT_EQ(scores_full[t].score, scores_prefix[t].score)
                << "mode=" << core::exec_mode_name(mode) << " t=" << t;
            EXPECT_EQ(scores_full[t].runs, scores_prefix[t].runs)
                << "mode=" << core::exec_mode_name(mode) << " t=" << t;
            EXPECT_EQ(scores_full[t].position, t);
        }
    }
}

TEST(StreamScorer, FusedAndPerLevelPathsAgreeBitForBit) {
    // The fused group session and the --no-fused per-level run_batch
    // hatch must produce IEEE-identical scores (the executor contract),
    // in both deterministic and stochastic modes.
    const data::dataset d = drifting_stream(96);
    for (const core::exec_mode mode :
         {core::exec_mode::exact, core::exec_mode::sampled}) {
        stream::stream_config fused = small_config(mode);
        stream::stream_config per_level = small_config(mode);
        per_level.detector.fused_levels = false;
        stream::stream_scorer a(fused, d.num_features());
        stream::stream_scorer b(per_level, d.num_features());
        const auto scores_a = push_all(a, d, 96);
        const auto scores_b = push_all(b, d, 96);
        for (std::size_t t = 0; t < scores_a.size(); ++t) {
            EXPECT_EQ(scores_a[t].score, scores_b[t].score)
                << "mode=" << core::exec_mode_name(mode) << " t=" << t;
        }
    }
}

/// Session calls a counting backend saw.
struct session_calls {
    std::size_t group_runs = 0;
    std::size_t level_runs = 0;
};

class counting_level_session final : public exec::level_session {
public:
    counting_level_session(std::unique_ptr<exec::level_session> inner,
                           session_calls& calls)
        : inner_(std::move(inner)), calls_(calls) {}

    [[nodiscard]] std::span<const exec::program>
    family() const noexcept override {
        return inner_->family();
    }
    void run(std::span<const exec::sample> samples,
             std::span<double> out) override {
        ++calls_.level_runs;
        inner_->run(samples, out);
    }

private:
    std::unique_ptr<exec::level_session> inner_;
    session_calls& calls_;
};

class counting_group_session final : public exec::group_session {
public:
    counting_group_session(std::unique_ptr<exec::group_session> inner,
                           session_calls& calls)
        : inner_(std::move(inner)), calls_(calls) {}

    void run(std::span<const exec::sample> samples,
             std::span<double> out) override {
        ++calls_.group_runs;
        inner_->run(samples, out);
    }

private:
    std::unique_ptr<exec::group_session> inner_;
    session_calls& calls_;
};

/// A decorator over the statevector backend that counts session calls.
/// With `forward_groups` false it leaves make_group_session to the base
/// implementation, as a decorator written before group sessions does.
class counting_executor final : public exec::executor {
public:
    counting_executor(const exec::engine_config& config, session_calls& calls,
                      bool forward_groups)
        : inner_(exec::make_executor("statevector", config)), calls_(calls),
          forward_groups_(forward_groups) {}

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
        inner_->run_batch(prog, samples, out);
    }
    [[nodiscard]] std::unique_ptr<exec::level_session>
    make_level_session(std::vector<exec::program> family) const override {
        return std::make_unique<counting_level_session>(
            inner_->make_level_session(std::move(family)), calls_);
    }
    [[nodiscard]] std::unique_ptr<exec::group_session> make_group_session(
        std::vector<std::vector<exec::program>> families) const override {
        if (!forward_groups_) {
            return executor::make_group_session(std::move(families));
        }
        return std::make_unique<counting_group_session>(
            inner_->make_group_session(std::move(families)), calls_);
    }

private:
    std::unique_ptr<exec::executor> inner_;
    session_calls& calls_;
    bool forward_groups_;
};

TEST(StreamScorer, OnePushIsOneGroupSessionCall) {
    // Every push evaluates all G groups in one group_session::run. A
    // decorator that does not forward make_group_session gets the base
    // session, one level-session call per group, and the same scores.
    static session_calls forwarded;
    static session_calls base;
    exec::register_backend("stream_test_counting_groups",
                           [](const exec::engine_config& config) {
                               return std::make_unique<counting_executor>(
                                   config, forwarded, true);
                           });
    exec::register_backend("stream_test_counting_levels",
                           [](const exec::engine_config& config) {
                               return std::make_unique<counting_executor>(
                                   config, base, false);
                           });
    const data::dataset d = drifting_stream(80);
    const std::size_t pushes = 70; // across the epoch boundary at 32 and 64
    for (const core::exec_mode mode :
         {core::exec_mode::exact, core::exec_mode::sampled}) {
        forwarded = {};
        base = {};
        stream::stream_config plain = small_config(mode);
        plain.detector.ensemble_groups = 32;
        stream::stream_config grouped = plain;
        grouped.detector.backend = "stream_test_counting_groups";
        stream::stream_config per_group = plain;
        per_group.detector.backend = "stream_test_counting_levels";
        stream::stream_scorer a(plain, d.num_features());
        stream::stream_scorer b(grouped, d.num_features());
        stream::stream_scorer c(per_group, d.num_features());
        const auto expected = push_all(a, d, pushes);
        const auto scores_b = push_all(b, d, pushes);
        const auto scores_c = push_all(c, d, pushes);
        EXPECT_EQ(forwarded.group_runs, pushes);
        EXPECT_EQ(forwarded.level_runs, 0u);
        EXPECT_EQ(base.group_runs, 0u);
        EXPECT_EQ(base.level_runs, 32 * pushes);
        for (std::size_t t = 0; t < pushes; ++t) {
            EXPECT_EQ(scores_b[t].score, expected[t].score)
                << "mode=" << core::exec_mode_name(mode) << " t=" << t;
            EXPECT_EQ(scores_c[t].score, expected[t].score)
                << "mode=" << core::exec_mode_name(mode) << " t=" << t;
        }
    }
}

TEST(StreamScorer, EarlyStreamHasNoSignalThenRunsAccumulate) {
    const data::dataset d = drifting_stream(64);
    stream::stream_scorer scorer(small_config(core::exec_mode::exact),
                                 d.num_features());
    const auto scores = push_all(scorer, d, 64);
    // The very first arrival is every bucket's first member: all runs
    // sit at sigma = 0 and are skipped.
    EXPECT_EQ(scores[0].runs, 0u);
    EXPECT_EQ(scores[0].score, 0.0);
    // By the end of the first epoch the buckets have filled and nearly
    // every (group, level) run contributes.
    EXPECT_GT(scores[31].runs, 0u);
    EXPECT_EQ(scorer.count(), 64u);
}

TEST(StreamScorer, DetectsPlantedAnomaliesInADriftingStream) {
    // End-to-end sanity: on a drifting stream with clearly displaced
    // anomalies, per-arrival scores must rank anomalies well above
    // chance (AUC 0.5). Deterministic — fixed seeds throughout.
    const data::dataset d = drifting_stream(256, 0.4);
    stream::stream_config config;
    config.window = 8;
    config.rebucket_interval = 64;
    config.detector.mode = core::exec_mode::exact;
    config.detector.ensemble_groups = 24;
    config.detector.seed = 2025;
    stream::stream_scorer scorer(config, d.num_features());
    std::vector<double> scores;
    scores.reserve(d.num_samples());
    for (std::size_t t = 0; t < d.num_samples(); ++t) {
        scores.push_back(scorer.push(d.row(t)).score);
    }
    ASSERT_TRUE(d.has_labels());
    const double auc = metrics::roc_auc(d.labels(), scores);
    EXPECT_GT(auc, 0.62) << "streaming detection collapsed to chance";
}

TEST(StreamScorer, ValidatesItsConfiguration) {
    stream::stream_config config;
    config.window = 0;
    EXPECT_THROW(stream::stream_scorer(config, 4), util::contract_error);
    config = stream::stream_config{};
    config.rebucket_interval = 1;
    EXPECT_THROW(stream::stream_scorer(config, 4), util::contract_error);
    config = stream::stream_config{};
    config.detector.n_qubits = 0;
    EXPECT_THROW(stream::stream_scorer(config, 4), util::contract_error);
}

TEST(StreamScorer, RejectsMismatchedArrivalWidth) {
    stream::stream_config config = small_config(core::exec_mode::exact);
    stream::stream_scorer scorer(config, 4);
    const std::vector<double> narrow{0.1, 0.2};
    EXPECT_THROW((void)scorer.push(narrow), util::contract_error);
}

} // namespace
