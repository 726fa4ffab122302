// The streaming/online anomaly scorer: Quorum's batch ensemble recast
// over an unbounded, time-ordered stream.
//
// The batch detector (core/detector.h) scores a closed table: buckets,
// feature subsets and ansatz angles are drawn once per group, every
// sample is compared against its bucket's full statistics, scores come
// out in one shot. The stream scorer keeps the same ensemble — G groups,
// each with its own random feature subset and random (never trained)
// autoencoder — but scores each sample AS IT ARRIVES:
//
//   raw sample --> sliding_window_extractor (value/mean/stddev per raw
//   feature) --> online_normalizer (expanding min/max into [0, 1/M] for
//   amplitude encoding, [0, 1] for angle encoding)
//   --> per group: gather the group's feature subset, encode it per the
//   detector's qml::encoding,
//   run the group's compiled level family, fold each level's P(1) into
//   the (bucket, level) Welford run via add-then-score --> the sample's
//   score is mean |z| over every run that had signal (sigma >=
//   core::sigma_floor), exactly the batch aggregation rule.
//
// Bucketing over time: stream positions are cut into epochs of
// `rebucket_interval` arrivals; each epoch is re-bucketed with the batch
// machinery (stream/bucket_stats.h), keyed by (group seed, epoch index).
//
// Determinism contract — "same stream prefix, same scores": every rng
// draw is keyed by stream position, never by wall clock or by how much
// stream is still to come. Stream layout, per group g with
// root = derive_seed(seed, g):
//
//   derive_seed(root, 0)             feature subset, then ansatz angles
//   derive_seed(derive_seed(root, 1), epoch)   epoch bucket partition
//   derive_seed(derive_seed(root, 2), t).child(k)   sampling noise of
//                                    level k at stream position t
//
// so push(t) depends only on samples 0..t and the configuration. Pinned
// by golden fixtures in tests/stream/.
//
// Steady-state cost: per-group programs are compiled once at
// construction and evaluated through one persistent exec::group_session,
// one call per push for all G groups: each push encodes every group's
// sample and derives its level streams into preallocated G x 2^n and
// G x L buffers, and on the statevector backend the groups replay side
// by side in AVX2 lanes, IEEE == to one level session per group. A push
// allocates nothing once the first epoch of each shape has been seen
// (the per-epoch re-plan is the one amortised allocation; the --no-fused
// per-level path trades this for run_batch's per-call setup and is kept
// only as the A/B validation hatch).
#ifndef QUORUM_STREAM_STREAM_SCORER_H
#define QUORUM_STREAM_STREAM_SCORER_H

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/config.h"
#include "exec/executor.h"
#include "stream/bucket_stats.h"
#include "stream/window.h"
#include "util/rng.h"

namespace quorum::stream {

/// Streaming-scorer knobs on top of the detector configuration.
struct stream_config {
    /// Sliding-window length of the feature extractor.
    std::size_t window = 8;
    /// Epoch length: arrivals between deterministic re-bucketings.
    std::size_t rebucket_interval = 64;
    /// The underlying ensemble configuration. `ensemble_groups` sets the
    /// stream ensemble width. The stream ignores `threads`: a push
    /// evaluates every group in one group-session call on the caller's
    /// thread; `shards` sizes a remote backend as in batch mode.
    /// Streaming cost per arrival is
    /// ensemble_groups * levels circuit evaluations, so stream configs
    /// typically run tens of groups, not the paper's 1000.
    core::quorum_config detector;

    /// Throws util::contract_error on an inconsistent configuration.
    void validate() const;
};

/// One arrival's verdict.
struct stream_score {
    /// 0-based stream position of the sample this scores.
    std::size_t position = 0;
    /// Mean |z| over contributing (group, level, bucket) runs; 0 while
    /// no run has accumulated signal yet (early stream).
    double score = 0.0;
    /// Number of runs that contributed (diagnostic; grows as buckets
    /// fill and sigmas lift off the floor).
    std::size_t runs = 0;
};

class stream_scorer {
public:
    /// Builds the full ensemble for `raw_features`-wide arrivals:
    /// instantiates the backend, draws every group's feature subset and
    /// ansatz, compiles the level families and opens one persistent
    /// group session over them. Construction is the expensive step;
    /// push() is the amortised one.
    stream_scorer(stream_config config, std::size_t raw_features);

    [[nodiscard]] const stream_config& config() const noexcept {
        return config_;
    }
    /// Arrivals pushed so far (the next push scores position count()).
    [[nodiscard]] std::size_t count() const noexcept { return position_; }
    /// Compression levels evaluated per group.
    [[nodiscard]] std::size_t level_count() const noexcept {
        return levels_.size();
    }
    /// Width push() expects.
    [[nodiscard]] std::size_t raw_features() const noexcept {
        return extractor_.raw_features();
    }

    /// Scores the arriving sample (raw.size() == raw_features()).
    /// Deterministic in the stream prefix; allocation-free at steady
    /// state except at epoch boundaries (position % rebucket_interval
    /// == 0), where the next epoch's buckets are planned.
    [[nodiscard]] stream_score push(std::span<const double> raw);

private:
    /// One ensemble group's streaming state.
    struct group_state {
        /// Indices into the extracted feature vector.
        std::vector<std::size_t> features;
        /// Compiled level family; owned here only on the --no-fused
        /// path (otherwise the group session owns it).
        std::vector<exec::program> family;
        /// derive_seed(detector.seed, group_index).
        std::uint64_t group_root = 0;
        /// derive_seed(group_root, 2) — per-arrival sampling streams.
        std::uint64_t stoch_root = 0;
        epoch_plan plan;
        bucket_stats stats;
    };

    void begin_epoch(std::size_t epoch);

    stream_config config_;
    sliding_window_extractor extractor_;
    online_normalizer normalizer_;
    // The engine must outlive the group session (declaration order
    // guarantees reverse-order destruction below).
    std::unique_ptr<exec::executor> engine_;
    /// Every group's fused evaluator (null on the --no-fused path).
    std::unique_ptr<exec::group_session> session_;
    std::vector<std::size_t> levels_;
    bool stochastic_ = false;
    std::vector<group_state> groups_;

    // Preallocated push-path work buffers; the per-group ones are
    // group-major (group g at g * 2^n, g * L and g).
    std::vector<double> extracted_;
    std::vector<double> selected_;
    std::vector<double> amplitudes_;
    std::vector<double> p_values_;
    std::vector<util::rng> gens_;
    std::vector<util::rng*> gen_ptrs_;
    std::vector<exec::sample> samples_;
    std::size_t position_ = 0;
};

} // namespace quorum::stream

#endif // QUORUM_STREAM_STREAM_SCORER_H
