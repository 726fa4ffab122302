// quorum_detector — the public façade of the paper's contribution.
//
//   quorum::core::quorum_config config;            // paper defaults
//   quorum::core::quorum_detector detector(config);
//   auto report = detector.score(my_dataset);      // zero training
//   auto flagged = detector.detect(my_dataset);    // top-k% indices
//
// The detector is entirely unsupervised and training-free: labels on the
// input dataset are ignored (stripped internally), no parameters are ever
// optimised, and ensemble groups run embarrassingly parallel with
// bit-identical results for any thread count.
#ifndef QUORUM_CORE_QUORUM_H
#define QUORUM_CORE_QUORUM_H

#include "core/anomaly_score.h"
#include "core/config.h"
#include "data/dataset.h"

namespace quorum::core {

/// Zero-training unsupervised quantum anomaly detector.
class quorum_detector {
public:
    /// Validates and stores the configuration.
    explicit quorum_detector(quorum_config config);

    /// The active configuration.
    [[nodiscard]] const quorum_config& config() const noexcept {
        return config_;
    }

    /// Scores every sample (higher = more anomalous). Labels, if present,
    /// are stripped before any computation. Deterministic in
    /// (config.seed, data) for any thread count.
    [[nodiscard]] score_report score(const data::dataset& input) const;

    /// Indices of the samples flagged as anomalies: the top
    /// ceil(estimated_anomaly_rate * N) by score.
    [[nodiscard]] std::vector<std::size_t>
    detect(const data::dataset& input) const;

    /// Number of samples that would be flagged for a dataset of size n.
    [[nodiscard]] std::size_t flag_count(std::size_t n_samples) const;

private:
    quorum_config config_;
};

} // namespace quorum::core

#endif // QUORUM_CORE_QUORUM_H
