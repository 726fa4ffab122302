// Hybrid classical-quantum baseline: a closed-form PCA compressor in
// front of a smaller Quorum ensemble.
//
// The hybrid QAE family of related work (Sakhnenko et al.; surveyed in
// the paper's §III) puts a classical dimensionality reducer before the
// quantum scorer so the quantum register only has to represent an
// already-compressed view of the data. This baseline reproduces that
// architecture without giving up Quorum's zero-training property: the
// classical stage is plain PCA — mean + covariance + a deterministic
// Jacobi eigensolver, all closed form, no gradient descent — and the
// quantum stage is a standard quorum_detector running on the projected
// table with a smaller register (default n = 2 instead of 3).
//
// The comparison this enables (bench_scenarios): does a data-adapted
// linear projection in front of a *smaller* random ensemble match the
// flagship detector's quality at lower circuit cost, or does the fixed
// projection reintroduce exactly the bias §IV-C warns about (every
// group sees the same compressed coordinates)?
#ifndef QUORUM_BASELINE_HYBRID_QAE_H
#define QUORUM_BASELINE_HYBRID_QAE_H

#include <cstddef>
#include <span>
#include <vector>

#include "core/anomaly_score.h"
#include "core/config.h"
#include "data/dataset.h"

namespace quorum::baseline {

/// Hybrid-baseline knobs: classical bottleneck width plus the quantum
/// stage's full configuration.
struct hybrid_qae_config {
    /// Principal components kept by the classical stage (must be
    /// >= 1 and <= the input feature count at fit time).
    std::size_t components = 4;
    /// The quantum stage. The default shrinks the register to n = 2 —
    /// the classical stage has already compressed, so the ensemble
    /// runs 5-qubit SWAP-test circuits instead of the flagship's 7.
    core::quorum_config detector{.n_qubits = 2};
};

/// PCA-compressed Quorum: fit() derives the projection in closed form,
/// score_all() runs the (training-free) quantum ensemble on the
/// projected table. Deterministic in (config, data) — the eigensolver
/// is a fixed-order cyclic Jacobi with a fixed sign convention.
class hybrid_qae {
public:
    /// Validates and stores the configuration (throws
    /// util::contract_error on nonsense).
    explicit hybrid_qae(hybrid_qae_config config);

    [[nodiscard]] const hybrid_qae_config& config() const noexcept {
        return config_;
    }

    /// Fits the classical stage on (label-free) data: mean, covariance,
    /// top `components` eigenvectors. Labels, if present, are ignored.
    /// Returns the per-component explained-variance ratios (descending).
    std::vector<double> fit(const data::dataset& input);

    /// Anomaly scores of every sample: project through the fitted PCA
    /// basis, then score the projected table with the configured
    /// quorum_detector. Requires fit(); the input must have the same
    /// width the stage was fitted on.
    [[nodiscard]] core::score_report
    score_all(const data::dataset& input) const;

    /// The projected (compressed) dataset: `components` features per
    /// row, labels carried through for evaluation. Requires fit().
    [[nodiscard]] data::dataset project(const data::dataset& input) const;

    /// One raw row's projection onto the kept components. Requires
    /// fit(). (Quorum scores are ensemble-relative — a single row has
    /// no standalone score, so the per-row hook exposes the classical
    /// stage only.)
    [[nodiscard]] std::vector<double>
    project_row(std::span<const double> row) const;

private:
    hybrid_qae_config config_;
    std::vector<double> mean_;
    /// Row-major components x features projection matrix.
    std::vector<double> basis_;
    bool fitted_ = false;
};

} // namespace quorum::baseline

#endif // QUORUM_BASELINE_HYBRID_QAE_H
