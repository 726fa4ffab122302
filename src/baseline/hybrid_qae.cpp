#include "baseline/hybrid_qae.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "core/quorum.h"
#include "util/contracts.h"

namespace quorum::baseline {

namespace {

/// Cyclic Jacobi eigensolver for a small dense symmetric matrix
/// (row-major n x n, destroyed in place). Fully deterministic: pivots
/// sweep (p, q) in fixed ascending order, convergence is an absolute
/// off-diagonal threshold. On return `values[i]` / column i of
/// `vectors` hold the i-th eigenpair, unsorted.
void jacobi_eigen(std::vector<double>& a, std::size_t n,
                  std::vector<double>& values, std::vector<double>& vectors) {
    vectors.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        vectors[i * n + i] = 1.0;
    }
    constexpr std::size_t max_sweeps = 64;
    for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
        double off = 0.0;
        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                off += std::abs(a[p * n + q]);
            }
        }
        if (off < 1e-14) {
            break;
        }
        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                const double apq = a[p * n + q];
                if (std::abs(apq) < 1e-18) {
                    continue;
                }
                const double theta =
                    (a[q * n + q] - a[p * n + p]) / (2.0 * apq);
                const double t =
                    (theta >= 0.0 ? 1.0 : -1.0) /
                    (std::abs(theta) + std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;
                for (std::size_t k = 0; k < n; ++k) {
                    const double akp = a[k * n + p];
                    const double akq = a[k * n + q];
                    a[k * n + p] = c * akp - s * akq;
                    a[k * n + q] = s * akp + c * akq;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const double apk = a[p * n + k];
                    const double aqk = a[q * n + k];
                    a[p * n + k] = c * apk - s * aqk;
                    a[q * n + k] = s * apk + c * aqk;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const double vkp = vectors[k * n + p];
                    const double vkq = vectors[k * n + q];
                    vectors[k * n + p] = c * vkp - s * vkq;
                    vectors[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }
    values.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        values[i] = a[i * n + i];
    }
}

} // namespace

hybrid_qae::hybrid_qae(hybrid_qae_config config) : config_(std::move(config)) {
    QUORUM_EXPECTS_MSG(config_.components >= 1,
                       "hybrid baseline needs >= 1 principal component");
    config_.detector.validate();
}

std::vector<double> hybrid_qae::fit(const data::dataset& input) {
    const std::size_t samples = input.num_samples();
    const std::size_t features = input.num_features();
    QUORUM_EXPECTS_MSG(samples >= 2,
                       "PCA needs >= 2 samples to estimate covariance");
    QUORUM_EXPECTS_MSG(config_.components <= features,
                       "more principal components requested than features");

    mean_.assign(features, 0.0);
    for (std::size_t i = 0; i < samples; ++i) {
        for (std::size_t j = 0; j < features; ++j) {
            mean_[j] += input.at(i, j);
        }
    }
    for (double& m : mean_) {
        m /= static_cast<double>(samples);
    }

    std::vector<double> cov(features * features, 0.0);
    for (std::size_t i = 0; i < samples; ++i) {
        for (std::size_t j = 0; j < features; ++j) {
            const double dj = input.at(i, j) - mean_[j];
            for (std::size_t k = j; k < features; ++k) {
                cov[j * features + k] += dj * (input.at(i, k) - mean_[k]);
            }
        }
    }
    const double scale = 1.0 / static_cast<double>(samples - 1);
    for (std::size_t j = 0; j < features; ++j) {
        for (std::size_t k = j; k < features; ++k) {
            cov[j * features + k] *= scale;
            cov[k * features + j] = cov[j * features + k];
        }
    }

    std::vector<double> values;
    std::vector<double> vectors;
    jacobi_eigen(cov, features, values, vectors);

    // Descending eigenvalue order, ties broken by original index so the
    // ordering (and therefore every downstream score) is deterministic.
    std::vector<std::size_t> order(features);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t lhs, std::size_t rhs) {
                         return values[lhs] > values[rhs];
                     });

    const double total =
        std::accumulate(values.begin(), values.end(), 0.0,
                        [](double acc, double v) {
                            return acc + std::max(0.0, v);
                        });
    basis_.assign(config_.components * features, 0.0);
    std::vector<double> explained(config_.components, 0.0);
    for (std::size_t c = 0; c < config_.components; ++c) {
        const std::size_t col = order[c];
        // Sign convention: the component with the largest magnitude
        // (lowest index on ties) is made positive, so the basis never
        // depends on the eigensolver's incidental sign choices.
        std::size_t pivot = 0;
        for (std::size_t j = 1; j < features; ++j) {
            if (std::abs(vectors[j * features + col]) >
                std::abs(vectors[pivot * features + col])) {
                pivot = j;
            }
        }
        const double flip = vectors[pivot * features + col] < 0.0 ? -1.0 : 1.0;
        for (std::size_t j = 0; j < features; ++j) {
            basis_[c * features + j] = flip * vectors[j * features + col];
        }
        explained[c] =
            total > 0.0 ? std::max(0.0, values[col]) / total : 0.0;
    }
    fitted_ = true;
    return explained;
}

data::dataset hybrid_qae::project(const data::dataset& input) const {
    QUORUM_EXPECTS_MSG(fitted_, "hybrid baseline used before fit()");
    QUORUM_EXPECTS_MSG(input.num_features() == mean_.size(),
                       "projection input width differs from the fitted one");
    data::dataset out(input.num_samples(), config_.components);
    out.set_name(input.name() + "_pca");
    for (std::size_t i = 0; i < input.num_samples(); ++i) {
        const std::vector<double> projected = project_row(input.row(i));
        for (std::size_t c = 0; c < config_.components; ++c) {
            out.at(i, c) = projected[c];
        }
    }
    if (input.has_labels()) {
        out.set_labels(input.labels());
    }
    return out;
}

std::vector<double> hybrid_qae::project_row(std::span<const double> row) const {
    QUORUM_EXPECTS_MSG(fitted_, "hybrid baseline used before fit()");
    QUORUM_EXPECTS_MSG(row.size() == mean_.size(),
                       "projection input width differs from the fitted one");
    const std::size_t features = mean_.size();
    std::vector<double> out(config_.components, 0.0);
    for (std::size_t c = 0; c < config_.components; ++c) {
        double acc = 0.0;
        for (std::size_t j = 0; j < features; ++j) {
            acc += basis_[c * features + j] * (row[j] - mean_[j]);
        }
        out[c] = acc;
    }
    return out;
}

core::score_report hybrid_qae::score_all(const data::dataset& input) const {
    const core::quorum_detector detector(config_.detector);
    return detector.score(project(input));
}

} // namespace quorum::baseline
