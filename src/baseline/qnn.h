// The paper's competitor: a supervised quantum-neural-network anomaly
// classifier, adapted for generic tabular use from Kukliansky et al.
// ("Network anomaly detection using quantum neural networks on noisy
// quantum computers", IEEE TQE 2024) exactly as the paper does (§V).
//
// Pipeline: select the n highest-variance features -> angle-encode each as
// RY(x * π) -> L layers of trainable RY/RZ rotations + a CX ring ->
// read out <Z_0> -> p(anomaly) = (1 - <Z>)/2 -> binary cross-entropy,
// trained with parameter-shift gradients + Adam ON LABELS. This is
// everything Quorum avoids: labels, gradients, training epochs.
//
// On heavily imbalanced data with a fixed 0.5 threshold the trained model
// is conservative: near-perfect precision, weak recall — the Fig. 8
// behaviour the paper reports (including zero detections on `letter`).
#ifndef QUORUM_BASELINE_QNN_H
#define QUORUM_BASELINE_QNN_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "exec/executor.h"

namespace quorum::baseline {

/// QNN hyperparameters (defaults sized for the Table I datasets).
struct qnn_config {
    std::size_t n_qubits = 4;   ///< also the number of encoded features
    std::size_t layers = 2;     ///< trainable rotation layers
    std::size_t epochs = 40;
    std::size_t batch_size = 16;
    double learning_rate = 0.05;
    double threshold = 0.5;     ///< p(anomaly) >= threshold -> flag
    /// Weight multiplier on anomaly-class gradients (1.0 = plain BCE;
    /// the conservative paper-like behaviour emerges at 1.0).
    double positive_class_weight = 1.0;
    std::uint64_t seed = 7;
    /// Execution backend spec (exec registry) evaluating the circuits.
    std::string backend = "statevector";
};

/// Supervised parameterised-circuit classifier.
class qnn_classifier {
public:
    explicit qnn_classifier(qnn_config config);

    /// Trains on a labelled dataset (throws if labels are missing).
    /// Returns the per-epoch mean training loss.
    std::vector<double> fit(const data::dataset& labelled);

    /// p(anomaly) per sample. Requires fit() first.
    [[nodiscard]] std::vector<double>
    predict_proba(const data::dataset& input) const;

    /// 0/1 anomaly flags at the configured threshold.
    [[nodiscard]] std::vector<int> predict(const data::dataset& input) const;

    /// Trained parameter vector (2 * layers * n_qubits angles).
    [[nodiscard]] const std::vector<double>& parameters() const noexcept {
        return params_;
    }

    /// Feature indices the model encodes (highest training variance).
    [[nodiscard]] const std::vector<std::size_t>& encoded_features()
        const noexcept {
        return feature_indices_;
    }

    [[nodiscard]] const qnn_config& config() const noexcept { return config_; }

    /// p(anomaly) for one already-selected, already-scaled feature vector
    /// under the given parameters (exposed for gradient tests).
    [[nodiscard]] double forward(std::span<const double> encoded_features,
                                 std::span<const double> params) const;

private:
    /// One engine batch of forward passes for several parameter vectors
    /// of the same feature vector — the parameter-shift hot path (2|θ|
    /// circuits per gradient) amortised through run_batch.
    [[nodiscard]] std::vector<double> forward_batch(
        std::span<const double> encoded_features,
        const std::vector<std::vector<double>>& param_variants) const;
    [[nodiscard]] std::vector<double>
    encode_row(const data::dataset& input, std::size_t row) const;
    /// Concatenates encoding angles (x * π) and trainable params into the
    /// compiled circuit's per-evaluation param stream.
    [[nodiscard]] std::vector<double>
    param_stream(std::span<const double> encoded_features,
                 std::span<const double> params) const;

    qnn_config config_;
    /// The whole circuit compiled once: angle encoding + trainable layers,
    /// every rotation parameterized per evaluation; <Z_0> readout.
    exec::program circuit_program_;
    std::shared_ptr<const exec::executor> engine_;
    std::vector<double> params_;
    std::vector<std::size_t> feature_indices_;
    std::vector<double> feature_min_;
    std::vector<double> feature_max_;
    bool fitted_ = false;
};

} // namespace quorum::baseline

#endif // QUORUM_BASELINE_QNN_H
