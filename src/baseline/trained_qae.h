// Trained quantum autoencoder baseline (the family Quorum's related work
// §III contrasts against: Herr et al., Hdaib et al., Sakhnenko et al.).
//
// Unsupervised but NOT training-free: the encoder ansatz E(θ) — the same
// RX/RZ+CNOT architecture Quorum randomises — is trained so that normal
// data compresses into the kept qubits, by minimising the total |1>
// population of the "trash" qubits after encoding (Romero et al.'s QAE
// objective). After training, a sample's anomaly score is its trash
// population: poorly compressible samples are anomalous.
//
// This is exactly the comparison the paper motivates: the trained QAE
// pays parameter-shift gradient descent (2 circuit evaluations per
// parameter per sample per step) for a *data-adapted* projection, while
// Quorum replaces training with a statistical ensemble of random
// projections. bench_ext_trained_qae quantifies the trade.
#ifndef QUORUM_BASELINE_TRAINED_QAE_H
#define QUORUM_BASELINE_TRAINED_QAE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "exec/executor.h"
#include "qml/ansatz.h"

namespace quorum::baseline {

/// Trained-QAE hyperparameters (architecture mirrors Quorum's defaults).
struct trained_qae_config {
    std::size_t n_qubits = 3;   ///< register size (2^n - 1 features encoded)
    std::size_t layers = 2;     ///< ansatz layers
    std::size_t trash_qubits = 1; ///< compression bottleneck (must be < n)
    std::size_t epochs = 20;
    std::size_t batch_size = 16;
    double learning_rate = 0.05;
    std::uint64_t seed = 13;
    /// Execution backend spec (exec registry) evaluating the encoder
    /// circuits — exact probabilities, shared with Quorum's engine layer.
    std::string backend = "statevector";
};

/// Unsupervised, gradient-trained quantum autoencoder anomaly scorer.
class trained_qae {
public:
    explicit trained_qae(trained_qae_config config);

    /// Trains the encoder on (label-free) data. Labels, if present, are
    /// ignored. Returns the per-epoch mean trash population (the loss).
    std::vector<double> fit(const data::dataset& input);

    /// Anomaly scores: per-sample trash-qubit |1> population under the
    /// trained encoder (higher = less compressible = more anomalous).
    [[nodiscard]] std::vector<double>
    score_all(const data::dataset& input) const;

    /// Trash population for one raw sample row (after internal feature
    /// selection + amplitude encoding). Requires fit().
    [[nodiscard]] double score_row(std::span<const double> row) const;

    /// The trained ansatz angles.
    [[nodiscard]] const qml::ansatz_params& parameters() const noexcept {
        return params_;
    }

    /// Total parameter-shift circuit evaluations spent in fit()
    /// (2 * |θ| per sample per batch pass) — the training cost Quorum
    /// avoids entirely.
    [[nodiscard]] std::size_t training_circuit_evaluations() const noexcept {
        return training_evaluations_;
    }

    [[nodiscard]] const trained_qae_config& config() const noexcept {
        return config_;
    }

private:
    /// Trash population of one encoded amplitude vector under angles θ.
    [[nodiscard]] double
    trash_population(std::span<const double> amplitudes,
                     const qml::ansatz_params& params) const;
    /// One engine batch of trash populations for several flat parameter
    /// vectors of the same sample — the parameter-shift hot path (2|θ|
    /// circuits per gradient) amortised through run_batch.
    [[nodiscard]] std::vector<double> trash_population_batch(
        std::span<const double> amplitudes,
        const std::vector<std::vector<double>>& variants,
        const std::function<qml::ansatz_params(std::span<const double>)>&
            unpack) const;
    [[nodiscard]] std::vector<double>
    encode_row(std::span<const double> row) const;

    trained_qae_config config_;
    /// The encoder compiled once (structure is fixed; per-evaluation angles
    /// arrive as the sample's param stream) + the engine running it.
    exec::program encoder_program_;
    std::shared_ptr<const exec::executor> engine_;
    qml::ansatz_params params_;
    std::vector<std::size_t> feature_indices_;
    std::vector<double> feature_min_;
    std::vector<double> feature_range_;
    std::size_t training_evaluations_ = 0;
    bool fitted_ = false;
};

} // namespace quorum::baseline

#endif // QUORUM_BASELINE_TRAINED_QAE_H
