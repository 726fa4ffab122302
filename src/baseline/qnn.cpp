#include "baseline/qnn.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "baseline/optimizer.h"
#include "exec/registry.h"
#include "qml/parameter_shift.h"
#include "qsim/circuit.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/stats.h"

namespace quorum::baseline {

namespace {

constexpr double pi = 3.14159265358979323846;
constexpr double probability_clamp = 1e-6;

/// Builds the QNN circuit template: RY angle encoding, then L layers of
/// RY/RZ rotations and a CX ring. Every rotation angle is a per-evaluation
/// parameter (placeholder zeros here).
qsim::circuit build_qnn_template(std::size_t n_qubits, std::size_t layers) {
    qsim::circuit c(n_qubits);
    for (std::size_t q = 0; q < n_qubits; ++q) {
        c.ry(0.0, static_cast<qsim::qubit_t>(q));
    }
    for (std::size_t layer = 0; layer < layers; ++layer) {
        for (std::size_t q = 0; q < n_qubits; ++q) {
            c.ry(0.0, static_cast<qsim::qubit_t>(q));
        }
        for (std::size_t q = 0; q < n_qubits; ++q) {
            c.rz(0.0, static_cast<qsim::qubit_t>(q));
        }
        if (n_qubits >= 2) {
            for (std::size_t q = 0; q < n_qubits; ++q) {
                if (n_qubits == 2 && q == 1) {
                    break; // a 2-qubit "ring" is a single CX
                }
                c.cx(static_cast<qsim::qubit_t>(q),
                     static_cast<qsim::qubit_t>((q + 1) % n_qubits));
            }
        }
    }
    return c;
}

} // namespace

qnn_classifier::qnn_classifier(qnn_config config)
    : config_(std::move(config)) {
    QUORUM_EXPECTS(config_.n_qubits >= 1 && config_.n_qubits <= 12);
    QUORUM_EXPECTS(config_.layers >= 1);
    QUORUM_EXPECTS(config_.epochs >= 1);
    QUORUM_EXPECTS(config_.batch_size >= 1);
    QUORUM_EXPECTS(config_.learning_rate > 0.0);
    QUORUM_EXPECTS(config_.threshold > 0.0 && config_.threshold < 1.0);
    QUORUM_EXPECTS(config_.positive_class_weight > 0.0);

    const qsim::circuit c =
        build_qnn_template(config_.n_qubits, config_.layers);
    qsim::compiled_program::options options;
    options.parameterized_ops = c.ops().size(); // the whole circuit
    circuit_program_.circuit = qsim::compiled_program::compile(c, options);
    circuit_program_.readout.kind = exec::readout_kind::z_probability;
    circuit_program_.readout.qubits = {0};
    engine_ = exec::make_executor(config_.backend, exec::engine_config{});
}

std::vector<double>
qnn_classifier::param_stream(std::span<const double> encoded_features,
                             std::span<const double> params) const {
    // Angle encoding RY(x * π) per qubit, then the trainable angles, which
    // are already stored in gate order (per layer: RY row, RZ row).
    std::vector<double> stream;
    stream.reserve(encoded_features.size() + params.size());
    for (const double x : encoded_features) {
        stream.push_back(x * pi);
    }
    stream.insert(stream.end(), params.begin(), params.end());
    return stream;
}

double qnn_classifier::forward(std::span<const double> encoded_features,
                               std::span<const double> params) const {
    QUORUM_EXPECTS(encoded_features.size() == config_.n_qubits);
    QUORUM_EXPECTS(params.size() == 2 * config_.layers * config_.n_qubits);
    const std::vector<double> stream =
        param_stream(encoded_features, params);
    const exec::sample s{{}, stream, nullptr};
    double probability = 0.0;
    engine_->run_batch(circuit_program_, {&s, 1}, {&probability, 1});
    return probability;
}

std::vector<double> qnn_classifier::forward_batch(
    std::span<const double> encoded_features,
    const std::vector<std::vector<double>>& param_variants) const {
    std::vector<std::vector<double>> streams(param_variants.size());
    std::vector<exec::sample> batch(param_variants.size());
    for (std::size_t v = 0; v < param_variants.size(); ++v) {
        streams[v] = param_stream(encoded_features, param_variants[v]);
        batch[v] = exec::sample{{}, streams[v], nullptr};
    }
    std::vector<double> probabilities(param_variants.size());
    engine_->run_batch(circuit_program_, batch, probabilities);
    return probabilities;
}

std::vector<double> qnn_classifier::encode_row(const data::dataset& input,
                                               std::size_t row) const {
    std::vector<double> encoded(config_.n_qubits, 0.0);
    for (std::size_t k = 0; k < feature_indices_.size(); ++k) {
        const std::size_t j = feature_indices_[k];
        const double range = feature_max_[k] - feature_min_[k];
        double scaled = 0.0;
        if (range > 0.0 && j < input.num_features()) {
            scaled = (input.at(row, j) - feature_min_[k]) / range;
        }
        encoded[k] = std::min(1.0, std::max(0.0, scaled));
    }
    return encoded;
}

std::vector<double> qnn_classifier::fit(const data::dataset& labelled) {
    QUORUM_EXPECTS_MSG(labelled.has_labels(),
                       "the QNN baseline is supervised and needs labels");
    QUORUM_EXPECTS(labelled.num_samples() >= 2);

    // Feature selection: the n highest-variance features of the training
    // data (a deterministic stand-in for the domain selection in the
    // original network-telemetry model).
    const std::size_t total = labelled.num_features();
    std::vector<double> variances(total, 0.0);
    for (std::size_t j = 0; j < total; ++j) {
        util::welford_accumulator acc;
        for (std::size_t i = 0; i < labelled.num_samples(); ++i) {
            acc.add(labelled.at(i, j));
        }
        variances[j] = acc.variance_population();
    }
    std::vector<std::size_t> order(total);
    for (std::size_t j = 0; j < total; ++j) {
        order[j] = j;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&variances](std::size_t a, std::size_t b) {
                         return variances[a] > variances[b];
                     });
    feature_indices_.assign(
        order.begin(),
        order.begin() + static_cast<std::ptrdiff_t>(
                            std::min<std::size_t>(config_.n_qubits, total)));

    feature_min_.assign(feature_indices_.size(), 0.0);
    feature_max_.assign(feature_indices_.size(), 0.0);
    for (std::size_t k = 0; k < feature_indices_.size(); ++k) {
        const std::size_t j = feature_indices_[k];
        double lo = labelled.at(0, j);
        double hi = lo;
        for (std::size_t i = 1; i < labelled.num_samples(); ++i) {
            lo = std::min(lo, labelled.at(i, j));
            hi = std::max(hi, labelled.at(i, j));
        }
        feature_min_[k] = lo;
        feature_max_[k] = hi;
    }

    // Pre-encode all rows.
    std::vector<std::vector<double>> encoded(labelled.num_samples());
    for (std::size_t i = 0; i < labelled.num_samples(); ++i) {
        encoded[i] = encode_row(labelled, i);
    }

    util::rng gen(config_.seed);
    params_.assign(2 * config_.layers * config_.n_qubits, 0.0);
    for (double& theta : params_) {
        theta = gen.uniform(-0.1, 0.1); // small init near identity
    }

    adam_optimizer adam(config_.learning_rate);
    std::vector<double> epoch_losses;
    epoch_losses.reserve(config_.epochs);

    std::vector<std::size_t> sample_order(labelled.num_samples());
    for (std::size_t i = 0; i < sample_order.size(); ++i) {
        sample_order[i] = i;
    }

    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
        gen.shuffle(std::span<std::size_t>(sample_order));
        double loss_sum = 0.0;
        std::size_t cursor = 0;
        while (cursor < sample_order.size()) {
            const std::size_t batch_end =
                std::min(cursor + config_.batch_size, sample_order.size());
            std::vector<double> gradient(params_.size(), 0.0);
            for (std::size_t b = cursor; b < batch_end; ++b) {
                const std::size_t i = sample_order[b];
                const double y = static_cast<double>(labelled.label(i));
                const double weight =
                    y > 0.5 ? config_.positive_class_weight : 1.0;

                // BCE loss and dL/dp at the clamped probability.
                const auto evaluate =
                    [&](std::span<const double> p) -> double {
                    return forward(encoded[i], p);
                };
                const double prob = std::clamp(evaluate(params_),
                                               probability_clamp,
                                               1.0 - probability_clamp);
                loss_sum += -weight * (y * std::log(prob) +
                                       (1.0 - y) * std::log(1.0 - prob));
                const double dl_dp =
                    weight * (prob - y) / (prob * (1.0 - prob));

                // All 2|θ| shifted circuits evaluate as ONE engine batch;
                // values are identical to the sequential rule.
                const std::vector<double> dp_dtheta =
                    qml::parameter_shift_gradient_batched(
                        [&](const std::vector<std::vector<double>>&
                                variants) {
                            return forward_batch(encoded[i], variants);
                        },
                        params_);
                for (std::size_t p = 0; p < gradient.size(); ++p) {
                    gradient[p] += dl_dp * dp_dtheta[p];
                }
            }
            const double scale =
                1.0 / static_cast<double>(batch_end - cursor);
            for (double& g : gradient) {
                g *= scale;
            }
            adam.step(params_, gradient);
            cursor = batch_end;
        }
        epoch_losses.push_back(loss_sum /
                               static_cast<double>(sample_order.size()));
    }
    fitted_ = true;
    return epoch_losses;
}

std::vector<double>
qnn_classifier::predict_proba(const data::dataset& input) const {
    QUORUM_EXPECTS_MSG(fitted_, "call fit() before predict");
    // One batch through the engine: every row replays the same compiled
    // circuit, differing only in its param stream.
    std::vector<std::vector<double>> streams(input.num_samples());
    std::vector<exec::sample> batch(input.num_samples());
    for (std::size_t i = 0; i < input.num_samples(); ++i) {
        streams[i] = param_stream(encode_row(input, i), params_);
        batch[i] = exec::sample{{}, streams[i], nullptr};
    }
    std::vector<double> probs(input.num_samples());
    engine_->run_batch(circuit_program_, batch, probs);
    return probs;
}

std::vector<int> qnn_classifier::predict(const data::dataset& input) const {
    const std::vector<double> probs = predict_proba(input);
    std::vector<int> flags(probs.size());
    for (std::size_t i = 0; i < probs.size(); ++i) {
        flags[i] = probs[i] >= config_.threshold ? 1 : 0;
    }
    return flags;
}

} // namespace quorum::baseline
