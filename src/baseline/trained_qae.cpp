#include "baseline/trained_qae.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "baseline/optimizer.h"
#include "exec/registry.h"
#include "qml/amplitude_encoding.h"
#include "qml/parameter_shift.h"
#include "qsim/circuit.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/stats.h"

namespace quorum::baseline {

trained_qae::trained_qae(trained_qae_config config)
    : config_(std::move(config)) {
    QUORUM_EXPECTS(config_.n_qubits >= 2 && config_.n_qubits <= 10);
    QUORUM_EXPECTS(config_.layers >= 1);
    QUORUM_EXPECTS_MSG(config_.trash_qubits >= 1 &&
                           config_.trash_qubits < config_.n_qubits,
                       "trash qubits must leave at least one kept qubit");
    QUORUM_EXPECTS(config_.epochs >= 1);
    QUORUM_EXPECTS(config_.batch_size >= 1);
    QUORUM_EXPECTS(config_.learning_rate > 0.0);

    // Compile the encoder once: an initialize slot for the encoded sample,
    // then E(θ) with every rotation angle supplied per evaluation (the
    // angles are the trainable parameters). Readout: total |1> population
    // of the trash qubits — Romero et al.'s QAE objective.
    qsim::circuit encoder(config_.n_qubits);
    std::vector<qsim::qubit_t> reg(config_.n_qubits);
    for (std::size_t q = 0; q < config_.n_qubits; ++q) {
        reg[q] = static_cast<qsim::qubit_t>(q);
    }
    std::vector<double> placeholder(std::size_t{1} << config_.n_qubits, 0.0);
    placeholder[0] = 1.0;
    encoder.initialize(reg, placeholder);
    const qml::ansatz_params zero_params{
        config_.n_qubits, config_.layers,
        std::vector<double>(config_.layers * config_.n_qubits, 0.0),
        std::vector<double>(config_.layers * config_.n_qubits, 0.0)};
    qml::append_encoder(encoder, zero_params, reg);
    qsim::compiled_program::options options;
    options.parameterized_ops = encoder.ops().size() - 1; // all but the slot
    encoder_program_.circuit =
        qsim::compiled_program::compile(encoder, options);
    encoder_program_.readout.kind = exec::readout_kind::excited_population;
    for (std::size_t k = 0; k < config_.trash_qubits; ++k) {
        // Trash = the top `trash_qubits` qubits (the ones Quorum resets).
        encoder_program_.readout.qubits.push_back(
            static_cast<qsim::qubit_t>(config_.n_qubits - 1 - k));
    }
    engine_ = exec::make_executor(config_.backend, exec::engine_config{});
}

double trained_qae::trash_population(std::span<const double> amplitudes,
                                     const qml::ansatz_params& params) const {
    const std::vector<double> angles = qml::encoder_param_stream(params);
    const exec::sample s{amplitudes, angles, nullptr};
    double population = 0.0;
    engine_->run_batch(encoder_program_, {&s, 1}, {&population, 1});
    return population;
}

std::vector<double> trained_qae::trash_population_batch(
    std::span<const double> amplitudes,
    const std::vector<std::vector<double>>& variants,
    const std::function<qml::ansatz_params(std::span<const double>)>& unpack)
    const {
    std::vector<std::vector<double>> streams(variants.size());
    std::vector<exec::sample> batch(variants.size());
    for (std::size_t v = 0; v < variants.size(); ++v) {
        streams[v] = qml::encoder_param_stream(unpack(variants[v]));
        batch[v] = exec::sample{amplitudes, streams[v], nullptr};
    }
    std::vector<double> populations(variants.size());
    engine_->run_batch(encoder_program_, batch, populations);
    return populations;
}

std::vector<double> trained_qae::encode_row(std::span<const double> row) const {
    std::vector<double> selected(feature_indices_.size());
    const double cap = 1.0 / static_cast<double>(feature_indices_.size());
    for (std::size_t k = 0; k < feature_indices_.size(); ++k) {
        const std::size_t j = feature_indices_[k];
        double scaled = 0.0;
        if (feature_range_[k] > 0.0 && j < row.size()) {
            scaled = (row[j] - feature_min_[k]) / feature_range_[k];
        }
        selected[k] = std::clamp(scaled, 0.0, 1.0) * cap;
    }
    return qml::to_amplitudes(selected, config_.n_qubits);
}

std::vector<double> trained_qae::fit(const data::dataset& input) {
    QUORUM_EXPECTS(input.num_samples() >= 2);
    const std::size_t total = input.num_features();

    // Fixed projection: the m highest-variance features (training needs a
    // stable input layout, unlike Quorum's per-group resampling).
    const std::size_t m =
        std::min(qml::max_features(config_.n_qubits), total);
    std::vector<double> variances(total, 0.0);
    for (std::size_t j = 0; j < total; ++j) {
        util::welford_accumulator acc;
        for (std::size_t i = 0; i < input.num_samples(); ++i) {
            acc.add(input.at(i, j));
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
    feature_indices_.assign(order.begin(),
                            order.begin() + static_cast<std::ptrdiff_t>(m));
    feature_min_.assign(m, 0.0);
    feature_range_.assign(m, 0.0);
    for (std::size_t k = 0; k < m; ++k) {
        const std::size_t j = feature_indices_[k];
        double lo = input.at(0, j);
        double hi = lo;
        for (std::size_t i = 1; i < input.num_samples(); ++i) {
            lo = std::min(lo, input.at(i, j));
            hi = std::max(hi, input.at(i, j));
        }
        feature_min_[k] = lo;
        feature_range_[k] = hi - lo;
    }

    std::vector<std::vector<double>> encoded(input.num_samples());
    for (std::size_t i = 0; i < input.num_samples(); ++i) {
        encoded[i] = encode_row(input.row(i));
    }

    util::rng gen(config_.seed);
    params_ = qml::random_ansatz_params(config_.n_qubits, config_.layers, gen);
    // Flat parameter view for the optimizer: rx angles then rz angles.
    const std::size_t param_count = params_.size();
    std::vector<double> flat(param_count);
    const auto pack = [&]() {
        std::copy(params_.rx_angles.begin(), params_.rx_angles.end(),
                  flat.begin());
        std::copy(params_.rz_angles.begin(), params_.rz_angles.end(),
                  flat.begin() +
                      static_cast<std::ptrdiff_t>(params_.rx_angles.size()));
    };
    const auto unpack = [this](std::span<const double> values) {
        qml::ansatz_params p = params_;
        std::copy(values.begin(),
                  values.begin() +
                      static_cast<std::ptrdiff_t>(p.rx_angles.size()),
                  p.rx_angles.begin());
        std::copy(values.begin() +
                      static_cast<std::ptrdiff_t>(p.rx_angles.size()),
                  values.end(), p.rz_angles.begin());
        return p;
    };
    pack();

    adam_optimizer adam(config_.learning_rate);
    std::vector<double> epoch_losses;
    epoch_losses.reserve(config_.epochs);
    std::vector<std::size_t> sample_order(input.num_samples());
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
            std::vector<double> gradient(param_count, 0.0);
            for (std::size_t b = cursor; b < batch_end; ++b) {
                const std::size_t i = sample_order[b];
                const auto evaluate =
                    [&](std::span<const double> values) -> double {
                    return trash_population(encoded[i], unpack(values));
                };
                // All 2|θ| shifted circuits go through the engine as ONE
                // batch (amortised replay); values are identical to
                // evaluating them one by one.
                const auto evaluate_batch =
                    [&](const std::vector<std::vector<double>>& variants) {
                        return trash_population_batch(encoded[i], variants,
                                                      unpack);
                    };
                loss_sum += evaluate(flat);
                const std::vector<double> grad =
                    qml::parameter_shift_gradient_batched(evaluate_batch,
                                                          flat);
                training_evaluations_ += 2 * param_count;
                for (std::size_t p = 0; p < param_count; ++p) {
                    gradient[p] += grad[p];
                }
            }
            const double scale = 1.0 / static_cast<double>(batch_end - cursor);
            for (double& g : gradient) {
                g *= scale;
            }
            adam.step(flat, gradient);
            cursor = batch_end;
        }
        epoch_losses.push_back(loss_sum /
                               static_cast<double>(sample_order.size()));
    }
    params_ = unpack(flat);
    fitted_ = true;
    return epoch_losses;
}

double trained_qae::score_row(std::span<const double> row) const {
    QUORUM_EXPECTS_MSG(fitted_, "call fit() before score");
    return trash_population(encode_row(row), params_);
}

std::vector<double> trained_qae::score_all(const data::dataset& input) const {
    QUORUM_EXPECTS_MSG(fitted_, "call fit() before score");
    // One batch: every row replays the same compiled encoder under the
    // same trained angles — amortised build/validation via the engine.
    const std::vector<double> angles = qml::encoder_param_stream(params_);
    std::vector<std::vector<double>> encoded(input.num_samples());
    std::vector<exec::sample> batch(input.num_samples());
    for (std::size_t i = 0; i < input.num_samples(); ++i) {
        encoded[i] = encode_row(input.row(i));
        batch[i] = exec::sample{encoded[i], angles, nullptr};
    }
    std::vector<double> scores(input.num_samples());
    engine_->run_batch(encoder_program_, batch, scores);
    return scores;
}

} // namespace quorum::baseline
