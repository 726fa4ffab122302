#include "stream/stream_scorer.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/ensemble.h"
#include "data/feature_select.h"
#include "exec/registry.h"
#include "qml/amplitude_encoding.h"
#include "qml/angle_encoding.h"
#include "qml/ansatz.h"
#include "util/contracts.h"

namespace quorum::stream {

void stream_config::validate() const {
    detector.validate();
    QUORUM_EXPECTS_MSG(window >= 1, "stream window must hold >= 1 sample");
    QUORUM_EXPECTS_MSG(rebucket_interval >= 2,
                       "rebucket interval must cover >= 2 arrivals");
}

stream_scorer::stream_scorer(stream_config config, std::size_t raw_features)
    : config_((config.validate(), std::move(config))),
      extractor_(raw_features, config_.window),
      // Angle encoding uses the full unit range; amplitude keeps the
      // online 1/M cap (see online_normalizer).
      normalizer_(extractor_.extracted_features(),
                  config_.detector.encoding == qml::encoding::angle
                      ? 1.0
                      : 1.0 / static_cast<double>(
                                  extractor_.extracted_features())) {
    const core::quorum_config& detector = config_.detector;
    levels_ = detector.effective_compression_levels();
    stochastic_ = detector.mode != core::exec_mode::exact;
    engine_ = exec::make_executor(detector.resolved_backend(),
                                  detector.to_engine_config());

    const std::size_t level_count = levels_.size();
    groups_.resize(detector.ensemble_groups);
    std::vector<std::vector<exec::program>> families;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        group_state& group = groups_[g];
        group.group_root = util::derive_seed(detector.seed, g);
        group.stoch_root = util::derive_seed(group.group_root, 2);
        // Stream 0 of the group root draws the group's identity in the
        // batch path's order: feature subset first, then ansatz angles.
        util::rng init(util::derive_seed(group.group_root, 0));
        group.features = data::select_features(
            extractor_.extracted_features(),
            qml::encoded_feature_count(detector.encoding, detector.n_qubits),
            init);
        const qml::ansatz_params params = qml::random_ansatz_params(
            detector.n_qubits, detector.ansatz_layers, init);
        std::vector<exec::program> family;
        family.reserve(level_count);
        for (const std::size_t level : levels_) {
            family.push_back(
                core::make_level_program(params, level, detector, *engine_));
        }
        if (detector.fused_levels) {
            families.push_back(std::move(family));
        } else {
            group.family = std::move(family);
        }
    }
    if (detector.fused_levels) {
        session_ = engine_->make_group_session(std::move(families));
    }

    const std::size_t group_count = groups_.size();
    const std::size_t dim = std::size_t{1} << detector.n_qubits;
    extracted_.assign(extractor_.extracted_features(), 0.0);
    selected_.assign(
        std::min(qml::encoded_feature_count(detector.encoding,
                                            detector.n_qubits),
                 extractor_.extracted_features()),
        0.0);
    amplitudes_.assign(group_count * dim, 0.0);
    p_values_.assign(group_count * level_count, 0.0);
    samples_.resize(group_count);
    if (stochastic_) {
        gens_.assign(group_count * level_count, util::rng(0));
        for (util::rng& gen : gens_) {
            gen_ptrs_.push_back(&gen);
        }
    }
    for (std::size_t g = 0; g < group_count; ++g) {
        samples_[g].amplitudes =
            std::span<const double>(amplitudes_).subspan(g * dim, dim);
        if (stochastic_) {
            samples_[g].level_gens = std::span<util::rng* const>(gen_ptrs_)
                                         .subspan(g * level_count,
                                                  level_count);
        }
    }
}

void stream_scorer::begin_epoch(std::size_t epoch) {
    for (group_state& group : groups_) {
        // Stream 1 of the group root, split by epoch index: the bucket
        // partition for positions [epoch * interval, (epoch+1) * interval)
        // depends on nothing but (seed, group, epoch).
        util::rng gen(util::derive_seed(
            util::derive_seed(group.group_root, 1), epoch));
        group.plan = plan_epoch(config_.rebucket_interval,
                                config_.detector.estimated_anomaly_rate,
                                config_.detector.bucket_probability, gen);
        group.stats.reset(levels_.size(), group.plan.bucket_count);
    }
}

stream_score stream_scorer::push(std::span<const double> raw) {
    const std::size_t t = position_;
    const std::size_t interval = config_.rebucket_interval;
    const std::size_t slot = t % interval;
    if (slot == 0) {
        begin_epoch(t / interval);
    }

    extractor_.push(raw, extracted_);
    normalizer_.normalize(extracted_);

    const std::size_t level_count = levels_.size();
    const std::size_t dim = std::size_t{1} << config_.detector.n_qubits;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        const group_state& group = groups_[g];
        for (std::size_t k = 0; k < group.features.size(); ++k) {
            selected_[k] = extracted_[group.features[k]];
        }
        qml::encode_features(config_.detector.encoding, selected_,
                             config_.detector.n_qubits,
                             std::span(amplitudes_).subspan(g * dim, dim));
        if (stochastic_) {
            // Fresh per-(arrival, level) child streams, derived from the
            // stream position alone — the batch path's split discipline,
            // keyed by time instead of by row index.
            util::rng base(util::derive_seed(group.stoch_root, t));
            for (std::size_t k = 0; k < level_count; ++k) {
                gens_[g * level_count + k] = base.child(k);
            }
        }
    }
    if (session_) {
        session_->run(samples_, p_values_);
    } else {
        // --no-fused A/B hatch: per-level run_batch with the same child
        // streams; IEEE-identical by the executor contract, but re-plans
        // per call (excluded from the steady-state allocation guarantee).
        for (std::size_t g = 0; g < groups_.size(); ++g) {
            exec::sample s = samples_[g];
            for (std::size_t k = 0; k < level_count; ++k) {
                const std::size_t index = g * level_count + k;
                s.gen = stochastic_ ? &gens_[index] : nullptr;
                engine_->run_batch(groups_[g].family[k],
                                   std::span<const exec::sample>(&s, 1),
                                   std::span(p_values_).subspan(index, 1));
            }
        }
    }

    double abs_z_sum = 0.0;
    std::size_t run_count = 0;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        group_state& group = groups_[g];
        const std::size_t bucket = group.plan.slot_to_bucket[slot];
        for (std::size_t k = 0; k < level_count; ++k) {
            if (const std::optional<double> z = group.stats.add_and_score(
                    k, bucket, p_values_[g * level_count + k])) {
                abs_z_sum += *z;
                ++run_count;
            }
        }
    }
    ++position_;

    stream_score result;
    result.position = t;
    result.runs = run_count;
    result.score = run_count > 0
                       ? abs_z_sum / static_cast<double>(run_count)
                       : 0.0;
    return result;
}

} // namespace quorum::stream
