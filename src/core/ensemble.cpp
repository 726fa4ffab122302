#include "core/ensemble.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>

#include "data/bucketing.h"
#include "data/feature_select.h"
#include "exec/executor.h"
#include "exec/registry.h"
#include "qml/angle_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace quorum::core {

std::size_t row_lanes(std::size_t threads, std::size_t groups,
                      const exec::executor& engine) {
    QUORUM_EXPECTS(groups >= 1);
    if (engine.supports(exec::capability::parallel_batches)) {
        return 1;
    }
    return std::clamp<std::size_t>(threads / groups, 1, max_row_ranges);
}

exec::program
make_level_program(const qml::ansatz_params& params, std::size_t level,
                   const quorum_config& config,
                   const exec::executor& engine) {
    exec::program program;
    // Angle-encoded samples are product states: tell gate-lowering
    // engines (density) to prepare them as an O(n) RY chain instead of
    // the synthesis tree. The option travels with the program template,
    // so remote workers lower prep identically.
    qsim::compile_options options;
    options.prep = config.encoding == qml::encoding::angle
                       ? qsim::prep_style::ry_product
                       : qsim::prep_style::synthesis;
    if (config.uses_full_circuit() ||
        !engine.supports(exec::readout_kind::prep_overlap_p1)) {
        program.circuit = qsim::compiled_program::compile(
            qml::autoencoder_template(params, level), options);
        program.readout.kind = exec::readout_kind::cbit_probability;
        program.readout.cbit = qml::swap_result_cbit;
    } else {
        program.circuit = qsim::compiled_program::compile(
            qml::autoencoder_reg_a_template(params, level), options);
        program.readout.kind = exec::readout_kind::prep_overlap_p1;
    }
    return program;
}

namespace {

/// Evaluates rows [begin, end) of `normalized` through the group's
/// program family, in row order, writing p_values[i * family.size() + k]
/// = P(1) of row i at level k. Each call to the engine covers up to
/// ensemble_chunk_rows rows: one run_batch_levels call, or one run_batch
/// per level when config.fused_levels is off. No engine's per-sample
/// result depends on the batch it arrives in, and row i at level k
/// always draws from gen.child(k * n + i), with n and i counted over the
/// whole table, so neither the chunking nor the range shows in the
/// values.
void evaluate_range(const data::dataset& normalized,
                    std::span<const std::size_t> features,
                    std::span<const exec::program> family,
                    const quorum_config& config, const util::rng& gen,
                    const exec::executor& engine, std::size_t begin,
                    std::size_t end, std::span<double> p_values) {
    const std::size_t n_samples = normalized.num_samples();
    const std::size_t level_count = family.size();
    const std::size_t dim = std::size_t{1} << config.n_qubits;
    const std::size_t chunk = std::min(end - begin, ensemble_chunk_rows);
    const bool stochastic = config.mode != exec_mode::exact;

    // Per-call scratch, sized for one chunk and reused across chunks:
    // the encoded amplitudes (chunk x 2^n, one flat block), the batch,
    // and the rng streams. Row k draws level j from gens[k * L + j] on
    // the fused path and from gens[k], refilled per level, on the
    // per-level path.
    const std::size_t streams_per_row = config.fused_levels ? level_count : 1;
    std::vector<double> selected(features.size());
    std::vector<double> amplitudes(chunk * dim);
    std::vector<exec::sample> batch(chunk);
    std::vector<util::rng> gens(stochastic ? chunk * streams_per_row : 0,
                                gen);
    std::vector<util::rng*> gen_ptrs(gens.size());
    for (std::size_t s = 0; s < gens.size(); ++s) {
        gen_ptrs[s] = &gens[s];
    }
    for (std::size_t k = 0; k < chunk; ++k) {
        batch[k].amplitudes =
            std::span<const double>(amplitudes.data() + k * dim, dim);
        if (stochastic && config.fused_levels) {
            batch[k].level_gens = std::span<util::rng* const>(
                gen_ptrs.data() + k * level_count, level_count);
        } else if (stochastic) {
            batch[k].gen = &gens[k];
        }
    }
    std::vector<double> level_out(config.fused_levels ? 0 : chunk);

    for (std::size_t first = begin; first < end; first += chunk) {
        const std::size_t count = std::min(chunk, end - first);
        const std::span<const exec::sample> rows(batch.data(), count);
        // Encode each sample once; amplitudes are level-independent.
        for (std::size_t k = 0; k < count; ++k) {
            const std::span<const double> row = normalized.row(first + k);
            for (std::size_t j = 0; j < features.size(); ++j) {
                selected[j] = row[features[j]];
            }
            qml::encode_features(
                config.encoding, selected, config.n_qubits,
                std::span(amplitudes).subspan(k * dim, dim));
        }
        if (config.fused_levels) {
            // Every sample's state is prepared and pushed through E(θ)
            // once for ALL levels.
            if (stochastic) {
                for (std::size_t k = 0; k < count; ++k) {
                    for (std::size_t level_index = 0;
                         level_index < level_count; ++level_index) {
                        gens[k * level_count + level_index] =
                            gen.child(level_index * n_samples + first + k);
                    }
                }
            }
            engine.run_batch_levels(
                family, rows,
                p_values.subspan(first * level_count, count * level_count));
            continue;
        }
        // Per-level escape hatch (--no-fused): the fused path's reference
        // semantics, one run_batch per level.
        for (std::size_t level_index = 0; level_index < level_count;
             ++level_index) {
            if (stochastic) {
                for (std::size_t k = 0; k < count; ++k) {
                    gens[k] = gen.child(level_index * n_samples + first + k);
                }
            }
            engine.run_batch(family[level_index], rows,
                             std::span(level_out).first(count));
            for (std::size_t k = 0; k < count; ++k) {
                p_values[(first + k) * level_count + level_index] =
                    level_out[k];
            }
        }
    }
}

} // namespace

group_result run_ensemble_group(const data::dataset& normalized,
                                const quorum_config& config,
                                std::size_t group_index,
                                const exec::executor& engine,
                                std::size_t lanes) {
    const std::size_t n_samples = normalized.num_samples();
    const std::size_t n_features = normalized.num_features();
    QUORUM_EXPECTS(n_samples >= 2);

    // Independent deterministic stream for this group.
    util::rng gen(util::derive_seed(config.seed, group_index));

    group_result result;
    result.abs_z_sum.assign(n_samples, 0.0);
    result.run_count.assign(n_samples, 0);

    // Bucket sizing from the unsupervised anomaly-rate estimate (§IV-C):
    // ceil, matching quorum_detector::flag_count — one rounding rule for
    // every use of estimated_anomaly_rate * n.
    const auto estimated_anomalies = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(
               config.estimated_anomaly_rate *
               static_cast<double>(n_samples))));
    result.bucket_size = data::solve_bucket_size(n_samples, estimated_anomalies,
                                                 config.bucket_probability);
    const std::vector<std::vector<std::size_t>> buckets =
        data::make_buckets(n_samples, result.bucket_size, gen);

    // Feature subset for this group (m = 2^n - 1 for amplitude encoding,
    // Fig. 4; m = n for angle encoding — one qubit per feature).
    const std::size_t group_features =
        qml::encoded_feature_count(config.encoding, config.n_qubits);
    std::vector<std::size_t> features;
    if (config.features == feature_strategy::top_variance) {
        // Ablation comparator: a fixed variance-greedy projection shared by
        // every group (the bias the paper's random selection avoids).
        std::vector<double> variances(n_features, 0.0);
        for (std::size_t j = 0; j < n_features; ++j) {
            util::welford_accumulator acc;
            for (std::size_t i = 0; i < n_samples; ++i) {
                acc.add(normalized.at(i, j));
            }
            variances[j] = acc.variance_population();
        }
        std::vector<std::size_t> order(n_features);
        for (std::size_t j = 0; j < n_features; ++j) {
            order[j] = j;
        }
        std::stable_sort(order.begin(), order.end(),
                         [&variances](std::size_t a, std::size_t b) {
                             return variances[a] > variances[b];
                         });
        const std::size_t count = std::min(group_features, n_features);
        features.assign(order.begin(),
                        order.begin() + static_cast<std::ptrdiff_t>(count));
        // Keep the RNG stream aligned with the random strategy so bucket
        // assignments and angles stay comparable across ablation arms.
        (void)data::select_features(n_features, group_features, gen);
    } else {
        features = data::select_features(n_features, group_features, gen);
    }

    // Random ansatz angles, shared by all compression levels (Fig. 6).
    const qml::ansatz_params params =
        qml::random_ansatz_params(config.n_qubits, config.ansatz_layers, gen);

    const std::vector<std::size_t> levels =
        config.effective_compression_levels();
    const std::size_t level_count = levels.size();
    // One compiled program per (group, level) — the level FAMILY. All
    // levels share the state prep + encoder + nested reset prefix, which
    // the fused path below evolves once per sample.
    std::vector<exec::program> family;
    family.reserve(level_count);
    for (const std::size_t level : levels) {
        family.push_back(make_level_program(params, level, config, engine));
    }

    // p_values[i * level_count + k] = P(1) of sample i at level k
    // (sample-major, the layout run_batch_levels writes).
    std::vector<double> p_values(n_samples * level_count, 0.0);
    // `lanes` contiguous row ranges, balanced to within one row, run
    // concurrently; each writes only its own rows of p_values.
    const std::size_t ranges = std::clamp<std::size_t>(lanes, 1, n_samples);
    util::parallel_for(ranges, ranges, [&](std::size_t r) {
        evaluate_range(normalized, features, family, config, gen, engine,
                       r * n_samples / ranges, (r + 1) * n_samples / ranges,
                       p_values);
    });

    // Per-bucket statistics -> |z| accumulation (Fig. 7), in level-major
    // order (identical accumulation order for both evaluation paths).
    for (std::size_t level_index = 0; level_index < level_count;
         ++level_index) {
        // Sample i's value at this level is level_p[i * level_count].
        const double* level_p = p_values.data() + level_index;
        for (const std::vector<std::size_t>& bucket : buckets) {
            util::welford_accumulator acc;
            for (const std::size_t i : bucket) {
                acc.add(level_p[i * level_count]);
            }
            const double mu = acc.mean();
            const double sigma = acc.stddev_population();
            if (sigma < sigma_floor) {
                // No signal in this (bucket, level) run: it contributes
                // neither |z| nor a run count — aggregate_groups
                // normalises by run_count, so skipped runs cannot bias
                // the final score.
                continue;
            }
            for (const std::size_t i : bucket) {
                result.abs_z_sum[i] +=
                    std::abs((level_p[i * level_count] - mu) / sigma);
                ++result.run_count[i];
            }
        }
    }
    return result;
}

group_result run_ensemble_group(const data::dataset& normalized,
                                const quorum_config& config,
                                std::size_t group_index) {
    const std::unique_ptr<exec::executor> engine = exec::make_executor(
        config.resolved_backend(), config.to_engine_config());
    return run_ensemble_group(normalized, config, group_index, *engine);
}

} // namespace quorum::core
