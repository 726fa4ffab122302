// Configuration of the Quorum detector (paper §IV-F: "flexibility in
// choosing the number of compression levels, the size of buckets, and the
// number of features selected allows users to fine-tune the balance
// between computational cost and the granularity of anomaly detection").
#ifndef QUORUM_CORE_CONFIG_H
#define QUORUM_CORE_CONFIG_H

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "exec/executor.h"
#include "qml/angle_encoding.h"
#include "qsim/noise.h"

namespace quorum::core {

/// How SWAP-test probabilities are obtained.
enum class exec_mode {
    /// Deterministic exact probabilities (noiseless; analytic fast path).
    exact,
    /// Exact probability + Binomial(shots) sampling — statistically
    /// identical to running `shots` repetitions (paper: 4096 shots).
    sampled,
    /// Full per-shot stochastic simulation of the 2n+1-qubit circuit
    /// (hardware semantics; slow — for validation and small studies).
    per_shot,
    /// Density-matrix simulation with the configured noise model,
    /// then Binomial(shots) sampling (paper's Brisbane noisy runs).
    noisy,
};

/// Human-readable mode name.
[[nodiscard]] const char* exec_mode_name(exec_mode mode) noexcept;

/// Strict parse of a mode name (exactly the exec_mode_name spellings:
/// "exact" | "sampled" | "per_shot" | "noisy"). Returns false (leaving
/// `out` untouched) on anything else; never throws.
[[nodiscard]] bool parse_exec_mode(std::string_view text, exec_mode& out);

/// How each ensemble group picks its m = 2^n - 1 features.
enum class feature_strategy {
    /// The paper's choice (§IV-C): uniform random per group — unbiased,
    /// explores feature combinations a fixed projection never would.
    uniform_random,
    /// Ablation comparator: always the m highest-variance features (the
    /// "bias towards features that might not indicate anomalies" the
    /// paper warns against — every group sees the same projection).
    top_variance,
};

/// Human-readable strategy name.
[[nodiscard]] const char* feature_strategy_name(feature_strategy s) noexcept;

/// An open interval of reals, (low, high).
struct open_range {
    double low = -std::numeric_limits<double>::infinity();
    double high = std::numeric_limits<double>::infinity();

    [[nodiscard]] constexpr bool contains(double value) const noexcept {
        return value > low && value < high;
    }
};

/// The ranges quorum_config::validate() enforces. The tools' flag rows
/// check the same values while parsing, so each range is written once.
inline constexpr std::size_t min_qubits = 2;
inline constexpr std::size_t max_qubits = 10;
inline constexpr std::size_t min_ensemble_groups = 1;
/// Every mode but exact samples, and needs at least this many shots.
inline constexpr std::size_t min_sampling_shots = 1;
/// bucket_probability and estimated_anomaly_rate.
inline constexpr open_range probability_range{0.0, 1.0};

/// All knobs of the Quorum pipeline. Defaults follow the paper's primary
/// configuration: 3-qubit encodings (7-qubit circuits), 4096 shots,
/// p = 0.75 bucket probability, 2-layer ansatz.
struct quorum_config {
    /// Qubits per encoding register; circuits use 2n+1 qubits (§IV-B).
    std::size_t n_qubits = 3;
    /// Ansatz layers in the encoder (Fig. 5 shows 2).
    std::size_t ansatz_layers = 2;
    /// Ensemble groups; the paper uses 1000 (§V), with diminishing returns
    /// beyond a few hundred (see bench_ablation_shots_ensembles).
    std::size_t ensemble_groups = 200;
    /// Circuit repetitions per measurement in sampled/per_shot/noisy modes.
    std::size_t shots = 4096;
    /// Qubits reset at each compression level; empty = all of 1..n-1 (§IV-E).
    std::vector<std::size_t> compression_levels{};
    /// Target P[>=1 anomaly per bucket] (Table I right-most column).
    double bucket_probability = 0.75;
    /// Estimated anomaly proportion (unsupervised prior; drives bucket
    /// sizing together with bucket_probability).
    double estimated_anomaly_rate = 0.03;
    /// Execution mode (see exec_mode).
    exec_mode mode = exec_mode::exact;
    /// Threads for the ensemble loop; 0 = all hardware threads. They go
    /// to groups first; when there are fewer groups than threads, each
    /// group's rows are split into floor(threads / groups) contiguous
    /// ranges that run concurrently. Results are identical for any
    /// thread count.
    std::size_t threads = 0;
    /// quorum_worker processes the "remote" backend spreads every batch
    /// across (0 = one per hardware thread). Ignored by plain backends.
    /// Results are identical for any worker count.
    std::size_t shards = 0;
    /// Span-planning policy for the remote backend and quorum_serve's
    /// fleet: "static" (one balanced span per worker) or
    /// "dynamic[:grain]" (grain-sample spans the workers pull as they
    /// free up; see exec/schedule.h). Results are identical for any
    /// policy and grain; malformed specs fail validation at construction
    /// time.
    std::string schedule = "static";
    /// Master seed; every ensemble group derives child stream g.
    std::uint64_t seed = 2025;
    /// exact/sampled only: simulate the full 2n+1-qubit circuit instead of
    /// the register-A analytic shortcut (slower; used for validation).
    bool use_full_circuit = false;
    /// Evaluate all compression levels of a group's rows through one
    /// fused run_batch_levels call (state prep + encoder evolved once per
    /// sample) instead of one run_batch per level. Scores are identical
    /// either way — this is a performance escape hatch (--no-fused),
    /// kept for A/B validation.
    bool fused_levels = true;
    /// Feature subsampling strategy (paper default: uniform_random).
    feature_strategy features = feature_strategy::uniform_random;
    /// How features become quantum states (paper default: amplitude,
    /// §IV-B). Angle encoding embeds one feature per qubit as RY(pi·f)
    /// — O(n) prep depth instead of state-prep synthesis, but only n
    /// features per register instead of 2^n - 1, so bucket planning and
    /// feature selection key off this (qml::encoded_feature_count).
    qml::encoding encoding = qml::encoding::amplitude;
    /// Noise model for exec_mode::noisy.
    qsim::noise_model noise = qsim::noise_model::ibm_brisbane_median();
    /// Execution backend spec (exec/registry.h). "auto" picks the density
    /// engine for noisy mode and the state-vector engine otherwise;
    /// "remote" / "remote:auto" runs that same choice in quorum_worker
    /// processes and "remote:<name>" a specific backend; anything else
    /// must be a registered backend name.
    std::string backend = "auto";

    /// The compression levels actually run: configured ones, or 1..n-1.
    [[nodiscard]] std::vector<std::size_t> effective_compression_levels() const;

    /// The backend name "auto" resolves to under this configuration.
    [[nodiscard]] std::string resolved_backend() const;

    /// Maps this configuration onto the exec layer's engine parameters
    /// (sampling semantics, shots, noise model).
    [[nodiscard]] exec::engine_config to_engine_config() const;

    /// True when this configuration evaluates the full 2n+1-qubit circuit
    /// (rather than the register-A analytic shortcut).
    [[nodiscard]] bool uses_full_circuit() const noexcept;

    /// Throws util::contract_error on an inconsistent configuration.
    void validate() const;
};

} // namespace quorum::core

#endif // QUORUM_CORE_CONFIG_H
