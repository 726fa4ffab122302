#include "core/config.h"

#include "exec/registry.h"
#include "util/contracts.h"

namespace quorum::core {

const char* exec_mode_name(exec_mode mode) noexcept {
    switch (mode) {
    case exec_mode::exact:
        return "exact";
    case exec_mode::sampled:
        return "sampled";
    case exec_mode::per_shot:
        return "per_shot";
    case exec_mode::noisy:
        return "noisy";
    }
    return "?";
}

bool parse_exec_mode(std::string_view text, exec_mode& out) {
    for (const exec_mode mode : {exec_mode::exact, exec_mode::sampled,
                                 exec_mode::per_shot, exec_mode::noisy}) {
        if (text == exec_mode_name(mode)) {
            out = mode;
            return true;
        }
    }
    return false;
}

const char* feature_strategy_name(feature_strategy s) noexcept {
    switch (s) {
    case feature_strategy::uniform_random:
        return "uniform_random";
    case feature_strategy::top_variance:
        return "top_variance";
    }
    return "?";
}

std::vector<std::size_t>
quorum_config::effective_compression_levels() const {
    if (!compression_levels.empty()) {
        return compression_levels;
    }
    std::vector<std::size_t> levels;
    for (std::size_t k = 1; k < n_qubits; ++k) {
        levels.push_back(k);
    }
    return levels;
}

std::string quorum_config::resolved_backend() const {
    const std::string by_mode =
        mode == exec_mode::noisy ? "density" : "statevector";
    if (backend == "auto") {
        return by_mode;
    }
    if (backend == "remote" || backend == "remote:auto") {
        return "remote:" + by_mode;
    }
    return backend;
}

exec::engine_config quorum_config::to_engine_config() const {
    exec::engine_config engine;
    switch (mode) {
    case exec_mode::exact:
        engine.sampling_mode = exec::sampling::exact;
        break;
    case exec_mode::sampled:
        engine.sampling_mode = exec::sampling::binomial;
        engine.shots = shots;
        break;
    case exec_mode::per_shot:
        engine.sampling_mode = exec::sampling::per_shot;
        engine.shots = shots;
        break;
    case exec_mode::noisy:
        // The density engine computes the exact noisy distribution; the
        // shots (>= 1, as validate() requires) are a Binomial draw from
        // it, exactly as the paper samples its 4096 shots from the Aer
        // distribution.
        engine.sampling_mode = exec::sampling::binomial;
        engine.shots = shots;
        engine.noise = noise;
        break;
    }
    engine.shards = shards;
    // Throws contract_error naming the spec on a malformed value — the
    // same construction-time surfacing validate() gives backend specs.
    engine.schedule = exec::parse_schedule_spec(schedule);
    return engine;
}

bool quorum_config::uses_full_circuit() const noexcept {
    // per_shot/noisy have hardware semantics and always run the real
    // 2n+1-qubit circuit; exact/sampled take the register-A analytic
    // shortcut unless explicitly asked for the full circuit.
    return use_full_circuit || mode == exec_mode::per_shot ||
           mode == exec_mode::noisy;
}

void quorum_config::validate() const {
    QUORUM_EXPECTS_MSG(n_qubits >= min_qubits && n_qubits <= max_qubits,
                       "n_qubits must be in [" + std::to_string(min_qubits) +
                           ", " + std::to_string(max_qubits) + "]");
    QUORUM_EXPECTS_MSG(ansatz_layers >= 1 && ansatz_layers <= 16,
                       "ansatz_layers must be in [1, 16]");
    QUORUM_EXPECTS_MSG(ensemble_groups >= min_ensemble_groups,
                       "need at least one ensemble group");
    QUORUM_EXPECTS_MSG(probability_range.contains(bucket_probability),
                       "bucket_probability must be in (0, 1)");
    QUORUM_EXPECTS_MSG(probability_range.contains(estimated_anomaly_rate),
                       "estimated_anomaly_rate must be in (0, 1)");
    if (mode != exec_mode::exact) {
        QUORUM_EXPECTS_MSG(shots >= min_sampling_shots,
                           "sampling modes need shots >= 1");
    }
    for (const std::size_t level : compression_levels) {
        QUORUM_EXPECTS_MSG(level >= 1 && level < n_qubits,
                           "compression levels must be in [1, n_qubits)");
    }
    // Instantiating the backend surfaces unknown names, malformed
    // "remote:<inner>" spec strings, AND incompatible mode/backend
    // combinations (e.g. per_shot on the density engine) here, at
    // validation time, instead of mid-scoring in a worker thread.
    (void)exec::make_executor(resolved_backend(), to_engine_config());
}

} // namespace quorum::core
