#include "core/quorum.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>

#include "data/preprocess.h"
#include "exec/executor.h"
#include "exec/registry.h"
#include "util/contracts.h"
#include "util/thread_pool.h"

namespace quorum::core {

quorum_detector::quorum_detector(quorum_config config)
    : config_(std::move(config)) {
    config_.validate();
}

void quorum_detector::set_progress_callback(
    std::function<void(std::size_t, std::size_t)> callback) {
    progress_ = std::move(callback);
}

score_report quorum_detector::score(const data::dataset& input) const {
    if (input.num_samples() < 2) {
        throw util::contract_error(
            "need at least two samples to compare (got " +
            std::to_string(input.num_samples()) + ")");
    }
    // Unsupervised: any labels are dropped before processing (§V).
    // Amplitude encoding needs the 1/M cap so squared features fit the
    // unit probability mass (§IV-A); angle encoding maps each feature to
    // its own rotation, so the full unit range is usable.
    const data::dataset normalized =
        config_.encoding == qml::encoding::angle
            ? data::normalize_unit_range(input.without_labels())
            : data::normalize_for_quorum(input.without_labels());

    std::vector<group_result> groups(config_.ensemble_groups);
    // parallel_for has one task per group, so more lanes than groups would
    // only start idle threads.
    const std::size_t thread_count = std::min(
        config_.threads == 0 ? util::default_thread_count() : config_.threads,
        config_.ensemble_groups);

    // One engine for the whole run, shared by every group worker (backends
    // are thread-safe); a sharded engine thus builds its shard pool once.
    const std::unique_ptr<exec::executor> engine = exec::make_executor(
        config_.resolved_backend(), config_.to_engine_config());

    // Progress delivery is SERIALIZED: the completion count is advanced
    // and the callback invoked under one mutex, so user callbacks never
    // run concurrently and `done` arrives strictly increasing even when
    // several workers finish at once (the guarantee core/quorum.h
    // documents).
    std::mutex progress_mutex;
    std::size_t completed = 0;
    const auto run_group = [&](std::size_t g) {
        groups[g] = run_ensemble_group(normalized, config_, g, *engine);
        const std::lock_guard<std::mutex> lock(progress_mutex);
        ++completed;
        if (progress_) {
            progress_(completed, config_.ensemble_groups);
        }
    };

    if (thread_count <= 1) {
        for (std::size_t g = 0; g < config_.ensemble_groups; ++g) {
            run_group(g);
        }
    } else {
        // parallel_for's caller participates in the work loop, so
        // thread_count - 1 workers give exactly thread_count lanes.
        util::thread_pool pool(thread_count - 1);
        pool.parallel_for(config_.ensemble_groups, run_group);
    }
    return aggregate_groups(groups);
}

std::size_t quorum_detector::flag_count(std::size_t n_samples) const {
    // ceil, the same rounding run_ensemble_group applies to this quantity
    // when sizing buckets (§IV-C): a fractional estimate always flags (and
    // plans for) the enclosing whole anomaly.
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(config_.estimated_anomaly_rate *
                         static_cast<double>(n_samples))));
}

std::vector<std::size_t>
quorum_detector::detect(const data::dataset& input) const {
    const score_report report = score(input);
    return report.top(flag_count(input.num_samples()));
}

} // namespace quorum::core
