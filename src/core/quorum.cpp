#include "core/quorum.h"

#include <algorithm>
#include <cmath>
#include <memory>
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

    // One engine for the whole run, shared by every group and row range
    // (backends are thread-safe).
    const std::unique_ptr<exec::executor> engine = exec::make_executor(
        config_.resolved_backend(), config_.to_engine_config());

    // --threads is spent here only: across groups, and across each
    // group's rows when there are fewer groups than threads (row_lanes),
    // so at most min(threads, groups * rows) lanes run at once.
    const std::size_t threads =
        config_.threads == 0 ? util::default_thread_count() : config_.threads;
    const std::size_t lanes =
        row_lanes(threads, config_.ensemble_groups, *engine);

    std::vector<group_result> groups(config_.ensemble_groups);
    util::parallel_for(config_.ensemble_groups, threads, [&](std::size_t g) {
        groups[g] = run_ensemble_group(normalized, config_, g, *engine, lanes);
    });
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
