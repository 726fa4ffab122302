#include "exec/schedule.h"

#include <algorithm>

#include "util/contracts.h"
#include "util/parse.h"

namespace quorum::exec {

std::vector<shard_work> make_shard_plan(std::size_t n_samples,
                                        std::size_t shards,
                                        const program* prog) {
    QUORUM_EXPECTS_MSG(shards >= 1, "a shard plan needs at least one shard");
    // More shards than samples cannot add lanes, so iterate the capped
    // count: a pathological shards value (e.g. an unsigned wrap of "-1")
    // must not spin 2^64 times or overflow the span arithmetic below.
    const std::size_t lanes = std::min(shards, n_samples);
    std::vector<shard_work> plan;
    plan.reserve(lanes);
    for (std::size_t s = 0; s < lanes; ++s) {
        // Balanced contiguous spans: shard s owns [s*n/L, (s+1)*n/L),
        // never empty for s < L <= n. Integer arithmetic keyed only by
        // (n_samples, shards) — stable across runs, platforms, and call
        // sites.
        shard_work work;
        work.shard = s;
        work.first = s * n_samples / lanes;
        work.count = (s + 1) * n_samples / lanes - work.first;
        work.prog = prog;
        plan.push_back(work);
    }
    return plan;
}

std::string schedule_spec::str() const {
    if (policy == schedule_policy::static_spans) {
        return "static";
    }
    return "dynamic:" + std::to_string(grain);
}

schedule_spec parse_schedule_spec(std::string_view spec) {
    const auto fail = [&](const std::string& why) -> schedule_spec {
        throw util::contract_error("bad schedule spec '" +
                                   std::string(spec) + "': " + why);
    };
    if (spec == "static") {
        return schedule_spec{schedule_policy::static_spans, 0};
    }
    if (spec == "dynamic") {
        return schedule_spec{schedule_policy::dynamic_spans,
                             default_dynamic_grain};
    }
    const std::size_t colon = spec.find(':');
    if (colon == std::string_view::npos ||
        spec.substr(0, colon) != "dynamic") {
        return fail("expected static or dynamic[:grain]");
    }
    const std::string_view grain_text = spec.substr(colon + 1);
    std::size_t grain = 0;
    if (!util::parse_count(grain_text, grain)) {
        return fail("grain must be a plain non-negative integer");
    }
    if (grain == 0) {
        return fail("grain must be >= 1");
    }
    return schedule_spec{schedule_policy::dynamic_spans, grain};
}

span_planner::span_planner(schedule_spec spec) : spec_(spec) {
    QUORUM_EXPECTS_MSG(spec_.policy == schedule_policy::static_spans ||
                           spec_.grain >= 1,
                       "a dynamic schedule needs a grain >= 1");
}

std::vector<shard_work> span_planner::plan(std::size_t n_samples,
                                           std::size_t lanes,
                                           const program* prog) const {
    if (spec_.policy == schedule_policy::static_spans) {
        return make_shard_plan(n_samples, lanes, prog);
    }
    QUORUM_EXPECTS_MSG(lanes >= 1, "a span plan needs at least one lane");
    // Effective grain: the configured one, floored so the span count
    // never exceeds max_spans_per_batch. Derived from n_samples alone —
    // the plan stays a pure function of (n_samples, grain).
    const std::size_t floor_grain =
        (n_samples + max_spans_per_batch - 1) / max_spans_per_batch;
    const std::size_t grain = std::max(spec_.grain, floor_grain);
    std::vector<shard_work> plan;
    plan.reserve(n_samples == 0 ? 0 : (n_samples + grain - 1) / grain);
    for (std::size_t first = 0, k = 0; first < n_samples;
         first += grain, ++k) {
        shard_work work;
        work.shard = k;
        work.first = first;
        work.count = std::min(grain, n_samples - first);
        work.prog = prog;
        plan.push_back(work);
    }
    return plan;
}

} // namespace quorum::exec
