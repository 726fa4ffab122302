#include "exec/sharded_backend.h"

#include <algorithm>
#include <mutex>
#include <string>

#include "exec/registry.h"
#include "util/contracts.h"

namespace quorum::exec {

namespace {

/// Validates and instantiates the wrapped backend: one plain registered
/// name — no wrapper (or any spec with an inner of its own) can nest.
std::unique_ptr<executor> make_inner(const engine_config& config,
                                     const std::string& inner) {
    QUORUM_EXPECTS_MSG(is_plain_engine_name(inner),
                       "the sharded backend wraps one plain inner backend "
                       "name (no nesting)");
    return make_executor(inner, config);
}

} // namespace

sharded_backend::sharded_backend(const engine_config& config,
                                 const std::string& inner)
    : inner_(make_inner(config, inner)),
      spec_("sharded:" + inner),
      shards_(resolve_lane_count(config.shards, max_shards)),
      planner_(config.schedule),
      needs_rng_(config.sampling_mode != sampling::exact) {}

util::thread_pool& sharded_backend::pool() const {
    std::call_once(pool_once_, [this]() {
        pool_ = std::make_unique<util::thread_pool>(shards_ - 1);
    });
    return *pool_;
}

void sharded_backend::run_batch(const program& prog,
                                std::span<const sample> samples,
                                std::span<double> out) const {
    // Validate the whole batch up front so a malformed sample is reported
    // once, deterministically, instead of from whichever shard saw it.
    validate_batch(prog, samples, out, needs_rng_);
    dispatch({&prog, 1}, 0, samples, out);
}

void sharded_backend::run_batch_levels(std::span<const program> levels,
                                       std::span<const sample> samples,
                                       std::span<double> out) const {
    validate_level_batch(levels, samples, out, needs_rng_);
    dispatch(levels, levels.size(), samples, out);
}

void sharded_backend::dispatch(std::span<const program> family,
                               std::size_t levels,
                               std::span<const sample> samples,
                               std::span<double> out) const {
    // The plan stays keyed by sample index ONLY (levels ride along in the
    // sample-major output layout), so shard invariance and per-sample rng
    // derivation are preserved bit-for-bit for fused families too.
    const std::vector<shard_work> plan =
        planner_.plan(samples.size(), shards_);
    const std::size_t width = std::max<std::size_t>(levels, 1);
    const auto run = [&](std::span<const sample> span_samples,
                         std::span<double> span_out) {
        if (levels == 0) {
            inner_->run_batch(family[0], span_samples, span_out);
        } else {
            inner_->run_batch_levels(family, span_samples, span_out);
        }
    };
    if (plan.size() <= 1) {
        run(samples, out);
        return;
    }
    // parallel_for's claim counter IS the dynamic pull queue: shards_
    // concurrent lanes (pool workers + the caller) claim span indices in
    // plan order, so a dynamic plan with more spans than shards gets
    // work-pulling dispatch with no extra machinery.
    pool().parallel_for(plan.size(), [&](std::size_t k) {
        const shard_work& work = plan[k];
        try {
            run(samples.subspan(work.first, work.count),
                out.subspan(work.first * width, work.count * width));
        } catch (const util::contract_error& error) {
            // Label contract violations with the failing shard; any other
            // exception type (bad_alloc, ...) propagates unchanged so
            // callers can still classify it.
            throw util::contract_error(
                "shard " + std::to_string(work.shard) + " (samples [" +
                std::to_string(work.first) + ", " +
                std::to_string(work.first + work.count) +
                ")) failed: " + error.what());
        }
    });
}

} // namespace quorum::exec
