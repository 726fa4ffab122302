#include "exec/sharded_backend.h"

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
    const std::vector<shard_work> plan =
        planner_.plan(samples.size(), shards_, &prog);
    if (plan.size() <= 1) {
        inner_->run_batch(prog, samples, out);
        return;
    }
    // parallel_for's claim counter IS the dynamic pull queue: shards_
    // concurrent lanes (pool workers + the caller) claim span indices in
    // plan order, so a dynamic plan with more spans than shards gets
    // work-pulling dispatch with no extra machinery.
    pool().parallel_for(plan.size(), [&](std::size_t k) {
        const shard_work& work = plan[k];
        try {
            inner_->run_batch(*work.prog,
                              samples.subspan(work.first, work.count),
                              out.subspan(work.first, work.count));
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

void sharded_backend::run_batch_levels(std::span<const program> levels,
                                       std::span<const sample> samples,
                                       std::span<double> out) const {
    validate_level_batch(levels, samples, out, needs_rng_);
    // The plan stays keyed by sample index ONLY (levels ride along in the
    // sample-major output layout), so shard invariance and per-sample rng
    // derivation are preserved bit-for-bit for fused families too.
    const std::vector<shard_work> plan =
        planner_.plan(samples.size(), shards_, nullptr);
    const std::size_t count = levels.size();
    if (plan.size() <= 1) {
        inner_->run_batch_levels(levels, samples, out);
        return;
    }
    pool().parallel_for(plan.size(), [&](std::size_t k) {
        const shard_work& work = plan[k];
        try {
            inner_->run_batch_levels(
                levels, samples.subspan(work.first, work.count),
                out.subspan(work.first * count, work.count * count));
        } catch (const util::contract_error& error) {
            throw util::contract_error(
                "shard " + std::to_string(work.shard) + " (samples [" +
                std::to_string(work.first) + ", " +
                std::to_string(work.first + work.count) +
                ")) failed: " + error.what());
        }
    });
}

} // namespace quorum::exec
