// Sharded execution backend: deterministically partitions a run_batch
// call across N in-process shards, each replaying the same compiled
// program through one shared inner backend from the registry (selected
// with a "sharded:<inner>" spec, e.g. "sharded:statevector").
//
// Determinism: the partition is keyed purely by sample index (contiguous
// spans, balanced to within one sample), every sample writes to its own
// output slot, and all stochasticity comes from the per-sample rng stream
// each sample carries — so exact AND stochastic modes produce bit-identical
// scores for any shard count and any inner batch order.
//
// The shard boundary is the same seam the worker fleet uses: a shard's
// work is described by a plain `shard_work` sample span, not a captured
// closure, so a remote executor serialises the same plan instead of
// sharing memory.
#ifndef QUORUM_EXEC_SHARDED_BACKEND_H
#define QUORUM_EXEC_SHARDED_BACKEND_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "exec/executor.h"
#include "exec/schedule.h"
#include "util/thread_pool.h"

namespace quorum::exec {

class sharded_backend final : public executor {
public:
    /// Upper bound on the lane count: shards are in-process threads, so
    /// beyond this a "shard count" (e.g. an unsigned wrap of "-1") is a
    /// misconfiguration, not a parallelism request.
    static constexpr std::size_t max_shards = 256;

    /// Wraps `shards` lanes around the named inner backend (any plain
    /// registered name; nesting "sharded" is rejected). `config.shards`
    /// == 0 means one shard per hardware thread; values beyond
    /// max_shards are clamped.
    sharded_backend(const engine_config& config, const std::string& inner);

    [[nodiscard]] std::string_view name() const noexcept override {
        return spec_;
    }

    [[nodiscard]] bool supports(readout_kind kind) const noexcept override {
        return inner_->supports(kind);
    }

    /// Capabilities are the inner backend's: a sharded engine fuses
    /// compression levels exactly when its lanes do.
    [[nodiscard]] bool supports(capability what) const noexcept override {
        return inner_->supports(what);
    }

    /// Single circuits have nothing to partition; delegates to the inner
    /// backend.
    [[nodiscard]] double run(const qsim::circuit& c, int cbit,
                             util::rng* gen) const override {
        return inner_->run(c, cbit, gen);
    }

    /// Partitions the batch with the configured span planner
    /// (config.schedule: one balanced span per shard, or many
    /// grain-sized spans the shard lanes pull from parallel_for's shared
    /// claim counter) and runs every span through the inner backend
    /// concurrently. A shard's contract
    /// violation surfaces as util::contract_error naming the shard and
    /// its sample span (first failure wins; the remaining shards still
    /// complete, so no work is left dangling); other exception types
    /// propagate unchanged.
    void run_batch(const program& prog, std::span<const sample> samples,
                   std::span<double> out) const override;

    /// Multi-level batches partition exactly like run_batch — the plan is
    /// keyed by sample index only; each shard's span (and its slice of
    /// the sample-major output) runs the whole level family through the
    /// inner backend, so fused evaluation composes with shard invariance.
    void run_batch_levels(std::span<const program> levels,
                          std::span<const sample> samples,
                          std::span<double> out) const override;

    /// Number of shards run_batch partitions across.
    [[nodiscard]] std::size_t shard_count() const noexcept { return shards_; }

    /// The wrapped inner backend.
    [[nodiscard]] const executor& inner() const noexcept { return *inner_; }

private:
    /// The one plan, fan-out and relabel body behind both batch calls:
    /// `levels` == 0 runs family[0] through run_batch, >= 1 the whole
    /// family through run_batch_levels (`levels` values per sample).
    void dispatch(std::span<const program> family, std::size_t levels,
                  std::span<const sample> samples,
                  std::span<double> out) const;

    /// Lazily builds (first multi-shard batch) and returns the shard
    /// pool: construction stays thread-free, so config validation can
    /// instantiate the backend without spawning workers, and shards == 1
    /// never creates any. The caller participates in parallel_for, so
    /// shards_ - 1 workers give exactly shards_ concurrent lanes.
    [[nodiscard]] util::thread_pool& pool() const;

    std::unique_ptr<executor> inner_;
    std::string spec_;
    std::size_t shards_;
    span_planner planner_;
    bool needs_rng_;
    /// Mutable: run_batch is logically const and the pool is internally
    /// synchronised.
    mutable std::once_flag pool_once_;
    mutable std::unique_ptr<util::thread_pool> pool_;
};

} // namespace quorum::exec

#endif // QUORUM_EXEC_SHARDED_BACKEND_H
