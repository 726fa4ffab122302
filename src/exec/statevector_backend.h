// State-vector execution backend: exact branch-mixture replay (the
// bit-exact path behind Quorum's exact/sampled modes) plus fused per-shot
// stochastic replay (hardware semantics).
//
// Batched replay amortises everything sample-independent — circuit build,
// validation, gate-matrix trigonometry, and (per-shot) the unitary head
// before the first reset — across the whole batch. Prep-overlap programs
// additionally take the SWAP-test short-circuit: the trailing decoder run
// is applied (adjoint) to the reference state once per sample instead of
// to every reset branch, since <psi|D phi_b> == <D†psi|phi_b>.
//
// run_batch_levels fuses a whole compression-level family: the shared
// state prep + encoder + nested reset prefix evolves ONCE per sample as a
// trunk branch mixture, and each level forks (or reads the trunk
// directly) at its first divergent op — ==-equal to per-level run_batch.
// On the AVX2 kernels, Quorum's register-A families replay a batch's
// samples lane_width at a time: every op is one lane-kernel call per
// block, each lane bit-identical to the per-sample replay. A group
// session replays several such families of one shape (the stream's
// ensemble groups) side by side, one family per lane. run_batch stays
// per-sample, the independent reference all of these are checked
// against.
#ifndef QUORUM_EXEC_STATEVECTOR_BACKEND_H
#define QUORUM_EXEC_STATEVECTOR_BACKEND_H

#include "exec/executor.h"

namespace quorum::exec {

class statevector_backend final : public executor {
public:
    explicit statevector_backend(engine_config config);

    [[nodiscard]] std::string_view name() const noexcept override {
        return "statevector";
    }

    [[nodiscard]] bool supports(readout_kind kind) const noexcept override;

    /// Fused multi-level evaluation, except under per-shot sampling
    /// (stochastic per shot — no deterministic prefix to share).
    [[nodiscard]] bool supports(capability what) const noexcept override;

    [[nodiscard]] double run(const qsim::circuit& c, int cbit,
                             util::rng* gen) const override;

    void run_batch(const program& prog, std::span<const sample> samples,
                   std::span<double> out) const override;

    void run_batch_levels(std::span<const program> levels,
                          std::span<const sample> samples,
                          std::span<double> out) const override;

    /// True when run_batch_levels (or a session's run) over `family` with
    /// `batch` samples replays at least one block in lanes: the AVX2
    /// kernels are active, the family is in lane coverage and the batch
    /// reaches the lane cutoff (ARCHITECTURE.md Layer 4). For tests and
    /// benches; results are IEEE == either way.
    [[nodiscard]] bool replays_in_lanes(std::span<const program> family,
                                        std::size_t batch) const;

    /// Persistent fused session: the family plan (replay plans, fork
    /// points, shared decoder tail, scratch sizing) is computed once and
    /// the replay buffers survive across run() calls, so single-sample
    /// pushes are allocation-free at steady state. Falls back to the base
    /// replay session under per-shot sampling.
    [[nodiscard]] std::unique_ptr<level_session>
    make_level_session(std::vector<program> family) const override;

    /// True when a group session over `families` replays at least one
    /// block of groups in lanes: the AVX2 kernels are active, not per-shot
    /// sampling, at least lane_cutoff families, each lane-covered, all of
    /// one lane shape (ARCHITECTURE.md Layer 4). For tests and benches;
    /// results are IEEE == either way.
    [[nodiscard]] bool
    replays_groups_in_lanes(std::vector<std::vector<program>> families) const;

    /// Group session: families of one lane shape replay side by side, a
    /// family per lane, each lane with its own matrices; other families
    /// replay per family. Falls back to the base session under per-shot
    /// sampling.
    [[nodiscard]] std::unique_ptr<group_session>
    make_group_session(
        std::vector<std::vector<program>> families) const override;

private:
    engine_config config_;
};

} // namespace quorum::exec

#endif // QUORUM_EXEC_STATEVECTOR_BACKEND_H
