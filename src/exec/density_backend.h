// Density-matrix execution backend: wraps qsim::density_runner (transpile
// to the hardware basis + noise channels per physical gate) behind the
// executor interface. Batched runs lower the shared circuit suffix once
// per run_batch call and the per-sample state-prep once per sample
// (reused across prep slots), so only the cheap peephole pass and the
// density evolution itself remain per-sample. A table with fewer groups
// than threads spreads each group's per-sample evolutions across row
// ranges (core::run_ensemble_group); each range's calls then lower the
// suffix once — negligible next to the evolutions it amortises against.
#ifndef QUORUM_EXEC_DENSITY_BACKEND_H
#define QUORUM_EXEC_DENSITY_BACKEND_H

#include "exec/executor.h"

namespace quorum::exec {

class density_backend final : public executor {
public:
    explicit density_backend(engine_config config);

    [[nodiscard]] std::string_view name() const noexcept override {
        return "density";
    }

    [[nodiscard]] bool supports(readout_kind kind) const noexcept override {
        return kind == readout_kind::cbit_probability;
    }

    /// Fused multi-level evaluation: the noisy density evolution of the
    /// op prefix a level family shares (prep + encoder + nested resets)
    /// runs once per sample; each level forks a copy of the cached state.
    [[nodiscard]] bool supports(capability what) const noexcept override {
        return what == capability::fused_levels;
    }

    [[nodiscard]] double run(const qsim::circuit& c, int cbit,
                             util::rng* gen) const override;

    void run_batch(const program& prog, std::span<const sample> samples,
                   std::span<double> out) const override;

    void run_batch_levels(std::span<const program> levels,
                          std::span<const sample> samples,
                          std::span<double> out) const override;

private:
    engine_config config_;
};

} // namespace quorum::exec

#endif // QUORUM_EXEC_DENSITY_BACKEND_H
