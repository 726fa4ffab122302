#include "exec/executor.h"

#include <algorithm>
#include <vector>

#include "util/contracts.h"
#include "util/thread_pool.h"

namespace quorum::exec {

namespace {

/// The base session: no planning to hoist, so each run() is exactly one
/// run_batch_levels call. Used by backends without a fused override and
/// as the per_shot fallback of backends that have one.
class replay_level_session final : public level_session {
public:
    replay_level_session(const executor& engine, std::vector<program> family)
        : engine_(engine), family_(std::move(family)) {
        QUORUM_EXPECTS_MSG(!family_.empty(),
                           "a level session needs at least one program");
    }

    [[nodiscard]] std::span<const program> family() const noexcept override {
        return family_;
    }

    void run(std::span<const sample> samples,
             std::span<double> out) override {
        engine_.run_batch_levels(family_, samples, out);
    }

private:
    const executor& engine_;
    std::vector<program> family_;
};

/// The base group session: one level session per family, run in family
/// order with one sample each.
class per_family_group_session final : public group_session {
public:
    per_family_group_session(const executor& engine,
                             std::vector<std::vector<program>> families) {
        QUORUM_EXPECTS_MSG(!families.empty(),
                           "a group session needs at least one family");
        levels_ = families.front().size();
        sessions_.reserve(families.size());
        for (std::vector<program>& family : families) {
            QUORUM_EXPECTS_MSG(family.size() == levels_,
                               "the families of a group session must share "
                               "one level count");
            sessions_.push_back(engine.make_level_session(std::move(family)));
        }
    }

    void run(std::span<const sample> samples,
             std::span<double> out) override {
        validate_group_batch(sessions_.size(), levels_, samples, out);
        for (std::size_t g = 0; g < sessions_.size(); ++g) {
            sessions_[g]->run(samples.subspan(g, 1),
                              out.subspan(g * levels_, levels_));
        }
    }

private:
    std::vector<std::unique_ptr<level_session>> sessions_;
    std::size_t levels_ = 0;
};

} // namespace

std::size_t resolve_lane_count(std::size_t configured,
                               std::size_t max_lanes) noexcept {
    return std::min(configured == 0 ? util::default_thread_count()
                                    : configured,
                    max_lanes);
}

double report_probability(const engine_config& config, util::rng* gen,
                          double p_one) {
    if (config.sampling_mode == sampling::exact) {
        return p_one;
    }
    QUORUM_EXPECTS_MSG(gen != nullptr, "sampling modes need an rng stream");
    return static_cast<double>(gen->binomial(config.shots, p_one)) /
           static_cast<double>(config.shots);
}

void executor::run_batch_levels(std::span<const program> levels,
                                std::span<const sample> samples,
                                std::span<double> out) const {
    // Naive per-level fallback: correct for every backend, fused for none.
    // Backends advertising capability::fused_levels override this with an
    // implementation that shares the per-sample prefix work; results must
    // stay ==-equal to this loop.
    QUORUM_EXPECTS_MSG(!levels.empty(),
                       "run_batch_levels needs at least one level program");
    QUORUM_EXPECTS_MSG(out.size() == samples.size() * levels.size(),
                       "run_batch_levels output span must be samples x "
                       "levels");
    std::vector<sample> level_samples(samples.begin(), samples.end());
    std::vector<double> level_out(samples.size());
    for (std::size_t k = 0; k < levels.size(); ++k) {
        for (std::size_t i = 0; i < samples.size(); ++i) {
            if (!samples[i].level_gens.empty()) {
                QUORUM_EXPECTS_MSG(samples[i].level_gens.size() ==
                                       levels.size(),
                                   "sample level_gens count must match the "
                                   "level count");
                level_samples[i].gen = samples[i].level_gens[k];
            } else {
                // Reusing one stream sequentially across levels would make
                // level k's draws depend on level k-1's — silently breaking
                // the ==-equal-to-per-level contract. Demand explicit
                // per-level streams instead.
                QUORUM_EXPECTS_MSG(samples[i].gen == nullptr ||
                                       levels.size() == 1,
                                   "multi-level sampling needs level_gens "
                                   "(one rng stream per level), not a "
                                   "single shared gen");
            }
        }
        run_batch(levels[k], level_samples, level_out);
        for (std::size_t i = 0; i < samples.size(); ++i) {
            out[i * levels.size() + k] = level_out[i];
        }
    }
}

std::unique_ptr<level_session>
executor::make_level_session(std::vector<program> family) const {
    return std::make_unique<replay_level_session>(*this, std::move(family));
}

std::unique_ptr<group_session> executor::make_group_session(
    std::vector<std::vector<program>> families) const {
    return std::make_unique<per_family_group_session>(*this,
                                                      std::move(families));
}

void validate_batch(const program& prog, std::span<const sample> samples,
                    std::span<double> out, bool needs_rng) {
    QUORUM_EXPECTS_MSG(out.size() == samples.size(),
                       "run_batch output span must match the batch size");
    const std::size_t prefix_params = prog.circuit.prefix_param_count();
    std::size_t slot_dim = 0;
    if (!prog.circuit.slots().empty()) {
        slot_dim = std::size_t{1} << prog.circuit.slots()[0].qubits.size();
        for (const qsim::prep_slot& slot : prog.circuit.slots()) {
            QUORUM_EXPECTS_MSG(
                (std::size_t{1} << slot.qubits.size()) == slot_dim,
                "all prep slots of a program must share one register size");
        }
    }
    for (const sample& s : samples) {
        QUORUM_EXPECTS_MSG(s.amplitudes.size() == slot_dim,
                           "sample amplitude count does not match the "
                           "program's prep slots");
        QUORUM_EXPECTS_MSG(s.prefix_params.size() == prefix_params,
                           "sample prefix param count mismatch");
        QUORUM_EXPECTS_MSG(!needs_rng || s.gen != nullptr,
                           "sampling modes need a per-sample rng stream");
    }
}

void validate_level_batch(std::span<const program> levels,
                          std::span<const sample> samples,
                          std::span<double> out, bool needs_rng) {
    validate_level_family(levels);
    validate_level_samples(levels, samples, out, needs_rng);
}

void validate_level_family(std::span<const program> levels) {
    QUORUM_EXPECTS_MSG(!levels.empty(),
                       "run_batch_levels needs at least one level program");
    // A level family must share its whole per-sample head — the SAME prep
    // slots (qubit lists, not just counts) and the SAME parameterized
    // prefix ops — because fused implementations prepare one state from
    // one level's head and reuse it for every level. Divergent heads must
    // fail loudly here, not silently return one level's numbers for
    // another's program.
    const qsim::compiled_program& first = levels.front().circuit;
    for (const program& level : levels) {
        const qsim::compiled_program& circuit = level.circuit;
        bool same_head = circuit.num_qubits() == first.num_qubits() &&
                         circuit.slots().size() == first.slots().size() &&
                         circuit.prefix().size() == first.prefix().size();
        for (std::size_t s = 0; same_head && s < first.slots().size(); ++s) {
            same_head = circuit.slots()[s].qubits == first.slots()[s].qubits;
        }
        for (std::size_t p = 0; same_head && p < first.prefix().size();
             ++p) {
            // Prefix params are per-sample placeholders; the structural
            // identity that matters is gate kind + operands.
            same_head =
                circuit.prefix()[p].gate == first.prefix()[p].gate &&
                circuit.prefix()[p].qubits == first.prefix()[p].qubits;
        }
        QUORUM_EXPECTS_MSG(same_head,
                           "all programs of a level family must share one "
                           "prep-slot layout and parameterized prefix");
    }
}

void validate_level_samples(std::span<const program> levels,
                            std::span<const sample> samples,
                            std::span<double> out, bool needs_rng) {
    QUORUM_EXPECTS_MSG(out.size() == samples.size() * levels.size(),
                       "run_batch_levels output span must be samples x "
                       "levels");
    // Per-sample shapes (amplitudes, prefix params) are identical across
    // the family, so checking against the first level covers every level;
    // rng streams are per level and checked here instead.
    validate_batch(levels.front(), samples, out.first(samples.size()),
                   false);
    for (const sample& s : samples) {
        QUORUM_EXPECTS_MSG(!needs_rng || s.level_gens.size() == levels.size(),
                           "multi-level sampling needs one rng stream per "
                           "level per sample");
        for (util::rng* gen : s.level_gens) {
            QUORUM_EXPECTS_MSG(!needs_rng || gen != nullptr,
                               "multi-level sampling needs one rng stream "
                               "per level per sample");
        }
        QUORUM_EXPECTS_MSG(s.level_gens.empty() ||
                               s.level_gens.size() == levels.size(),
                           "sample level_gens count must match the level "
                           "count");
    }
}

void validate_group_batch(std::size_t families, std::size_t levels,
                          std::span<const sample> samples,
                          std::span<double> out) {
    QUORUM_EXPECTS_MSG(samples.size() == families,
                       "a group session takes one sample per family");
    QUORUM_EXPECTS_MSG(out.size() == families * levels,
                       "group session output span must be families x "
                       "levels");
}

} // namespace quorum::exec
