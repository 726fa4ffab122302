#include "exec/density_backend.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "qsim/density_runner.h"
#include "qsim/transpile.h"
#include "util/contracts.h"

namespace quorum::exec {

namespace {

/// Reassembles the sample-independent part of a compiled program (the
/// shared suffix) as a plain circuit, ready for one batch-wide lowering.
qsim::circuit suffix_circuit(const qsim::compiled_program& prog) {
    qsim::circuit c(prog.num_qubits(), prog.num_clbits());
    for (const qsim::compiled_op& compiled : prog.suffix()) {
        const qsim::operation& op = compiled.op;
        switch (op.kind) {
        case qsim::op_kind::gate:
            c.append_gate(op.gate, op.qubits, op.params);
            break;
        case qsim::op_kind::reset:
            c.reset(op.qubits[0]);
            break;
        case qsim::op_kind::measure:
            c.measure(op.qubits[0], op.cbit);
            break;
        case qsim::op_kind::initialize:
            c.initialize(op.qubits,
                         std::span<const qsim::amp>(op.init_amplitudes));
            break;
        case qsim::op_kind::barrier:
            break; // compile() strips barriers; nothing to restore
        }
    }
    return c;
}

/// Lowers one sample's state-prep to the hardware basis. Synthesised ONCE
/// per sample and appended to every prep slot: all slots of a program
/// share the sample's amplitudes (Quorum's reference-copy layout), so the
/// Möttönen tree + ZYZ lowering need not be recomputed per slot. Built as
/// a one-op initialize circuit so decompose_to_basis applies the same
/// validation/clamp as transpiling the materialized circuit would — the
/// batched path's bit-identity rests on sharing that code, not copying
/// it.
qsim::circuit lowered_prep(std::span<const double> amplitudes,
                           std::size_t register_qubits,
                           qsim::prep_style style) {
    qsim::circuit prep(register_qubits);
    if (style == qsim::prep_style::ry_product) {
        // Product-state fast path (qml angle encoding): one RY per qubit
        // with the angle recovered from that qubit's marginal — the same
        // 2*atan2(sqrt(mass_one), sqrt(mass_zero)) formula the synthesis
        // tree uses, so remote workers recompiling from the wire enum
        // lower prep to the identical op stream. O(n) gates instead of
        // the O(2^n) Möttönen tree.
        const std::size_t dim = std::size_t{1} << register_qubits;
        QUORUM_EXPECTS_MSG(amplitudes.size() == dim,
                           "prep amplitudes must have size 2^register");
        std::vector<double> half_angles(register_qubits, 0.0);
        for (std::size_t j = 0; j < register_qubits; ++j) {
            const std::size_t stride = std::size_t{1} << j;
            double mass_zero = 0.0;
            double mass_one = 0.0;
            for (std::size_t b = 0; b < dim; ++b) {
                const double p = amplitudes[b] * amplitudes[b];
                ((b & stride) != 0 ? mass_one : mass_zero) += p;
            }
            half_angles[j] =
                std::atan2(std::sqrt(mass_one), std::sqrt(mass_zero));
            prep.ry(2.0 * half_angles[j], static_cast<qsim::qubit_t>(j));
        }
        // The fast path is only valid for product states; a non-product
        // amplitude vector here means the caller mislabelled the program.
        double max_err = 0.0;
        for (std::size_t b = 0; b < dim; ++b) {
            double expected = 1.0;
            for (std::size_t j = 0; j < register_qubits; ++j) {
                const double half = half_angles[j];
                expected *= ((b >> j) & 1) != 0 ? std::sin(half)
                                                : std::cos(half);
            }
            max_err = std::max(max_err, std::abs(expected - amplitudes[b]));
        }
        QUORUM_EXPECTS_MSG(max_err <= 1e-8,
                           "ry_product prep requires product-state "
                           "amplitudes (angle encoding)");
        return qsim::decompose_to_basis(prep);
    }
    std::vector<qsim::qubit_t> reg(register_qubits);
    std::iota(reg.begin(), reg.end(), qsim::qubit_t{0});
    prep.initialize(reg, amplitudes);
    return qsim::decompose_to_basis(prep);
}

/// Assembles one sample's full lowered circuit (prep slots, lowered
/// per-sample prefix, pre-lowered shared suffix), ready for the final
/// peephole pass — shared verbatim by run_batch and run_batch_levels so
/// both evolve identical op streams.
qsim::circuit assemble_lowered(const qsim::compiled_program& compiled,
                               const sample& s, const qsim::circuit& prep,
                               const qsim::circuit& shared_lowered,
                               std::span<const qsim::qubit_t> identity) {
    qsim::circuit lowered(compiled.num_qubits(), compiled.num_clbits());
    for (const qsim::prep_slot& slot : compiled.slots()) {
        lowered.append(prep, slot.qubits);
    }
    if (!compiled.prefix().empty()) {
        qsim::circuit prefix(compiled.num_qubits(), compiled.num_clbits());
        std::size_t cursor = 0;
        for (const qsim::operation& op : compiled.prefix()) {
            const std::size_t count = qsim::gate_param_count(op.gate);
            prefix.append_gate(op.gate, op.qubits,
                               s.prefix_params.subspan(cursor, count));
            cursor += count;
        }
        lowered.append(qsim::decompose_to_basis(prefix), identity);
    }
    lowered.append(shared_lowered, identity);
    return lowered;
}

} // namespace

density_backend::density_backend(engine_config config)
    : config_(std::move(config)) {
    QUORUM_EXPECTS_MSG(config_.sampling_mode != sampling::per_shot,
                       "the density backend computes exact noisy "
                       "distributions; use binomial sampling for shots");
    if (config_.sampling_mode == sampling::binomial) {
        QUORUM_EXPECTS_MSG(config_.shots >= 1,
                           "binomial sampling needs shots >= 1");
    }
}

double density_backend::run(const qsim::circuit& c, int cbit,
                            util::rng* gen) const {
    const qsim::noisy_run_result result =
        qsim::density_runner::run(c, config_.noise);
    return report_probability(config_, gen,
                              result.cbit_probability_one(cbit, config_.noise));
}

void density_backend::run_batch(const program& prog,
                                std::span<const sample> samples,
                                std::span<double> out) const {
    QUORUM_EXPECTS_MSG(prog.readout.kind == readout_kind::cbit_probability,
                       "the density backend reads classical bits");
    const bool needs_rng = config_.sampling_mode != sampling::exact;
    validate_batch(prog, samples, out, needs_rng);

    // Lower the shared suffix ONCE per batch. Per sample, only the
    // state-prep prefix is synthesised and lowered; the final peephole
    // pass streams over the concatenation, so the lowered circuit is
    // bit-identical to transpiling the whole materialized circuit (the
    // peephole is a single left-to-right pass, stable under pre-lowered
    // segments).
    const qsim::compiled_program& compiled = prog.circuit;
    const qsim::circuit shared_lowered =
        qsim::decompose_to_basis(suffix_circuit(compiled));
    std::vector<qsim::qubit_t> identity(compiled.num_qubits());
    std::iota(identity.begin(), identity.end(), qsim::qubit_t{0});

    for (std::size_t i = 0; i < samples.size(); ++i) {
        const qsim::circuit prep =
            compiled.slots().empty()
                ? qsim::circuit(0)
                : lowered_prep(samples[i].amplitudes,
                               compiled.slots()[0].qubits.size(),
                               compiled.compiled_with().prep);
        const qsim::circuit lowered = assemble_lowered(
            compiled, samples[i], prep, shared_lowered, identity);

        const qsim::noisy_run_result result = qsim::density_runner::
            run_lowered(qsim::optimize_basis_circuit(lowered), config_.noise);
        out[i] = report_probability(
            config_, samples[i].gen,
            result.cbit_probability_one(prog.readout.cbit, config_.noise));
    }
}

void density_backend::run_batch_levels(std::span<const program> levels,
                                       std::span<const sample> samples,
                                       std::span<double> out) const {
    const bool needs_rng = config_.sampling_mode != sampling::exact;
    validate_level_batch(levels, samples, out, needs_rng);
    for (const program& level : levels) {
        QUORUM_EXPECTS_MSG(level.readout.kind ==
                               readout_kind::cbit_probability,
                           "the density backend reads classical bits");
    }

    // Lower every level's shared suffix once per batch; per sample, the
    // state prep is synthesised once, each level's full circuit is
    // peephole-optimized exactly as run_batch would, and the noisy
    // density evolution — the expensive part — runs the op prefix the
    // levels share (prep + encoder + nested resets) ONCE, forking a copy
    // of the cached state per level at the first divergent op.
    const std::size_t count = levels.size();
    const qsim::compiled_program& first = levels[0].circuit;
    std::vector<qsim::circuit> suffixes_lowered;
    suffixes_lowered.reserve(count);
    for (const program& level : levels) {
        suffixes_lowered.push_back(
            qsim::decompose_to_basis(suffix_circuit(level.circuit)));
    }
    std::vector<qsim::qubit_t> identity(first.num_qubits());
    std::iota(identity.begin(), identity.end(), qsim::qubit_t{0});

    std::vector<qsim::circuit> level_circuits;
    level_circuits.reserve(count);
    std::vector<std::size_t> fork(count, 0);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const qsim::circuit prep =
            first.slots().empty()
                ? qsim::circuit(0)
                : lowered_prep(samples[i].amplitudes,
                               first.slots()[0].qubits.size(),
                               first.compiled_with().prep);
        level_circuits.clear();
        for (std::size_t k = 0; k < count; ++k) {
            level_circuits.push_back(
                qsim::optimize_basis_circuit(assemble_lowered(
                    levels[k].circuit, samples[i], prep,
                    suffixes_lowered[k], identity)));
            QUORUM_EXPECTS_MSG(qsim::is_basis_circuit(level_circuits[k]),
                               "optimized level circuit left the hardware "
                               "basis");
            if (k > 0) {
                const auto& previous = level_circuits[k - 1].ops();
                const auto& current = level_circuits[k].ops();
                const std::size_t limit =
                    std::min(previous.size(), current.size());
                std::size_t shared = 0;
                while (shared < limit &&
                       qsim::replays_identically(previous[shared],
                                                 current[shared])) {
                    ++shared;
                }
                fork[k] = shared;
            }
        }

        qsim::noisy_run_result trunk{
            qsim::density_matrix(first.num_qubits()), {}};
        std::size_t trunk_pos = 0;
        for (std::size_t k = 0; k < count; ++k) {
            const qsim::circuit& circuit = level_circuits[k];
            if (k + 1 < count && fork[k + 1] > trunk_pos) {
                qsim::density_runner::apply_lowered_ops(
                    trunk, circuit, trunk_pos, fork[k + 1], config_.noise);
                trunk_pos = fork[k + 1];
            }
            qsim::noisy_run_result state = trunk;
            qsim::density_runner::apply_lowered_ops(
                state, circuit, trunk_pos, circuit.ops().size(),
                config_.noise);
            out[i * count + k] = report_probability(
                config_,
                samples[i].level_gens.empty() ? nullptr
                                              : samples[i].level_gens[k],
                state.cbit_probability_one(levels[k].readout.cbit,
                                           config_.noise));
            if (k + 1 < count && trunk_pos > fork[k + 1]) {
                // Non-nested ordering: rebuild the trunk along the next
                // level's ops (bit-identical to a fresh evolution).
                trunk = qsim::noisy_run_result{
                    qsim::density_matrix(first.num_qubits()), {}};
                qsim::density_runner::apply_lowered_ops(
                    trunk, level_circuits[k + 1], 0, fork[k + 1],
                    config_.noise);
                trunk_pos = fork[k + 1];
            }
        }
    }
}

} // namespace quorum::exec
