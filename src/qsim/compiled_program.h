// Compiled circuits for batched execution.
//
// Quorum's hot path runs the *same* ansatz + SWAP-test circuit for every
// sample in a bucket — only the leading `initialize` amplitudes (and, for
// the trained baselines, some rotation angles) change per sample. A
// `compiled_program` factors that structure out once:
//
//   * prep slots    — the leading `initialize` ops; their amplitudes are
//                     supplied per sample at run time;
//   * param prefix  — an optional run of leading gate ops whose rotation
//                     angles are supplied per sample (angle encodings,
//                     trainable layers);
//   * suffix        — every remaining op, shared by all samples, validated
//                     once, with gate matrices precomputed so replay skips
//                     per-sample trigonometry and re-validation. Replaying
//                     the suffix is bit-identical to applying the original
//                     circuit op by op.
//
// Compile once per (group, level); replay across every sample in a bucket.
// Gate fusion (fuse_operations) is not part of compilation: adjacent gates
// merged into 2x2/4x4 unitaries equal the suffix as an operator but not
// bit for bit, so only the per-shot replay, which may use them, fuses —
// and it fuses the suffix it replays.
#ifndef QUORUM_QSIM_COMPILED_PROGRAM_H
#define QUORUM_QSIM_COMPILED_PROGRAM_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "qsim/circuit.h"

namespace quorum::qsim {

/// A per-sample state-preparation slot: at run time, every slot receives
/// the sample's amplitude vector (all slots in a program share it, which
/// matches Quorum's "reference copy" circuit layout). `register_mask` /
/// `offsets` are the initialize_register metadata (make_mask/make_offsets
/// over the slot qubits), precomputed so per-sample state prep is
/// allocation-free (statevector::initialize_register_prepared).
struct prep_slot {
    std::vector<qubit_t> qubits;
    std::size_t register_mask = 0;
    std::vector<std::size_t> offsets;
};

/// One suffix op in original (unfused) form. `matrix` is the precomputed
/// gate matrix for gates that the state-vector engine applies via a dense
/// kernel; it is empty for id/x/cx (which have allocation-free fast paths)
/// and for non-gate ops. For multi-qubit dense gates, `sorted_qubits` /
/// `offsets` are the apply_matrix_prepared kernel metadata; for suffix
/// initialize ops, `register_mask` / `offsets` are the
/// initialize_register_prepared metadata. All derived deterministically
/// from `op`, so replays_identically needs no new fields.
struct compiled_op {
    operation op;
    util::cmatrix matrix;
    std::vector<qubit_t> sorted_qubits;
    std::vector<std::size_t> offsets;
    std::size_t register_mask = 0;
};

/// One fused op (fuse_operations): either a dense unitary over 1-3 qubits
/// (the merge of adjacent gates) or a structural reset/measure.
/// `sorted_qubits` / `offsets` are the kernel metadata apply_matrix would
/// otherwise rebuild per application — precomputed so replay stays
/// allocation-free (see statevector::apply_matrix_prepared).
struct fused_op {
    enum class kind { unitary, reset, measure };
    kind op = kind::unitary;
    std::vector<qubit_t> qubits;
    util::cmatrix matrix; ///< unitary only; 2^k x 2^k over `qubits`
    int cbit = -1;        ///< measure only
    std::vector<qubit_t> sorted_qubits;
    std::vector<std::size_t> offsets;
};

/// How engines that lower prep slots to gates (the density backend's
/// noisy path) synthesise the per-sample state preparation. Statevector
/// engines load slot amplitudes directly and ignore this.
enum class prep_style : std::uint8_t {
    /// General state-prep synthesis (Möttönen uniformly-controlled-RY
    /// tree) — handles any real non-negative amplitude vector.
    synthesis = 0,
    /// The amplitudes are a product state (qml angle encoding): lower to
    /// one RY per qubit with angles recovered from the per-qubit
    /// marginals. O(n) gates instead of the O(2^n) synthesis tree.
    ry_product = 1,
};

/// Compilation knobs.
struct compile_options {
    /// Number of leading non-initialize ops whose rotation params are
    /// supplied per sample (each op consumes gate_param_count angles
    /// from the sample's param stream, in op order).
    std::size_t parameterized_ops = 0;
    /// How gate-lowering engines synthesise the prep slots. Travels on
    /// the wire with the other options so remote workers lower prep the
    /// same way the local engine would.
    prep_style prep = prep_style::synthesis;
};

/// A circuit compiled for batched replay. Immutable after compile().
class compiled_program {
public:
    /// An empty program (no qubits, no ops); compile() builds real ones.
    compiled_program() = default;

    using options = compile_options;

    /// Splits `c` into prep slots / parameterized prefix / shared suffix,
    /// validates it once (qubit arities, terminal measurements), and
    /// precomputes gate matrices. Throws util::contract_error on malformed
    /// circuits.
    [[nodiscard]] static compiled_program compile(const circuit& c,
                                                  const options& opt = {});

    [[nodiscard]] std::size_t num_qubits() const noexcept {
        return num_qubits_;
    }
    [[nodiscard]] std::size_t num_clbits() const noexcept {
        return num_clbits_;
    }

    /// The options this program was compiled with. Together with slots(),
    /// prefix() and suffix() this is a complete recipe for rebuilding the
    /// program: reassemble the (barrier-stripped) circuit and re-compile
    /// with these options — replay is bit-identical because compile()
    /// derives every precomputed matrix deterministically from the ops.
    /// The wire codec (exec/serialise) round-trips programs this way.
    [[nodiscard]] const options& compiled_with() const noexcept {
        return options_;
    }

    /// Leading initialize ops, in circuit order.
    [[nodiscard]] const std::vector<prep_slot>& slots() const noexcept {
        return slots_;
    }
    /// Leading parameterized ops (params are placeholders; replaced per
    /// sample at replay time).
    [[nodiscard]] const std::vector<operation>& prefix() const noexcept {
        return prefix_;
    }
    /// Rotation angles one sample must supply for the prefix.
    [[nodiscard]] std::size_t prefix_param_count() const noexcept {
        return prefix_param_count_;
    }
    /// Shared suffix, original ops with precomputed matrices (barriers
    /// stripped, measures validated terminal).
    [[nodiscard]] const std::vector<compiled_op>& suffix() const noexcept {
        return suffix_;
    }
    /// (qubit, cbit) pairs of every measure op, in circuit order.
    [[nodiscard]] const std::vector<std::pair<qubit_t, int>>&
    measures() const noexcept {
        return measures_;
    }
    /// Gate ops in the suffix.
    [[nodiscard]] std::size_t suffix_gate_count() const noexcept;

    /// Reassembles a plain per-sample circuit (slot amplitudes and prefix
    /// params substituted): the whole circuit a batched replay of this
    /// sample must agree with, which tests run through the circuit-level
    /// engines as their reference. Barriers are not restored.
    [[nodiscard]] circuit
    materialize(std::span<const double> amplitudes,
                std::span<const double> prefix_params = {}) const;

private:
    std::size_t num_qubits_ = 0;
    std::size_t num_clbits_ = 0;
    options options_{};
    std::vector<prep_slot> slots_;
    std::vector<operation> prefix_;
    std::size_t prefix_param_count_ = 0;
    std::vector<compiled_op> suffix_;
    std::vector<std::pair<qubit_t, int>> measures_;
};

/// Fuses an op sequence of gates, resets, measures and barriers: merges
/// adjacent single-qubit gates into 2x2 unitaries and two-qubit gates with
/// their neighbours into 4x4 ones, commuting past blocks on disjoint
/// qubits; resets and measures fence the merging. The result acts as
/// `ops` does up to rounding, not bit for bit. Throws util::contract_error
/// on any other op kind.
[[nodiscard]] std::vector<fused_op>
fuse_operations(std::span<const operation> ops);

/// True when replaying `a` and `b` produces equal results: same structural
/// fields and (==-equal) parameters/amplitudes. Equality here is IEEE ==
/// (the same contract the golden fixtures and bit-identity suites use),
/// not bit-pattern equality, so ±0.0 params compare equal.
[[nodiscard]] bool replays_identically(const operation& a, const operation& b);

/// compiled_op variant: additionally requires ==-equal precomputed gate
/// matrices, so replaying either op through an engine kernel gives equal
/// amplitudes.
[[nodiscard]] bool replays_identically(const compiled_op& a,
                                       const compiled_op& b);

/// Number of leading suffix ops `a` and `b` share (replays_identically).
/// Two compression levels of one Quorum group share their state prep +
/// encoder + the nested reset prefix; the fused multi-level executor path
/// evolves that prefix once and forks per level at the first divergence.
[[nodiscard]] std::size_t shared_suffix_ops(const compiled_program& a,
                                            const compiled_program& b);

/// Index into `prog.suffix()` where the maximal trailing run of gate ops
/// begins (== suffix().size() when the suffix ends with a non-gate op).
/// For Quorum's register-A programs this run is the decoder D(θ); the
/// SWAP-test short-circuit applies its adjoint to the reference state once
/// instead of evolving every reset branch through it.
[[nodiscard]] std::size_t trailing_gate_run_start(const compiled_program& prog);

} // namespace quorum::qsim

#endif // QUORUM_QSIM_COMPILED_PROGRAM_H
