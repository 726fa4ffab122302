// Mixed-state simulation engine: a 2^n x 2^n density operator. This is the
// exact backend for noisy simulation (paper §V "noisy simulations ...
// modeled after IBM's Brisbane"): every basis-gate application is followed
// by its noise channels (depolarizing, thermal relaxation), and
// mid-circuit reset is the exact reset channel, so a single pass yields
// the exact noisy measurement distribution (no trajectory sampling
// error). The noisy runner takes each basis gate and its channels through
// apply_1q_channel / apply_cx_channel, which run one fused sweep
// (qsim/kernels.h) where the active ISA has one; the separate gate and
// channel methods are the reference those sweeps are tested against, bit
// for bit, and the path everywhere else.
#ifndef QUORUM_QSIM_DENSITY_MATRIX_H
#define QUORUM_QSIM_DENSITY_MATRIX_H

#include <span>
#include <vector>

#include "qsim/gates.h"
#include "qsim/kernels.h"
#include "qsim/statevector.h"
#include "qsim/types.h"
#include "util/matrix.h"

namespace quorum::qsim {

/// Density operator over `num_qubits` qubits, row-major, little-endian.
class density_matrix {
public:
    /// |0..0><0..0|.
    explicit density_matrix(std::size_t num_qubits);

    /// |psi><psi| from a pure state.
    static density_matrix from_statevector(const statevector& state);

    /// A matrix from its row-major elements (2^n x 2^n of them), taken
    /// verbatim — no Hermiticity or trace check.
    static density_matrix from_elements(std::size_t num_qubits,
                                        std::span<const amp> elements);

    [[nodiscard]] std::size_t num_qubits() const noexcept {
        return num_qubits_;
    }
    [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

    /// Element rho(row, col).
    [[nodiscard]] amp element(std::size_t row, std::size_t col) const;

    /// All elements, row-major.
    [[nodiscard]] std::span<const amp> elements() const noexcept {
        return data_;
    }

    /// Applies a named unitary gate: rho -> U rho U†.
    void apply_gate(gate_kind kind, std::span<const qubit_t> qubits,
                    std::span<const double> params = {});

    /// Applies an arbitrary k-qubit matrix as rho -> M rho M†.
    void apply_matrix(const util::cmatrix& m, std::span<const qubit_t> qubits);

    /// Applies a Kraus channel: rho -> sum_k K_k rho K_k†. All operators
    /// must act on the same `qubits`. (Trace preservation is the caller's
    /// responsibility; tests verify the built-in channels.)
    void apply_kraus(std::span<const util::cmatrix> kraus_ops,
                     std::span<const qubit_t> qubits);

    /// Exact depolarizing channel with parameter p on `qubits` (distinct,
    /// in range): rho -> (1-p) rho + p * (I/2^k ⊗ Tr_qubits(rho)).
    void depolarize(std::span<const qubit_t> qubits, double p);

    /// Exact reset channel on one qubit: rho -> |0><0|_q ⊗ Tr_q(rho).
    void reset_qubit(qubit_t q);

    /// Exact thermal-relaxation channel on one qubit in closed form:
    /// amplitude damping (gamma) composed with pure dephasing (lambda).
    /// Equivalent to apply_kraus(noise_model::thermal_kraus(...)) but a
    /// single O(4^n) pass — this is the noisy runner's hot path.
    void apply_thermal(qubit_t q, double gamma, double lambda);

    /// P[measuring `q` yields 1] (sum of diagonal terms with the bit set).
    [[nodiscard]] double probability_one(qubit_t q) const;

    /// Re(Tr rho) — should be 1 for a valid state.
    [[nodiscard]] double trace_real() const;

    /// Tr(rho^2): 1 for pure states, 1/2^n for the maximally mixed state.
    [[nodiscard]] double purity() const;

    /// A noisy gate in the density runner's channel order, one pass per
    /// step: apply_gate, then depolarize(qubits, noise.p) if p > 0, then
    /// apply_thermal on each operand in order if gamma or lambda > 0. The
    /// reference the channel methods below reproduce bit for bit, and
    /// their path where no fused kernel runs.
    void apply_noisy_gate(gate_kind kind, std::span<const qubit_t> qubits,
                          std::span<const double> params,
                          const kernels::density_channels& noise);

    /// Noisy 1q gate, bit for bit apply_noisy_gate(kind, {q}, params,
    /// noise): one fused sweep (kernels::density_1q) where the active ISA
    /// has it, else the multi-pass path.
    void apply_1q_channel(gate_kind kind, qubit_t q,
                          std::span<const double> params,
                          const kernels::density_channels& noise);

    /// Noisy cx, bit for bit apply_noisy_gate(cx, {control, target}, {},
    /// noise): one fused sweep (kernels::density_cx) where the active ISA
    /// has it, else the multi-pass path.
    void apply_cx_channel(qubit_t control, qubit_t target,
                          const kernels::density_channels& noise);

    /// Partial trace over `qubits` (distinct, in range), returning the
    /// reduced density matrix on the remaining qubits (kept in ascending
    /// qubit order).
    [[nodiscard]] density_matrix
    partial_trace(std::span<const qubit_t> qubits) const;

    /// Product-initialises `qubits` (distinct, in range; must be in |0..0>
    /// and unentangled) with the given pure sub-register amplitudes.
    void initialize_register(std::span<const qubit_t> qubits,
                             std::span<const amp> amplitudes);

    /// Fidelity-style overlap Tr(rho sigma) with another density matrix.
    [[nodiscard]] double overlap(const density_matrix& other) const;

private:
    /// Checks that every operand is in range and no two are equal.
    void expect_operands(std::span<const qubit_t> qubits) const;

    /// Applies `m` (or its conjugate) to the row or column index axis.
    void apply_to_axis(const util::cmatrix& m, std::span<const qubit_t> qubits,
                       bool column_axis);

    /// Fast path: 2x2 matrix conjugation (both axes in tight loops).
    void apply_1q_fast(const util::cmatrix& m, qubit_t q);

    /// Fast path: CX conjugation as an index permutation.
    void apply_cx_fast(qubit_t control, qubit_t target);

    std::size_t num_qubits_;
    std::size_t dim_;
    std::vector<amp> data_; // row-major dim_ x dim_
};

} // namespace quorum::qsim

#endif // QUORUM_QSIM_DENSITY_MATRIX_H
