// Vectorised apply kernels for the statevector and density-matrix engines,
// behind runtime CPU dispatch.
//
// The statevector kernels come in two ISAs. The scalar kernels are THE
// bit-exactness reference: they reproduce, operation for operation, the
// arithmetic the engine has always used (two complex multiplies, then one
// complex add, per output amplitude; sequential column accumulation for
// dense blocks). The AVX2 kernels vectorise ACROSS independent amplitude
// groups — every lane performs exactly the scalar operation sequence on
// its own amplitude, with no FMA contraction and no reassociation — so
// both ISAs produce IEEE-identical doubles for every input.
//
// The density-matrix kernels are AVX2 only. Their reference is the
// multi-pass density_matrix methods (gate, depolarize, thermal, in the
// noisy runner's order), which are also the scalar path: each kernel
// takes a whole noisy gate in one sweep, vectorised across independent
// density blocks under the same rule.
//
// The lane kernels are AVX2 only as well: they evolve eight samples'
// states side by side, vectorised across samples, and their reference is
// the per-sample replay the scalar ISA keeps running.
//
// tests/qsim/test_kernels.cpp, tests/qsim/test_density_kernels.cpp and
// tests/exec/test_lane_replay.cpp pin these equivalences bit for bit; the
// golden-fixture suites pin them end to end.
//
// Dispatch rule: the AVX2 path is taken when it was compiled in
// (x86-64 + GCC/Clang), the CPU reports AVX2, and QUORUM_DISABLE_AVX2 is
// not set in the environment. The decision is made once (first use) and
// cached; set the variable before the process starts to force the
// portable path.
#ifndef QUORUM_QSIM_KERNELS_H
#define QUORUM_QSIM_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <span>

#include "qsim/types.h"

namespace quorum::qsim::kernels {

/// Instruction sets a kernel can be asked to run on. `scalar` is always
/// available and is the semantics reference.
enum class isa { scalar, avx2 };

/// The ISA the dispatching overloads use. Detected once, then cached.
[[nodiscard]] isa active_isa() noexcept;

/// Uncached detection (re-reads QUORUM_DISABLE_AVX2) — for tests of the
/// dispatch rule; hot paths use active_isa().
[[nodiscard]] isa detect_isa() noexcept;

/// True when the AVX2 translation unit was compiled into this build.
[[nodiscard]] bool avx2_compiled() noexcept;

/// True when the host CPU reports AVX2 + FMA (ignores the env override
/// and whether the kernels were compiled in).
[[nodiscard]] bool avx2_supported() noexcept;

/// Applies the row-major 2x2 matrix u to qubit `q` of a 2^n_qubits
/// amplitude array: for every pair (i, i + 2^q),
///   data[i]        = u[0]*a + u[1]*b
///   data[i + 2^q]  = u[2]*a + u[3]*b.
void apply_1q(amp* data, std::size_t n_qubits, const amp* u, qubit_t q,
              isa which);
void apply_1q(amp* data, std::size_t n_qubits, const amp* u, qubit_t q);

/// Applies a dense 2^k x 2^k row-major matrix over prepared operand
/// metadata: `sorted` is the ascending operand list, `offsets` comes
/// from make_offsets over the operands in matrix order, and `scratch`
/// must hold at least 2^k amplitudes (used by the scalar path; the AVX2
/// path keeps its working set in registers / on the stack). Groups are
/// independent, so any group order is bit-identical; within a group the
/// scalar column-accumulation order is preserved exactly.
void apply_block(amp* data, std::size_t n_qubits, const amp* u,
                 std::span<const qubit_t> sorted,
                 std::span<const std::size_t> offsets, amp* scratch,
                 isa which);
void apply_block(amp* data, std::size_t n_qubits, const amp* u,
                 std::span<const qubit_t> sorted,
                 std::span<const std::size_t> offsets, amp* scratch);

/// Projection kernel backing statevector::collapse: amplitudes whose bit
/// `q` equals `outcome` are multiplied by `scale` (re and im separately,
/// as complex *= double always has); the rest are set to +0.0.
void collapse(amp* data, std::size_t n_qubits, qubit_t q, bool outcome,
              double scale, isa which);
void collapse(amp* data, std::size_t n_qubits, qubit_t q, bool outcome,
              double scale);

/// Noise a density-matrix kernel applies after its gate, in the density
/// runner's order: depolarize(p) on the operands, then thermal relaxation
/// (gamma, lambda) on each operand in operand order. p == 0 skips the
/// depolarizer and gamma == lambda == 0 skips relaxation, as the
/// density_matrix primitives do. The kernels trust these values;
/// density_matrix validates them (each in [0, 1]).
struct density_channels {
    double p = 0.0;
    double gamma = 0.0;
    double lambda = 0.0;
};

/// Noisy 1q step on a row-major 2^n_qubits x 2^n_qubits density matrix:
/// rho -> u rho u† for the row-major 2x2 u on qubit q, then `noise`, in
/// one sweep over 2x2 blocks. IEEE-identical, element for element, to
/// density_matrix::apply_matrix(u, {q}) -> depolarize({q}, p) ->
/// apply_thermal(q, gamma, lambda). A diagonal u (u[1] == u[2] == 0, the
/// test apply_matrix uses) scales each element by d_r * conj(d_c), the
/// four factors formed once per call; without noise that is a single
/// elementwise pass. Runs only when `which` is isa::avx2, the AVX2 unit
/// is compiled in and n_qubits >= 2; otherwise returns false and leaves
/// rho untouched, and the caller takes the multi-pass path.
[[nodiscard]] bool density_1q(amp* rho, std::size_t n_qubits, const amp* u,
                              qubit_t q, const density_channels& noise,
                              isa which);
[[nodiscard]] bool density_1q(amp* rho, std::size_t n_qubits, const amp* u,
                              qubit_t q, const density_channels& noise);

/// Noisy cx step, one sweep over 4x4 blocks: the cx permutation, then
/// depolarize({control, target}, p), then thermal relaxation on the
/// control and then the target. IEEE-identical to
/// density_matrix::apply_gate(cx) -> depolarize -> apply_thermal x2.
/// Runs under the same conditions as density_1q, with n_qubits >= 3;
/// otherwise returns false and leaves rho untouched.
[[nodiscard]] bool density_cx(amp* rho, std::size_t n_qubits, qubit_t control,
                              qubit_t target, const density_channels& noise,
                              isa which);
[[nodiscard]] bool density_cx(amp* rho, std::size_t n_qubits, qubit_t control,
                              qubit_t target, const density_channels& noise);

/// Lane kernels: `lane_width` samples' statevectors evolved side by side,
/// for the statevector backend's lane replay of small circuits. A lane
/// state of `rows` amplitudes is two arrays, `re` and `im`, of
/// rows * lane_width doubles indexed [row][lane]. Reset branches stack as
/// consecutive blocks of 2^n rows, so a gate on qubit q < n is one call
/// over every branch. Each lane performs the scalar kernels' operation
/// sequence on its own amplitudes (two complex products, then one complex
/// add, per output; row swaps for x and cx), in split re/im doubles: the
/// AVX2 unit does no std::complex arithmetic, which GCC contracts into
/// vfmaddsub there even under -ffp-contract=off. Every lane is therefore
/// IEEE-identical to the per-sample replay (tests/exec/
/// test_lane_replay.cpp). AVX2 only: callers enter them only when
/// active_isa() is isa::avx2 (and take the per-sample path otherwise);
/// without the AVX2 unit they throw.
inline constexpr std::size_t lane_width = 8;

/// apply_1q in every lane: the row-major 2x2 u on qubit q, over rows
/// [0, rows).
void lanes_1q(double* re, double* im, std::size_t rows, const amp* u,
              qubit_t q);

/// One row-major 2x2 matrix per lane, split by entry: entry e of lane
/// l's matrix is (re[e][l], im[e][l]), so a lane kernel loads each entry
/// of four lanes as one vector.
struct alignas(64) lane_1q_matrices {
    double re[4][lane_width];
    double im[4][lane_width];

    /// Stores the row-major 2x2 u as lane `lane`'s matrix.
    void set(std::size_t lane, const amp* u) noexcept {
        for (std::size_t e = 0; e < 4; ++e) {
            re[e][lane] = u[e].real();
            im[e][lane] = u[e].imag();
        }
    }
};

/// lanes_1q with a matrix per lane: lane l applies its own matrix from
/// `u` to qubit q, with lanes_1q's per-lane expressions.
void lanes_1q_each(double* re, double* im, std::size_t rows,
                   const lane_1q_matrices& u, qubit_t q);

/// x on qubit q and cx in every lane: row swaps over rows [0, rows).
void lanes_x(double* re, double* im, std::size_t rows, qubit_t q);
void lanes_cx(double* re, double* im, std::size_t rows, qubit_t control,
              qubit_t target);

/// A reset of qubit q on the `slots` branch states stacked in re/im, each
/// `dim` rows, with one weight and one alive mask (all ones or zero) per
/// (branch, lane). Branch s becomes branch 2s (outcome 0: rows with bit q
/// clear scaled by 1/sqrt(p_zero), the rest +0.0) and branch 2s + 1
/// (outcome 1, the same with p_one, then x on q), where p_one sums
/// |amplitude|^2 over the rows with bit q set in ascending order and
/// p_zero = 1 - p_one. A child is alive when its parent is and its
/// probability exceeds probability_epsilon, and weighs the parent's
/// weight times that probability. Dead branches are still computed (their
/// values may be inf or NaN). The arrays must hold 2 * slots branches.
void lanes_reset(double* re, double* im, std::size_t dim, std::size_t slots,
                 qubit_t q, double* weight, std::uint64_t* alive);

/// The SWAP-test fidelity of every lane: from +0.0, add, for each alive
/// branch in branch order, weight * |<chi|branch>|^2, the inner product
/// summing conj(chi_i) * branch_i from amp{} in ascending i. Dead branches
/// are selected out, never multiplied by zero.
void lanes_overlap(const double* chi_re, const double* chi_im,
                   const double* re, const double* im, std::size_t dim,
                   std::size_t slots, const double* weight,
                   const std::uint64_t* alive, double* fidelity);

} // namespace quorum::qsim::kernels

#endif // QUORUM_QSIM_KERNELS_H
