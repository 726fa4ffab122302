// Noisy circuit execution: transpiles to the hardware basis, evolves a
// density matrix, and applies the noise model's channels after every
// physical gate. One pass produces the exact noisy measurement
// distribution (the paper then samples 4096 shots from it; we expose both
// the exact probability and Binomial shot emulation in qml/core).
#ifndef QUORUM_QSIM_DENSITY_RUNNER_H
#define QUORUM_QSIM_DENSITY_RUNNER_H

#include <vector>

#include "qsim/circuit.h"
#include "qsim/density_matrix.h"
#include "qsim/noise.h"

namespace quorum::qsim {

/// Result of a noisy run: final state plus the measure map.
struct noisy_run_result {
    density_matrix state;
    std::vector<std::pair<qubit_t, int>> measures;

    /// P[classical bit `cbit` reads 1], including readout error.
    [[nodiscard]] double cbit_probability_one(int cbit,
                                              const noise_model& noise) const;
};

/// Stateless executor for the density-matrix engine.
class density_runner {
public:
    /// Transpiles `c` to the {rz, sx, x, cx} basis and runs it under
    /// `noise`. Gate channels: depolarizing (per gate error) then thermal
    /// relaxation on each operand for the gate's duration. rz is virtual
    /// (noiseless, zero duration). Resets use the exact reset channel.
    static noisy_run_result run(const circuit& c, const noise_model& noise);

    /// Runs an ALREADY-lowered circuit (is_basis_circuit must hold; throws
    /// otherwise) under `noise`, skipping the transpile pass. Callers that
    /// replay a shared suffix across many samples lower it once and enter
    /// here (see exec::density_backend::run_batch).
    static noisy_run_result run_lowered(const circuit& lowered,
                                        const noise_model& noise);

    /// Applies ops [first, last) of an already-lowered circuit to an
    /// existing run state (gate + noise channels, resets, measure
    /// recording — the same evolution run_lowered performs). This is the
    /// incremental seam for callers that cache a shared evolution prefix
    /// across related circuits: run_lowered(c) == fresh state +
    /// apply_lowered_ops(state, c, 0, c.ops().size()). No basis check —
    /// the caller validates the circuit once; a gate on two or more
    /// qubits other than cx throws contract_error.
    static void apply_lowered_ops(noisy_run_result& state,
                                  const circuit& lowered, std::size_t first,
                                  std::size_t last, const noise_model& noise);

    /// Convenience: P[measuring qubit `q` yields 1] after running `c`
    /// under `noise`, including readout confusion.
    static double probability_one(const circuit& c, qubit_t q,
                                  const noise_model& noise);
};

} // namespace quorum::qsim

#endif // QUORUM_QSIM_DENSITY_RUNNER_H
