#include "qsim/density_runner.h"

#include "qsim/transpile.h"
#include "util/contracts.h"

namespace quorum::qsim {

double noisy_run_result::cbit_probability_one(int cbit,
                                              const noise_model& noise) const {
    for (const auto& [qubit, bit] : measures) {
        if (bit == cbit) {
            return noise.apply_readout(state.probability_one(qubit));
        }
    }
    throw util::contract_error("no measurement wrote the requested cbit");
}

noisy_run_result density_runner::run(const circuit& c,
                                     const noise_model& noise) {
    return run_lowered(transpile_for_hardware(c), noise);
}

noisy_run_result density_runner::run_lowered(const circuit& lowered,
                                             const noise_model& noise) {
    QUORUM_EXPECTS_MSG(is_basis_circuit(lowered),
                       "run_lowered needs a circuit in the hardware basis "
                       "(use run() for arbitrary circuits)");
    noisy_run_result result{density_matrix(lowered.num_qubits()), {}};
    apply_lowered_ops(result, lowered, 0, lowered.ops().size(), noise);
    return result;
}

void density_runner::apply_lowered_ops(noisy_run_result& result,
                                       const circuit& lowered,
                                       std::size_t first, std::size_t last,
                                       const noise_model& noise) {
    for (std::size_t index = first; index < last; ++index) {
        const operation& op = lowered.ops()[index];
        switch (op.kind) {
        case op_kind::barrier:
            break;
        case op_kind::initialize:
            throw util::contract_error("initialize survived transpilation");
        case op_kind::gate: {
            const auto thermal =
                noise.thermal_coefficients(noise.duration_ns(op.gate));
            const kernels::density_channels channels{
                noise.depolarizing_param(op.gate), thermal.gamma,
                thermal.lambda};
            if (gate_arity(op.gate) == 1) {
                result.state.apply_1q_channel(op.gate, op.qubits[0], op.params,
                                              channels);
                break;
            }
            QUORUM_EXPECTS_MSG(op.gate == gate_kind::cx,
                               "density runner needs hardware-basis gates");
            result.state.apply_cx_channel(op.qubits[0], op.qubits[1], channels);
            break;
        }
        case op_kind::reset:
            result.state.reset_qubit(op.qubits[0]);
            break;
        case op_kind::measure: {
            // Thermal decay during the (comparatively long) readout window.
            const auto thermal =
                noise.thermal_coefficients(noise.measure_duration_ns());
            if (thermal.gamma > 0.0 || thermal.lambda > 0.0) {
                result.state.apply_thermal(op.qubits[0], thermal.gamma,
                                           thermal.lambda);
            }
            result.measures.emplace_back(op.qubits[0], op.cbit);
            break;
        }
        }
    }
}

double density_runner::probability_one(const circuit& c, qubit_t q,
                                       const noise_model& noise) {
    const noisy_run_result result = run(c, noise);
    return noise.apply_readout(result.state.probability_one(q));
}

} // namespace quorum::qsim
