// OpenQASM 2.0 export — lets any circuit this library builds (including
// the full transpiled Quorum autoencoder) run on real toolchains
// (Qiskit, tket, cirq importers) or hardware. Quorum's circuits use only
// qelib1.inc gates after initialize-expansion, so the emitted programs
// are directly loadable.
#ifndef QUORUM_QSIM_QASM_H
#define QUORUM_QSIM_QASM_H

#include <iosfwd>
#include <string>

#include "qsim/circuit.h"

namespace quorum::qsim {

/// Serialises `c` as an OpenQASM 2.0 program.
///
/// `initialize` pseudo-ops are synthesised into RY/CX state-prep trees
/// first (they have no QASM 2.0 equivalent); reset and measure map to the
/// native statements; barriers are preserved. Gate angles print with 17
/// significant digits (round-trip exact for doubles).
void write_qasm(std::ostream& out, const circuit& c);

/// Convenience: write_qasm into a string.
[[nodiscard]] std::string to_qasm(const circuit& c);

} // namespace quorum::qsim

#endif // QUORUM_QSIM_QASM_H
