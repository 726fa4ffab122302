#include "qsim/qasm.h"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "qsim/transpile.h"
#include "util/contracts.h"

namespace quorum::qsim {

namespace {

/// qelib1.inc mnemonic for a gate kind.
const char* qasm_gate_name(gate_kind kind) {
    switch (kind) {
    case gate_kind::id:
        return "id";
    case gate_kind::x:
        return "x";
    case gate_kind::y:
        return "y";
    case gate_kind::z:
        return "z";
    case gate_kind::h:
        return "h";
    case gate_kind::s:
        return "s";
    case gate_kind::sdg:
        return "sdg";
    case gate_kind::t:
        return "t";
    case gate_kind::tdg:
        return "tdg";
    case gate_kind::sx:
        return "sx";
    case gate_kind::rx:
        return "rx";
    case gate_kind::ry:
        return "ry";
    case gate_kind::rz:
        return "rz";
    case gate_kind::u3:
        return "u3";
    case gate_kind::cx:
        return "cx";
    case gate_kind::cz:
        return "cz";
    case gate_kind::swap_q:
        return "swap";
    case gate_kind::ccx:
        return "ccx";
    case gate_kind::cswap:
        return "cswap";
    }
    return "id";
}

void write_operands(std::ostream& out, const operation& op) {
    for (std::size_t i = 0; i < op.qubits.size(); ++i) {
        out << (i ? "," : "") << "q[" << op.qubits[i] << "]";
    }
}

} // namespace

void write_qasm(std::ostream& out, const circuit& c) {
    // QASM 2.0 has no initialize statement: synthesise first.
    const circuit expanded = expand_initialize(c);

    out << "OPENQASM 2.0;\n";
    out << "include \"qelib1.inc\";\n";
    out << "qreg q[" << expanded.num_qubits() << "];\n";
    if (expanded.num_clbits() > 0) {
        out << "creg c[" << expanded.num_clbits() << "];\n";
    }
    out << std::setprecision(17);
    for (const operation& op : expanded.ops()) {
        switch (op.kind) {
        case op_kind::gate:
            out << qasm_gate_name(op.gate);
            if (!op.params.empty()) {
                out << "(";
                for (std::size_t p = 0; p < op.params.size(); ++p) {
                    out << (p ? "," : "") << op.params[p];
                }
                out << ")";
            }
            out << " ";
            write_operands(out, op);
            out << ";\n";
            break;
        case op_kind::reset:
            out << "reset q[" << op.qubits[0] << "];\n";
            break;
        case op_kind::measure:
            out << "measure q[" << op.qubits[0] << "] -> c[" << op.cbit
                << "];\n";
            break;
        case op_kind::barrier:
            out << "barrier q;\n";
            break;
        case op_kind::initialize:
            throw util::contract_error("initialize survived expansion");
        }
    }
}

std::string to_qasm(const circuit& c) {
    std::ostringstream out;
    write_qasm(out, c);
    return out.str();
}

} // namespace quorum::qsim
