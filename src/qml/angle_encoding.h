// Angle encoding: one feature per qubit as an RY rotation (the embedding
// every SNIPPETS exemplar uses, vs the paper's amplitude encoding §IV-B).
//
// Feature f_j in [0, 1] becomes RY(pi * f_j) on qubit j, so the register
// holds the product state
//
//   |psi> = ⊗_j ( cos(pi f_j / 2) |0> + sin(pi f_j / 2) |1> ),
//
// i.e. amplitude[b] = prod_j (bit j of b ? sin(pi f_j / 2)
//                                        : cos(pi f_j / 2)).
//
// Trade-off vs amplitude encoding: O(n) circuit depth (one RY per qubit,
// no synthesis tree) but only n features per n-qubit register instead of
// 2^n - 1. Both encodings produce real non-negative amplitude vectors, so
// the product state flows through the same compiled-program prep slots,
// fused level trunks, and wire format as the amplitude path.
//
// to_angle_amplitudes computes the product state in closed form with a
// left-fold over ascending qubit index — bit-for-bit identical to
// simulating the RY chain gate by gate (pinned by tests/qml).
#ifndef QUORUM_QML_ANGLE_ENCODING_H
#define QUORUM_QML_ANGLE_ENCODING_H

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "qml/amplitude_encoding.h"
#include "qsim/circuit.h"
#include "qsim/statevector.h"

namespace quorum::qml {

/// How a sample's classical features become a quantum state.
enum class encoding {
    amplitude, ///< paper §IV-B: features are amplitudes, 2^n - 1 per register
    angle,     ///< one RY(pi * f) per qubit, n features per register
};

/// Canonical spelling of an encoding (matches the --encoding CLI values).
[[nodiscard]] std::string_view encoding_name(encoding enc);

/// Strict parse of an encoding name ("amplitude" | "angle"). Returns
/// false (leaving `out` untouched) on anything else; never throws.
[[nodiscard]] bool parse_encoding(std::string_view text, encoding& out);

/// Number of features an n-qubit register encodes under `enc`:
/// 2^n - 1 for amplitude (overflow state reserves one basis state),
/// n for angle (one qubit per feature). This replaces qml::max_features
/// wherever bucket planning or feature selection keys off the encoding.
[[nodiscard]] constexpr std::size_t
encoded_feature_count(encoding enc, std::size_t n_qubits) {
    return enc == encoding::angle ? n_qubits : max_features(n_qubits);
}

/// In-place closed-form product-state amplitudes for hot paths (the
/// streaming scorer's per-sample push): writes the encoded state into
/// `out`, which must have size 2^n_qubits. Requires features.size()
/// <= n_qubits (unused qubits stay |0>) and every feature in [0, 1]
/// (1e-12 slack, clamped); a violation names the offending index.
/// Zero allocations; bit-identical to simulating the RY chain.
void encode_angle_amplitudes(std::span<const double> features,
                             std::size_t n_qubits, std::span<double> out);

/// Allocating variant of encode_angle_amplitudes.
[[nodiscard]] std::vector<double>
to_angle_amplitudes(std::span<const double> features, std::size_t n_qubits);

/// The O(n)-depth gate-level preparation circuit: RY(pi * f_j) on qubit j.
[[nodiscard]] qsim::circuit
angle_encoding_circuit(std::span<const double> features, std::size_t n_qubits);

/// Encoding-dispatched amplitude builder: qml::to_amplitudes for
/// amplitude, to_angle_amplitudes for angle.
[[nodiscard]] std::vector<double>
to_encoded_amplitudes(encoding enc, std::span<const double> features,
                      std::size_t n_qubits);

/// Encoding-dispatched in-place encoder (allocation-free hot path).
void encode_features(encoding enc, std::span<const double> features,
                     std::size_t n_qubits, std::span<double> out);

} // namespace quorum::qml

#endif // QUORUM_QML_ANGLE_ENCODING_H
