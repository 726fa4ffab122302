#include "qml/angle_encoding.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>

#include "util/contracts.h"

namespace quorum::qml {

std::string_view encoding_name(encoding enc) {
    switch (enc) {
    case encoding::amplitude:
        return "amplitude";
    case encoding::angle:
        return "angle";
    }
    return "unknown";
}

bool parse_encoding(std::string_view text, encoding& out) {
    if (text == "amplitude") {
        out = encoding::amplitude;
        return true;
    }
    if (text == "angle") {
        out = encoding::angle;
        return true;
    }
    return false;
}

void encode_angle_amplitudes(std::span<const double> features,
                             std::size_t n_qubits, std::span<double> out) {
    QUORUM_EXPECTS_MSG(n_qubits >= 1 && n_qubits <= 20,
                       "encoding qubit count out of range");
    const std::size_t dim = std::size_t{1} << n_qubits;
    QUORUM_EXPECTS_MSG(out.size() == dim,
                       "amplitude buffer must have size 2^n_qubits");
    QUORUM_EXPECTS_MSG(features.size() <= n_qubits,
                       "too many features for angle encoding (one per qubit)");
    std::fill(out.begin(), out.end(), 0.0);
    out[0] = 1.0;
    // Left-fold over ascending qubit index: after folding qubit j the
    // nonzero support lives in indices < 2^(j+1). The update order
    // (partner written before the source) makes the fold bit-identical
    // to applying RY(pi * f_j) gates sequentially to |0..0>.
    for (std::size_t j = 0; j < features.size(); ++j) {
        const double value = features[j];
        QUORUM_EXPECTS_MSG(value >= -1e-12 && value <= 1.0 + 1e-12,
                           "angle-encoded feature " + std::to_string(j) +
                               " outside [0, 1]; normalise features first");
        const double clamped = std::min(1.0, std::max(0.0, value));
        const double half_theta = std::numbers::pi * clamped * 0.5;
        const double c = std::cos(half_theta);
        const double s = std::sin(half_theta);
        const std::size_t stride = std::size_t{1} << j;
        for (std::size_t base = 0; base < dim; base += 2 * stride) {
            for (std::size_t b = base; b < base + stride; ++b) {
                const double tmp = out[b];
                out[b | stride] = s * tmp;
                out[b] = c * tmp;
            }
        }
    }
}

std::vector<double> to_angle_amplitudes(std::span<const double> features,
                                        std::size_t n_qubits) {
    QUORUM_EXPECTS_MSG(n_qubits >= 1 && n_qubits <= 20,
                       "encoding qubit count out of range");
    std::vector<double> amplitudes(std::size_t{1} << n_qubits, 0.0);
    encode_angle_amplitudes(features, n_qubits, amplitudes);
    return amplitudes;
}

qsim::circuit angle_encoding_circuit(std::span<const double> features,
                                     std::size_t n_qubits) {
    QUORUM_EXPECTS_MSG(n_qubits >= 1 && n_qubits <= 20,
                       "encoding qubit count out of range");
    QUORUM_EXPECTS_MSG(features.size() <= n_qubits,
                       "too many features for angle encoding (one per qubit)");
    qsim::circuit prep(n_qubits);
    for (std::size_t j = 0; j < features.size(); ++j) {
        const double value = features[j];
        QUORUM_EXPECTS_MSG(value >= -1e-12 && value <= 1.0 + 1e-12,
                           "angle-encoded feature " + std::to_string(j) +
                               " outside [0, 1]; normalise features first");
        const double clamped = std::min(1.0, std::max(0.0, value));
        prep.ry(std::numbers::pi * clamped, static_cast<qsim::qubit_t>(j));
    }
    return prep;
}

std::vector<double> to_encoded_amplitudes(encoding enc,
                                          std::span<const double> features,
                                          std::size_t n_qubits) {
    return enc == encoding::angle ? to_angle_amplitudes(features, n_qubits)
                                  : to_amplitudes(features, n_qubits);
}

void encode_features(encoding enc, std::span<const double> features,
                     std::size_t n_qubits, std::span<double> out) {
    if (enc == encoding::angle) {
        encode_angle_amplitudes(features, n_qubits, out);
    } else {
        encode_amplitudes(features, n_qubits, out);
    }
}

} // namespace quorum::qml
