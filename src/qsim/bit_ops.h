// Bit-twiddling helpers shared by the state-vector and density-matrix
// gate kernels.
#ifndef QUORUM_QSIM_BIT_OPS_H
#define QUORUM_QSIM_BIT_OPS_H

#include <cstddef>
#include <span>
#include <vector>

#include "qsim/types.h"

namespace quorum::qsim {

/// Inserts zero bits into `index` at the (ascending) positions in `sorted`,
/// producing a full-width index whose `sorted` bits are all zero. Used to
/// enumerate the "base" indices of gate-kernel groups.
[[nodiscard]] inline std::size_t expand_index(std::size_t index,
                                              std::span<const qubit_t> sorted) {
    std::size_t result = index;
    for (const qubit_t position : sorted) {
        const std::size_t low_mask = (std::size_t{1} << position) - 1;
        result = (result & low_mask) | ((result & ~low_mask) << 1);
    }
    return result;
}

/// offsets[j]: bit pattern placing sub-index j's bits onto the target
/// qubits (bit b of j -> qubit qubits[b]).
[[nodiscard]] inline std::vector<std::size_t>
make_offsets(std::span<const qubit_t> qubits) {
    const std::size_t block = std::size_t{1} << qubits.size();
    std::vector<std::size_t> offsets(block, 0);
    for (std::size_t j = 0; j < block; ++j) {
        for (std::size_t b = 0; b < qubits.size(); ++b) {
            if ((j >> b) & 1u) {
                offsets[j] |= std::size_t{1} << qubits[b];
            }
        }
    }
    return offsets;
}

/// OR of the single-bit masks of all listed qubits.
[[nodiscard]] inline std::size_t make_mask(std::span<const qubit_t> qubits) {
    std::size_t mask = 0;
    for (const qubit_t q : qubits) {
        mask |= std::size_t{1} << q;
    }
    return mask;
}

} // namespace quorum::qsim

#endif // QUORUM_QSIM_BIT_OPS_H
