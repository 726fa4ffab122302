#include "qsim/density_matrix.h"

#include <algorithm>
#include <cmath>

#include "qsim/bit_ops.h"
#include "util/contracts.h"

namespace quorum::qsim {

density_matrix::density_matrix(std::size_t num_qubits)
    : num_qubits_(num_qubits), dim_(std::size_t{1} << num_qubits),
      data_(dim_ * dim_) {
    QUORUM_EXPECTS_MSG(num_qubits >= 1 && num_qubits <= 13,
                       "density matrix qubit count out of range");
    data_[0] = 1.0;
}

density_matrix density_matrix::from_statevector(const statevector& state) {
    density_matrix rho(state.num_qubits());
    const std::span<const amp> psi = state.amplitudes();
    for (std::size_t r = 0; r < rho.dim_; ++r) {
        for (std::size_t c = 0; c < rho.dim_; ++c) {
            rho.data_[r * rho.dim_ + c] = psi[r] * std::conj(psi[c]);
        }
    }
    return rho;
}

density_matrix density_matrix::from_elements(std::size_t num_qubits,
                                             std::span<const amp> elements) {
    density_matrix rho(num_qubits);
    QUORUM_EXPECTS_MSG(elements.size() == rho.data_.size(),
                       "density matrix needs 4^n elements");
    std::copy(elements.begin(), elements.end(), rho.data_.begin());
    return rho;
}

void density_matrix::expect_operands(std::span<const qubit_t> qubits) const {
    for (std::size_t i = 0; i < qubits.size(); ++i) {
        QUORUM_EXPECTS_MSG(qubits[i] < num_qubits_,
                           "density matrix operand out of range");
        for (std::size_t j = 0; j < i; ++j) {
            QUORUM_EXPECTS_MSG(qubits[i] != qubits[j],
                               "density matrix operands must be distinct");
        }
    }
}

amp density_matrix::element(std::size_t row, std::size_t col) const {
    QUORUM_EXPECTS(row < dim_ && col < dim_);
    return data_[row * dim_ + col];
}

void density_matrix::apply_to_axis(const util::cmatrix& m,
                                   std::span<const qubit_t> qubits,
                                   bool column_axis) {
    const std::size_t k = qubits.size();
    const std::size_t block = std::size_t{1} << k;
    std::vector<qubit_t> sorted(qubits.begin(), qubits.end());
    std::sort(sorted.begin(), sorted.end());
    const std::vector<std::size_t> offsets = make_offsets(qubits);

    std::vector<amp> scratch(block);
    const std::size_t groups = dim_ >> k;
    for (std::size_t other = 0; other < dim_; ++other) {
        for (std::size_t g = 0; g < groups; ++g) {
            const std::size_t base = expand_index(g, sorted);
            for (std::size_t j = 0; j < block; ++j) {
                const std::size_t axis_index = base + offsets[j];
                const std::size_t linear = column_axis
                                               ? other * dim_ + axis_index
                                               : axis_index * dim_ + other;
                scratch[j] = data_[linear];
            }
            for (std::size_t row = 0; row < block; ++row) {
                amp sum{};
                for (std::size_t col = 0; col < block; ++col) {
                    const amp coeff = column_axis ? std::conj(m(row, col))
                                                  : m(row, col);
                    sum += coeff * scratch[col];
                }
                const std::size_t axis_index = base + offsets[row];
                const std::size_t linear = column_axis
                                               ? other * dim_ + axis_index
                                               : axis_index * dim_ + other;
                data_[linear] = sum;
            }
        }
    }
}

void density_matrix::apply_matrix(const util::cmatrix& m,
                                  std::span<const qubit_t> qubits) {
    const std::size_t block = std::size_t{1} << qubits.size();
    QUORUM_EXPECTS(m.rows() == block && m.cols() == block);
    for (const qubit_t q : qubits) {
        QUORUM_EXPECTS(q < num_qubits_);
    }
    if (qubits.size() == 1) {
        apply_1q_fast(m, qubits[0]);
        return;
    }
    apply_to_axis(m, qubits, false); // rho -> M rho
    apply_to_axis(m, qubits, true);  // rho -> rho M†
}

void density_matrix::apply_gate(gate_kind kind, std::span<const qubit_t> qubits,
                                std::span<const double> params) {
    if (kind == gate_kind::cx) {
        QUORUM_EXPECTS(qubits.size() == 2);
        apply_cx_fast(qubits[0], qubits[1]);
        return;
    }
    apply_matrix(gate_matrix(kind, params), qubits);
}

void density_matrix::apply_1q_fast(const util::cmatrix& m, qubit_t q) {
    QUORUM_EXPECTS(q < num_qubits_);
    const amp m00 = m(0, 0);
    const amp m01 = m(0, 1);
    const amp m10 = m(1, 0);
    const amp m11 = m(1, 1);
    const std::size_t step = std::size_t{1} << q;
    if (m01 == amp{} && m10 == amp{}) {
        // Diagonal gate (rz and friends): single elementwise pass,
        // rho_rc *= d_r * conj(d_c), the four factors formed once.
        const amp factor[2][2] = {{m00 * std::conj(m00), m00 * std::conj(m11)},
                                  {m11 * std::conj(m00), m11 * std::conj(m11)}};
        for (std::size_t r = 0; r < dim_; ++r) {
            const amp* row_factor = factor[(r & step) != 0 ? 1 : 0];
            amp* row = data_.data() + r * dim_;
            for (std::size_t c = 0; c < dim_; ++c) {
                row[c] *= row_factor[(c & step) != 0 ? 1 : 0];
            }
        }
        return;
    }
    // Row axis: rho -> M rho (columns are independent vectors).
    for (std::size_t rb = 0; rb < dim_; rb += 2 * step) {
        for (std::size_t r = rb; r < rb + step; ++r) {
            amp* row0 = data_.data() + r * dim_;
            amp* row1 = data_.data() + (r + step) * dim_;
            for (std::size_t c = 0; c < dim_; ++c) {
                const amp a = row0[c];
                const amp b = row1[c];
                row0[c] = m00 * a + m01 * b;
                row1[c] = m10 * a + m11 * b;
            }
        }
    }
    // Column axis: rho -> rho M† (rows are independent vectors).
    const amp c00 = std::conj(m00);
    const amp c01 = std::conj(m01);
    const amp c10 = std::conj(m10);
    const amp c11 = std::conj(m11);
    for (std::size_t r = 0; r < dim_; ++r) {
        amp* row = data_.data() + r * dim_;
        for (std::size_t cb = 0; cb < dim_; cb += 2 * step) {
            for (std::size_t c = cb; c < cb + step; ++c) {
                const amp a = row[c];
                const amp b = row[c + step];
                row[c] = c00 * a + c01 * b;
                row[c + step] = c10 * a + c11 * b;
            }
        }
    }
}

void density_matrix::apply_cx_fast(qubit_t control, qubit_t target) {
    QUORUM_EXPECTS(control < num_qubits_ && target < num_qubits_ &&
                   control != target);
    const std::size_t cmask = std::size_t{1} << control;
    const std::size_t tmask = std::size_t{1} << target;
    // CX is a basis permutation pi; rho -> pi rho pi^T. Swap rows then cols.
    for (std::size_t r = 0; r < dim_; ++r) {
        if ((r & cmask) != 0 && (r & tmask) == 0) {
            amp* row_a = data_.data() + r * dim_;
            amp* row_b = data_.data() + (r | tmask) * dim_;
            for (std::size_t c = 0; c < dim_; ++c) {
                std::swap(row_a[c], row_b[c]);
            }
        }
    }
    for (std::size_t r = 0; r < dim_; ++r) {
        amp* row = data_.data() + r * dim_;
        for (std::size_t c = 0; c < dim_; ++c) {
            if ((c & cmask) != 0 && (c & tmask) == 0) {
                std::swap(row[c], row[c | tmask]);
            }
        }
    }
}

void density_matrix::apply_thermal(qubit_t q, double gamma, double lambda) {
    QUORUM_EXPECTS(q < num_qubits_);
    QUORUM_EXPECTS(gamma >= 0.0 && gamma <= 1.0);
    QUORUM_EXPECTS(lambda >= 0.0 && lambda <= 1.0);
    if (gamma == 0.0 && lambda == 0.0) {
        return;
    }
    const std::size_t mask = std::size_t{1} << q;
    // Closed form on 2x2 sub-blocks indexed by the q bit of (row, col):
    //   rho_00' = rho_00 + gamma rho_11        (population decays to |0>)
    //   rho_11' = (1 - gamma) rho_11
    //   rho_01' = k rho_01,  rho_10' = k rho_10, k = sqrt((1-gamma)(1-lambda))
    const double keep = std::sqrt((1.0 - gamma) * (1.0 - lambda));
    for (std::size_t r = 0; r < dim_; ++r) {
        const bool rbit = (r & mask) != 0;
        amp* row = data_.data() + r * dim_;
        for (std::size_t c = 0; c < dim_; ++c) {
            const bool cbit = (c & mask) != 0;
            if (rbit != cbit) {
                row[c] *= keep;
            } else if (rbit) {
                // Handled jointly with the paired 00 entry below; scale here
                // and add the transfer when visiting the 00 entry.
                continue;
            }
        }
    }
    // Population transfer pass: for every (r, c) with both q bits set,
    // move gamma * rho_11 into the corresponding bit-cleared entry.
    for (std::size_t r = 0; r < dim_; ++r) {
        if ((r & mask) == 0) {
            continue;
        }
        for (std::size_t c = 0; c < dim_; ++c) {
            if ((c & mask) == 0) {
                continue;
            }
            const amp one_one = data_[r * dim_ + c];
            data_[(r & ~mask) * dim_ + (c & ~mask)] += gamma * one_one;
            data_[r * dim_ + c] = (1.0 - gamma) * one_one;
        }
    }
}

void density_matrix::apply_noisy_gate(gate_kind kind,
                                      std::span<const qubit_t> qubits,
                                      std::span<const double> params,
                                      const kernels::density_channels& noise) {
    apply_gate(kind, qubits, params);
    if (noise.p > 0.0) {
        depolarize(qubits, noise.p);
    }
    if (noise.gamma > 0.0 || noise.lambda > 0.0) {
        for (const qubit_t q : qubits) {
            apply_thermal(q, noise.gamma, noise.lambda);
        }
    }
}

namespace {

void expect_channels(const kernels::density_channels& noise) {
    QUORUM_EXPECTS(noise.p >= 0.0 && noise.p <= 1.0);
    QUORUM_EXPECTS(noise.gamma >= 0.0 && noise.gamma <= 1.0);
    QUORUM_EXPECTS(noise.lambda >= 0.0 && noise.lambda <= 1.0);
}

} // namespace

void density_matrix::apply_1q_channel(gate_kind kind, qubit_t q,
                                      std::span<const double> params,
                                      const kernels::density_channels& noise) {
    QUORUM_EXPECTS(gate_arity(kind) == 1);
    const qubit_t operand[] = {q};
    expect_operands(operand);
    expect_channels(noise);
    const util::cmatrix u = gate_matrix(kind, params);
    if (!kernels::density_1q(data_.data(), num_qubits_, u.data().data(), q,
                             noise)) {
        apply_noisy_gate(kind, operand, params, noise);
    }
}

void density_matrix::apply_cx_channel(qubit_t control, qubit_t target,
                                      const kernels::density_channels& noise) {
    const qubit_t operands[] = {control, target};
    expect_operands(operands);
    expect_channels(noise);
    if (!kernels::density_cx(data_.data(), num_qubits_, control, target,
                             noise)) {
        apply_noisy_gate(gate_kind::cx, operands, {}, noise);
    }
}

void density_matrix::apply_kraus(std::span<const util::cmatrix> kraus_ops,
                                 std::span<const qubit_t> qubits) {
    QUORUM_EXPECTS(!kraus_ops.empty());
    const std::vector<amp> original = data_;
    std::vector<amp> accumulated(data_.size());
    for (const util::cmatrix& op : kraus_ops) {
        data_ = original;
        apply_matrix(op, qubits);
        for (std::size_t i = 0; i < data_.size(); ++i) {
            accumulated[i] += data_[i];
        }
    }
    data_ = std::move(accumulated);
}

void density_matrix::depolarize(std::span<const qubit_t> qubits, double p) {
    expect_operands(qubits);
    QUORUM_EXPECTS(p >= 0.0 && p <= 1.0);
    if (p == 0.0) {
        return;
    }
    const std::size_t k = qubits.size();
    const std::size_t block = std::size_t{1} << k;
    std::vector<qubit_t> sorted(qubits.begin(), qubits.end());
    std::sort(sorted.begin(), sorted.end());

    if (k == num_qubits_) {
        // Depolarizing the whole register: rho -> (1-p) rho + p I/dim.
        const double mix = p / static_cast<double>(dim_);
        for (amp& value : data_) {
            value *= (1.0 - p);
        }
        for (std::size_t i = 0; i < dim_; ++i) {
            data_[i * dim_ + i] += mix;
        }
        return;
    }

    if (k == 1) {
        // Single-qubit fast path (the noisy runner's hot loop): one pass.
        //   same-bit blocks mix pairwise, opposite-bit blocks scale.
        const std::size_t mask = std::size_t{1} << qubits[0];
        const double keep = 1.0 - p;
        const double half_p = 0.5 * p;
        for (std::size_t r = 0; r < dim_; ++r) {
            if ((r & mask) != 0) {
                continue; // handled together with the partner row
            }
            amp* row0 = data_.data() + r * dim_;
            amp* row1 = data_.data() + (r | mask) * dim_;
            for (std::size_t c = 0; c < dim_; ++c) {
                if ((c & mask) != 0) {
                    continue;
                }
                const std::size_t c1 = c | mask;
                const amp block00 = row0[c];
                const amp block11 = row1[c1];
                const amp mixed = half_p * (block00 + block11);
                row0[c] = keep * block00 + mixed;
                row1[c1] = keep * block11 + mixed;
                row0[c1] *= keep;
                row1[c] *= keep;
            }
        }
        return;
    }

    const density_matrix reduced = partial_trace(qubits);
    const double mix = p / static_cast<double>(block);

    for (amp& value : data_) {
        value *= (1.0 - p);
    }
    // Add p * (I/2^k on `qubits`) ⊗ Tr_qubits(rho): entries where the
    // traced-out qubits agree between row and column.
    const std::vector<std::size_t> offsets = make_offsets(qubits);
    const std::size_t groups = dim_ >> k;
    for (std::size_t gr = 0; gr < groups; ++gr) {
        const std::size_t row_base = expand_index(gr, sorted);
        for (std::size_t gc = 0; gc < groups; ++gc) {
            const std::size_t col_base = expand_index(gc, sorted);
            const amp contribution = mix * reduced.data_[gr * groups + gc];
            for (std::size_t a = 0; a < block; ++a) {
                data_[(row_base + offsets[a]) * dim_ +
                      (col_base + offsets[a])] += contribution;
            }
        }
    }
}

void density_matrix::reset_qubit(qubit_t q) {
    QUORUM_EXPECTS(q < num_qubits_);
    const std::size_t mask = std::size_t{1} << q;
    std::vector<amp> next(data_.size());
    for (std::size_t r = 0; r < dim_; ++r) {
        for (std::size_t c = 0; c < dim_; ++c) {
            if (((r & mask) != 0) != (((c & mask)) != 0)) {
                continue; // coherences between outcomes vanish
            }
            next[(r & ~mask) * dim_ + (c & ~mask)] += data_[r * dim_ + c];
        }
    }
    data_ = std::move(next);
}

double density_matrix::probability_one(qubit_t q) const {
    QUORUM_EXPECTS(q < num_qubits_);
    const std::size_t mask = std::size_t{1} << q;
    double p = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) {
        if ((i & mask) != 0) {
            p += data_[i * dim_ + i].real();
        }
    }
    return p;
}

double density_matrix::trace_real() const {
    double sum = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) {
        sum += data_[i * dim_ + i].real();
    }
    return sum;
}

double density_matrix::purity() const {
    // Tr(rho^2) = sum_ij rho_ij rho_ji = sum_ij |rho_ij|^2 (Hermitian rho).
    double sum = 0.0;
    for (const amp& value : data_) {
        sum += std::norm(value);
    }
    return sum;
}

density_matrix density_matrix::partial_trace(
    std::span<const qubit_t> qubits) const {
    expect_operands(qubits);
    const std::size_t k = qubits.size();
    QUORUM_EXPECTS(k < num_qubits_);
    std::vector<qubit_t> sorted(qubits.begin(), qubits.end());
    std::sort(sorted.begin(), sorted.end());

    density_matrix reduced(num_qubits_ - k);
    std::fill(reduced.data_.begin(), reduced.data_.end(), amp{});
    const std::vector<std::size_t> offsets = make_offsets(sorted);
    const std::size_t block = std::size_t{1} << k;
    for (std::size_t r = 0; r < reduced.dim_; ++r) {
        const std::size_t row_base = expand_index(r, sorted);
        for (std::size_t c = 0; c < reduced.dim_; ++c) {
            const std::size_t col_base = expand_index(c, sorted);
            amp sum{};
            for (std::size_t a = 0; a < block; ++a) {
                sum += data_[(row_base + offsets[a]) * dim_ +
                             (col_base + offsets[a])];
            }
            reduced.data_[r * reduced.dim_ + c] = sum;
        }
    }
    return reduced;
}

void density_matrix::initialize_register(std::span<const qubit_t> qubits,
                                         std::span<const amp> amplitudes) {
    expect_operands(qubits);
    const std::size_t k = qubits.size();
    QUORUM_EXPECTS(amplitudes.size() == (std::size_t{1} << k));
    const std::size_t mask = make_mask(qubits);
    for (std::size_t r = 0; r < dim_; ++r) {
        for (std::size_t c = 0; c < dim_; ++c) {
            if ((r & mask) != 0 || (c & mask) != 0) {
                QUORUM_EXPECTS_MSG(std::norm(data_[r * dim_ + c]) <
                                       probability_epsilon,
                                   "initialize target register must be |0..0>");
            }
        }
    }
    const std::vector<std::size_t> offsets = make_offsets(qubits);
    std::vector<amp> next(data_.size());
    for (std::size_t r = 0; r < dim_; ++r) {
        if ((r & mask) != 0) {
            continue;
        }
        for (std::size_t c = 0; c < dim_; ++c) {
            if ((c & mask) != 0) {
                continue;
            }
            const amp base = data_[r * dim_ + c];
            if (std::norm(base) < 1e-300) {
                continue;
            }
            for (std::size_t j = 0; j < amplitudes.size(); ++j) {
                for (std::size_t l = 0; l < amplitudes.size(); ++l) {
                    next[(r | offsets[j]) * dim_ + (c | offsets[l])] =
                        base * amplitudes[j] * std::conj(amplitudes[l]);
                }
            }
        }
    }
    data_ = std::move(next);
}

double density_matrix::overlap(const density_matrix& other) const {
    QUORUM_EXPECTS(other.dim_ == dim_);
    // Tr(rho sigma) = sum_ij rho_ij sigma_ji.
    amp sum{};
    for (std::size_t r = 0; r < dim_; ++r) {
        for (std::size_t c = 0; c < dim_; ++c) {
            sum += data_[r * dim_ + c] * other.data_[c * dim_ + r];
        }
    }
    return sum.real();
}

} // namespace quorum::qsim
