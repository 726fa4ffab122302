#include "qsim/compiled_program.h"

#include <algorithm>

#include "qsim/bit_ops.h"
#include "util/contracts.h"

namespace quorum::qsim {

namespace {

/// Embeds a 2x2 matrix into the 4x4 space of a sorted qubit pair:
/// position 0 = the pair's low qubit (matrix LSB), 1 = the high qubit.
util::cmatrix embed_1q_in_pair(const util::cmatrix& u, std::size_t position) {
    util::cmatrix result(4, 4);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
            const std::size_t ia = i & 1u;
            const std::size_t ib = i >> 1;
            const std::size_t ja = j & 1u;
            const std::size_t jb = j >> 1;
            if (position == 0) {
                result(i, j) = ib == jb ? u(ia, ja) : 0.0;
            } else {
                result(i, j) = ia == ja ? u(ib, jb) : 0.0;
            }
        }
    }
    return result;
}

/// Reindexes a 4x4 matrix whose operand order was (high, low) onto the
/// canonical (low, high) bit order: swap the two index bits on both axes.
util::cmatrix swap_pair_order(const util::cmatrix& u) {
    const auto swap_bits = [](std::size_t i) {
        return ((i & 1u) << 1) | (i >> 1);
    };
    util::cmatrix result(4, 4);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
            result(i, j) = u(swap_bits(i), swap_bits(j));
        }
    }
    return result;
}

/// A unitary block under construction during fusion.
struct pending_block {
    std::vector<qubit_t> qubits; ///< sorted ascending (matrix LSB first)
    util::cmatrix matrix;
};

fused_op finish_block(pending_block&& block) {
    fused_op out;
    out.op = fused_op::kind::unitary;
    out.qubits = std::move(block.qubits);
    out.matrix = std::move(block.matrix);
    out.offsets = make_offsets(out.qubits);
    out.sorted_qubits = out.qubits;
    std::sort(out.sorted_qubits.begin(), out.sorted_qubits.end());
    return out;
}

bool contains(std::span<const qubit_t> qubits, qubit_t q) {
    return std::find(qubits.begin(), qubits.end(), q) != qubits.end();
}

bool is_subset(std::span<const qubit_t> sub, std::span<const qubit_t> super) {
    return std::all_of(sub.begin(), sub.end(),
                       [&super](qubit_t q) { return contains(super, q); });
}

bool overlaps(std::span<const qubit_t> a, std::span<const qubit_t> b) {
    return std::any_of(a.begin(), a.end(),
                       [&b](qubit_t q) { return contains(b, q); });
}

} // namespace

std::vector<fused_op> fuse_operations(std::span<const operation> ops) {
    std::vector<fused_op> out;
    std::vector<pending_block> pending;

    const auto flush = [&]() {
        for (pending_block& block : pending) {
            out.push_back(finish_block(std::move(block)));
        }
        pending.clear();
    };

    for (const operation& op : ops) {
        if (op.kind == op_kind::barrier) {
            continue;
        }
        if (op.kind == op_kind::reset || op.kind == op_kind::measure) {
            flush();
            fused_op structural;
            structural.op = op.kind == op_kind::reset ? fused_op::kind::reset
                                                      : fused_op::kind::measure;
            structural.qubits = op.qubits;
            structural.cbit = op.cbit;
            out.push_back(std::move(structural));
            continue;
        }
        QUORUM_EXPECTS_MSG(op.kind == op_kind::gate,
                           "fuse_operations accepts gates, resets, measures "
                           "and barriers only");
        if (op.gate == gate_kind::id) {
            continue; // the engines skip identity gates too
        }
        const std::size_t arity = op.qubits.size();
        util::cmatrix matrix = gate_matrix(op.gate, op.params);

        if (arity == 1) {
            const qubit_t q = op.qubits[0];
            bool merged = false;
            for (std::size_t i = pending.size(); i > 0; --i) {
                pending_block& block = pending[i - 1];
                if (!contains(block.qubits, q)) {
                    continue; // disjoint blocks commute exactly
                }
                if (block.qubits.size() == 1) {
                    block.matrix = matrix.multiply(block.matrix);
                } else {
                    const std::size_t position = block.qubits[0] == q ? 0 : 1;
                    block.matrix = embed_1q_in_pair(matrix, position)
                                       .multiply(block.matrix);
                }
                merged = true;
                break;
            }
            if (!merged) {
                pending.push_back(pending_block{{q}, std::move(matrix)});
            }
            continue;
        }

        if (arity == 2) {
            const qubit_t lo = std::min(op.qubits[0], op.qubits[1]);
            const qubit_t hi = std::max(op.qubits[0], op.qubits[1]);
            const std::vector<qubit_t> pair{lo, hi};
            util::cmatrix gate4 = op.qubits[0] == lo
                                      ? std::move(matrix)
                                      : swap_pair_order(matrix);
            // Collect mergeable blocks newer than the first blocking one.
            std::vector<std::size_t> collected;
            for (std::size_t i = pending.size(); i > 0; --i) {
                const pending_block& block = pending[i - 1];
                if (is_subset(block.qubits, pair)) {
                    collected.push_back(i - 1);
                } else if (overlaps(block.qubits, pair)) {
                    break; // cannot commute the new gate past this block
                }
            }
            util::cmatrix acc = util::cmatrix::identity(4);
            // collected is newest-first; apply in temporal (oldest-first)
            // order so acc = U_newest ... U_oldest.
            for (auto it = collected.rbegin(); it != collected.rend(); ++it) {
                const pending_block& block = pending[*it];
                const util::cmatrix embedded =
                    block.qubits.size() == 2
                        ? block.matrix
                        : embed_1q_in_pair(block.matrix,
                                           block.qubits[0] == lo ? 0 : 1);
                acc = embedded.multiply(acc);
            }
            // Erase collected blocks (indices are descending already).
            for (const std::size_t index : collected) {
                pending.erase(pending.begin() +
                              static_cast<std::ptrdiff_t>(index));
            }
            pending.push_back(pending_block{pair, gate4.multiply(acc)});
            continue;
        }

        // 3-qubit gates are standalone dense blocks. A gate that cannot
        // merge also cannot be emitted ahead of pending blocks it might
        // overlap, so fence everything first. The operand order is kept
        // as declared (matrix LSB = qubits[0]).
        flush();
        out.push_back(
            finish_block(pending_block{op.qubits, std::move(matrix)}));
    }
    flush();
    return out;
}

compiled_program compiled_program::compile(const circuit& c,
                                           const options& opt) {
    compiled_program program;
    program.num_qubits_ = c.num_qubits();
    program.num_clbits_ = c.num_clbits();
    program.options_ = opt;

    const std::vector<operation>& ops = c.ops();
    std::size_t cursor = 0;

    // Phase 1: leading initialize ops become per-sample prep slots.
    while (cursor < ops.size()) {
        const operation& op = ops[cursor];
        if (op.kind == op_kind::barrier) {
            ++cursor;
            continue;
        }
        if (op.kind != op_kind::initialize) {
            break;
        }
        prep_slot slot;
        slot.qubits = op.qubits;
        slot.register_mask = make_mask(op.qubits);
        slot.offsets = make_offsets(op.qubits);
        program.slots_.push_back(std::move(slot));
        ++cursor;
    }

    // Phase 2: the declared run of per-sample parameterized gate ops.
    std::size_t remaining_parameterized = opt.parameterized_ops;
    while (remaining_parameterized > 0) {
        QUORUM_EXPECTS_MSG(cursor < ops.size(),
                           "parameterized_ops exceeds the circuit length");
        const operation& op = ops[cursor];
        ++cursor;
        if (op.kind == op_kind::barrier) {
            continue;
        }
        QUORUM_EXPECTS_MSG(op.kind == op_kind::gate,
                           "the parameterized prefix must contain gates only");
        program.prefix_.push_back(op);
        program.prefix_param_count_ += gate_param_count(op.gate);
        --remaining_parameterized;
    }

    // Phase 3: the shared suffix — validated once, matrices precomputed.
    std::vector<bool> measured(c.num_qubits(), false);
    const auto check_not_measured = [&measured](const operation& op) {
        for (const qubit_t q : op.qubits) {
            QUORUM_EXPECTS_MSG(!measured[q],
                               "compiled programs require terminal "
                               "measurements per qubit");
        }
    };
    for (; cursor < ops.size(); ++cursor) {
        const operation& op = ops[cursor];
        if (op.kind == op_kind::barrier) {
            continue;
        }
        check_not_measured(op);
        compiled_op compiled;
        compiled.op = op;
        switch (op.kind) {
        case op_kind::gate:
            // id/x/cx have allocation-free engine fast paths; everything
            // else replays through its precomputed dense matrix. Multi-
            // qubit dense gates additionally get the prepared-kernel
            // operand metadata (validated here, once, instead of per
            // sample in apply_matrix).
            if (op.gate != gate_kind::id && op.gate != gate_kind::x &&
                op.gate != gate_kind::cx) {
                compiled.matrix = gate_matrix(op.gate, op.params);
                if (op.qubits.size() > 1) {
                    compiled.sorted_qubits = op.qubits;
                    std::sort(compiled.sorted_qubits.begin(),
                              compiled.sorted_qubits.end());
                    QUORUM_EXPECTS_MSG(
                        std::adjacent_find(compiled.sorted_qubits.begin(),
                                           compiled.sorted_qubits.end()) ==
                            compiled.sorted_qubits.end(),
                        "matrix operands must be distinct");
                    compiled.offsets = make_offsets(op.qubits);
                }
            }
            break;
        case op_kind::measure:
            measured[op.qubits[0]] = true;
            program.measures_.emplace_back(op.qubits[0], op.cbit);
            break;
        case op_kind::initialize:
            compiled.register_mask = make_mask(op.qubits);
            compiled.offsets = make_offsets(op.qubits);
            break;
        case op_kind::reset:
            break;
        case op_kind::barrier:
            break;
        }
        program.suffix_.push_back(std::move(compiled));
    }
    return program;
}

std::size_t compiled_program::suffix_gate_count() const noexcept {
    return static_cast<std::size_t>(
        std::count_if(suffix_.begin(), suffix_.end(),
                      [](const compiled_op& compiled) {
                          return compiled.op.kind == op_kind::gate;
                      }));
}

bool replays_identically(const operation& a, const operation& b) {
    return a.kind == b.kind && a.gate == b.gate && a.qubits == b.qubits &&
           a.params == b.params && a.init_amplitudes == b.init_amplitudes &&
           a.cbit == b.cbit;
}

bool replays_identically(const compiled_op& a, const compiled_op& b) {
    return replays_identically(a.op, b.op) &&
           a.matrix.rows() == b.matrix.rows() &&
           a.matrix.cols() == b.matrix.cols() &&
           a.matrix.data() == b.matrix.data();
}

std::size_t shared_suffix_ops(const compiled_program& a,
                              const compiled_program& b) {
    const std::size_t limit = std::min(a.suffix().size(), b.suffix().size());
    std::size_t shared = 0;
    while (shared < limit &&
           replays_identically(a.suffix()[shared], b.suffix()[shared])) {
        ++shared;
    }
    return shared;
}

std::size_t trailing_gate_run_start(const compiled_program& prog) {
    std::size_t start = prog.suffix().size();
    while (start > 0 &&
           prog.suffix()[start - 1].op.kind == op_kind::gate) {
        --start;
    }
    return start;
}

circuit compiled_program::materialize(std::span<const double> amplitudes,
                                      std::span<const double> prefix_params)
    const {
    QUORUM_EXPECTS_MSG(prefix_params.size() == prefix_param_count_,
                       "prefix param count mismatch");
    circuit c(num_qubits_, num_clbits_);
    for (const prep_slot& slot : slots_) {
        QUORUM_EXPECTS_MSG(amplitudes.size() ==
                               (std::size_t{1} << slot.qubits.size()),
                           "sample amplitude count does not match the "
                           "program's prep slots");
        c.initialize(slot.qubits, amplitudes);
    }
    std::size_t param_cursor = 0;
    for (const operation& op : prefix_) {
        const std::size_t count = gate_param_count(op.gate);
        c.append_gate(op.gate, op.qubits,
                      prefix_params.subspan(param_cursor, count));
        param_cursor += count;
    }
    for (const compiled_op& compiled : suffix_) {
        const operation& op = compiled.op;
        switch (op.kind) {
        case op_kind::gate:
            c.append_gate(op.gate, op.qubits, op.params);
            break;
        case op_kind::reset:
            c.reset(op.qubits[0]);
            break;
        case op_kind::measure:
            c.measure(op.qubits[0], op.cbit);
            break;
        case op_kind::initialize:
            c.initialize(op.qubits, op.init_amplitudes);
            break;
        case op_kind::barrier:
            break;
        }
    }
    return c;
}

} // namespace quorum::qsim
