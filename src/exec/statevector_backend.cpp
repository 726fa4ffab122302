#include "exec/statevector_backend.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "qml/observables.h"
#include "qml/swap_test.h"
#include "qsim/kernels.h"
#include "qsim/statevector_runner.h"
#include "util/contracts.h"

namespace quorum::exec {

namespace {

using qsim::amp;
using qsim::compiled_op;
using qsim::compiled_program;
using qsim::fused_op;
using qsim::gate_kind;
using qsim::op_kind;
using qsim::operation;
using qsim::qubit_t;
using qsim::statevector;

/// Lane replay storage (see run_lane_block): branch amplitudes, chi,
/// per-(branch, lane) weights and alive masks, and each lane's readouts.
/// Reached through 64-byte aligned views, so lane rows never straddle a
/// cache line.
struct lane_buffers {
    std::vector<double> re;
    std::vector<double> im;
    std::vector<double> chi_re;
    std::vector<double> chi_im;
    std::vector<double> weight;
    std::vector<std::uint64_t> alive;
    std::vector<double> fidelity;
    std::vector<double> p_one;
};

/// A 64-byte aligned view of `count` elements of `storage`, which grows
/// on first use and is reused after.
template <typename T>
T* aligned_view(std::vector<T>& storage, std::size_t count) {
    constexpr std::size_t line = 64;
    storage.resize(count + line / sizeof(T));
    const std::size_t offset =
        reinterpret_cast<std::uintptr_t>(storage.data()) % line;
    return storage.data() + (offset == 0 ? 0 : (line - offset) / sizeof(T));
}

/// Reusable per-batch buffers (one set per run_batch call, so the backend
/// itself stays stateless and thread-safe). `spare` is the branch arena:
/// retired branches park here with their amplitude buffers intact, so
/// the reset splits of later levels/samples assign into warm allocations
/// instead of copy-constructing a fresh 2^n vector per branch.
struct replay_buffers {
    std::vector<amp> slot_amplitudes;
    std::vector<qsim::branch> branches;
    std::vector<qsim::branch> next_branches;
    std::vector<qsim::branch> work;
    std::vector<qsim::branch> spare;
    std::vector<amp> scratch;
    qsim::statevector chi; ///< D†|psi> buffer (prep-overlap shortcut)
    lane_buffers lanes;
};

/// Retires a mixture into the spare pool (keeping every branch's buffer
/// alive for reuse) and clears it. Moved-from shells (states whose buffer
/// a one-branch already stole) carry no storage and are dropped, so every
/// pooled slot is a real warm buffer.
void recycle_branches(std::vector<qsim::branch>& mixture,
                      std::vector<qsim::branch>& spare) {
    for (qsim::branch& b : mixture) {
        if (b.state.dim() > 0) {
            spare.push_back(std::move(b));
        }
    }
    mixture.clear();
}

/// A branch whose statevector storage is drawn from the spare pool when
/// one is available: copy-assignment into the retired state reuses its
/// allocation (and is bit-identical to a fresh copy).
qsim::branch make_branch(std::vector<qsim::branch>& spare, double weight,
                         const qsim::statevector& state) {
    if (spare.empty()) {
        return qsim::branch{weight, state};
    }
    qsim::branch slot = std::move(spare.back());
    spare.pop_back();
    slot.weight = weight;
    slot.state = state;
    return slot;
}

/// A branch shell drawn from the spare pool (empty when the pool is dry):
/// its statevector is re-initialised by the caller via assign_zero_state,
/// which reuses the retired amplitude buffer.
qsim::branch take_branch(std::vector<qsim::branch>& spare) {
    if (spare.empty()) {
        return qsim::branch{1.0, statevector()};
    }
    qsim::branch slot = std::move(spare.back());
    spare.pop_back();
    return slot;
}

/// Copies a mixture into `dst`, drawing every destination branch's storage
/// from the spare pool — bit-identical to `dst = src` but allocation-free
/// once the pool is warm (plain vector copy-assignment would destroy
/// excess slots when shrinking and copy-construct fresh 2^n buffers when
/// growing).
void copy_mixture(const std::vector<qsim::branch>& src,
                  std::vector<qsim::branch>& dst,
                  std::vector<qsim::branch>& spare) {
    recycle_branches(dst, spare);
    dst.reserve(src.size());
    for (const qsim::branch& b : src) {
        dst.push_back(make_branch(spare, b.weight, b.state));
    }
}

/// Largest dense block (2^k amplitudes) any suffix op applies — the
/// scratch size the prepared kernels need. The overlap tail's adjoint ops
/// are drawn from the suffix, so this bound covers them too.
std::size_t max_dense_block(const compiled_program& prog) {
    std::size_t max_block = 2;
    for (const compiled_op& compiled : prog.suffix()) {
        max_block = std::max(max_block, compiled.matrix.rows());
    }
    return max_block;
}

/// Applies one unfused suffix op to a state — the same kernels (and hence
/// the same floating-point results) statevector::apply_gate dispatches to,
/// minus the per-call validation, gate-matrix construction and operand
/// metadata recomputation (precomputed at compile time). `scratch` must
/// hold max_dense_block(prog) amplitudes.
void apply_compiled_op(statevector& state, const compiled_op& compiled,
                       std::span<amp> scratch) {
    const operation& op = compiled.op;
    switch (op.gate) {
    case gate_kind::id:
        return;
    case gate_kind::x:
    case gate_kind::cx:
        state.apply_gate(op.gate, op.qubits, op.params);
        return;
    default:
        break;
    }
    if (op.qubits.size() == 1) {
        state.apply_1q(compiled.matrix, op.qubits[0]);
    } else {
        state.apply_matrix_prepared(compiled.matrix, compiled.sorted_qubits,
                                    compiled.offsets, scratch);
    }
}

/// Splits every branch on a reset of qubit `q` — verbatim the exact
/// runner's mixture semantics (zero-probability branches pruned). The
/// outgoing mixture's zero-branches draw their storage from the spare
/// pool (the states retired by earlier splits), so after the first level
/// of the first sample a batch replays reset splits allocation-free.
void split_on_reset(std::vector<qsim::branch>& branches,
                    std::vector<qsim::branch>& next,
                    std::vector<qsim::branch>& spare, qubit_t q) {
    recycle_branches(next, spare);
    next.reserve(branches.size() * 2);
    for (qsim::branch& b : branches) {
        const double p_one = b.state.probability_one(q);
        const double p_zero = 1.0 - p_one;
        if (p_zero > qsim::probability_epsilon) {
            qsim::branch zero_branch = make_branch(spare, b.weight * p_zero,
                                                   b.state);
            zero_branch.state.collapse(q, false);
            next.push_back(std::move(zero_branch));
        }
        if (p_one > qsim::probability_epsilon) {
            qsim::branch one_branch{b.weight * p_one, std::move(b.state)};
            one_branch.state.collapse(q, true);
            const qubit_t operand[] = {q};
            one_branch.state.apply_gate(gate_kind::x, operand);
            next.push_back(std::move(one_branch));
        }
    }
    branches.swap(next);
}

/// Prepares one sample's initial pure state into `state` (reusing its
/// buffer): |0..0>, prep slots filled with the sample amplitudes,
/// parameterized prefix applied. Bit-identical to constructing a fresh
/// statevector, but allocation-free once `state` has warm capacity.
void prepare_state_into(const compiled_program& prog, const sample& s,
                        replay_buffers& buffers, statevector& state) {
    state.assign_zero_state(prog.num_qubits());
    if (!prog.slots().empty()) {
        buffers.slot_amplitudes.assign(s.amplitudes.begin(),
                                       s.amplitudes.end());
        for (const qsim::prep_slot& slot : prog.slots()) {
            state.initialize_register_prepared(buffers.slot_amplitudes,
                                               slot.register_mask,
                                               slot.offsets);
        }
    }
    std::size_t cursor = 0;
    for (const operation& op : prog.prefix()) {
        const std::size_t count = qsim::gate_param_count(op.gate);
        state.apply_gate(op.gate, op.qubits,
                         s.prefix_params.subspan(cursor, count));
        cursor += count;
    }
}

/// Seeds a one-branch mixture with a sample's prepared state, drawing the
/// branch's storage from the spare pool.
void seed_mixture(const compiled_program& prog, const sample& s,
                  replay_buffers& buffers) {
    recycle_branches(buffers.branches, buffers.spare);
    qsim::branch root = take_branch(buffers.spare);
    root.weight = 1.0;
    prepare_state_into(prog, s, buffers, root.state);
    buffers.branches.push_back(std::move(root));
}

/// Evolves a branch mixture through suffix ops [first, last) of `prog` —
/// the same op-by-op order statevector_runner::run_exact would use on the
/// original circuit, so the mixture stays bit-identical however the range
/// is chunked.
void apply_suffix_ops(const compiled_program& prog,
                      std::vector<qsim::branch>& branches,
                      std::vector<qsim::branch>& next,
                      std::vector<qsim::branch>& spare, std::span<amp> scratch,
                      std::size_t first, std::size_t last) {
    for (std::size_t index = first; index < last; ++index) {
        const compiled_op& compiled = prog.suffix()[index];
        const operation& op = compiled.op;
        switch (op.kind) {
        case op_kind::gate:
            for (qsim::branch& b : branches) {
                apply_compiled_op(b.state, compiled, scratch);
            }
            break;
        case op_kind::initialize:
            for (qsim::branch& b : branches) {
                b.state.initialize_register_prepared(op.init_amplitudes,
                                                     compiled.register_mask,
                                                     compiled.offsets);
            }
            break;
        case op_kind::reset:
            split_on_reset(branches, next, spare, op.qubits[0]);
            break;
        case op_kind::measure:
            break; // recorded in prog.measures() at compile time
        case op_kind::barrier:
            break;
        }
    }
}

/// Exact replay of suffix ops [0, body_end) from a fresh prepared state.
void replay_exact(const compiled_program& prog, const sample& s,
                  replay_buffers& buffers, std::size_t body_end) {
    seed_mixture(prog, s, buffers);
    apply_suffix_ops(prog, buffers.branches, buffers.next_branches,
                     buffers.spare, buffers.scratch, 0, body_end);
}

/// SWAP-test short-circuit for prep-overlap programs. The suffix splits at
/// the last structural op into a body (state prep + encoder + resets,
/// evolved as a branch mixture) and a trailing all-gate tail (the decoder
/// D(θ)). Since <psi|D phi_b> == <D†psi|phi_b>, the tail's ADJOINT is
/// applied once per sample to the reference state and no reset branch is
/// ever evolved through the decoder — the per-level work collapses to one
/// inner product per branch.
struct overlap_tail {
    std::size_t body_end = 0;
    /// Tail ops in reverse circuit order with adjoint matrices (id/x/cx
    /// are self-adjoint and keep their fast paths).
    std::vector<compiled_op> adjoint_ops;
};

overlap_tail make_overlap_tail(const compiled_program& prog) {
    QUORUM_EXPECTS_MSG(prog.slots().size() >= 1 &&
                           prog.slots()[0].qubits.size() ==
                               prog.num_qubits(),
                       "prep-overlap programs must initialize the full "
                       "register per prep slot");
    overlap_tail tail;
    tail.body_end = qsim::trailing_gate_run_start(prog);
    tail.adjoint_ops.reserve(prog.suffix().size() - tail.body_end);
    for (std::size_t i = prog.suffix().size(); i > tail.body_end; --i) {
        compiled_op adjoint = prog.suffix()[i - 1];
        if (adjoint.matrix.rows() != 0) {
            adjoint.matrix = adjoint.matrix.adjoint();
        }
        tail.adjoint_ops.push_back(std::move(adjoint));
    }
    return tail;
}

/// D†|psi> into buffers.chi: the sample's own prep amplitudes evolved
/// through the adjoint tail. Same normalisation validation as
/// from_amplitudes, but reusing the chi and slot-amplitude buffers.
void reference_through_tail(const overlap_tail& tail, const sample& s,
                            replay_buffers& buffers) {
    buffers.slot_amplitudes.assign(s.amplitudes.begin(), s.amplitudes.end());
    buffers.chi.assign_amplitudes(buffers.slot_amplitudes);
    for (const compiled_op& compiled : tail.adjoint_ops) {
        apply_compiled_op(buffers.chi, compiled, buffers.scratch);
    }
}

/// SWAP-test P(1) over the pre-decoder mixture:
/// fidelity = sum_b w_b |<chi|phi_b>|^2 with chi = D†|psi>.
double overlap_p1(const statevector& chi,
                  const std::vector<qsim::branch>& branches) {
    const std::span<const amp> reference = chi.amplitudes();
    double fidelity = 0.0;
    for (const qsim::branch& b : branches) {
        const std::span<const amp> state = b.state.amplitudes();
        amp inner{};
        for (std::size_t i = 0; i < state.size(); ++i) {
            inner += std::conj(reference[i]) * state[i];
        }
        fidelity += b.weight * std::norm(inner);
    }
    return qml::swap_test_p1_from_overlap(fidelity);
}

/// Readout over the final mixture (see readout_kind for semantics).
/// prep_overlap_p1 never reaches this — it takes the short-circuit path.
double read_out(const readout_spec& spec, const compiled_program& prog,
                const std::vector<qsim::branch>& branches) {
    switch (spec.kind) {
    case readout_kind::cbit_probability: {
        for (const auto& [qubit, bit] : prog.measures()) {
            if (bit == spec.cbit) {
                double p = 0.0;
                for (const qsim::branch& b : branches) {
                    p += b.weight * b.state.probability_one(qubit);
                }
                return p;
            }
        }
        throw util::contract_error("no measurement wrote the requested cbit");
    }
    case readout_kind::prep_overlap_p1:
        throw util::contract_error(
            "prep-overlap readouts take the short-circuit path");
    case readout_kind::excited_population: {
        double population = 0.0;
        for (const qsim::branch& b : branches) {
            for (const qubit_t q : spec.qubits) {
                population += b.weight * b.state.probability_one(q);
            }
        }
        return population;
    }
    case readout_kind::z_probability: {
        double z_value = 0.0;
        for (const qsim::branch& b : branches) {
            z_value += b.weight * qml::z_expectation(b.state, spec.qubits[0]);
        }
        return qml::z_to_probability(z_value);
    }
    }
    throw util::contract_error("unknown readout kind");
}

/// Everything the exact/binomial paths precompute per program: where the
/// branch-mixture body ends and, for prep-overlap programs, the adjoint
/// decoder tail.
struct program_plan {
    std::size_t body_end = 0;
    bool shortcut = false;
    overlap_tail tail;
};

program_plan make_plan(const program& prog) {
    program_plan plan;
    plan.shortcut = prog.readout.kind == readout_kind::prep_overlap_p1;
    if (plan.shortcut) {
        plan.tail = make_overlap_tail(prog.circuit);
        plan.body_end = plan.tail.body_end;
    } else {
        plan.body_end = prog.circuit.suffix().size();
    }
    return plan;
}

void check_probability_readout(const readout_spec& spec, sampling mode) {
    QUORUM_EXPECTS_MSG(mode == sampling::exact ||
                           spec.kind == readout_kind::cbit_probability ||
                           spec.kind == readout_kind::prep_overlap_p1,
                       "binomial sampling applies to probability "
                       "readouts only");
}

/// Applies one fused op's unitary block.
void apply_fused_unitary(statevector& state, const fused_op& op,
                         std::span<amp> scratch) {
    if (op.qubits.size() == 1) {
        state.apply_1q(op.matrix, op.qubits[0]);
    } else {
        state.apply_matrix_prepared(op.matrix, op.sorted_qubits, op.offsets,
                                    scratch);
    }
}

/// Everything the fused multi-level path precomputes per FAMILY: one
/// program_plan per level, fork points, the shared-decoder-tail flag and
/// the scratch size. run_batch_levels builds one per call; a level or
/// group session builds one per family at creation and keeps it.
struct family_plan {
    std::vector<program_plan> plans;
    /// fork[k] = number of leading suffix ops level k shares with level
    /// k-1 (state prep + encoder + the nested reset prefix for Quorum
    /// families), capped at both levels' branch-mixture bodies.
    std::vector<std::size_t> fork;
    /// One reference evolution D†|psi> serves every level when all levels
    /// short-circuit through the same decoder tail (Quorum shares one θ
    /// across compression levels).
    bool shared_tail = false;
    std::size_t scratch_size = 2;
    /// Branches a lane replay of the family holds after its last reset,
    /// or 0 when the family takes the per-sample path (see lane_slots).
    std::size_t lane_slots = 0;
};

/// Lane replay (ARCHITECTURE.md Layer 4). A block of at least lane_cutoff
/// samples (or a group session's groups) replays in lanes; smaller
/// remainders replay per sample: one sample in a padded lane block
/// measured no faster than alone, two already 1.7x faster
/// (bench_exec_batch: bm_family_lanes vs bm_family_per_sample).
constexpr std::size_t lane_cutoff = 2;

/// Memory cap of a lane block: at most this many branch rows (2^n
/// amplitudes times the branches), 1 MiB of lane amplitudes. Larger
/// families replay per sample.
constexpr std::size_t lane_max_rows = 8192;

/// True when a lane kernel applies `compiled`: id, x, cx or a 1q matrix.
bool lane_gate(const compiled_op& compiled) {
    const operation& op = compiled.op;
    return op.kind == op_kind::gate &&
           (op.gate == gate_kind::id || op.gate == gate_kind::x ||
            op.gate == gate_kind::cx ||
            (op.qubits.size() == 1 && compiled.matrix.rows() == 2));
}

/// True when a lane block applies the lane gate `compiled` through its
/// 1q matrix (not a fast path).
bool lane_matrix_gate(const compiled_op& compiled) {
    const gate_kind gate = compiled.op.gate;
    return compiled.op.kind == op_kind::gate && gate != gate_kind::id &&
           gate != gate_kind::x && gate != gate_kind::cx;
}

/// True when a lane block applies the lane-covered ops `a` and `b` alike
/// but for a 1q gate's matrix: the same kind, gate class (id, x, cx or a
/// 1q matrix) and qubits.
bool same_lane_op(const compiled_op& a, const compiled_op& b) {
    if (a.op.kind != b.op.kind) {
        return false;
    }
    if (a.op.kind == op_kind::barrier) {
        return true;
    }
    return a.op.qubits == b.op.qubits &&
           (a.op.kind != op_kind::gate || a.op.gate == b.op.gate ||
            (lane_matrix_gate(a) && lane_matrix_gate(b)));
}

/// The branch count a lane replay of the family ends with, or 0 when the
/// AVX2 kernels are not active or the family is outside lane coverage:
/// one full-register prep slot, no parameterized prefix, every level on
/// the overlap shortcut with one shared tail, nested levels (each forks
/// where the previous level's body ends), only id/x/cx/1q-matrix gates,
/// resets and barriers, and at most lane_max_rows branch rows.
std::size_t lane_slots(std::span<const program> levels,
                       const family_plan& family) {
    const compiled_program& head = levels[0].circuit;
    if (qsim::kernels::active_isa() != qsim::kernels::isa::avx2 ||
        !family.shared_tail || head.slots().size() != 1 ||
        !head.prefix().empty()) {
        return 0;
    }
    const std::size_t dim = std::size_t{1} << head.num_qubits();
    std::size_t slots = 1;
    std::size_t pos = 0;
    for (std::size_t k = 0; k < levels.size(); ++k) {
        if (k > 0 && family.fork[k] != family.plans[k - 1].body_end) {
            return 0;
        }
        for (; pos < family.plans[k].body_end; ++pos) {
            const compiled_op& compiled = levels[k].circuit.suffix()[pos];
            if (compiled.op.kind == op_kind::reset) {
                slots *= 2;
                if (slots * dim > lane_max_rows) {
                    return 0;
                }
            } else if (compiled.op.kind != op_kind::barrier &&
                       !lane_gate(compiled)) {
                return 0;
            }
        }
    }
    for (const compiled_op& compiled : family.plans[0].tail.adjoint_ops) {
        if (!lane_gate(compiled)) {
            return 0;
        }
    }
    return dim > lane_max_rows ? 0 : slots;
}

family_plan plan_family(std::span<const program> levels, sampling mode) {
    const std::size_t count = levels.size();
    family_plan family;
    family.plans.reserve(count);
    for (const program& level : levels) {
        check_probability_readout(level.readout, mode);
        family.plans.push_back(make_plan(level));
        family.scratch_size = std::max(family.scratch_size,
                                       max_dense_block(level.circuit));
    }
    family.fork.assign(count, 0);
    for (std::size_t k = 1; k < count; ++k) {
        family.fork[k] =
            std::min({qsim::shared_suffix_ops(levels[k - 1].circuit,
                                              levels[k].circuit),
                      family.plans[k - 1].body_end,
                      family.plans[k].body_end});
    }
    family.shared_tail = std::all_of(
        family.plans.begin(), family.plans.end(),
        [](const program_plan& plan) { return plan.shortcut; });
    for (std::size_t k = 1; family.shared_tail && k < count; ++k) {
        const auto& a = family.plans[0].tail.adjoint_ops;
        const auto& b = family.plans[k].tail.adjoint_ops;
        family.shared_tail = a.size() == b.size();
        for (std::size_t j = 0; family.shared_tail && j < a.size(); ++j) {
            family.shared_tail = qsim::replays_identically(a[j], b[j]);
        }
    }
    family.lane_slots = lane_slots(levels, family);
    return family;
}

/// The ops a lane block applies for a lane-covered family, in its order:
/// the adjoint decoder tail on chi, then each level's body past the
/// previous level's.
std::vector<const compiled_op*> lane_ops(std::span<const program> levels,
                                         const family_plan& family) {
    std::vector<const compiled_op*> ops;
    for (const compiled_op& compiled : family.plans[0].tail.adjoint_ops) {
        ops.push_back(&compiled);
    }
    std::size_t pos = 0;
    for (std::size_t k = 0; k < levels.size(); ++k) {
        for (; pos < family.plans[k].body_end; ++pos) {
            ops.push_back(&levels[k].circuit.suffix()[pos]);
        }
    }
    return ops;
}

/// Per-lane matrices for one lane block of several families: one entry
/// per 1q-matrix op, in lane_ops order.
using lane_matrix_table = std::vector<qsim::kernels::lane_1q_matrices>;

/// The lane blocks of a group session over `families`: block b holds
/// families [b * lane_width, (b + 1) * lane_width), family first + l in
/// lane l and the block's first family in its spare lanes. Returns one
/// table per block, or none when the families do not share one lane
/// shape: every family lane-covered, with the same register, prep
/// offsets, level count and level ends, and op by op (lane_ops) the same
/// kind, gate class and qubits.
std::vector<lane_matrix_table>
group_lane_tables(std::span<const std::vector<program>> families,
                  std::span<const family_plan> plans) {
    const std::vector<program>& head = families[0];
    const family_plan& shape = plans[0];
    if (shape.lane_slots == 0) {
        return {};
    }
    const std::vector<const compiled_op*> shape_ops = lane_ops(head, shape);
    std::vector<std::vector<const compiled_op*>> ops(families.size());
    for (std::size_t g = 0; g < families.size(); ++g) {
        const std::vector<program>& family = families[g];
        bool same = plans[g].lane_slots == shape.lane_slots &&
                    family.size() == head.size() &&
                    family[0].circuit.num_qubits() ==
                        head[0].circuit.num_qubits() &&
                    family[0].circuit.slots()[0].offsets ==
                        head[0].circuit.slots()[0].offsets;
        for (std::size_t k = 0; same && k < family.size(); ++k) {
            same = plans[g].plans[k].body_end == shape.plans[k].body_end;
        }
        if (same) {
            ops[g] = lane_ops(family, plans[g]);
            same = ops[g].size() == shape_ops.size();
        }
        for (std::size_t i = 0; same && i < shape_ops.size(); ++i) {
            same = same_lane_op(*ops[g][i], *shape_ops[i]);
        }
        if (!same) {
            return {};
        }
    }
    constexpr std::size_t width = qsim::kernels::lane_width;
    const auto matrix_ops = static_cast<std::size_t>(
        std::count_if(shape_ops.begin(), shape_ops.end(),
                      [](const compiled_op* op) {
                          return lane_matrix_gate(*op);
                      }));
    std::vector<lane_matrix_table> tables;
    for (std::size_t first = 0; first < families.size(); first += width) {
        lane_matrix_table table(matrix_ops);
        for (std::size_t lane = 0; lane < width; ++lane) {
            const std::size_t g =
                first + lane < families.size() ? first + lane : first;
            std::size_t entry = 0;
            for (const compiled_op* op : ops[g]) {
                if (lane_matrix_gate(*op)) {
                    table[entry++].set(lane, op->matrix.data().data());
                }
            }
        }
        tables.push_back(std::move(table));
    }
    return tables;
}

/// The 1q matrices of a lane block whose lanes share one family (a
/// bucket): every lane applies the op's own.
struct shared_lane_matrices {
    void apply(double* re, double* im, std::size_t rows,
               const compiled_op& compiled) {
        qsim::kernels::lanes_1q(re, im, rows, compiled.matrix.data().data(),
                                compiled.op.qubits[0]);
    }
};

/// The 1q matrices of a group block: each lane applies its own family's,
/// read from the block's table in lane_ops order.
struct per_lane_matrices {
    const qsim::kernels::lane_1q_matrices* next;

    void apply(double* re, double* im, std::size_t rows,
               const compiled_op& compiled) {
        qsim::kernels::lanes_1q_each(re, im, rows, *next++,
                                     compiled.op.qubits[0]);
    }
};

/// Applies one lane-covered gate to every lane over rows [0, rows), a 1q
/// matrix through `matrices`.
template <typename Matrices>
void apply_lane_gate(double* re, double* im, std::size_t rows,
                     const compiled_op& compiled, Matrices& matrices) {
    const operation& op = compiled.op;
    switch (op.gate) {
    case gate_kind::id:
        return;
    case gate_kind::x:
        qsim::kernels::lanes_x(re, im, rows, op.qubits[0]);
        return;
    case gate_kind::cx:
        qsim::kernels::lanes_cx(re, im, rows, op.qubits[0], op.qubits[1]);
        return;
    default:
        matrices.apply(re, im, rows, compiled);
        return;
    }
}

/// Replays rows [first, first + count) of a batch as one lane block,
/// count <= lane_width, writing out[] as the per-sample replay does: lane
/// l evaluates samples[first + l], drawing from that sample's level_gens.
/// Every lane runs the ops of `levels`; its 1q matrices come from
/// `matrices`, `levels`' own for a bucket of one family or lane l's
/// family's for a block of a group session (see group_lane_tables). The
/// two are template arguments, so a bucket block makes the same kernel
/// calls with or without group sessions. Each lane does what
/// replay_sample does for a nested family, in the same order: the
/// prepared state and chi = D†|psi>, the nested level bodies with every
/// reset branch in a fixed slot (2s for outcome 0 and 2s + 1 for outcome
/// 1 of slot s, so the alive slots come in the per-sample path's branch
/// order), and per level the overlap readout. Spare lanes replay the
/// block's first sample and are dropped. Binomial draws come last,
/// sample by sample and level by level, as the per-sample path makes
/// them.
template <typename Matrices>
void run_lane_block(const engine_config& config,
                    std::span<const program> levels,
                    const family_plan& family, Matrices matrices,
                    lane_buffers& lanes, std::span<const sample> samples,
                    std::size_t first, std::size_t count,
                    std::span<double> out) {
    constexpr std::size_t width = qsim::kernels::lane_width;
    const std::size_t level_count = levels.size();
    const compiled_program& head = levels[0].circuit;
    const std::size_t dim = std::size_t{1} << head.num_qubits();
    const std::size_t rows = family.lane_slots * dim;
    double* re = aligned_view(lanes.re, rows * width);
    double* im = aligned_view(lanes.im, rows * width);
    double* chi_re = aligned_view(lanes.chi_re, dim * width);
    double* chi_im = aligned_view(lanes.chi_im, dim * width);
    double* weight = aligned_view(lanes.weight, family.lane_slots * width);
    std::uint64_t* alive = aligned_view(lanes.alive,
                                        family.lane_slots * width);
    double* fidelity = aligned_view(lanes.fidelity, width);
    lanes.p_one.resize(width * level_count);

    // |0..0> with the prep slot filled as initialize_register_prepared
    // writes it, (1, 0) * (a_j, 0), and chi = (a_j, +0.0) with
    // assign_amplitudes' normalisation check.
    const std::vector<std::size_t>& offsets = head.slots()[0].offsets;
    const amp base{1.0};
    for (std::size_t lane = 0; lane < width; ++lane) {
        const sample& s = samples[first + (lane < count ? lane : 0)];
        double norm = 0.0;
        for (const double a : s.amplitudes) {
            norm += std::norm(amp{a});
        }
        QUORUM_EXPECTS_MSG(std::abs(norm - 1.0) < 1e-9,
                           "amplitudes must be normalised");
        for (std::size_t j = 0; j < dim; ++j) {
            const amp value = base * amp{s.amplitudes[j]};
            re[offsets[j] * width + lane] = value.real();
            im[offsets[j] * width + lane] = value.imag();
            chi_re[j * width + lane] = s.amplitudes[j];
            chi_im[j * width + lane] = 0.0;
        }
        weight[lane] = 1.0;
        alive[lane] = ~std::uint64_t{0};
    }
    for (const compiled_op& compiled : family.plans[0].tail.adjoint_ops) {
        apply_lane_gate(chi_re, chi_im, dim, compiled, matrices);
    }

    std::size_t slots = 1;
    std::size_t pos = 0;
    for (std::size_t k = 0; k < level_count; ++k) {
        for (; pos < family.plans[k].body_end; ++pos) {
            const compiled_op& compiled = levels[k].circuit.suffix()[pos];
            if (compiled.op.kind == op_kind::reset) {
                qsim::kernels::lanes_reset(re, im, dim, slots,
                                           compiled.op.qubits[0], weight,
                                           alive);
                slots *= 2;
            } else if (compiled.op.kind == op_kind::gate) {
                apply_lane_gate(re, im, slots * dim, compiled, matrices);
            }
        }
        qsim::kernels::lanes_overlap(chi_re, chi_im, re, im, dim, slots,
                                     weight, alive, fidelity);
        for (std::size_t lane = 0; lane < count; ++lane) {
            lanes.p_one[lane * level_count + k] =
                qml::swap_test_p1_from_overlap(fidelity[lane]);
        }
    }
    for (std::size_t lane = 0; lane < count; ++lane) {
        const sample& s = samples[first + lane];
        for (std::size_t k = 0; k < level_count; ++k) {
            out[(first + lane) * level_count + k] =
                report_probability(config,
                                   s.level_gens.empty() ? nullptr
                                                        : s.level_gens[k],
                                   lanes.p_one[lane * level_count + k]);
        }
    }
}

/// The per-sample family replay of one sample, out[k] per level. The
/// trunk mixture holds the ops every remaining level still shares; each
/// level forks off it (or reads it directly when its whole body is
/// shared, as in nested reset families). Bit-identical to per-level
/// run_batch.
void replay_sample(const engine_config& config,
                   std::span<const program> levels, const family_plan& family,
                   replay_buffers& buffers, const sample& s,
                   std::span<double> out) {
    const std::size_t count = levels.size();
    seed_mixture(levels[0].circuit, s, buffers);
    std::size_t trunk_pos = 0;
    if (family.shared_tail) {
        reference_through_tail(family.plans[0].tail, s, buffers);
    }
    for (std::size_t k = 0; k < count; ++k) {
        const program& level = levels[k];
        if (k + 1 < count) {
            const std::size_t target =
                std::min(family.fork[k + 1], family.plans[k].body_end);
            if (target > trunk_pos) {
                apply_suffix_ops(level.circuit, buffers.branches,
                                 buffers.next_branches, buffers.spare,
                                 buffers.scratch, trunk_pos, target);
                trunk_pos = target;
            }
        }
        const std::vector<qsim::branch>* final_branches = &buffers.branches;
        if (trunk_pos < family.plans[k].body_end) {
            // The fork copy draws its storage from the spare pool —
            // the slots (and their amplitude buffers) previous
            // levels' forks left behind.
            copy_mixture(buffers.branches, buffers.work, buffers.spare);
            apply_suffix_ops(level.circuit, buffers.work,
                             buffers.next_branches, buffers.spare,
                             buffers.scratch, trunk_pos,
                             family.plans[k].body_end);
            final_branches = &buffers.work;
        }
        double p_one = 0.0;
        if (family.plans[k].shortcut) {
            if (!family.shared_tail) {
                reference_through_tail(family.plans[k].tail, s, buffers);
            }
            p_one = overlap_p1(buffers.chi, *final_branches);
        } else {
            p_one = read_out(level.readout, level.circuit, *final_branches);
        }
        out[k] = report_probability(
            config, s.level_gens.empty() ? nullptr : s.level_gens[k], p_one);
        if (k + 1 < count && trunk_pos > family.fork[k + 1]) {
            // The trunk evolved past the next level's fork point (only
            // possible for non-nested level orderings): rebuild it
            // along the next level's ops — bit-identical to a fresh
            // per-level replay, just without the sharing.
            seed_mixture(levels[k + 1].circuit, s, buffers);
            apply_suffix_ops(levels[k + 1].circuit, buffers.branches,
                             buffers.next_branches, buffers.spare,
                             buffers.scratch, 0, family.fork[k + 1]);
            trunk_pos = family.fork[k + 1];
        }
    }
}

/// The fused exact/binomial family replay over a precomputed plan:
/// blocks of lane_width samples replay in lanes while at least
/// lane_cutoff samples remain (lane-covered families on the AVX2 kernels
/// only), the rest per sample. Bit-identical to per-level run_batch
/// either way, and allocation-free across calls once `buffers` is warm,
/// which the sessions keep across run() calls.
void run_family_planned(const engine_config& config,
                        std::span<const program> levels,
                        const family_plan& family, replay_buffers& buffers,
                        std::span<const sample> samples,
                        std::span<double> out) {
    const std::size_t count = levels.size();
    buffers.scratch.resize(family.scratch_size); // no-op once warm
    std::size_t first = 0;
    if (family.lane_slots != 0) {
        while (samples.size() - first >= lane_cutoff) {
            const std::size_t block =
                std::min(qsim::kernels::lane_width, samples.size() - first);
            run_lane_block(config, levels, family, shared_lane_matrices{},
                           buffers.lanes, samples, first, block, out);
            first += block;
        }
    }
    for (std::size_t i = first; i < samples.size(); ++i) {
        replay_sample(config, levels, family, buffers, samples[i],
                      out.subspan(i * count, count));
    }
}

/// The statevector session: family plan computed once, replay buffers
/// (branch arena, scratch, chi) persistent across run() calls — a
/// single-sample push at steady state performs zero allocations.
class statevector_level_session final : public level_session {
public:
    statevector_level_session(engine_config config,
                              std::vector<program> family)
        : config_(std::move(config)), family_(std::move(family)),
          plan_((validate_level_family(family_),
                 plan_family(family_, config_.sampling_mode))) {}

    [[nodiscard]] std::span<const program> family() const noexcept override {
        return family_;
    }

    void run(std::span<const sample> samples,
             std::span<double> out) override {
        validate_level_samples(family_, samples, out,
                               config_.sampling_mode != sampling::exact);
        run_family_planned(config_, family_, plan_, buffers_, samples, out);
    }

private:
    engine_config config_;
    std::vector<program> family_;
    family_plan plan_;
    replay_buffers buffers_;
};

/// The statevector group session (ARCHITECTURE.md Layer 4). Families of
/// one lane shape replay lane_width groups per block through
/// run_lane_block while at least lane_cutoff groups remain; the rest, and
/// every group when the families do not share a lane shape, replay per
/// family as one-sample level sessions do. Plans and lane tables are
/// built once and the buffers kept, so a warm run allocates nothing.
class statevector_group_session final : public group_session {
public:
    statevector_group_session(engine_config config,
                              std::vector<std::vector<program>> families)
        : config_(std::move(config)), families_(std::move(families)) {
        QUORUM_EXPECTS_MSG(!families_.empty(),
                           "a group session needs at least one family");
        levels_ = families_.front().size();
        plans_.reserve(families_.size());
        for (const std::vector<program>& family : families_) {
            QUORUM_EXPECTS_MSG(family.size() == levels_,
                               "the families of a group session must share "
                               "one level count");
            validate_level_family(family);
            plans_.push_back(plan_family(family, config_.sampling_mode));
        }
        tables_ = group_lane_tables(families_, plans_);
    }

    void run(std::span<const sample> samples,
             std::span<double> out) override {
        const std::size_t groups = families_.size();
        validate_group_batch(groups, levels_, samples, out);
        for (std::size_t g = 0; g < groups; ++g) {
            validate_level_samples(families_[g], samples.subspan(g, 1),
                                   out.subspan(g * levels_, levels_),
                                   config_.sampling_mode != sampling::exact);
        }
        std::size_t first = 0;
        for (const lane_matrix_table& table : tables_) {
            if (groups - first < lane_cutoff) {
                break;
            }
            const std::size_t block =
                std::min(qsim::kernels::lane_width, groups - first);
            run_lane_block(config_, families_[first], plans_[first],
                           per_lane_matrices{table.data()}, buffers_.lanes,
                           samples, first, block, out);
            first += block;
        }
        for (std::size_t g = first; g < groups; ++g) {
            run_family_planned(config_, families_[g], plans_[g], buffers_,
                               samples.subspan(g, 1),
                               out.subspan(g * levels_, levels_));
        }
    }

    [[nodiscard]] bool in_lanes() const noexcept {
        return !tables_.empty() && families_.size() >= lane_cutoff;
    }

private:
    engine_config config_;
    std::vector<std::vector<program>> families_;
    std::size_t levels_ = 0;
    std::vector<family_plan> plans_;
    std::vector<lane_matrix_table> tables_;
    replay_buffers buffers_;
};

} // namespace

statevector_backend::statevector_backend(engine_config config)
    : config_(std::move(config)) {
    if (config_.sampling_mode != sampling::exact) {
        QUORUM_EXPECTS_MSG(config_.shots >= 1,
                           "sampling modes need shots >= 1");
    }
}

bool statevector_backend::supports(readout_kind kind) const noexcept {
    switch (config_.sampling_mode) {
    case sampling::exact:
        return true;
    case sampling::binomial:
        return kind == readout_kind::cbit_probability ||
               kind == readout_kind::prep_overlap_p1;
    case sampling::per_shot:
        return kind == readout_kind::cbit_probability;
    }
    return false;
}

bool statevector_backend::supports(capability what) const noexcept {
    // Per-shot replay is stochastic per (level, shot), so there is no
    // shared deterministic prefix to fuse — run_batch_levels falls back to
    // the naive per-level loop there.
    return what == capability::fused_levels &&
           config_.sampling_mode != sampling::per_shot;
}

double statevector_backend::run(const qsim::circuit& c, int cbit,
                                util::rng* gen) const {
    switch (config_.sampling_mode) {
    case sampling::exact:
    case sampling::binomial: {
        const qsim::exact_run_result result =
            qsim::statevector_runner::run_exact(c);
        return report_probability(config_, gen,
                                  result.cbit_probability_one(cbit));
    }
    case sampling::per_shot: {
        QUORUM_EXPECTS_MSG(gen != nullptr,
                           "sampling modes need an rng stream");
        std::size_t ones = 0;
        for (std::size_t shot = 0; shot < config_.shots; ++shot) {
            const std::vector<bool> cbits =
                qsim::statevector_runner::run_single_shot(c, *gen);
            ones += static_cast<std::size_t>(
                cbits[static_cast<std::size_t>(cbit)]);
        }
        return static_cast<double>(ones) /
               static_cast<double>(config_.shots);
    }
    }
    throw util::contract_error("unknown sampling mode");
}

void statevector_backend::run_batch(const program& prog,
                                    std::span<const sample> samples,
                                    std::span<double> out) const {
    const bool needs_rng = config_.sampling_mode != sampling::exact;
    validate_batch(prog, samples, out, needs_rng);

    if (config_.sampling_mode != sampling::per_shot) {
        check_probability_readout(prog.readout, config_.sampling_mode);
        const program_plan plan = make_plan(prog);
        replay_buffers buffers;
        buffers.scratch.resize(max_dense_block(prog.circuit));
        for (std::size_t i = 0; i < samples.size(); ++i) {
            replay_exact(prog.circuit, samples[i], buffers, plan.body_end);
            double p_one = 0.0;
            if (plan.shortcut) {
                reference_through_tail(plan.tail, samples[i], buffers);
                p_one = overlap_p1(buffers.chi, buffers.branches);
            } else {
                p_one = read_out(prog.readout, prog.circuit,
                                 buffers.branches);
            }
            out[i] = report_probability(config_, samples[i].gen, p_one);
        }
        return;
    }

    // Per-shot stochastic replay over the suffix with its gates fused into
    // 2x2/4x4 blocks: equal up to rounding, which per-shot sampling allows
    // and exact replay does not, so this is the one place that fuses. The
    // unitary head before the first reset/measure is shot-independent, so
    // it is applied once per sample and only the stochastic tail re-runs
    // per shot.
    QUORUM_EXPECTS_MSG(prog.readout.kind == readout_kind::cbit_probability,
                       "per-shot sampling reads a classical bit");
    std::vector<operation> suffix_ops;
    suffix_ops.reserve(prog.circuit.suffix().size());
    for (const compiled_op& compiled : prog.circuit.suffix()) {
        QUORUM_EXPECTS_MSG(compiled.op.kind != op_kind::initialize,
                           "per-shot replay cannot fuse a suffix that "
                           "holds an initialize op");
        suffix_ops.push_back(compiled.op);
    }
    const std::vector<fused_op> fused = qsim::fuse_operations(suffix_ops);
    std::size_t head_end = 0;
    while (head_end < fused.size() &&
           fused[head_end].op == fused_op::kind::unitary) {
        ++head_end;
    }
    std::size_t max_block = 2;
    for (const fused_op& op : fused) {
        if (op.op == fused_op::kind::unitary) {
            max_block = std::max(max_block, std::size_t{1}
                                                << op.qubits.size());
        }
    }
    replay_buffers buffers;
    buffers.scratch.resize(max_block);
    std::vector<bool> cbits(prog.circuit.num_clbits(), false);
    const auto target_cbit = static_cast<std::size_t>(prog.readout.cbit);
    QUORUM_EXPECTS_MSG(target_cbit < cbits.size(),
                       "per-shot readout cbit out of range");

    statevector work(std::max<std::size_t>(prog.circuit.num_qubits(), 1));
    statevector base;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        prepare_state_into(prog.circuit, samples[i], buffers, base);
        for (std::size_t k = 0; k < head_end; ++k) {
            apply_fused_unitary(base, fused[k], buffers.scratch);
        }
        util::rng& gen = *samples[i].gen;
        std::size_t ones = 0;
        for (std::size_t shot = 0; shot < config_.shots; ++shot) {
            work = base;
            std::fill(cbits.begin(), cbits.end(), false);
            for (std::size_t k = head_end; k < fused.size(); ++k) {
                const fused_op& op = fused[k];
                switch (op.op) {
                case fused_op::kind::unitary:
                    apply_fused_unitary(work, op, buffers.scratch);
                    break;
                case fused_op::kind::reset: {
                    const qubit_t q = op.qubits[0];
                    if (work.measure_collapse(q, gen)) {
                        const qubit_t operand[] = {q};
                        work.apply_gate(gate_kind::x, operand);
                    }
                    break;
                }
                case fused_op::kind::measure:
                    cbits[static_cast<std::size_t>(op.cbit)] =
                        work.measure_collapse(op.qubits[0], gen);
                    break;
                }
            }
            ones += static_cast<std::size_t>(cbits[target_cbit]);
        }
        out[i] = static_cast<double>(ones) /
                 static_cast<double>(config_.shots);
    }
}

void statevector_backend::run_batch_levels(std::span<const program> levels,
                                           std::span<const sample> samples,
                                           std::span<double> out) const {
    const bool needs_rng = config_.sampling_mode != sampling::exact;
    validate_level_batch(levels, samples, out, needs_rng);
    if (config_.sampling_mode == sampling::per_shot) {
        executor::run_batch_levels(levels, samples, out);
        return;
    }
    const family_plan plan = plan_family(levels, config_.sampling_mode);
    replay_buffers buffers;
    run_family_planned(config_, levels, plan, buffers, samples, out);
}

bool statevector_backend::replays_in_lanes(std::span<const program> family,
                                           std::size_t batch) const {
    return config_.sampling_mode != sampling::per_shot &&
           batch >= lane_cutoff &&
           plan_family(family, config_.sampling_mode).lane_slots != 0;
}

std::unique_ptr<level_session>
statevector_backend::make_level_session(std::vector<program> family) const {
    QUORUM_EXPECTS_MSG(!family.empty(),
                       "a level session needs at least one program");
    if (config_.sampling_mode == sampling::per_shot) {
        // No deterministic prefix to fuse per shot — the base replay
        // session (naive per-level loop per call) is the honest contract.
        return executor::make_level_session(std::move(family));
    }
    return std::make_unique<statevector_level_session>(config_,
                                                       std::move(family));
}

bool statevector_backend::replays_groups_in_lanes(
    std::vector<std::vector<program>> families) const {
    return config_.sampling_mode != sampling::per_shot &&
           statevector_group_session(config_, std::move(families))
               .in_lanes();
}

std::unique_ptr<group_session> statevector_backend::make_group_session(
    std::vector<std::vector<program>> families) const {
    if (config_.sampling_mode == sampling::per_shot) {
        // As make_level_session: per-shot replay has nothing to share.
        return executor::make_group_session(std::move(families));
    }
    return std::make_unique<statevector_group_session>(config_,
                                                       std::move(families));
}

} // namespace quorum::exec
