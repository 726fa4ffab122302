#include "exec/serialise.h"

#include <bit>
#include <cstddef>

#include "qsim/circuit.h"
#include "util/contracts.h"

namespace quorum::exec::wire {

namespace {

using qsim::gate_kind;
using qsim::op_kind;
using qsim::operation;
using qsim::qubit_t;

/// Decoded register sizes above this are rejected outright: no real
/// Quorum circuit comes close, and a corrupt count must not drive a
/// 2^k-sized allocation before the engine would reject it anyway.
constexpr std::uint32_t max_wire_qubits = 24;

gate_kind decode_gate_kind(reader& in) {
    const std::uint8_t raw = in.u8();
    QUORUM_EXPECTS_MSG(raw <= static_cast<std::uint8_t>(gate_kind::cswap),
                       "wire: gate kind byte out of range");
    return static_cast<gate_kind>(raw);
}

std::vector<qubit_t> decode_qubits(reader& in) {
    const std::uint32_t count = in.u32();
    in.expect_available(count, 4);
    std::vector<qubit_t> qubits;
    qubits.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        qubits.push_back(in.u32());
    }
    return qubits;
}

void encode_op(writer& out, const operation& op) {
    out.u8(static_cast<std::uint8_t>(op.kind));
    out.u8(static_cast<std::uint8_t>(op.gate));
    out.u32(static_cast<std::uint32_t>(op.qubits.size()));
    for (const qubit_t q : op.qubits) {
        out.u32(q);
    }
    out.u32(static_cast<std::uint32_t>(op.params.size()));
    for (const double p : op.params) {
        out.f64(p);
    }
    out.u32(static_cast<std::uint32_t>(op.init_amplitudes.size()));
    for (const qsim::amp& a : op.init_amplitudes) {
        out.f64(a.real());
        out.f64(a.imag());
    }
    out.u32(static_cast<std::uint32_t>(op.cbit));
}

operation decode_op(reader& in) {
    operation op;
    const std::uint8_t kind = in.u8();
    QUORUM_EXPECTS_MSG(kind <= static_cast<std::uint8_t>(op_kind::barrier),
                       "wire: op kind byte out of range");
    op.kind = static_cast<op_kind>(kind);
    QUORUM_EXPECTS_MSG(op.kind != op_kind::barrier,
                       "wire: barriers are stripped at compile time and "
                       "never travel");
    const std::uint8_t gate = in.u8();
    QUORUM_EXPECTS_MSG(gate <= static_cast<std::uint8_t>(gate_kind::cswap),
                       "wire: gate kind byte out of range");
    op.gate = static_cast<gate_kind>(gate);
    op.qubits = decode_qubits(in);
    const std::uint32_t n_params = in.u32();
    in.expect_available(n_params, 8);
    op.params.reserve(n_params);
    for (std::uint32_t i = 0; i < n_params; ++i) {
        op.params.push_back(in.f64());
    }
    const std::uint32_t n_amps = in.u32();
    in.expect_available(n_amps, 16);
    op.init_amplitudes.reserve(n_amps);
    for (std::uint32_t i = 0; i < n_amps; ++i) {
        const double re = in.f64();
        const double im = in.f64();
        op.init_amplitudes.emplace_back(re, im);
    }
    op.cbit = static_cast<int>(in.u32());
    return op;
}

/// Appends a decoded suffix/prefix op to the template circuit through the
/// validating builder API, so malformed operands fail structurally here.
void append_decoded_op(qsim::circuit& c, const operation& op) {
    switch (op.kind) {
    case op_kind::gate:
        c.append_gate(op.gate, op.qubits, op.params);
        return;
    case op_kind::initialize:
        c.initialize(std::span<const qubit_t>(op.qubits),
                     std::span<const qsim::amp>(op.init_amplitudes));
        return;
    case op_kind::reset:
        QUORUM_EXPECTS_MSG(op.qubits.size() == 1,
                           "wire: reset takes exactly one qubit");
        c.reset(op.qubits[0]);
        return;
    case op_kind::measure:
        QUORUM_EXPECTS_MSG(op.qubits.size() == 1,
                           "wire: measure takes exactly one qubit");
        c.measure(op.qubits[0], op.cbit);
        return;
    case op_kind::barrier:
        break;
    }
    throw util::contract_error("wire: unsupported op kind");
}

} // namespace

// --- primitives -------------------------------------------------------------

void writer::u32(std::uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
        out_.push_back(static_cast<std::uint8_t>(value >> shift));
    }
}

void writer::u64(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
        out_.push_back(static_cast<std::uint8_t>(value >> shift));
    }
}

void writer::f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

void writer::str(std::string_view text) {
    u32(static_cast<std::uint32_t>(text.size()));
    for (const char c : text) {
        out_.push_back(static_cast<std::uint8_t>(c));
    }
}

void writer::bytes(std::span<const std::uint8_t> raw) {
    out_.insert(out_.end(), raw.begin(), raw.end());
}

std::uint8_t reader::u8() {
    QUORUM_EXPECTS_MSG(remaining() >= 1, "wire: truncated message");
    return data_[cursor_++];
}

std::uint32_t reader::u32() {
    QUORUM_EXPECTS_MSG(remaining() >= 4, "wire: truncated message");
    std::uint32_t value = 0;
    for (int shift = 0; shift < 32; shift += 8) {
        value |= static_cast<std::uint32_t>(data_[cursor_++]) << shift;
    }
    return value;
}

std::uint64_t reader::u64() {
    QUORUM_EXPECTS_MSG(remaining() >= 8, "wire: truncated message");
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 8) {
        value |= static_cast<std::uint64_t>(data_[cursor_++]) << shift;
    }
    return value;
}

double reader::f64() { return std::bit_cast<double>(u64()); }

std::string reader::str() {
    const std::uint32_t length = u32();
    expect_available(length, 1);
    std::string text(reinterpret_cast<const char*>(data_.data() + cursor_),
                     length);
    cursor_ += length;
    return text;
}

std::span<const std::uint8_t> reader::raw(std::size_t count) {
    expect_available(count, 1);
    const std::span<const std::uint8_t> view =
        data_.subspan(cursor_, count);
    cursor_ += count;
    return view;
}

void reader::expect_available(std::uint64_t count, std::size_t element_bytes) {
    QUORUM_EXPECTS_MSG(element_bytes == 0 ||
                           count <= remaining() / element_bytes,
                       "wire: count field exceeds the message size");
}

void reader::expect_done() const {
    QUORUM_EXPECTS_MSG(remaining() == 0,
                       "wire: trailing bytes after the message body");
}

// --- shard_work -------------------------------------------------------------

void encode_shard_work(writer& out, const shard_work& work) {
    out.u64(work.shard);
    out.u64(work.first);
    out.u64(work.count);
}

shard_work decode_shard_work(reader& in) {
    shard_work work;
    work.shard = in.u64();
    work.first = in.u64();
    work.count = in.u64();
    work.prog = nullptr; // the program block travels separately
    return work;
}

// --- program ----------------------------------------------------------------

void encode_program(writer& out, const program& prog) {
    out.u8(static_cast<std::uint8_t>(prog.readout.kind));
    out.u32(static_cast<std::uint32_t>(prog.readout.cbit));
    out.u32(static_cast<std::uint32_t>(prog.readout.qubits.size()));
    for (const qubit_t q : prog.readout.qubits) {
        out.u32(q);
    }

    const qsim::compiled_program& circuit = prog.circuit;
    out.u32(static_cast<std::uint32_t>(circuit.num_qubits()));
    out.u32(static_cast<std::uint32_t>(circuit.num_clbits()));
    out.u8(static_cast<std::uint8_t>(circuit.compiled_with().prep));
    out.u32(static_cast<std::uint32_t>(circuit.slots().size()));
    for (const qsim::prep_slot& slot : circuit.slots()) {
        out.u32(static_cast<std::uint32_t>(slot.qubits.size()));
        for (const qubit_t q : slot.qubits) {
            out.u32(q);
        }
    }
    out.u32(static_cast<std::uint32_t>(circuit.prefix().size()));
    for (const operation& op : circuit.prefix()) {
        encode_op(out, op);
    }
    out.u32(static_cast<std::uint32_t>(circuit.suffix().size()));
    for (const qsim::compiled_op& compiled : circuit.suffix()) {
        encode_op(out, compiled.op);
    }
}

program decode_program(reader& in) {
    program prog;
    const std::uint8_t readout = in.u8();
    QUORUM_EXPECTS_MSG(
        readout <= static_cast<std::uint8_t>(readout_kind::z_probability),
        "wire: readout kind byte out of range");
    prog.readout.kind = static_cast<readout_kind>(readout);
    prog.readout.cbit = static_cast<int>(in.u32());
    prog.readout.qubits = decode_qubits(in);

    const std::uint32_t num_qubits = in.u32();
    const std::uint32_t num_clbits = in.u32();
    QUORUM_EXPECTS_MSG(num_qubits <= max_wire_qubits,
                       "wire: register size out of range");
    QUORUM_EXPECTS_MSG(num_clbits <= max_wire_qubits,
                       "wire: classical register size out of range");
    qsim::compile_options opt;
    const std::uint8_t prep = in.u8();
    QUORUM_EXPECTS_MSG(
        prep <= static_cast<std::uint8_t>(qsim::prep_style::ry_product),
        "wire: prep style byte out of range");
    opt.prep = static_cast<qsim::prep_style>(prep);

    // Reassemble the template circuit through the validating builder, with
    // placeholder slot amplitudes (|0..0>) and the prefix's placeholder
    // params, then re-compile with the shipped options: compile() derives
    // every precomputed matrix deterministically from the ops, so the
    // decoded program replays bit-identically to the encoded one.
    qsim::circuit c(num_qubits, num_clbits);
    const std::uint32_t n_slots = in.u32();
    in.expect_available(n_slots, 4);
    for (std::uint32_t s = 0; s < n_slots; ++s) {
        const std::vector<qubit_t> qubits = decode_qubits(in);
        QUORUM_EXPECTS_MSG(qubits.size() <= num_qubits,
                           "wire: prep slot size out of range");
        std::vector<double> placeholder(std::size_t{1} << qubits.size(),
                                        0.0);
        placeholder[0] = 1.0;
        c.initialize(std::span<const qubit_t>(qubits),
                     std::span<const double>(placeholder));
    }
    // Every prefix op is a per-sample parameterized op, so the prefix
    // length is the parameterized-op count the program was compiled with.
    const std::uint32_t n_prefix = in.u32();
    in.expect_available(n_prefix, 4);
    opt.parameterized_ops = n_prefix;
    for (std::uint32_t i = 0; i < n_prefix; ++i) {
        const operation op = decode_op(in);
        QUORUM_EXPECTS_MSG(op.kind == op_kind::gate,
                           "wire: the parameterized prefix holds gates "
                           "only");
        append_decoded_op(c, op);
    }
    const std::uint32_t n_suffix = in.u32();
    in.expect_available(n_suffix, 4);
    for (std::uint32_t i = 0; i < n_suffix; ++i) {
        append_decoded_op(c, decode_op(in));
    }
    prog.circuit = qsim::compiled_program::compile(c, opt);
    return prog;
}

// --- engine_config ----------------------------------------------------------

void encode_engine_config(writer& out, const engine_config& config) {
    out.u8(static_cast<std::uint8_t>(config.sampling_mode));
    out.u64(config.shots);
    const auto depol = config.noise.depolarizing_table();
    out.u32(static_cast<std::uint32_t>(depol.size()));
    for (const auto& [kind, p] : depol) {
        out.u8(static_cast<std::uint8_t>(kind));
        out.f64(p);
    }
    const auto durations = config.noise.duration_table();
    out.u32(static_cast<std::uint32_t>(durations.size()));
    for (const auto& [kind, ns] : durations) {
        out.u8(static_cast<std::uint8_t>(kind));
        out.f64(ns);
    }
    out.f64(config.noise.thermal().t1_us);
    out.f64(config.noise.thermal().t2_us);
    out.f64(config.noise.readout().p1_given_0);
    out.f64(config.noise.readout().p0_given_1);
    out.f64(config.noise.measure_duration_ns());
}

engine_config decode_engine_config(reader& in) {
    engine_config config;
    const std::uint8_t mode = in.u8();
    QUORUM_EXPECTS_MSG(mode <= static_cast<std::uint8_t>(sampling::per_shot),
                       "wire: sampling mode byte out of range");
    config.sampling_mode = static_cast<sampling>(mode);
    config.shots = in.u64();
    qsim::noise_model noise = qsim::noise_model::ideal();
    const std::uint32_t n_depol = in.u32();
    in.expect_available(n_depol, 9);
    for (std::uint32_t i = 0; i < n_depol; ++i) {
        const gate_kind kind = decode_gate_kind(in);
        noise.set_depolarizing_param(kind, in.f64());
    }
    const std::uint32_t n_durations = in.u32();
    in.expect_available(n_durations, 9);
    for (std::uint32_t i = 0; i < n_durations; ++i) {
        const gate_kind kind = decode_gate_kind(in);
        noise.set_gate_duration(kind, in.f64());
    }
    qsim::thermal_params thermal;
    thermal.t1_us = in.f64();
    thermal.t2_us = in.f64();
    noise.set_thermal(thermal);
    qsim::readout_error readout;
    readout.p1_given_0 = in.f64();
    readout.p0_given_1 = in.f64();
    noise.set_readout(readout);
    noise.set_measure_duration(in.f64());
    config.noise = noise;
    config.shards = 0; // workers run their inner backend on their own
    return config;
}

// --- samples ----------------------------------------------------------------

void encode_samples(writer& out, std::span<const sample> samples,
                    std::size_t levels, bool with_rng) {
    const std::size_t amp_count =
        samples.empty() ? 0 : samples[0].amplitudes.size();
    const std::size_t param_count =
        samples.empty() ? 0 : samples[0].prefix_params.size();
    out.u64(samples.size());
    out.u64(amp_count);
    out.u64(param_count);
    out.u32(static_cast<std::uint32_t>(levels));
    out.u8(with_rng ? 1 : 0);
    const std::size_t streams = levels == 0 ? 1 : levels;
    for (const sample& s : samples) {
        QUORUM_EXPECTS_MSG(s.amplitudes.size() == amp_count &&
                               s.prefix_params.size() == param_count,
                           "wire: samples of one batch must share one "
                           "shape");
        // Record marker: guarantees every sample occupies at least one
        // byte, so a corrupt count field can never exceed what
        // expect_available bounds against the message size — even for
        // slot-less, parameter-less, exact-mode batches.
        out.u8(1);
        for (const double a : s.amplitudes) {
            out.f64(a);
        }
        for (const double p : s.prefix_params) {
            out.f64(p);
        }
        if (!with_rng) {
            continue;
        }
        for (std::size_t k = 0; k < streams; ++k) {
            const util::rng* gen =
                levels == 0 ? s.gen : s.level_gens[k];
            QUORUM_EXPECTS_MSG(gen != nullptr,
                               "wire: sampling batches need per-sample "
                               "rng streams");
            const util::rng_state snapshot = gen->state();
            out.u64(snapshot.seed);
            for (const std::uint64_t word : snapshot.words) {
                out.u64(word);
            }
        }
    }
}

sample_block decode_samples(reader& in, std::size_t levels) {
    sample_block block;
    const std::uint64_t count = in.u64();
    const std::uint64_t amp_count = in.u64();
    const std::uint64_t param_count = in.u64();
    const std::uint32_t wire_levels = in.u32();
    const bool with_rng = in.u8() != 0;
    QUORUM_EXPECTS_MSG(wire_levels == levels,
                       "wire: sample block level count does not match the "
                       "program family");
    QUORUM_EXPECTS_MSG(amp_count <= (std::uint64_t{1} << max_wire_qubits),
                       "wire: amplitude count out of range");
    QUORUM_EXPECTS_MSG(param_count <= (std::uint64_t{1} << max_wire_qubits),
                       "wire: param count out of range");
    const std::size_t streams =
        with_rng ? (levels == 0 ? 1 : levels) : 0;
    // +1: the per-sample record marker. It keeps this bound effective for
    // every batch shape, so a corrupt count can never drive an
    // allocation beyond what the message itself could back.
    const std::size_t sample_bytes = static_cast<std::size_t>(
        1 + amp_count * 8 + param_count * 8 + streams * 40);
    in.expect_available(count, sample_bytes);
    block.amplitudes.reserve(count * amp_count);
    block.prefix_params.reserve(count * param_count);
    block.gens.reserve(count * streams);
    block.gen_ptrs.reserve(count * streams);
    for (std::uint64_t i = 0; i < count; ++i) {
        QUORUM_EXPECTS_MSG(in.u8() == 1,
                           "wire: bad sample record marker");
        for (std::uint64_t a = 0; a < amp_count; ++a) {
            block.amplitudes.push_back(in.f64());
        }
        for (std::uint64_t p = 0; p < param_count; ++p) {
            block.prefix_params.push_back(in.f64());
        }
        for (std::size_t k = 0; k < streams; ++k) {
            util::rng_state snapshot;
            snapshot.seed = in.u64();
            for (std::uint64_t& word : snapshot.words) {
                word = in.u64();
            }
            block.gens.push_back(util::rng::from_state(snapshot));
        }
    }
    for (util::rng& gen : block.gens) {
        block.gen_ptrs.push_back(&gen);
    }
    block.samples.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        sample s;
        s.amplitudes = std::span<const double>(
            block.amplitudes.data() + i * amp_count, amp_count);
        s.prefix_params = std::span<const double>(
            block.prefix_params.data() + i * param_count, param_count);
        if (streams > 0) {
            if (levels == 0) {
                s.gen = block.gen_ptrs[i];
            } else {
                s.level_gens = std::span<util::rng* const>(
                    block.gen_ptrs.data() + i * streams, streams);
            }
        }
        block.samples.push_back(s);
    }
    return block;
}

std::vector<std::uint8_t> encode_hello(const std::string& inner,
                                       const engine_config& config) {
    writer out;
    out.u8(static_cast<std::uint8_t>(message::hello));
    out.u32(protocol_magic);
    out.u32(protocol_version);
    out.str(inner);
    encode_engine_config(out, config);
    return out.take();
}

void check_hello_ack(std::span<const std::uint8_t> reply,
                     const std::string& peer) {
    reader in(reply);
    const std::uint8_t type = in.u8();
    if (type == static_cast<std::uint8_t>(message::error)) {
        throw util::contract_error(peer + " rejected the handshake: " +
                                   in.str());
    }
    QUORUM_EXPECTS_MSG(type == static_cast<std::uint8_t>(message::hello_ack),
                       peer + " sent a malformed handshake reply");
    const std::uint32_t magic = in.u32();
    const std::uint32_t version = in.u32();
    in.expect_done();
    QUORUM_EXPECTS_MSG(magic == protocol_magic,
                       peer + " answered with a bad protocol magic");
    QUORUM_EXPECTS_MSG(version == protocol_version,
                       peer + " speaks protocol version " +
                           std::to_string(version) +
                           ", this client speaks " +
                           std::to_string(protocol_version));
}

std::vector<std::uint8_t>
encode_span_request(const shard_work& span,
                    std::span<const std::uint8_t> program_block,
                    std::span<const sample> span_samples, std::size_t levels,
                    bool with_rng) {
    writer request;
    request.u8(static_cast<std::uint8_t>(
        levels == 0 ? message::run_span : message::run_levels_span));
    encode_shard_work(request, span);
    request.u32(static_cast<std::uint32_t>(program_block.size()));
    request.bytes(program_block);
    encode_samples(request, span_samples, levels, with_rng);
    return request.take();
}

std::vector<std::uint8_t> encode_error_reply(const std::string& text) {
    writer out;
    out.u8(static_cast<std::uint8_t>(message::error));
    out.str(text);
    return out.take();
}

std::vector<std::uint8_t>
encode_result_reply(std::span<const double> values) {
    writer out;
    out.u8(static_cast<std::uint8_t>(message::result));
    out.u64(values.size());
    for (const double value : values) {
        out.f64(value);
    }
    return out.take();
}

std::vector<std::uint8_t> encode_shutdown() {
    writer out;
    out.u8(static_cast<std::uint8_t>(message::shutdown));
    return out.take();
}

} // namespace quorum::exec::wire
