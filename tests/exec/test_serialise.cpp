// Wire-format property suite: encode -> decode -> run must equal run
// (IEEE ==) for programs, samples and engine configs; malformed payloads
// (truncated, corrupted) must fail STRUCTURALLY — util::contract_error,
// never UB (the ASan+UBSan CI job runs this suite); and the byte layout
// documented in docs/ARCHITECTURE.md must match the implementation (the
// documented example payload decodes below, byte for byte).
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/registry.h"
#include "exec/wire.h"
#include "exec/serialise.h"
#include "qml/amplitude_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "qml/swap_test.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace {

using namespace quorum;

exec::program analytic_program(const qml::ansatz_params& params,
                               std::size_t level) {
    exec::program program;
    program.circuit = qsim::compiled_program::compile(
        qml::autoencoder_reg_a_template(params, level));
    program.readout.kind = exec::readout_kind::prep_overlap_p1;
    return program;
}

exec::program full_program(const qml::ansatz_params& params,
                           std::size_t level) {
    exec::program program;
    program.circuit = qsim::compiled_program::compile(
        qml::autoencoder_template(params, level));
    program.readout.kind = exec::readout_kind::cbit_probability;
    program.readout.cbit = qml::swap_result_cbit;
    return program;
}

std::vector<std::uint8_t> encode(const exec::program& program) {
    exec::wire::writer out;
    exec::wire::encode_program(out, program);
    return out.take();
}

exec::program decode(std::span<const std::uint8_t> bytes) {
    exec::wire::reader in(bytes);
    exec::program program = exec::wire::decode_program(in);
    in.expect_done();
    return program;
}

std::vector<std::vector<double>> make_amplitudes(std::uint64_t seed,
                                                 std::size_t samples) {
    util::rng gen(seed);
    std::vector<std::vector<double>> out(samples);
    for (auto& amps : out) {
        std::vector<double> features(7);
        for (double& f : features) {
            f = gen.uniform() / 7.0;
        }
        amps = qml::to_amplitudes(features, 3);
    }
    return out;
}

TEST(WireSerialise, PrimitivesRoundTripBitExactly) {
    exec::wire::writer out;
    out.u8(0x7F);
    out.u32(0xDEADBEEFu);
    out.u64(0x0123456789ABCDEFull);
    out.f64(-0.0);
    out.f64(std::numeric_limits<double>::quiet_NaN());
    out.f64(0.1);
    out.str("quorum");
    exec::wire::reader in(out.data());
    EXPECT_EQ(in.u8(), 0x7F);
    EXPECT_EQ(in.u32(), 0xDEADBEEFu);
    EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
    const double neg_zero = in.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero)); // bit pattern, not just value
    EXPECT_TRUE(std::isnan(in.f64()));
    EXPECT_EQ(in.f64(), 0.1);
    EXPECT_EQ(in.str(), "quorum");
    in.expect_done();
}

TEST(WireSerialise, TruncatedPrimitivesThrow) {
    exec::wire::writer out;
    out.u64(42);
    const std::vector<std::uint8_t> bytes = out.take();
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
        exec::wire::reader in(
            std::span<const std::uint8_t>(bytes.data(), keep));
        EXPECT_THROW((void)in.u64(), util::contract_error) << keep;
    }
    exec::wire::reader in(bytes);
    (void)in.u64();
    EXPECT_THROW(in.expect_available(1, 1), util::contract_error);
    EXPECT_NO_THROW(in.expect_done());
}

TEST(WireSerialise, ProgramRoundTripPreservesStructure) {
    util::rng gen(11);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    for (const exec::program& original :
         {analytic_program(params, 1), full_program(params, 2)}) {
        const exec::program decoded = decode(encode(original));
        EXPECT_EQ(decoded.readout.kind, original.readout.kind);
        EXPECT_EQ(decoded.readout.cbit, original.readout.cbit);
        const qsim::compiled_program& a = original.circuit;
        const qsim::compiled_program& b = decoded.circuit;
        EXPECT_EQ(b.num_qubits(), a.num_qubits());
        EXPECT_EQ(b.num_clbits(), a.num_clbits());
        ASSERT_EQ(b.slots().size(), a.slots().size());
        for (std::size_t s = 0; s < a.slots().size(); ++s) {
            EXPECT_EQ(b.slots()[s].qubits, a.slots()[s].qubits);
        }
        ASSERT_EQ(b.suffix().size(), a.suffix().size());
        // Recompiling the shipped template reproduces every precomputed
        // matrix: the whole suffix replays identically, op by op.
        EXPECT_EQ(qsim::shared_suffix_ops(a, b), a.suffix().size());
        EXPECT_EQ(b.measures(), a.measures());
    }
}

TEST(WireSerialise, DecodedProgramRunsIdenticallyToOriginal) {
    util::rng gen(13);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    const auto amplitudes = make_amplitudes(17, 9);
    std::vector<exec::sample> batch(amplitudes.size());
    for (std::size_t i = 0; i < amplitudes.size(); ++i) {
        batch[i].amplitudes = amplitudes[i];
    }
    const auto engine =
        exec::make_executor("statevector", exec::engine_config{});
    for (const exec::program& original :
         {analytic_program(params, 1), full_program(params, 2)}) {
        const exec::program decoded = decode(encode(original));
        std::vector<double> expected(batch.size());
        std::vector<double> actual(batch.size());
        engine->run_batch(original, batch, expected);
        engine->run_batch(decoded, batch, actual);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(actual[i], expected[i]) << i; // IEEE ==
        }
    }
}

TEST(WireSerialise, ParameterizedPrefixRoundTripsAndRuns) {
    // A trained-QAE-shaped program: per-sample rotation angles feed the
    // leading gates (zero-parameter programs are the cases above).
    qsim::circuit c(2, 1);
    const qsim::qubit_t reg[] = {0, 1};
    const double amps[] = {1.0, 0.0, 0.0, 0.0};
    c.initialize(reg, amps);
    c.ry(0.0, 0).ry(0.0, 1).cx(0, 1).measure(1, 0);
    qsim::compile_options opt;
    opt.parameterized_ops = 2;
    exec::program original;
    original.circuit = qsim::compiled_program::compile(c, opt);
    original.readout.kind = exec::readout_kind::cbit_probability;
    original.readout.cbit = 0;
    const exec::program decoded = decode(encode(original));
    EXPECT_EQ(decoded.circuit.prefix_param_count(),
              original.circuit.prefix_param_count());

    const double sample_amps[] = {0.6, 0.8, 0.0, 0.0};
    const double sample_params[] = {0.3, -1.2};
    exec::sample s;
    s.amplitudes = sample_amps;
    s.prefix_params = sample_params;
    const exec::sample batch[] = {s};
    const auto engine =
        exec::make_executor("statevector", exec::engine_config{});
    double expected = 0.0;
    double actual = 0.0;
    engine->run_batch(original, batch, std::span<double>(&expected, 1));
    engine->run_batch(decoded, batch, std::span<double>(&actual, 1));
    EXPECT_EQ(actual, expected);
}

TEST(WireSerialise, EngineConfigRoundTripsTheNoiseModel) {
    exec::engine_config config;
    config.sampling_mode = exec::sampling::binomial;
    config.shots = 4096;
    config.noise = qsim::noise_model::ibm_brisbane_median();
    config.shards = 7; // must NOT travel: workers run un-sharded

    exec::wire::writer out;
    exec::wire::encode_engine_config(out, config);
    exec::wire::reader in(out.data());
    const exec::engine_config decoded =
        exec::wire::decode_engine_config(in);
    in.expect_done();

    EXPECT_EQ(decoded.sampling_mode, config.sampling_mode);
    EXPECT_EQ(decoded.shots, config.shots);
    EXPECT_EQ(decoded.shards, 0u);
    EXPECT_EQ(decoded.noise.depolarizing_table(),
              config.noise.depolarizing_table());
    EXPECT_EQ(decoded.noise.duration_table(),
              config.noise.duration_table());
    EXPECT_EQ(decoded.noise.thermal().t1_us, config.noise.thermal().t1_us);
    EXPECT_EQ(decoded.noise.thermal().t2_us, config.noise.thermal().t2_us);
    EXPECT_EQ(decoded.noise.readout().p1_given_0,
              config.noise.readout().p1_given_0);
    EXPECT_EQ(decoded.noise.readout().p0_given_1,
              config.noise.readout().p0_given_1);
    EXPECT_EQ(decoded.noise.measure_duration_ns(),
              config.noise.measure_duration_ns());
}

TEST(WireSerialise, SampleBlockRoundTripsAmplitudesParamsAndStreams) {
    const auto amplitudes = make_amplitudes(23, 4);
    std::vector<util::rng> gens;
    for (std::size_t i = 0; i < amplitudes.size(); ++i) {
        gens.emplace_back(util::derive_seed(5, i));
    }
    // Advance one stream so the snapshot captures mid-stream state, not
    // just the seed.
    (void)gens[2].uniform();
    std::vector<exec::sample> batch(amplitudes.size());
    for (std::size_t i = 0; i < amplitudes.size(); ++i) {
        batch[i].amplitudes = amplitudes[i];
        batch[i].gen = &gens[i];
    }

    exec::wire::writer out;
    exec::wire::encode_samples(out, batch, 0, /*with_rng=*/true);
    exec::wire::reader in(out.data());
    exec::wire::sample_block block = exec::wire::decode_samples(in, 0);
    in.expect_done();

    ASSERT_EQ(block.samples.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(block.samples[i].amplitudes.size(),
                  batch[i].amplitudes.size());
        for (std::size_t a = 0; a < batch[i].amplitudes.size(); ++a) {
            EXPECT_EQ(block.samples[i].amplitudes[a],
                      batch[i].amplitudes[a]);
        }
        // The reconstructed stream resumes exactly where the original
        // was captured: the next draws agree bit for bit.
        util::rng original = gens[i]; // copy: keep the source pristine
        util::rng* decoded = block.samples[i].gen;
        ASSERT_NE(decoded, nullptr);
        for (int d = 0; d < 5; ++d) {
            EXPECT_EQ(decoded->uniform(), original.uniform());
        }
    }
}

TEST(WireSerialise, MultiLevelStreamsRoundTripPerLevel) {
    const auto amplitudes = make_amplitudes(29, 2);
    std::vector<util::rng> gens;
    std::vector<util::rng*> ptrs;
    gens.reserve(amplitudes.size() * 3);
    for (std::size_t i = 0; i < amplitudes.size() * 3; ++i) {
        gens.emplace_back(util::derive_seed(9, i));
    }
    for (util::rng& gen : gens) {
        ptrs.push_back(&gen);
    }
    std::vector<exec::sample> batch(amplitudes.size());
    for (std::size_t i = 0; i < amplitudes.size(); ++i) {
        batch[i].amplitudes = amplitudes[i];
        batch[i].level_gens =
            std::span<util::rng* const>(ptrs.data() + i * 3, 3);
    }
    exec::wire::writer out;
    exec::wire::encode_samples(out, batch, 3, /*with_rng=*/true);
    exec::wire::reader in(out.data());
    exec::wire::sample_block block = exec::wire::decode_samples(in, 3);
    in.expect_done();
    ASSERT_EQ(block.samples.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(block.samples[i].level_gens.size(), 3u);
        for (std::size_t k = 0; k < 3; ++k) {
            util::rng original = *batch[i].level_gens[k];
            EXPECT_EQ(block.samples[i].level_gens[k]->uniform(),
                      original.uniform());
        }
    }
    // Level-count mismatch between block and family is structural.
    exec::wire::reader again(out.data());
    EXPECT_THROW((void)exec::wire::decode_samples(again, 2),
                 util::contract_error);
}

TEST(WireSerialise, EmptyBatchRoundTrips) {
    exec::wire::writer out;
    exec::wire::encode_samples(out, {}, 0, /*with_rng=*/false);
    exec::wire::reader in(out.data());
    const exec::wire::sample_block block =
        exec::wire::decode_samples(in, 0);
    in.expect_done();
    EXPECT_TRUE(block.samples.empty());
}

TEST(WireSerialise, TruncatedProgramPayloadsFailStructurally) {
    util::rng gen(31);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    const std::vector<std::uint8_t> bytes =
        encode(analytic_program(params, 1));
    // Every prefix of the payload must throw (never UB, never hang). Walk
    // a stride for speed plus the boundary cases.
    for (std::size_t keep = 0; keep < bytes.size();
         keep += (keep < 64 ? 1 : 7)) {
        exec::wire::reader in(
            std::span<const std::uint8_t>(bytes.data(), keep));
        EXPECT_THROW((void)exec::wire::decode_program(in),
                     util::contract_error)
            << "prefix length " << keep;
    }
    exec::wire::reader full(bytes);
    EXPECT_NO_THROW((void)exec::wire::decode_program(full));
}

TEST(WireSerialise, CorruptedProgramPayloadsNeverMisbehave) {
    util::rng gen(37);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    const std::vector<std::uint8_t> bytes =
        encode(full_program(params, 1));
    // Flipping any byte must either decode (the byte was value payload,
    // e.g. a rotation angle) or throw contract_error — nothing else. The
    // sanitizer job turns latent UB here into a failure.
    std::size_t rejected = 0;
    for (std::size_t at = 0; at < bytes.size();
         at += (at < 96 ? 1 : 5)) {
        std::vector<std::uint8_t> corrupt = bytes;
        corrupt[at] ^= 0xFF;
        exec::wire::reader in(corrupt);
        try {
            (void)exec::wire::decode_program(in);
            in.expect_done();
        } catch (const util::contract_error&) {
            ++rejected;
        }
    }
    EXPECT_GT(rejected, 0u); // structural fields do get hit
}

TEST(WireSerialise, AbsurdCountsAreRejectedBeforeAllocation) {
    // A count field larger than the message can possibly back must fail
    // up front (expect_available), not attempt a giant allocation.
    exec::wire::writer out;
    out.u32(0xFFFFFFFFu); // "4 billion qubits follow"
    exec::wire::reader in(out.data());
    EXPECT_THROW(in.expect_available(in.u32(), 4), util::contract_error);

    // A zero-shape sample block (no amplitudes, no params, no rng — one
    // marker byte per sample) cannot smuggle a giant count either: the
    // record markers bound the count by the message size.
    exec::wire::writer samples;
    samples.u64(std::uint64_t{1} << 40); // sample count: absurd
    samples.u64(0);                      // amplitudes per sample
    samples.u64(0);                      // params per sample
    samples.u32(0);                      // levels
    samples.u8(0);                       // has-rng: no
    exec::wire::reader sin(samples.data());
    EXPECT_THROW((void)exec::wire::decode_samples(sin, 0),
                 util::contract_error);

    // Oversized register sizes are rejected by decode_program.
    exec::wire::writer prog;
    prog.u8(static_cast<std::uint8_t>(exec::readout_kind::cbit_probability));
    prog.u32(0);  // cbit
    prog.u32(0);  // readout qubits
    prog.u32(60); // num_qubits: out of range
    prog.u32(0);
    exec::wire::reader pin(prog.data());
    EXPECT_THROW((void)exec::wire::decode_program(pin),
                 util::contract_error);
}

TEST(WireSerialise, DocumentedHelloPayloadDecodes) {
    // The exact example payload from docs/ARCHITECTURE.md ("Wire format"
    // section). If this test breaks, the implementation changed — bump
    // protocol_version AND update the documented bytes.
    const std::uint8_t doc_payload[] = {
        0x01,                   // message type: hello
        0x51, 0x52, 0x4D, 0x57, // magic "QRMW"
        0x03, 0x00, 0x00, 0x00, // protocol version 3
        0x0B, 0x00, 0x00, 0x00, // inner name length: 11
        's', 't', 'a', 't', 'e', 'v', 'e', 'c', 't', 'o', 'r',
        0x00,                                           // sampling: exact
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // shots: 0
        0x00, 0x00, 0x00, 0x00, // depolarizing entries: 0
        0x00, 0x00, 0x00, 0x00, // duration entries: 0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // t1_us: 0.0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // t2_us: 0.0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // P(1|0): 0.0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // P(0|1): 0.0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // measure ns
    };
    exec::worker_session session;
    const std::vector<std::uint8_t> reply = session.handle(
        std::span<const std::uint8_t>(doc_payload, sizeof(doc_payload)));
    // Expected reply, also as documented: hello_ack + magic + version.
    const std::uint8_t doc_reply[] = {
        0x02,                   // message type: hello_ack
        0x51, 0x52, 0x4D, 0x57, // magic "QRMW"
        0x03, 0x00, 0x00, 0x00, // protocol version 3
    };
    ASSERT_EQ(reply.size(), sizeof(doc_reply));
    EXPECT_EQ(std::memcmp(reply.data(), doc_reply, sizeof(doc_reply)), 0);
}

TEST(WireSerialise, DocumentedShardWorkLayoutMatchesEncoder) {
    // docs/ARCHITECTURE.md documents the span header as three u64 fields
    // (shard, first, count), little-endian.
    exec::shard_work work;
    work.shard = 2;
    work.first = 16;
    work.count = 8;
    exec::wire::writer out;
    exec::wire::encode_shard_work(out, work);
    const std::uint8_t doc_bytes[] = {
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // shard
        0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // first
        0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // count
    };
    ASSERT_EQ(out.data().size(), sizeof(doc_bytes));
    EXPECT_EQ(
        std::memcmp(out.data().data(), doc_bytes, sizeof(doc_bytes)), 0);
}

// --- worker_session protocol edges ------------------------------------------

std::string error_text(const std::vector<std::uint8_t>& reply) {
    exec::wire::reader in(reply);
    EXPECT_EQ(in.u8(), static_cast<std::uint8_t>(exec::wire::message::error));
    return in.str();
}

std::vector<std::uint8_t> make_hello_payload(std::uint32_t version,
                                             const std::string& inner =
                                                 "statevector") {
    exec::wire::writer out;
    out.u8(static_cast<std::uint8_t>(exec::wire::message::hello));
    out.u32(exec::wire::protocol_magic);
    out.u32(version);
    out.str(inner);
    exec::wire::encode_engine_config(out, exec::engine_config{});
    return out.take();
}

TEST(WorkerSession, RunBeforeHelloIsAnError) {
    exec::worker_session session;
    exec::wire::writer out;
    out.u8(static_cast<std::uint8_t>(exec::wire::message::run_span));
    const std::string text = error_text(session.handle(out.data()));
    EXPECT_NE(text.find("before hello"), std::string::npos) << text;
}

TEST(WorkerSession, VersionMismatchIsAnErrorNamingBothVersions) {
    exec::worker_session session;
    const std::string text = error_text(
        session.handle(make_hello_payload(exec::wire::protocol_version + 7)));
    EXPECT_NE(text.find("version mismatch"), std::string::npos) << text;
    EXPECT_NE(text.find(std::to_string(exec::wire::protocol_version + 7)),
              std::string::npos)
        << text;
}

TEST(WorkerSession, BadMagicAndUnknownTypesAreErrors) {
    exec::worker_session session;
    exec::wire::writer bad_magic;
    bad_magic.u8(static_cast<std::uint8_t>(exec::wire::message::hello));
    bad_magic.u32(0x12345678u);
    bad_magic.u32(exec::wire::protocol_version);
    EXPECT_NE(error_text(session.handle(bad_magic.data())).find("magic"),
              std::string::npos);

    exec::wire::writer unknown;
    unknown.u8(0x7E);
    EXPECT_NE(
        error_text(session.handle(unknown.data())).find("message type"),
        std::string::npos);

    EXPECT_NE(error_text(session.handle({})).find("truncated"),
              std::string::npos);
}

TEST(WorkerSession, WrapperEngineNamesAreRejectedAtHello) {
    // A worker must never host a wrapper engine: inner = "remote" would
    // fork grandchild workers — a single corrupted hello byte must not be
    // able to do that.
    for (const char* inner : {"remote", "fleet", "a:b",
                              "sharded:statevector", ""}) {
        exec::worker_session session;
        const std::string text = error_text(session.handle(
            make_hello_payload(exec::wire::protocol_version, inner)));
        EXPECT_NE(text.find("plain backend"), std::string::npos)
            << inner << ": " << text;
    }
    // A plain name must also be registered.
    exec::worker_session session;
    const std::string text = error_text(session.handle(
        make_hello_payload(exec::wire::protocol_version, "sharded")));
    EXPECT_NE(text.find("unknown execution backend"), std::string::npos)
        << text;
}

TEST(WorkerSession, ZeroSampleSpanReturnsEmptyResult) {
    exec::worker_session session;
    (void)session.handle(make_hello_payload(exec::wire::protocol_version));
    util::rng gen(41);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    const exec::program program = analytic_program(params, 1);
    exec::wire::writer request;
    request.u8(static_cast<std::uint8_t>(exec::wire::message::run_span));
    exec::wire::encode_shard_work(request, exec::shard_work{});
    exec::wire::writer block;
    exec::wire::encode_program(block, program);
    request.u32(static_cast<std::uint32_t>(block.data().size()));
    request.bytes(block.data());
    exec::wire::encode_samples(request, {}, 0, false);
    const std::vector<std::uint8_t> reply =
        session.handle(request.data());
    exec::wire::reader in(reply);
    EXPECT_EQ(in.u8(),
              static_cast<std::uint8_t>(exec::wire::message::result));
    EXPECT_EQ(in.u64(), 0u);
    in.expect_done();
}

TEST(WorkerSession, ShutdownFlipsTheFlagAndRepliesNothing) {
    exec::worker_session session;
    exec::wire::writer out;
    out.u8(static_cast<std::uint8_t>(exec::wire::message::shutdown));
    EXPECT_FALSE(session.shutdown_requested());
    EXPECT_TRUE(session.handle(out.data()).empty());
    EXPECT_TRUE(session.shutdown_requested());
}

} // namespace
