// Binary wire format for remote execution.
//
// The worker fleet (behind remote:<inner> and quorum_serve) ships a span's
// work — the compiled program (or per-level program family), the span's
// samples, and the per-sample RNG stream snapshots — to a quorum_worker
// process and gets the span's readout values back. This header is the
// single definition of that format: primitive little-endian writer/reader
// types with bounds-checked decoding, plus codecs for every composite the
// protocol carries.
//
// Format rules (documented for humans in docs/ARCHITECTURE.md — keep the
// two in sync; tests/exec/test_serialise.cpp decodes the doc's example
// payload against this implementation):
//   * every integer is little-endian, fixed width;
//   * doubles travel as their IEEE-754 binary64 bit pattern (bit_cast to
//     u64), so values — including NaNs and signed zeros — round-trip
//     bit-exactly, which is what keeps remote scores IEEE == to local;
//   * strings are u32 length + raw bytes;
//   * decoding malformed input ALWAYS throws util::contract_error —
//     truncation, out-of-range enum bytes and absurd counts fail
//     structurally, never as UB (the ASan+UBSan CI job runs the
//     corruption suite);
//   * any layout change bumps protocol_version; the hello handshake
//     rejects mismatched versions (there is no compatibility window —
//     workers are always spawned from the same build).
#ifndef QUORUM_EXEC_SERIALISE_H
#define QUORUM_EXEC_SERIALISE_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/schedule.h"
#include "util/rng.h"

namespace quorum::exec::wire {

/// First four bytes of a hello body: "QRMW" read as a little-endian u32.
inline constexpr std::uint32_t protocol_magic = 0x574D5251u;

/// Bumped on ANY layout change; both handshake sides must match exactly.
/// v2: compile_options gained the prep-style byte (angle encoding's
/// product-state lowering travels with the program template).
/// v3: dropped what no worker reads — the span header's rng seed, the
/// program block's two fusion bytes and its parameterized-op count (the
/// decoder takes it from the prefix length).
inline constexpr std::uint32_t protocol_version = 3;

/// Upper bound on one frame's payload (exec/wire.h's send_frame and
/// recv_frame check it, so a corrupt length never becomes an allocation).
inline constexpr std::size_t max_message_bytes = std::size_t{1} << 28;

/// Message type tag — the first byte of every payload.
enum class message : std::uint8_t {
    hello = 1,           ///< client -> worker: version check + engine setup
    hello_ack = 2,       ///< worker -> client: version echo
    run_span = 3,        ///< client -> worker: one shard_work span, run_batch
    run_levels_span = 4, ///< client -> worker: span across a level family
    result = 5,          ///< worker -> client: the span's readout values
    error = 6,           ///< worker -> client: structured failure message
    shutdown = 7,        ///< client -> worker: exit cleanly
};

/// Appends little-endian primitives to a byte buffer.
class writer {
public:
    void u8(std::uint8_t value) { out_.push_back(value); }
    void u32(std::uint32_t value);
    void u64(std::uint64_t value);
    /// IEEE-754 bit pattern via bit_cast — bit-exact, NaN-safe.
    void f64(double value);
    void str(std::string_view text);
    void bytes(std::span<const std::uint8_t> raw);

    [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
        return out_;
    }
    [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
        return std::move(out_);
    }

private:
    std::vector<std::uint8_t> out_;
};

/// Bounds-checked little-endian reads over a byte span. Every read (and
/// every count-guarded bulk decode) throws util::contract_error on
/// truncation instead of reading past the end.
class reader {
public:
    explicit reader(std::span<const std::uint8_t> data) : data_(data) {}

    [[nodiscard]] std::uint8_t u8();
    [[nodiscard]] std::uint32_t u32();
    [[nodiscard]] std::uint64_t u64();
    [[nodiscard]] double f64();
    [[nodiscard]] std::string str();
    /// Bounds-checked bulk read: a view of the next `count` raw bytes
    /// (valid for the lifetime of the underlying buffer).
    [[nodiscard]] std::span<const std::uint8_t> raw(std::size_t count);

    /// Bytes not yet consumed.
    [[nodiscard]] std::size_t remaining() const noexcept {
        return data_.size() - cursor_;
    }
    /// Throws unless at least `count` elements of `element_bytes` each are
    /// still available — called before trusting a decoded count, so a
    /// corrupt length can never drive a huge allocation.
    void expect_available(std::uint64_t count, std::size_t element_bytes);
    /// Throws unless the whole span was consumed (trailing garbage is a
    /// framing bug, not data).
    void expect_done() const;

private:
    std::span<const std::uint8_t> data_;
    std::size_t cursor_ = 0;
};

// --- composite codecs -------------------------------------------------------

/// Span metadata: shard index and sample span (see exec::shard_work). The
/// program handle does not travel — the program block does, separately —
/// so decode leaves `prog` null.
void encode_shard_work(writer& out, const shard_work& work);
[[nodiscard]] shard_work decode_shard_work(reader& in);

/// A program: readout spec + the compiled circuit's template (slots,
/// parameterized prefix, suffix ops, prep style). The decoder reassembles
/// the template circuit and re-compiles it with the same options, which
/// reproduces every precomputed matrix bit-identically — enforced by the
/// round-trip property tests.
void encode_program(writer& out, const program& prog);
[[nodiscard]] program decode_program(reader& in);

/// Engine parameters (sampling mode, shots, noise model). `shards` does
/// not travel: a worker always runs its inner backend on its own.
void encode_engine_config(writer& out, const engine_config& config);
[[nodiscard]] engine_config decode_engine_config(reader& in);

/// A decoded batch: owning storage for every sample's amplitudes, prefix
/// params and reconstructed rng streams, plus the exec::sample views into
/// it. The views stay valid for the block's lifetime (storage never
/// reallocates after decode).
struct sample_block {
    std::vector<double> amplitudes;
    std::vector<double> prefix_params;
    std::vector<util::rng> gens;
    std::vector<util::rng*> gen_ptrs;
    std::vector<sample> samples;
};

/// Encodes a batch of samples. `levels` == 0 writes run_batch shape (one
/// optional stream per sample, from sample::gen); `levels` >= 1 writes
/// run_batch_levels shape (one stream per level per sample, from
/// sample::level_gens). `with_rng` must match the engine's sampling mode;
/// streams are shipped as full snapshots (util::rng_state), so the worker
/// resumes each stream at exactly the caller's position.
void encode_samples(writer& out, std::span<const sample> samples,
                    std::size_t levels, bool with_rng);
[[nodiscard]] sample_block decode_samples(reader& in, std::size_t levels);

// --- whole-message builders -------------------------------------------------
//
// Shared by every protocol participant (remote backend, worker fleet,
// quorum_worker), so there is exactly one place each message's layout is
// written down in code.

/// A hello body: magic + version + the inner backend name + engine
/// parameters the worker must instantiate.
[[nodiscard]] std::vector<std::uint8_t>
encode_hello(const std::string& inner, const engine_config& config);

/// Validates a handshake reply against this build's magic/version.
/// Throws util::contract_error naming `peer` on an error reply, a
/// malformed ack, or a protocol version mismatch.
void check_hello_ack(std::span<const std::uint8_t> reply,
                     const std::string& peer);

/// One run_span / run_levels_span request: span metadata, the (shared,
/// byte-identical per batch) program block, and the span's samples.
/// `levels` == 0 builds a run_span request; >= 1 a run_levels_span over
/// that many levels.
[[nodiscard]] std::vector<std::uint8_t>
encode_span_request(const shard_work& span,
                    std::span<const std::uint8_t> program_block,
                    std::span<const sample> span_samples, std::size_t levels,
                    bool with_rng);

[[nodiscard]] std::vector<std::uint8_t>
encode_error_reply(const std::string& text);
[[nodiscard]] std::vector<std::uint8_t>
encode_result_reply(std::span<const double> values);
[[nodiscard]] std::vector<std::uint8_t> encode_shutdown();

} // namespace quorum::exec::wire

#endif // QUORUM_EXEC_SERIALISE_H
