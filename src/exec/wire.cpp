#include "exec/wire.h"

#include <algorithm>

#include "exec/registry.h"
#include "exec/serialise.h"
#include "util/contracts.h"
#include "util/net.h"

namespace quorum::exec {

std::vector<std::uint8_t>
worker_session::handle(std::span<const std::uint8_t> request) {
    try {
        wire::reader in(request);
        const std::uint8_t type = in.u8();
        switch (static_cast<wire::message>(type)) {
        case wire::message::hello: {
            const std::uint32_t magic = in.u32();
            const std::uint32_t version = in.u32();
            QUORUM_EXPECTS_MSG(magic == wire::protocol_magic,
                               "wire: bad protocol magic in hello");
            QUORUM_EXPECTS_MSG(
                version == wire::protocol_version,
                "wire: protocol version mismatch (worker speaks " +
                    std::to_string(wire::protocol_version) +
                    ", client sent " + std::to_string(version) + ")");
            const std::string inner = in.str();
            const engine_config config = wire::decode_engine_config(in);
            in.expect_done();
            // Same rule as the client-side probe: a worker engine is one
            // PLAIN backend. In particular "remote" must fail here — a
            // corrupted hello must never make a worker spawn grandchild
            // workers.
            QUORUM_EXPECTS_MSG(is_plain_engine_name(inner),
                               "wire: worker engines are plain backend "
                               "names");
            engine_ = make_executor(inner, config);
            cached_block_.clear();
            cached_programs_.clear();
            wire::writer out;
            out.u8(static_cast<std::uint8_t>(wire::message::hello_ack));
            out.u32(wire::protocol_magic);
            out.u32(wire::protocol_version);
            return out.take();
        }
        case wire::message::run_span:
        case wire::message::run_levels_span: {
            QUORUM_EXPECTS_MSG(engine_ != nullptr,
                               "wire: run request before hello");
            const bool multi_level =
                type ==
                static_cast<std::uint8_t>(wire::message::run_levels_span);
            const shard_work span = wire::decode_shard_work(in);
            const std::uint32_t block_len = in.u32();
            const std::span<const std::uint8_t> block = in.raw(block_len);
            // Cache key: request shape byte + the raw block. Compared in
            // place — consecutive spans of one batch carry byte-identical
            // blocks, so the recompile (and any copy) is paid once per
            // batch.
            const bool cache_hit =
                cached_block_.size() == std::size_t{block_len} + 1 &&
                cached_block_[0] == type &&
                std::equal(block.begin(), block.end(),
                           cached_block_.begin() + 1);
            if (!cache_hit) {
                wire::reader block_in(block);
                std::vector<program> programs;
                if (multi_level) {
                    const std::uint32_t levels = block_in.u32();
                    QUORUM_EXPECTS_MSG(levels >= 1,
                                       "wire: a level family needs at "
                                       "least one program");
                    block_in.expect_available(levels, 1);
                    programs.reserve(levels);
                    for (std::uint32_t k = 0; k < levels; ++k) {
                        programs.push_back(wire::decode_program(block_in));
                    }
                } else {
                    programs.push_back(wire::decode_program(block_in));
                }
                block_in.expect_done();
                cached_programs_ = std::move(programs);
                cached_block_.assign(1, type);
                cached_block_.insert(cached_block_.end(), block.begin(),
                                     block.end());
            }
            const std::size_t levels =
                multi_level ? cached_programs_.size() : 0;
            wire::sample_block samples = wire::decode_samples(in, levels);
            in.expect_done();
            QUORUM_EXPECTS_MSG(samples.samples.size() == span.count,
                               "wire: sample count does not match the "
                               "span");
            std::vector<double> out_values(
                span.count * (multi_level ? levels : 1));
            if (multi_level) {
                engine_->run_batch_levels(cached_programs_, samples.samples,
                                          out_values);
            } else if (!out_values.empty()) {
                engine_->run_batch(cached_programs_[0], samples.samples,
                                   out_values);
            }
            return wire::encode_result_reply(out_values);
        }
        case wire::message::shutdown: {
            in.expect_done();
            shutdown_ = true;
            return {};
        }
        default:
            throw util::contract_error(
                "wire: unexpected message type " + std::to_string(type));
        }
    } catch (const std::exception& error) {
        return wire::encode_error_reply(error.what());
    }
}

channel_outcome serve_channel(int in_fd, int out_fd) {
    const std::string peer = "client";
    worker_session session;
    try {
        while (const std::optional<std::vector<std::uint8_t>> request =
                   wire::recv_frame(in_fd, -1, peer)) {
            const std::vector<std::uint8_t> reply = session.handle(*request);
            if (session.shutdown_requested()) {
                return {channel_end::shutdown, {}};
            }
            wire::send_frame(out_fd, reply, -1, peer);
        }
        return {channel_end::clean_close, {}};
    } catch (const std::exception& error) {
        return {channel_end::failure, error.what()};
    }
}

namespace wire {

void send_frame(int fd, std::span<const std::uint8_t> payload,
                int timeout_ms, const std::string& peer) {
    QUORUM_EXPECTS_MSG(payload.size() <= max_message_bytes,
                       "wire: message exceeds the frame size limit");
    std::uint8_t header[4];
    const auto size = static_cast<std::uint32_t>(payload.size());
    for (int shift = 0; shift < 32; shift += 8) {
        header[shift / 8] = static_cast<std::uint8_t>(size >> shift);
    }
    try {
        util::send_all(fd, header, sizeof(header), timeout_ms, peer);
        util::send_all(fd, payload.data(), payload.size(), timeout_ms, peer);
    } catch (const util::net_error& error) {
        throw transport_error(error.what());
    }
}

std::optional<std::vector<std::uint8_t>>
recv_frame(int fd, int timeout_ms, const std::string& peer) {
    try {
        std::uint8_t header[4];
        if (!util::recv_all_or_eof(fd, header, sizeof(header), timeout_ms,
                                   peer)) {
            return std::nullopt;
        }
        std::uint32_t size = 0;
        for (int shift = 0; shift < 32; shift += 8) {
            size |= static_cast<std::uint32_t>(header[shift / 8]) << shift;
        }
        if (size > max_message_bytes) {
            throw transport_error(peer + ": sent an oversized frame (" +
                                  std::to_string(size) + " bytes)");
        }
        std::vector<std::uint8_t> payload(size);
        util::recv_all(fd, payload.data(), payload.size(), timeout_ms,
                       peer);
        return payload;
    } catch (const util::net_error& error) {
        throw transport_error(error.what());
    }
}

} // namespace wire

} // namespace quorum::exec
