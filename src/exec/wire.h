// The message-channel seam between a coordinator and its workers: the
// transport interface the worker fleet (exec/fleet.h) ships span
// requests over, the error type that marks a worker as gone, the one
// frame every channel carries (a u32 little-endian length, then the
// payload), and the worker side of the protocol: worker_session for one
// request, serve_channel for a whole channel. The payload formats live
// in exec/serialise.h.
#ifndef QUORUM_EXEC_WIRE_H
#define QUORUM_EXEC_WIRE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/executor.h"

namespace quorum::exec {

/// Thrown by transports when the peer is gone (process death, closed
/// pipe, spawn failure). Distinct from util::contract_error so the fleet
/// can classify it as retryable — reconnect the lane, requeue the span —
/// instead of a protocol/programming error.
class transport_error : public std::runtime_error {
public:
    explicit transport_error(const std::string& what_arg)
        : std::runtime_error(what_arg) {}
};

/// One bidirectional message channel to a worker. Messages are the wire
/// payloads of exec/serialise.h; the socket transports carry each one as
/// a frame (wire::send_frame / wire::recv_frame). Implementations throw
/// transport_error when the peer is unreachable.
class wire_transport {
public:
    virtual ~wire_transport() = default;

    wire_transport(const wire_transport&) = delete;
    wire_transport& operator=(const wire_transport&) = delete;

    virtual void send_message(std::span<const std::uint8_t> payload) = 0;
    [[nodiscard]] virtual std::vector<std::uint8_t> recv_message() = 0;

protected:
    wire_transport() = default;
};

/// Creates the transport for worker `index` — called once per worker at
/// first use and again after a worker death (restart). The default
/// factory spawns quorum_worker subprocesses (exec/process_transport.h);
/// tests substitute in-process loopback and fault-injecting transports.
using transport_factory =
    std::function<std::unique_ptr<wire_transport>(std::size_t index)>;

namespace wire {

/// Writes one frame to `fd`: the payload's size as a u32 little-endian
/// header, then the payload, within `timeout_ms` per write (< 0: no
/// deadline). Throws util::contract_error for a payload over
/// max_message_bytes, and transport_error naming `peer` when the write
/// fails or times out.
void send_frame(int fd, std::span<const std::uint8_t> payload,
                int timeout_ms, const std::string& peer);

/// Reads one frame from `fd`. Returns nullopt when the peer closed the
/// channel cleanly between frames. Throws transport_error naming `peer`
/// for a close inside a frame, a header over max_message_bytes (before
/// allocating), a failed read or a timeout.
[[nodiscard]] std::optional<std::vector<std::uint8_t>>
recv_frame(int fd, int timeout_ms, const std::string& peer);

} // namespace wire

/// The worker side of the protocol, transport-agnostic: feed one request
/// payload, get the reply payload. serve_channel wraps this in a frame
/// loop; in-process loopback transports call it directly, which is what
/// lets the test suite drive every protocol path (including fault
/// injection) without spawning processes.
class worker_session {
public:
    worker_session() = default;

    /// Handles one request and returns the reply payload (result, error,
    /// or hello_ack). Never throws for malformed/failed requests — those
    /// become error replies — so one bad span cannot kill a worker that
    /// other spans are queued on. The reply to `shutdown` is empty and
    /// shutdown_requested() flips to true.
    [[nodiscard]] std::vector<std::uint8_t>
    handle(std::span<const std::uint8_t> request);

    [[nodiscard]] bool shutdown_requested() const noexcept {
        return shutdown_;
    }

private:
    std::unique_ptr<executor> engine_;
    bool shutdown_ = false;
    /// Decode cache: consecutive spans of one batch carry byte-identical
    /// program blocks, so the recompile is paid once per batch, not once
    /// per span.
    std::vector<std::uint8_t> cached_block_;
    std::vector<program> cached_programs_;
};

/// How serve_channel ended.
enum class channel_end {
    clean_close, ///< the client closed the channel between frames
    shutdown,    ///< the client sent a shutdown message
    failure,     ///< a close inside a frame, an oversized frame, a failed
                 ///< read or write
};

struct channel_outcome {
    channel_end end = channel_end::clean_close;
    std::string error; ///< what failed; empty unless end == failure
};

/// The worker's frame loop over one channel: a fresh worker_session (no
/// engine or program cache crosses channels), one reply frame to
/// `out_fd` per request frame from `in_fd` (one socket, or a worker's
/// stdin and stdout), no deadline — a worker waits on its client. Ends
/// at a shutdown message, without replying to it. Never throws and
/// logs nothing: the caller reports a failure.
[[nodiscard]] channel_outcome serve_channel(int in_fd, int out_fd);

} // namespace quorum::exec

#endif // QUORUM_EXEC_WIRE_H
