// The message-channel seam between a coordinator and its workers: the
// transport interface the worker fleet (exec/fleet.h) ships span
// requests over, the error type that marks a worker as gone, and the
// transport-free worker side of the protocol. The byte formats
// themselves live in exec/serialise.h.
#ifndef QUORUM_EXEC_WIRE_H
#define QUORUM_EXEC_WIRE_H

#include <cstdint>
#include <functional>
#include <memory>
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
/// payloads of exec/serialise.h; framing (length prefixes, fds, sockets)
/// is the transport's business. Implementations throw transport_error
/// when the peer is unreachable.
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

/// The worker side of the protocol, transport-agnostic: feed one request
/// payload, get the reply payload. The quorum_worker binary wraps this in
/// a stdin/stdout frame loop; in-process loopback transports call it
/// directly, which is what lets the test suite drive every protocol path
/// (including fault injection) without spawning processes.
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

} // namespace quorum::exec

#endif // QUORUM_EXEC_WIRE_H
