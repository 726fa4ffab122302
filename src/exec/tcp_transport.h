// Socket transport for remote execution: the wire_transport seam
// (exec/wire.h) over a TCP connection, or over any connected stream
// socket it adopts (process_transport's socketpair to a spawned worker).
// Every message travels as one wire::send_frame / wire::recv_frame
// frame, so a `quorum_worker --listen` on the other end of the network
// is indistinguishable from one on the other end of a socketpair.
//
// Every failure (refused connection, timeout, reset, mid-frame EOF)
// surfaces as transport_error naming "host:port", which slots straight
// into the worker fleet's fault model (exec/fleet.h): a worker death —
// reconnect the lane, requeue the span once — whose exhausted-requeue
// contract_errors carry the endpoint through to the user.
#ifndef QUORUM_EXEC_TCP_TRANSPORT_H
#define QUORUM_EXEC_TCP_TRANSPORT_H

#include <string>
#include <vector>

#include "exec/wire.h"
#include "util/net.h"

namespace quorum::exec {

struct tcp_options {
    /// Bound on dialing a worker. Short: a worker that cannot complete a
    /// TCP handshake in seconds is down, and the fleet should move on.
    int connect_timeout_ms = 5000;
    /// Per-message I/O deadline. Generous on purpose — a worker
    /// legitimately computes for the whole span before its reply frame
    /// appears, so this bounds "worker wedged", not "worker slow".
    /// < 0 disables the deadline.
    int io_timeout_ms = 120000;
};

class tcp_transport final : public wire_transport {
public:
    /// Dials `peer` (bounded by options.connect_timeout_ms). Throws
    /// transport_error naming host:port on refusal or timeout.
    explicit tcp_transport(const util::endpoint& peer,
                           const tcp_options& options = {});

    /// Adopts an already-connected socket (a worker that dialed in and
    /// registered with the coordinator). `peer_label` names the remote
    /// side in every subsequent error.
    tcp_transport(util::unique_fd fd, std::string peer_label,
                  const tcp_options& options = {});

    void send_message(std::span<const std::uint8_t> payload) override;
    [[nodiscard]] std::vector<std::uint8_t> recv_message() override;

    [[nodiscard]] const std::string& peer() const noexcept { return peer_; }

private:
    util::unique_fd fd_;
    std::string peer_;
    tcp_options options_;
};

/// Transport factory over a fixed endpoint list: lane `index` connects to
/// `endpoints[index % endpoints.size()]`, so more lanes than workers
/// round-robins connections (each `--listen` worker serves its
/// connections concurrently).
[[nodiscard]] transport_factory
tcp_transport_factory(std::vector<util::endpoint> endpoints,
                      tcp_options options = {});

} // namespace quorum::exec

#endif // QUORUM_EXEC_TCP_TRANSPORT_H
