#include "exec/tcp_transport.h"

#include <utility>

#include "util/contracts.h"

namespace quorum::exec {

tcp_transport::tcp_transport(const util::endpoint& peer,
                             const tcp_options& options)
    : peer_(peer.str()), options_(options) {
    try {
        fd_ = util::connect_tcp(peer, options_.connect_timeout_ms);
    } catch (const util::net_error& error) {
        throw transport_error(error.what());
    }
}

tcp_transport::tcp_transport(util::unique_fd fd, std::string peer_label,
                             const tcp_options& options)
    : fd_(std::move(fd)), peer_(std::move(peer_label)), options_(options) {
    QUORUM_EXPECTS_MSG(fd_.valid(),
                       "tcp transport adopted an invalid socket");
}

void tcp_transport::send_message(std::span<const std::uint8_t> payload) {
    wire::send_frame(fd_.get(), payload, options_.io_timeout_ms, peer_);
}

std::vector<std::uint8_t> tcp_transport::recv_message() {
    std::optional<std::vector<std::uint8_t>> payload =
        wire::recv_frame(fd_.get(), options_.io_timeout_ms, peer_);
    if (!payload) {
        throw transport_error(peer_ + ": peer closed the connection");
    }
    return std::move(*payload);
}

transport_factory
tcp_transport_factory(std::vector<util::endpoint> endpoints,
                      tcp_options options) {
    QUORUM_EXPECTS_MSG(!endpoints.empty(),
                       "tcp transport factory needs at least one endpoint");
    return [endpoints = std::move(endpoints),
            options](std::size_t index) -> std::unique_ptr<wire_transport> {
        return std::make_unique<tcp_transport>(
            endpoints[index % endpoints.size()], options);
    };
}

} // namespace quorum::exec
