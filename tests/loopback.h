// In-process worker transport for the tests: runs the worker side
// (exec::worker_session) inline, so a fleet speaks the full protocol
// without processes.
#ifndef QUORUM_TESTS_LOOPBACK_H
#define QUORUM_TESTS_LOOPBACK_H

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "exec/wire.h"

namespace quorum::test {

class loopback_transport : public exec::wire_transport {
public:
    void send_message(std::span<const std::uint8_t> payload) override {
        replies_.push_back(session_.handle(payload));
    }

    [[nodiscard]] std::vector<std::uint8_t> recv_message() override {
        if (replies_.empty()) {
            throw exec::transport_error("no reply queued");
        }
        std::vector<std::uint8_t> reply = std::move(replies_.front());
        replies_.pop_front();
        return reply;
    }

private:
    exec::worker_session session_;
    std::deque<std::vector<std::uint8_t>> replies_;
};

inline exec::transport_factory loopback_factory() {
    return [](std::size_t) -> std::unique_ptr<exec::wire_transport> {
        return std::make_unique<loopback_transport>();
    };
}

} // namespace quorum::test

#endif // QUORUM_TESTS_LOOPBACK_H
