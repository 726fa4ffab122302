// Subprocess transport for the remote execution backend: spawns one
// quorum_worker per fleet lane over a Unix socketpair wired to the
// worker's stdin/stdout, and talks to it through a tcp_transport
// (exec/tcp_transport.h) that adopts the socketpair's other end. This
// class adds only the process: fork/exec, and the reap.
#ifndef QUORUM_EXEC_PROCESS_TRANSPORT_H
#define QUORUM_EXEC_PROCESS_TRANSPORT_H

#include <optional>
#include <string>

#include "exec/tcp_transport.h"

namespace quorum::exec {

/// One spawned quorum_worker process. send/recv throw transport_error
/// when the worker is gone (EOF, EPIPE, spawn failure discovered on
/// first read); the destructor closes the channel (the worker exits on
/// EOF) and reaps the process.
class process_transport final : public wire_transport {
public:
    /// Spawns `binary` with the socketpair as its stdin and stdout.
    /// Throws transport_error when the process cannot be created; an
    /// unexecutable binary surfaces as transport_error on the first
    /// recv_message (the child exits before replying).
    explicit process_transport(const std::string& binary);

    ~process_transport() override;

    void send_message(std::span<const std::uint8_t> payload) override;
    [[nodiscard]] std::vector<std::uint8_t> recv_message() override;

private:
    std::optional<tcp_transport> channel_;
    long pid_ = -1;
};

/// Resolves the worker binary: $QUORUM_WORKER when set, else a
/// `quorum_worker` sibling of the current executable (the build tree
/// layout places quorum_cli and quorum_worker side by side), else plain
/// "quorum_worker" (PATH lookup by exec).
[[nodiscard]] std::string default_worker_binary();

/// The remote backend's default factory: spawns default_worker_binary()
/// (resolved at spawn time, so QUORUM_WORKER set after construction is
/// honoured) once per lane.
[[nodiscard]] transport_factory process_transport_factory();

} // namespace quorum::exec

#endif // QUORUM_EXEC_PROCESS_TRANSPORT_H
