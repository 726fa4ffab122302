// Minimal TCP helpers for the serving layer: endpoint parsing, an RAII
// file descriptor, connect/listen/accept with timeouts, and deadline-bound
// full-buffer I/O. POSIX sockets only — the serving stack targets the
// same Linux containers the rest of the toolchain runs in.
//
// Error split mirrors the execution layer: malformed endpoint STRINGS are
// configuration mistakes and throw util::contract_error; everything the
// network can do to you at runtime (refusal, timeout, EOF, resets) throws
// net_error, which transports translate into their own retryable error
// type. Every net_error message names the peer ("host:port"), so the
// failure chains that reach users stay attributable.
#ifndef QUORUM_UTIL_NET_H
#define QUORUM_UTIL_NET_H

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace quorum::util {

/// A runtime network failure (refused connection, timeout, peer gone).
/// Messages always name the peer endpoint.
class net_error : public std::runtime_error {
public:
    explicit net_error(const std::string& what_arg)
        : std::runtime_error(what_arg) {}
};

/// A numeric IPv4 "host:port" pair. Hostname resolution is deliberately
/// out of scope: workers and coordinators address each other by numeric
/// address (loopback in every test and CI path), so the fleet never
/// blocks inside a resolver.
struct endpoint {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;

    [[nodiscard]] std::string str() const {
        return host + ":" + std::to_string(port);
    }
};

/// Parses "host:port" (host optional: ":8400" and plain "8400" mean
/// loopback). Throws util::contract_error on malformed text — endpoint
/// strings come from flags/config, so this is validation, not I/O.
[[nodiscard]] endpoint parse_endpoint(const std::string& text);

/// Owning file descriptor with unique_ptr semantics.
class unique_fd {
public:
    unique_fd() = default;
    explicit unique_fd(int fd) noexcept : fd_(fd) {}
    ~unique_fd() { reset(); }

    unique_fd(unique_fd&& other) noexcept : fd_(other.release()) {}
    unique_fd& operator=(unique_fd&& other) noexcept {
        if (this != &other) {
            reset(other.release());
        }
        return *this;
    }
    unique_fd(const unique_fd&) = delete;
    unique_fd& operator=(const unique_fd&) = delete;

    [[nodiscard]] int get() const noexcept { return fd_; }
    [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
    [[nodiscard]] int release() noexcept {
        const int fd = fd_;
        fd_ = -1;
        return fd;
    }
    void reset(int fd = -1) noexcept;

private:
    int fd_ = -1;
};

/// Connects to `peer` with a bounded wait (non-blocking connect + poll).
/// `timeout_ms` < 0 blocks indefinitely. Throws net_error naming the
/// endpoint on refusal, timeout, or any socket failure.
[[nodiscard]] unique_fd connect_tcp(const endpoint& peer, int timeout_ms);

/// Binds and listens on `local` (port 0 picks an ephemeral port — read it
/// back with bound_port). SO_REUSEADDR is set so a restarted worker can
/// reclaim its old port immediately.
[[nodiscard]] unique_fd listen_tcp(const endpoint& local, int backlog = 16);

/// The locally bound port of a listening (or connected) socket.
[[nodiscard]] std::uint16_t bound_port(int fd);

/// Accepts one connection. `timeout_ms` < 0 blocks indefinitely; on
/// timeout returns an invalid fd (polling accept loops need a periodic
/// shutdown check, not an exception). Throws net_error on socket errors.
[[nodiscard]] unique_fd accept_tcp(int listen_fd, int timeout_ms);

/// Writes the whole buffer before `timeout_ms` elapses (< 0 = no
/// deadline). EINTR-safe; MSG_NOSIGNAL so a dead peer is an error, not a
/// SIGPIPE. A descriptor that is not a socket (a worker's stdout on a
/// pipe or file) is written with write(2), where SIGPIPE is the
/// process's to ignore. Throws net_error naming `peer`.
void send_all(int fd, const void* data, std::size_t size, int timeout_ms,
              const std::string& peer);

/// Reads exactly `size` bytes before the deadline; EOF anywhere inside
/// the buffer throws (the peer died mid-message). Reads with read(2), so
/// any readable descriptor serves, not only a socket (a worker's stdin
/// on /dev/null or a pipe).
void recv_all(int fd, void* data, std::size_t size, int timeout_ms,
              const std::string& peer);

/// Like recv_all, but a clean EOF BEFORE the first byte returns false —
/// the "peer closed between frames" case every frame loop must
/// distinguish from mid-frame death.
[[nodiscard]] bool recv_all_or_eof(int fd, void* data, std::size_t size,
                                   int timeout_ms, const std::string& peer);

/// Buffered '\n'-delimited reads over a socket, for the quorum_serve text
/// protocol. Not a general line parser: lines are bounded (a client
/// streaming an unterminated gigabyte is a protocol violation, not a
/// buffering challenge).
class line_reader {
public:
    /// Longest accepted line, terminator included.
    static constexpr std::size_t max_line_bytes = std::size_t{1} << 20;

    line_reader(int fd, int timeout_ms, std::string peer)
        : fd_(fd), timeout_ms_(timeout_ms), peer_(std::move(peer)) {}

    /// Reads through the next '\n' (stripping it, and a preceding '\r').
    /// Returns false on clean EOF at a line boundary; EOF mid-line, an
    /// over-long line, or a timeout throws net_error.
    [[nodiscard]] bool read_line(std::string& line);

private:
    int fd_;
    int timeout_ms_;
    std::string peer_;
    std::vector<char> buffer_;
    std::size_t begin_ = 0;
    std::size_t end_ = 0;
};

} // namespace quorum::util

#endif // QUORUM_UTIL_NET_H
