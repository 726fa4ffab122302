#include "util/net.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/contracts.h"

namespace quorum::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw net_error(what + ": " + std::strerror(errno));
}

/// Absolute deadline for one whole operation: partial progress must not
/// reset the clock, or a peer trickling one byte per poll interval could
/// hold a "bounded" read open forever.
class deadline {
public:
    explicit deadline(int timeout_ms) : bounded_(timeout_ms >= 0) {
        if (bounded_) {
            expiry_ = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(timeout_ms);
        }
    }

    /// Milliseconds left, clamped to >= 0; -1 when unbounded (poll's
    /// "wait forever").
    [[nodiscard]] int remaining_ms() const {
        if (!bounded_) {
            return -1;
        }
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                expiry_ - std::chrono::steady_clock::now())
                .count();
        return left > 0 ? static_cast<int>(left) : 0;
    }

    [[nodiscard]] bool expired() const {
        return bounded_ && remaining_ms() == 0;
    }

private:
    bool bounded_;
    std::chrono::steady_clock::time_point expiry_;
};

/// Polls until `events` is ready or the deadline passes. Returns false on
/// timeout; throws on poll failure.
bool wait_ready(int fd, short events, const deadline& until,
                const std::string& peer, const char* what) {
    for (;;) {
        pollfd entry{};
        entry.fd = fd;
        entry.events = events;
        const int n = ::poll(&entry, 1, until.remaining_ms());
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            throw_errno(peer + ": " + what + " poll failed");
        }
        if (n == 0) {
            return false; // timed out
        }
        return true; // readable/writable — or an error the I/O call reports
    }
}

in_addr parse_host(const std::string& host, const std::string& peer) {
    in_addr address{};
    if (::inet_pton(AF_INET, host.c_str(), &address) != 1) {
        throw net_error(peer + ": not a numeric IPv4 address");
    }
    return address;
}

sockaddr_in make_sockaddr(const endpoint& where) {
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(where.port);
    address.sin_addr = parse_host(where.host, where.str());
    return address;
}

/// Every quorum protocol is request/response with small framed writes
/// (4-byte length header, then payload): the classic write-write-read
/// shape that Nagle + delayed ACK stretches into ~40 ms stalls per round
/// trip. Disable Nagle on every TCP socket — measured on the serve bench
/// this is the difference between ~350 ms and ~10 ms per request.
void set_nodelay(int fd, const std::string& label) {
    const int enable = 1;
    if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable,
                     sizeof(enable)) != 0) {
        throw_errno(label + ": setsockopt TCP_NODELAY failed");
    }
}

} // namespace

endpoint parse_endpoint(const std::string& text) {
    QUORUM_EXPECTS_MSG(!text.empty(), "endpoint must not be empty");
    endpoint result;
    const std::size_t colon = text.rfind(':');
    std::string port_text;
    if (colon == std::string::npos) {
        port_text = text; // plain "8400"
    } else {
        if (colon > 0) {
            result.host = text.substr(0, colon);
        }
        port_text = text.substr(colon + 1);
    }
    QUORUM_EXPECTS_MSG(!port_text.empty(),
                       "endpoint '" + text + "' is missing a port");
    unsigned long value = 0;
    for (const char c : port_text) {
        QUORUM_EXPECTS_MSG(std::isdigit(static_cast<unsigned char>(c)) != 0,
                           "endpoint '" + text + "' has a non-numeric port");
        value = value * 10 + static_cast<unsigned long>(c - '0');
        QUORUM_EXPECTS_MSG(value <= 65535,
                           "endpoint '" + text + "' port is out of range");
    }
    result.port = static_cast<std::uint16_t>(value);
    QUORUM_EXPECTS_MSG(result.host.find(':') == std::string::npos,
                       "endpoint '" + text + "' has a malformed host");
    in_addr probe{};
    QUORUM_EXPECTS_MSG(::inet_pton(AF_INET, result.host.c_str(), &probe) == 1,
                       "endpoint '" + text +
                           "' host is not a numeric IPv4 address");
    return result;
}

void unique_fd::reset(int fd) noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
    }
    fd_ = fd;
}

unique_fd connect_tcp(const endpoint& peer, int timeout_ms) {
    const std::string label = peer.str();
    const deadline until(timeout_ms);
    unique_fd fd(
        ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0));
    if (!fd.valid()) {
        throw_errno(label + ": socket failed");
    }
    const sockaddr_in address = make_sockaddr(peer);
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) != 0 &&
        errno != EINPROGRESS) {
        throw_errno(label + ": connect failed");
    }
    if (!wait_ready(fd.get(), POLLOUT, until, label, "connect")) {
        throw net_error(label + ": connect timed out");
    }
    int error = 0;
    socklen_t error_len = sizeof(error);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &error, &error_len) !=
        0) {
        throw_errno(label + ": getsockopt failed");
    }
    if (error != 0) {
        throw net_error(label +
                        ": connect failed: " + std::strerror(error));
    }
    // Back to blocking: all subsequent I/O bounds itself with poll, and a
    // blocking fd keeps the EAGAIN handling out of every call site.
    const int flags = ::fcntl(fd.get(), F_GETFL);
    if (flags < 0 ||
        ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK) != 0) {
        throw_errno(label + ": fcntl failed");
    }
    set_nodelay(fd.get(), label);
    return fd;
}

unique_fd listen_tcp(const endpoint& local, int backlog) {
    const std::string label = local.str();
    unique_fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid()) {
        throw_errno(label + ": socket failed");
    }
    const int enable = 1;
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &enable,
                     sizeof(enable)) != 0) {
        throw_errno(label + ": setsockopt failed");
    }
    const sockaddr_in address = make_sockaddr(local);
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&address),
               sizeof(address)) != 0) {
        throw_errno(label + ": bind failed");
    }
    if (::listen(fd.get(), backlog) != 0) {
        throw_errno(label + ": listen failed");
    }
    return fd;
}

std::uint16_t bound_port(int fd) {
    sockaddr_in address{};
    socklen_t address_len = sizeof(address);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&address),
                      &address_len) != 0) {
        throw_errno("getsockname failed");
    }
    return ntohs(address.sin_port);
}

unique_fd accept_tcp(int listen_fd, int timeout_ms) {
    const deadline until(timeout_ms);
    for (;;) {
        if (!wait_ready(listen_fd, POLLIN, until, "listener", "accept")) {
            return unique_fd{}; // timeout: caller re-checks and loops
        }
        const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd >= 0) {
            unique_fd accepted(fd);
            set_nodelay(accepted.get(), "accepted connection");
            return accepted;
        }
        if (errno == EINTR || errno == ECONNABORTED) {
            continue; // the connection died in the backlog; keep serving
        }
        throw_errno("accept failed");
    }
}

// A bounded call polls before each I/O call, so its deadline holds
// against a peer that never reads or writes; its sends are MSG_DONTWAIT,
// so a blocking socket whose buffer fills mid-payload returns to the
// poll instead of waiting inside send(2). An unbounded call makes the
// I/O call first and polls only once it has seen EAGAIN (a non-blocking
// descriptor): on a blocking descriptor the call itself waits, and a
// poll(-1) in front of it would only add a syscall.

void send_all(int fd, const void* data, std::size_t size, int timeout_ms,
              const std::string& peer) {
    const deadline until(timeout_ms);
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    std::size_t sent = 0;
    bool wait = timeout_ms >= 0;
    const int flags = MSG_NOSIGNAL | (wait ? MSG_DONTWAIT : 0);
    while (sent < size) {
        if (wait && !wait_ready(fd, POLLOUT, until, peer, "send")) {
            throw net_error(peer + ": send timed out");
        }
        ssize_t n = ::send(fd, bytes + sent, size - sent, flags);
        if (n < 0 && errno == ENOTSOCK) {
            n = ::write(fd, bytes + sent, size - sent);
        }
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                wait = true; // non-blocking: poll from now on
                continue;
            }
            if (errno == EINTR) {
                continue;
            }
            throw_errno(peer + ": send failed");
        }
        sent += static_cast<std::size_t>(n);
    }
}

bool recv_all_or_eof(int fd, void* data, std::size_t size, int timeout_ms,
                     const std::string& peer) {
    const deadline until(timeout_ms);
    auto* bytes = static_cast<std::uint8_t*>(data);
    std::size_t received = 0;
    bool wait = timeout_ms >= 0;
    while (received < size) {
        if (wait && !wait_ready(fd, POLLIN, until, peer, "recv")) {
            throw net_error(peer + ": recv timed out");
        }
        const ssize_t n = ::read(fd, bytes + received, size - received);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                wait = true; // non-blocking: poll from now on
                continue;
            }
            if (errno == EINTR) {
                continue;
            }
            throw_errno(peer + ": recv failed");
        }
        if (n == 0) {
            if (received == 0) {
                return false; // clean close at a message boundary
            }
            throw net_error(peer + ": peer closed mid-message");
        }
        received += static_cast<std::size_t>(n);
    }
    return true;
}

void recv_all(int fd, void* data, std::size_t size, int timeout_ms,
              const std::string& peer) {
    if (!recv_all_or_eof(fd, data, size, timeout_ms, peer)) {
        throw net_error(peer + ": peer closed the connection");
    }
}

bool line_reader::read_line(std::string& line) {
    const deadline until(timeout_ms_);
    for (;;) {
        for (std::size_t i = begin_; i < end_; ++i) {
            if (buffer_[i] == '\n') {
                std::size_t len = i - begin_;
                if (len > 0 && buffer_[begin_ + len - 1] == '\r') {
                    --len;
                }
                line.assign(buffer_.data() + begin_, len);
                begin_ = i + 1;
                return true;
            }
        }
        const std::size_t pending = end_ - begin_;
        if (pending >= max_line_bytes) {
            throw net_error(peer_ + ": line exceeds " +
                            std::to_string(max_line_bytes) + " bytes");
        }
        // Compact, then grow the tail and read more.
        if (begin_ > 0) {
            std::memmove(buffer_.data(), buffer_.data() + begin_, pending);
            begin_ = 0;
            end_ = pending;
        }
        if (buffer_.size() < end_ + 4096) {
            buffer_.resize(end_ + 4096);
        }
        if (!wait_ready(fd_, POLLIN, until, peer_, "recv")) {
            throw net_error(peer_ + ": recv timed out");
        }
        const ssize_t n =
            ::recv(fd_, buffer_.data() + end_, buffer_.size() - end_, 0);
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK) {
                continue;
            }
            throw_errno(peer_ + ": recv failed");
        }
        if (n == 0) {
            if (pending == 0) {
                return false; // clean close between lines
            }
            throw net_error(peer_ + ": peer closed mid-line");
        }
        end_ += static_cast<std::size_t>(n);
    }
}

} // namespace quorum::util
