// quorum_worker — remote execution worker for the "remote:<inner>"
// backend and the quorum_serve worker fleet.
//
// Speaks the binary wire protocol (src/exec/serialise.h, documented in
// docs/ARCHITECTURE.md): length-prefixed frames carrying hello / run_span
// / run_levels_span / shutdown requests, in one of three channel modes:
//
//   * default: stdin/stdout — spawned by exec::process_transport, one
//     worker per remote lane; exits on EOF or a shutdown message;
//   * --listen [host:]port — a persistent TCP worker: accepts any number
//     of connections (concurrently), serves each with its own protocol
//     session, and goes back to accepting when a client disconnects. The
//     worker outlives every client;
//   * --connect host:port — dials a coordinator (quorum_serve's registry)
//     and serves that channel; with --retry N it re-dials after a
//     disconnect, which is how a restarted/orphaned worker REJOINS a
//     fleet. A shutdown message always exits cleanly, retries or not.
//
// All logging goes to stderr: stdout carries the protocol (stdio mode) or
// the one "listening on host:port" line (--listen; port 0 binds an
// ephemeral port, and scripts parse that line to learn it).
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "exec/serialise.h"
#include "exec/wire.h"
#include "flags.h"
#include "util/net.h"

namespace {

using quorum::exec::wire::max_message_bytes;

/// Reads exactly `size` bytes from `fd`. Returns false on clean EOF at a
/// frame boundary; a short read mid-frame is a protocol error (the client
/// died mid-send) and also ends the loop.
bool read_exact(int fd, std::uint8_t* data, std::size_t size,
                bool& mid_frame) {
    std::size_t received = 0;
    while (received < size) {
        const ssize_t n = ::read(fd, data + received, size - received);
        if (n < 0 && errno == EINTR) {
            continue; // a signal is not the client dying
        }
        if (n <= 0) {
            mid_frame = received > 0;
            return false;
        }
        received += static_cast<std::size_t>(n);
    }
    return true;
}

bool write_exact(int fd, const std::uint8_t* data, std::size_t size) {
    std::size_t sent = 0;
    while (sent < size) {
        const ssize_t n = ::write(fd, data + sent, size - sent);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

enum class channel_outcome {
    clean_eof, ///< the client closed the channel between frames
    shutdown,  ///< the client sent a shutdown message
    error,     ///< mid-frame death, oversized frame, or a failed write
};

/// One protocol session over a byte channel: frame loop + worker_session.
/// Every channel gets a fresh session, so no program-cache or engine
/// state ever crosses connections.
channel_outcome serve_channel(int in_fd, int out_fd) {
    quorum::exec::worker_session session;
    std::vector<std::uint8_t> payload;
    for (;;) {
        std::uint8_t header[4];
        bool mid_frame = false;
        if (!read_exact(in_fd, header, sizeof(header), mid_frame)) {
            if (mid_frame) {
                std::fprintf(stderr,
                             "quorum_worker: client died mid-frame\n");
                return channel_outcome::error;
            }
            return channel_outcome::clean_eof;
        }
        std::uint32_t size = 0;
        for (int shift = 0; shift < 32; shift += 8) {
            size |= static_cast<std::uint32_t>(header[shift / 8]) << shift;
        }
        if (size > max_message_bytes) {
            std::fprintf(stderr, "quorum_worker: oversized frame (%u)\n",
                         size);
            return channel_outcome::error;
        }
        payload.resize(size);
        if (!read_exact(in_fd, payload.data(), payload.size(), mid_frame)) {
            std::fprintf(stderr, "quorum_worker: client died mid-frame\n");
            return channel_outcome::error;
        }
        const std::vector<std::uint8_t> reply = session.handle(payload);
        if (session.shutdown_requested()) {
            return channel_outcome::shutdown;
        }
        std::uint8_t reply_header[4];
        const auto reply_size = static_cast<std::uint32_t>(reply.size());
        for (int shift = 0; shift < 32; shift += 8) {
            reply_header[shift / 8] =
                static_cast<std::uint8_t>(reply_size >> shift);
        }
        if (!write_exact(out_fd, reply_header, sizeof(reply_header)) ||
            !write_exact(out_fd, reply.data(), reply.size())) {
            std::fprintf(stderr,
                         "quorum_worker: client closed the channel\n");
            return channel_outcome::error;
        }
    }
}

int run_stdio() {
    switch (serve_channel(STDIN_FILENO, STDOUT_FILENO)) {
    case channel_outcome::clean_eof:
    case channel_outcome::shutdown:
        return 0;
    case channel_outcome::error:
        return 1;
    }
    return 1;
}

int run_listen(const quorum::util::endpoint& where) {
    quorum::util::unique_fd listener = quorum::util::listen_tcp(where);
    const quorum::util::endpoint bound{where.host,
                                       quorum::util::bound_port(
                                           listener.get())};
    std::fprintf(stdout, "quorum_worker: listening on %s\n",
                 bound.str().c_str());
    std::fflush(stdout);
    for (;;) {
        quorum::util::unique_fd conn =
            quorum::util::accept_tcp(listener.get(), -1);
        if (!conn.valid()) {
            continue;
        }
        // One session per connection, concurrently: a fleet may open
        // several lanes to one worker, and a stuck client must not
        // starve the rest. The worker runs until killed, so these
        // threads are fire-and-forget.
        std::thread([fd = conn.release()] {
            serve_channel(fd, fd);
            ::close(fd);
        }).detach();
    }
}

int run_connect(const quorum::util::endpoint& where, int retries,
                int retry_delay_ms) {
    for (;;) {
        quorum::util::unique_fd conn;
        try {
            conn = quorum::util::connect_tcp(where, 5000);
        } catch (const quorum::util::net_error& error) {
            std::fprintf(stderr, "quorum_worker: %s\n", error.what());
            if (retries-- > 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(retry_delay_ms));
                continue;
            }
            return 1;
        }
        const channel_outcome outcome = serve_channel(conn.get(),
                                                      conn.get());
        if (outcome == channel_outcome::shutdown) {
            return 0; // the coordinator dismissed us; do not rejoin
        }
        conn.reset();
        if (retries-- > 0) {
            // Rejoin: the coordinator (or the network) dropped us; a
            // fresh dial re-registers this worker with the fleet.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(retry_delay_ms));
            continue;
        }
        return outcome == channel_outcome::clean_eof ? 0 : 1;
    }
}

} // namespace

int main(int argc, char** argv) {
    std::optional<quorum::util::endpoint> listen_at;
    std::optional<quorum::util::endpoint> connect_to;
    int retries = 0;
    int retry_delay_ms = 200;
    bool version = false;
    const auto endpoint = [](std::optional<quorum::util::endpoint>& out) {
        return [&out](const std::string& v) {
            out = quorum::util::parse_endpoint(v);
            return true;
        };
    };
    quorum::tools::flag_table flags(
        "quorum_worker",
        "quorum_worker — remote execution worker (protocol version " +
            std::to_string(quorum::exec::wire::protocol_version) +
            ")\n"
            "\n"
            "Speaks the Quorum wire protocol; spawned by the remote:<backend>\n"
            "execution engine or run as a TCP fleet worker. Not an\n"
            "interactive tool: with no flags it serves the protocol on\n"
            "stdin/stdout.\n");
    flags.toggle("--version", "print the protocol version and exit", version);
    flags.choice("--listen", "[HOST:]PORT",
                 "serve any number of TCP clients (port 0 = ephemeral; the "
                 "bound address is printed to stdout)",
                 endpoint(listen_at));
    flags.choice("--connect", "HOST:PORT",
                 "dial a coordinator (the quorum_serve registry) and serve "
                 "that channel",
                 endpoint(connect_to));
    flags.count("--retry", "N",
                "with --connect: re-dial up to N times after a failed "
                "connect or a disconnect (rejoin)",
                retries);
    flags.count("--retry-delay-ms", "D", "pause between re-dials",
                retry_delay_ms);
    if (const auto exit_code = flags.parse(argc, argv)) {
        return *exit_code;
    }
    if (version) {
        std::fprintf(stdout, "%u\n", quorum::exec::wire::protocol_version);
        return 0;
    }
    if (listen_at && connect_to) {
        return flags.usage_error("--listen and --connect are mutually "
                                 "exclusive");
    }
    // A client that dies mid-reply must surface as a write error, not
    // kill the worker with SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    try {
        if (listen_at) {
            return run_listen(*listen_at);
        }
        if (connect_to) {
            return run_connect(*connect_to, retries, retry_delay_ms);
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "quorum_worker: %s\n", error.what());
        return 1;
    }
    if (::isatty(STDIN_FILENO) != 0) {
        flags.print_usage(std::cerr);
        return 2;
    }
    return run_stdio();
}
