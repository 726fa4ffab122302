// quorum_worker — remote execution worker for the "remote:<inner>"
// backend and the quorum_serve worker fleet.
//
// Speaks the binary wire protocol (src/exec/serialise.h, documented in
// docs/ARCHITECTURE.md): length-prefixed frames carrying hello / run_span
// / run_levels_span / shutdown requests, served by the library's frame
// loop (exec::serve_channel in src/exec/wire.h) in one of three channel
// modes:
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
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include <unistd.h>

#include "exec/serialise.h"
#include "exec/wire.h"
#include "flags.h"
#include "util/net.h"

namespace {

using quorum::exec::channel_end;

/// Serves one channel with the library's frame loop, logging a failure.
channel_end serve(int in_fd, int out_fd) {
    const quorum::exec::channel_outcome outcome =
        quorum::exec::serve_channel(in_fd, out_fd);
    if (outcome.end == channel_end::failure) {
        std::fprintf(stderr, "quorum_worker: %s\n", outcome.error.c_str());
    }
    return outcome.end;
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
            serve(fd, fd);
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
        const channel_end outcome = serve(conn.get(), conn.get());
        if (outcome == channel_end::shutdown) {
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
        return outcome == channel_end::clean_close ? 0 : 1;
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
    return serve(STDIN_FILENO, STDOUT_FILENO) == channel_end::failure ? 1
                                                                     : 0;
}
