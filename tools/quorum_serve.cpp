// quorum_serve — long-running Quorum scoring daemon.
//
// The serving shape the paper's zero-training pitch implies: no fit
// phase means a detector can sit behind a socket and score whatever
// arrives. This daemon owns a persistent worker fleet (exec/fleet.h) —
// local quorum_worker processes that dial the registry port, plus any
// `quorum_worker --listen` endpoints named with --connect-worker — and
// serves the QSRV1 line protocol (exec/serve_client.h, spec in
// docs/ARCHITECTURE.md) to any number of concurrent clients.
//
// Every client request builds a detector over the shared fleet backend
// and scores in the requested configuration; concurrent requests
// multiplex their sample spans across the fleet's lanes, each request's
// scoring threads sending and reading their own spans. Scores are
// IEEE == to a local run with the same configuration: the wire protocol
// ships bit patterns, the text protocol ships %.17g, and neither loses a
// bit. A client that disconnects mid-batch costs the fleet nothing — its
// batches finish, the handler notices on reply, and every other client
// is unaffected.
//
// stdout carries exactly three parseable startup lines (registry
// address, worker count, serving address); logs go to stderr.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/quorum.h"
#include "data/dataset.h"
#include "exec/fleet.h"
#include "exec/process_transport.h"
#include "exec/registry.h"
#include "exec/serve_client.h"
#include "exec/tcp_transport.h"
#include "flags.h"
#include "util/net.h"
#include "util/parse.h"

namespace {

namespace core = quorum::core;
namespace data = quorum::data;
namespace exec = quorum::exec;
namespace tools = quorum::tools;
namespace util = quorum::util;

struct serve_options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::uint16_t registry_port = 0;
    std::size_t workers = 2;
    std::vector<util::endpoint> connect_workers;
    int rejoin_attempts = 5;
    std::size_t max_requests = 0;
    core::quorum_config config;
};

/// Caps a client can hit without it being a config error on our side.
constexpr std::size_t max_request_rows = 100000;
constexpr std::size_t max_request_cols = 4096;

/// Forks one local fleet worker that dials the registry. Called before
/// any thread exists, so the child side may stay simple (no
/// async-signal-safety gymnastics beyond the usual close/exec rules).
void spawn_registry_worker(const std::string& binary,
                           const util::endpoint& registry) {
    const std::string target = registry.str();
    const char* argv[] = {binary.c_str(), "--connect", target.c_str(),
                          "--retry",      "25",        nullptr};
    const pid_t pid = ::fork();
    if (pid < 0) {
        throw util::net_error("fork failed for " + binary);
    }
    if (pid == 0) {
        ::execv(binary.c_str(), const_cast<char* const*>(argv));
        ::_exit(127);
    }
    // No pid bookkeeping: SIGCHLD is SIG_IGN (no zombies), and workers
    // exit on the fleet's shutdown message or after their retry budget.
}

/// Splits a CSV feature line with strict finite-number parsing. Returns
/// an empty string on success, otherwise what is wrong with the line,
/// naming the 0-based column of a bad cell.
std::string parse_feature_row(const std::string& line, std::size_t cols,
                              std::vector<double>& row) {
    row.clear();
    const std::string_view text(line);
    std::size_t begin = 0;
    while (begin <= text.size()) {
        std::size_t end = text.find(',', begin);
        if (end == std::string_view::npos) {
            end = text.size();
        }
        double value = 0.0;
        if (!exec::serve_parse_double(text.substr(begin, end - begin),
                                      value)) {
            return "column " + std::to_string(row.size()) +
                   " is not a finite number";
        }
        row.push_back(value);
        begin = end + 1;
    }
    if (row.size() != cols) {
        return std::to_string(row.size()) + " values where the header has " +
               std::to_string(cols);
    }
    return {};
}

struct serve_state {
    core::quorum_config config;
    std::shared_ptr<exec::worker_fleet> fleet;
    std::size_t max_requests = 0;
    std::atomic<std::size_t> served{0};
};

/// One client connection: a loop of SCORE requests until the client
/// closes. Failures the client caused (malformed header, ragged rows)
/// get an ERR reply and close the connection; failures on our side
/// (fleet errors) get an ERR reply too — the daemon never dies for a
/// request.
void handle_client(util::unique_fd fd, serve_state& state) {
    const std::string peer = "client";
    util::line_reader reader(fd.get(), 120000, peer);
    const std::string tag(exec::serve_protocol_tag);
    try {
        std::string line;
        while (reader.read_line(line)) {
            std::string reply;
            bool fatal = false;
            std::size_t rows = 0;
            std::size_t cols = 0;
            const std::string prefix = tag + " SCORE ";
            if (line.rfind(prefix, 0) != 0) {
                reply = tag + " ERR malformed request header\n";
                fatal = true;
            } else {
                const std::string counts = line.substr(prefix.size());
                const std::size_t space = counts.find(' ');
                if (space == std::string::npos ||
                    !util::parse_count(counts.substr(0, space), rows) ||
                    !util::parse_count(counts.substr(space + 1), cols) ||
                    rows < 1 || rows > max_request_rows || cols < 1 ||
                    cols > max_request_cols) {
                    reply = tag + " ERR malformed request header\n";
                    fatal = true;
                }
            }
            std::vector<std::vector<double>> features;
            if (!fatal) {
                features.resize(rows);
                for (std::size_t i = 0; i < rows && !fatal; ++i) {
                    const std::string problem =
                        reader.read_line(line)
                            ? parse_feature_row(line, cols, features[i])
                            : "missing";
                    if (!problem.empty()) {
                        reply = tag + " ERR malformed feature row " +
                                std::to_string(i) + ": " + problem + "\n";
                        fatal = true;
                    }
                }
            }
            if (!fatal) {
                try {
                    // Fleet-wide span/requeue deltas around the request:
                    // approximate while other requests are in flight,
                    // exact when serving one at a time — either way the
                    // lane count and requeue movement are visible per
                    // request instead of only in aggregate.
                    const exec::fleet_stats before = state.fleet->stats();
                    const core::quorum_detector detector(state.config);
                    const core::score_report report =
                        detector.score(data::dataset::from_rows(features));
                    const exec::fleet_stats after = state.fleet->stats();
                    std::fprintf(
                        stderr,
                        "quorum_serve: request #%zu scored rows=%zu "
                        "(fleet: lanes=%zu spans=%zu requeues=%zu)\n",
                        state.served.load() + 1, rows, after.live_lanes,
                        after.spans_completed - before.spans_completed,
                        after.requeued_spans - before.requeued_spans);
                    reply = tag + " OK " + std::to_string(rows) + "\n";
                    for (const double score : report.scores) {
                        reply += exec::serve_format_double(score);
                        reply += '\n';
                    }
                } catch (const std::exception& error) {
                    std::string what = error.what();
                    for (char& c : what) {
                        if (c == '\n' || c == '\r') {
                            c = ' ';
                        }
                    }
                    reply = tag + " ERR " + what + "\n";
                    fatal = true;
                }
            }
            util::send_all(fd.get(), reply.data(), reply.size(), 120000,
                           peer);
            state.served.fetch_add(1);
            if (fatal) {
                return; // cannot resync a byte stream after a bad request
            }
            if (state.max_requests != 0 &&
                state.served.load() >= state.max_requests) {
                return;
            }
        }
    } catch (const std::exception& error) {
        // The client vanished (mid-request or mid-reply). Its batches
        // have already finished in the fleet; nobody else is affected.
        std::fprintf(stderr,
                     "quorum_serve: client connection ended: %s\n",
                     error.what());
    }
}

int run(const serve_options& options) {
    // --- fleet ----------------------------------------------------------
    const std::string inner = options.config.resolved_backend();
    exec::fleet_config fleet_config;
    fleet_config.inner = inner;
    fleet_config.engine = options.config.to_engine_config();
    fleet_config.rejoin_attempts = options.rejoin_attempts;
    auto fleet = std::make_shared<exec::worker_fleet>(fleet_config);
    // The detector resolves backends by registry name, so the shared
    // fleet is injected as the "fleet" backend; every request's detector
    // multiplexes through it.
    exec::register_backend("fleet",
                           [fleet](const exec::engine_config&) {
                               return std::make_unique<
                                   exec::fleet_executor>(fleet);
                           });

    serve_state state;
    state.config = options.config;
    state.config.backend = "fleet";
    state.fleet = fleet;
    state.max_requests = options.max_requests;
    state.config.validate();

    // --- workers --------------------------------------------------------
    util::unique_fd registry = util::listen_tcp(
        util::endpoint{options.host, options.registry_port});
    const util::endpoint registry_at{options.host,
                                     util::bound_port(registry.get())};
    std::fprintf(stdout, "quorum_serve: registry on %s\n",
                 registry_at.str().c_str());
    const std::string worker_binary = exec::default_worker_binary();
    for (std::size_t i = 0; i < options.workers; ++i) {
        spawn_registry_worker(worker_binary, registry_at);
    }
    std::atomic<bool> stop{false};
    std::thread registrar([&] {
        std::size_t joined = 0;
        while (!stop.load()) {
            util::unique_fd conn;
            try {
                conn = util::accept_tcp(registry.get(), 200);
            } catch (const std::exception& error) {
                std::fprintf(stderr, "quorum_serve: registry: %s\n",
                             error.what());
                return;
            }
            if (!conn.valid()) {
                continue; // poll tick: re-check stop
            }
            const std::string label =
                "registered #" + std::to_string(++joined) + " via " +
                registry_at.str();
            fleet->add_lane(std::make_unique<exec::tcp_transport>(
                                std::move(conn), label),
                            label);
            std::fprintf(stderr, "quorum_serve: %s joined the fleet\n",
                         label.c_str());
        }
    });
    for (const util::endpoint& worker : options.connect_workers) {
        fleet->add_factory_lane(
            [worker](std::size_t) -> std::unique_ptr<exec::wire_transport> {
                return std::make_unique<exec::tcp_transport>(worker);
            },
            worker.str());
    }
    const std::size_t expected =
        options.workers + options.connect_workers.size();
    fleet->wait_for_lanes(expected, 15000);
    std::fprintf(stdout, "quorum_serve: fleet of %zu workers ready\n",
                 expected);

    // --- clients --------------------------------------------------------
    util::unique_fd listener =
        util::listen_tcp(util::endpoint{options.host, options.port});
    const util::endpoint serving_at{options.host,
                                    util::bound_port(listener.get())};
    std::fprintf(stdout,
                 "quorum_serve: serving on %s (mode=%s backend=fleet:%s "
                 "groups=%zu)\n",
                 serving_at.str().c_str(),
                 core::exec_mode_name(state.config.mode), inner.c_str(),
                 state.config.ensemble_groups);
    std::fflush(stdout);

    std::vector<std::thread> handlers;
    while (state.max_requests == 0 ||
           state.served.load() < state.max_requests) {
        util::unique_fd conn = util::accept_tcp(listener.get(), 200);
        if (!conn.valid()) {
            continue; // poll tick: re-check the request budget
        }
        handlers.emplace_back(
            [fd = std::move(conn), &state]() mutable {
                handle_client(std::move(fd), state);
            });
    }
    for (std::thread& handler : handlers) {
        handler.join();
    }
    stop.store(true);
    registrar.join();
    std::fprintf(stderr, "quorum_serve: served %zu requests, exiting\n",
                 state.served.load());
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    serve_options options;
    options.config.mode = core::exec_mode::sampled;
    tools::flag_table flags(
        "quorum_serve",
        "quorum_serve — persistent Quorum scoring daemon\n"
        "\n"
        "usage: quorum_serve [options]\n",
        "Protocol (one TCP connection = one session; see\n"
        "docs/ARCHITECTURE.md):\n"
        "  -> QSRV1 SCORE <rows> <cols>\\n + <rows> CSV feature lines\n"
        "  <- QSRV1 OK <rows>\\n + <rows> score lines (%.17g), or\n"
        "     QSRV1 ERR <message>\\n\n");
    flags.count("--port", "N",
                "client port, 0 = ephemeral (the bound address is printed "
                "to stdout)",
                options.port);
    flags.text("--host", "H", "bind address", options.host);
    flags.count("--registry-port", "N",
                "worker registration port, 0 = ephemeral",
                options.registry_port);
    flags.count("--workers", "N",
                "local quorum_worker processes to spawn; they dial the "
                "registry",
                options.workers);
    flags.choice("--connect-worker", "H:P",
                 "add a fleet lane to a running `quorum_worker --listen` "
                 "(repeatable)",
                 [&options](const std::string& v) {
                     options.connect_workers.push_back(util::parse_endpoint(v));
                     return true;
                 });
    flags.text("--backend", "B",
               "inner backend each worker runs: auto | statevector | density",
               options.config.backend);
    tools::add_scoring_flags(flags, options.config);
    tools::add_threads_flag(flags, options.config);
    flags.count("--rejoin-attempts", "N", "reconnect budget per worker death",
                options.rejoin_attempts);
    flags.count("--max-requests", "N",
                "exit after N scored requests, 0 = serve forever",
                options.max_requests);
    if (const auto exit_code = flags.parse(argc, argv)) {
        return *exit_code;
    }
    const std::string inner = options.config.resolved_backend();
    if (!exec::is_plain_engine_name(inner) ||
        !exec::is_backend_registered(inner)) {
        return flags.usage_error(
            "--backend must be a registered plain engine name");
    }
    if (options.workers + options.connect_workers.size() == 0) {
        return flags.usage_error("a fleet needs at least one worker "
                                 "(--workers or --connect-worker)");
    }
    // Dead clients surface as write errors, not SIGPIPE; dead worker
    // children reap themselves.
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGCHLD, SIG_IGN);
    try {
        return run(options);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "quorum_serve: %s\n", error.what());
        return 1;
    }
}
