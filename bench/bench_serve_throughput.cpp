// Serving-layer throughput bench: sustained scoring rate and request
// latency through a REAL `quorum_serve` daemon + TCP worker fleet.
//
// Spawns the build-tree daemon (which spawns its own worker fleet),
// drives it with N concurrent clients issuing back-to-back QSRV1 SCORE
// requests, and reports sustained samples/sec plus p50/p99/mean request
// latency. Every reply is checked bit-for-bit against the in-process
// detector, so the bench doubles as the CI serve smoke test — a fast
// wrong answer is a failure, not a result.
//
// Not a google-benchmark bench on purpose: one timed steady-state run
// with explicit concurrency, emitting the same BENCH_*.json artifact
// shape CI already persists (see .github/workflows/ci.yml).
//
//   --workers N    fleet size (default 2)
//   --clients C    concurrent client connections (default 4)
//   --requests R   requests per client (default 4)
//   --samples S    rows per request (default 24)
//   --out PATH     also write the JSON report to PATH
//
// Honours QUORUM_BENCH_SCALE (scales the ensemble-group count).
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bench_common.h"
#include "core/config.h"
#include "core/quorum.h"
#include "data/generators.h"
#include "exec/serve_client.h"
#include "util/net.h"
#include "util/rng.h"

namespace {

using namespace quorum;
using clock_type = std::chrono::steady_clock;

struct serve_handle {
    pid_t pid = -1;
    util::endpoint endpoint;
};

/// Forks the daemon and parses its "serving on host:port" announcement.
serve_handle spawn_serve(const std::vector<std::string>& args) {
    int out_pipe[2];
    if (::pipe(out_pipe) != 0) {
        throw std::runtime_error("pipe failed");
    }
    serve_handle handle;
    handle.pid = ::fork();
    if (handle.pid == 0) {
        ::dup2(out_pipe[1], STDOUT_FILENO);
        ::close(out_pipe[0]);
        ::close(out_pipe[1]);
        std::vector<char*> argv;
        argv.push_back(const_cast<char*>(QUORUM_SERVE_BIN));
        for (const std::string& arg : args) {
            argv.push_back(const_cast<char*>(arg.c_str()));
        }
        argv.push_back(nullptr);
        ::execv(QUORUM_SERVE_BIN, argv.data());
        std::perror("execv quorum_serve");
        ::_exit(127);
    }
    ::close(out_pipe[1]);
    std::string line;
    const std::string tag = "serving on ";
    char byte = 0;
    bool found = false;
    while (!found && ::read(out_pipe[0], &byte, 1) == 1) {
        if (byte != '\n') {
            line.push_back(byte);
            continue;
        }
        const std::size_t at = line.find(tag);
        if (at != std::string::npos) {
            std::string address = line.substr(at + tag.size());
            const std::size_t space = address.find(' ');
            if (space != std::string::npos) {
                address.resize(space);
            }
            handle.endpoint = util::parse_endpoint(address);
            found = true;
        }
        line.clear();
    }
    ::close(out_pipe[0]);
    if (!found) {
        throw std::runtime_error("quorum_serve never announced its port");
    }
    return handle;
}

/// Waits briefly for a clean daemon exit (it stops itself after
/// --max-requests), then escalates to SIGKILL.
void reap_serve(serve_handle& handle) {
    if (handle.pid <= 0) {
        return;
    }
    for (int tick = 0; tick < 100; ++tick) {
        if (::waitpid(handle.pid, nullptr, WNOHANG) == handle.pid) {
            handle.pid = -1;
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ::kill(handle.pid, SIGKILL);
    ::waitpid(handle.pid, nullptr, 0);
    handle.pid = -1;
}

} // namespace

int main(int argc, char** argv) {
    ::setenv("QUORUM_WORKER", QUORUM_WORKER_BIN, 0);
    const std::size_t workers = bench::flag_value(argc, argv, "--workers", 2);
    const std::size_t clients = bench::flag_value(argc, argv, "--clients", 4);
    const std::size_t requests = bench::flag_value(argc, argv, "--requests", 4);
    const std::size_t samples = bench::flag_value(argc, argv, "--samples", 24);
    const std::string out_path = bench::flag_text(argc, argv, "--out");
    const std::size_t groups = bench::scaled_groups(4);

    // The workload every request scores: a flagship-style clustered
    // dataset at the paper-default circuit shape, sampled mode.
    core::quorum_config config;
    config.mode = core::exec_mode::sampled;
    config.shots = 1024;
    config.ensemble_groups = groups;
    config.seed = bench::bench_seed;
    util::rng gen(bench::bench_seed);
    data::generator_spec spec;
    spec.samples = samples;
    spec.anomalies = std::max<std::size_t>(1, samples / 16);
    spec.features = 12;
    spec.anomaly_shift = 0.3;
    const data::dataset d = data::generate_clustered(spec, gen);
    std::vector<std::vector<double>> rows(d.num_samples());
    for (std::size_t i = 0; i < d.num_samples(); ++i) {
        rows[i].assign(d.row(i).begin(), d.row(i).end());
    }
    const std::vector<double> reference =
        core::quorum_detector(config).score(d).scores;

    const std::size_t total_requests = clients * requests;
    serve_handle daemon = spawn_serve(
        {"--workers", std::to_string(workers),
         "--mode", "sampled",
         "--groups", std::to_string(groups),
         "--shots", std::to_string(config.shots),
         "--seed", std::to_string(config.seed),
         "--max-requests", std::to_string(total_requests)});

    std::printf("bench_serve_throughput: %zu workers, %zu clients x %zu "
                "requests x %zu samples, groups=%zu\n",
                workers, clients, requests, samples, groups);

    std::vector<std::vector<double>> latencies_ms(clients);
    std::vector<std::size_t> mismatches(clients, 0);
    const clock_type::time_point wall_start = clock_type::now();
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t client = 0; client < clients; ++client) {
        threads.emplace_back([&, client] {
            exec::serve_client connection(daemon.endpoint);
            for (std::size_t r = 0; r < requests; ++r) {
                const clock_type::time_point begin = clock_type::now();
                const std::vector<double> scores = connection.score(rows);
                const clock_type::time_point end = clock_type::now();
                latencies_ms[client].push_back(
                    std::chrono::duration<double, std::milli>(end - begin)
                        .count());
                if (scores.size() != reference.size()) {
                    ++mismatches[client];
                    continue;
                }
                for (std::size_t i = 0; i < scores.size(); ++i) {
                    if (scores[i] != reference[i]) {
                        ++mismatches[client];
                        break;
                    }
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    const double wall_seconds =
        std::chrono::duration<double>(clock_type::now() - wall_start)
            .count();
    reap_serve(daemon);

    std::size_t bad = 0;
    std::vector<double> all_latencies;
    for (std::size_t client = 0; client < clients; ++client) {
        bad += mismatches[client];
        all_latencies.insert(all_latencies.end(),
                             latencies_ms[client].begin(),
                             latencies_ms[client].end());
    }
    if (bad != 0 || all_latencies.size() != total_requests) {
        std::fprintf(stderr,
                     "bench_serve_throughput: %zu mismatched replies out "
                     "of %zu — the serve path broke determinism\n",
                     bad, total_requests);
        return 1;
    }
    std::sort(all_latencies.begin(), all_latencies.end());
    const auto percentile = [&](double p) {
        const std::size_t index = std::min(
            all_latencies.size() - 1,
            static_cast<std::size_t>(p * static_cast<double>(
                                             all_latencies.size() - 1)));
        return all_latencies[index];
    };
    double mean = 0.0;
    for (const double latency : all_latencies) {
        mean += latency;
    }
    mean /= static_cast<double>(all_latencies.size());
    const double samples_per_second =
        static_cast<double>(total_requests * samples) / wall_seconds;

    char json[1024];
    std::snprintf(
        json, sizeof(json),
        "{\"bench\":\"serve_throughput\",\"workers\":%zu,"
        "\"clients\":%zu,\"requests_per_client\":%zu,"
        "\"samples_per_request\":%zu,\"groups\":%zu,"
        "\"wall_seconds\":%.3f,\"samples_per_second\":%.1f,"
        "\"latency_ms\":{\"mean\":%.1f,\"p50\":%.1f,\"p99\":%.1f}}",
        workers, clients, requests, samples, groups, wall_seconds,
        samples_per_second, mean, percentile(0.50), percentile(0.99));
    std::printf("%s\n", json);
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        out << json << "\n";
    }
    return 0;
}
