// Serve-path golden suite: the flagship workload scored THROUGH a real
// `quorum_serve` daemon and its TCP worker fleet must be IEEE == to the
// in-process detector — against the committed golden fixtures, for
// workers {1, 2, 4} in all four modes, under concurrent clients, under
// worker churn (SIGKILL mid-service), and across client disconnects.
//
// Every test here spawns the real build-tree binaries (QUORUM_SERVE_BIN /
// QUORUM_WORKER_BIN): this is the end-to-end leg of the determinism
// contract, not a protocol unit test (those live in tests/exec/).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/quorum.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "exec/serve_client.h"
#include "util/contracts.h"
#include "util/net.h"
#include "util/rng.h"

#if defined(QUORUM_SERVE_BIN) && defined(QUORUM_WORKER_BIN)

namespace {

using namespace quorum;

bool env_flag(const char* name) {
    const char* raw = std::getenv(name);
    return raw != nullptr && raw[0] != '\0' && raw[0] != '0';
}

/// The same miniature flagship workload the golden-score fixtures pin
/// (tests/core/test_golden_scores.cpp): clustered data, planted
/// anomalies, 12 features, seed 2025.
data::dataset flagship_dataset(std::size_t samples) {
    util::rng gen(2025);
    data::generator_spec spec;
    spec.samples = samples;
    spec.anomalies = std::max<std::size_t>(1, samples / 16);
    spec.features = 12;
    spec.anomaly_shift = 0.3;
    return data::generate_clustered(spec, gen);
}

core::quorum_config flagship_config(core::exec_mode mode,
                                    std::size_t groups) {
    core::quorum_config config;
    config.ensemble_groups = groups;
    config.mode = mode;
    config.shots = mode == core::exec_mode::noisy ? 256 : 4096;
    config.seed = 2025;
    return config;
}

std::vector<std::vector<double>> rows_of(const data::dataset& d) {
    std::vector<std::vector<double>> rows(d.num_samples());
    for (std::size_t i = 0; i < d.num_samples(); ++i) {
        const std::span<const double> row = d.row(i);
        rows[i].assign(row.begin(), row.end());
    }
    return rows;
}

std::vector<double> plain_scores(const core::quorum_config& config,
                                 const data::dataset& d) {
    const core::quorum_detector detector(config);
    return detector.score(d).scores;
}

/// Spawns `quorum_serve` with the given flags, waits for its "serving
/// on host:port" announcement, and SIGKILLs it on teardown. QUORUM_WORKER
/// is pointed at the build-tree worker so the daemon's spawned fleet
/// workers are the real sanitized binaries.
class serve_daemon {
public:
    explicit serve_daemon(std::vector<std::string> args) {
        ::setenv("QUORUM_WORKER", QUORUM_WORKER_BIN, 1);
        int out_pipe[2];
        if (::pipe(out_pipe) != 0) {
            throw std::runtime_error("pipe failed");
        }
        pid_ = ::fork();
        if (pid_ == 0) {
            ::dup2(out_pipe[1], STDOUT_FILENO);
            ::close(out_pipe[0]);
            ::close(out_pipe[1]);
            std::vector<char*> argv;
            argv.push_back(const_cast<char*>(QUORUM_SERVE_BIN));
            for (std::string& arg : args) {
                argv.push_back(arg.data());
            }
            argv.push_back(nullptr);
            ::execv(QUORUM_SERVE_BIN, argv.data());
            std::perror("execv quorum_serve");
            ::_exit(127);
        }
        ::close(out_pipe[1]);
        // The daemon announces "registry on", "fleet of N workers ready"
        // and finally "serving on host:port" (all flushed together);
        // parse the serving endpoint out of that stream.
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
                endpoint_ = util::parse_endpoint(address);
                found = true;
            }
            line.clear();
        }
        ::close(out_pipe[0]);
        if (!found) {
            throw std::runtime_error(
                "quorum_serve never announced its endpoint");
        }
    }

    ~serve_daemon() {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    serve_daemon(const serve_daemon&) = delete;
    serve_daemon& operator=(const serve_daemon&) = delete;

    [[nodiscard]] const util::endpoint& where() const { return endpoint_; }

private:
    pid_t pid_ = -1;
    util::endpoint endpoint_;
};

const char* mode_flag(core::exec_mode mode) {
    switch (mode) {
    case core::exec_mode::exact:
        return "exact";
    case core::exec_mode::sampled:
        return "sampled";
    case core::exec_mode::per_shot:
        return "per_shot";
    case core::exec_mode::noisy:
        return "noisy";
    }
    return "sampled";
}

std::vector<std::string> serve_args(const core::quorum_config& config,
                                    std::size_t workers) {
    return {"--workers", std::to_string(workers),
            "--mode",    mode_flag(config.mode),
            "--groups",  std::to_string(config.ensemble_groups),
            "--shots",   std::to_string(config.shots),
            "--seed",    std::to_string(config.seed)};
}

// --- golden fixtures through the daemon -------------------------------------

/// Reads one named column of a committed golden fixture CSV
/// (tests/core/fixtures/) as doubles.
std::vector<double> fixture_column(const std::string& name,
                                   const std::string& column) {
    const std::string path =
        std::string(QUORUM_TEST_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path << " is missing";
    std::string line;
    EXPECT_TRUE(static_cast<bool>(std::getline(in, line)));
    std::stringstream header(line);
    std::string cell;
    int column_index = -1;
    for (int c = 0; std::getline(header, cell, ','); ++c) {
        if (cell == column) {
            column_index = c;
        }
    }
    EXPECT_GE(column_index, 0)
        << path << " has no \"" << column << "\" column";
    std::vector<double> values;
    while (std::getline(in, line)) {
        if (line.empty()) {
            continue;
        }
        std::stringstream cells(line);
        for (int c = 0; std::getline(cells, cell, ','); ++c) {
            if (c == column_index) {
                values.push_back(std::stod(cell));
            }
        }
    }
    return values;
}

TEST(ServeGolden, FlagshipScoresThroughTheDaemonMatchTheFixture) {
    // The committed flagship fixture (48 samples, groups 6, seed 2025,
    // %.17g columns) reproduced end to end: CSV rows over QSRV1 to a
    // daemon with a 2-worker TCP fleet, scores back as %.17g text —
    // equality against the fixture is equality to the last bit.
    if (env_flag("QUORUM_SKIP_GOLDEN_FIXTURES")) {
        GTEST_SKIP() << "golden fixtures skipped (non-CI platform)";
    }
    const data::dataset d = flagship_dataset(48);
    const std::vector<std::vector<double>> rows = rows_of(d);
    for (const core::exec_mode mode :
         {core::exec_mode::exact, core::exec_mode::sampled}) {
        const core::quorum_config config = flagship_config(mode, 6);
        const serve_daemon daemon(serve_args(config, 2));
        exec::serve_client client(daemon.where());
        const std::vector<double> served = client.score(rows);
        const std::vector<double> golden =
            fixture_column("flagship_scores.csv", mode_flag(mode));
        ASSERT_EQ(served.size(), golden.size()) << mode_flag(mode);
        for (std::size_t i = 0; i < served.size(); ++i) {
            EXPECT_EQ(served[i], golden[i])
                << mode_flag(mode) << " sample=" << i;
        }
    }
}

// --- fleet-size invariance in every mode ------------------------------------

TEST(ServeDeterminism, AllModesAreFleetSizeInvariantThroughTheDaemon) {
    // Reduced flagship shape (16 samples, groups 2, 32 shots) so that
    // 4 modes x 3 fleet sizes of full daemon round trips stay fast. The
    // contract is the tentpole's: serve-path scores are IEEE == to the
    // plain in-process detector for ANY fleet size, in EVERY mode.
    const data::dataset d = flagship_dataset(16);
    const std::vector<std::vector<double>> rows = rows_of(d);
    for (const core::exec_mode mode :
         {core::exec_mode::exact, core::exec_mode::sampled,
          core::exec_mode::per_shot, core::exec_mode::noisy}) {
        core::quorum_config config = flagship_config(mode, 2);
        config.shots = 32;
        const std::vector<double> reference = plain_scores(config, d);
        for (const std::size_t workers : {1u, 2u, 4u}) {
            const serve_daemon daemon(serve_args(config, workers));
            exec::serve_client client(daemon.where());
            const std::vector<double> served = client.score(rows);
            ASSERT_EQ(served.size(), reference.size());
            for (std::size_t i = 0; i < served.size(); ++i) {
                EXPECT_EQ(served[i], reference[i])
                    << mode_flag(mode) << " workers=" << workers
                    << " sample=" << i;
            }
        }
    }
}

// --- concurrent clients -----------------------------------------------------

TEST(ServeStress, ConcurrentClientsAreBitIdenticalToSequentialScores) {
    // >= 4 concurrent clients, each with its OWN dataset and its own
    // connection, interleaving requests through one shared 2-worker
    // fleet: every client's scores must equal its sequential in-process
    // reference bit for bit — concurrent multiplexing must not leak
    // state across requests.
    core::quorum_config config = flagship_config(core::exec_mode::sampled,
                                                 2);
    config.shots = 64;
    const serve_daemon daemon(serve_args(config, 2));

    constexpr int clients = 4;
    constexpr int rounds = 2;
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int client = 0; client < clients; ++client) {
        threads.emplace_back([&, client] {
            util::rng gen(400 + static_cast<std::uint64_t>(client));
            data::generator_spec spec;
            spec.samples = 10;
            spec.anomalies = 2;
            spec.features = 12;
            spec.anomaly_shift = 0.3;
            const data::dataset d = data::generate_clustered(spec, gen);
            const std::vector<double> reference = plain_scores(config, d);
            const std::vector<std::vector<double>> rows = rows_of(d);
            exec::serve_client connection(daemon.where());
            for (int round = 0; round < rounds; ++round) {
                const std::vector<double> served = connection.score(rows);
                ASSERT_EQ(served.size(), reference.size());
                for (std::size_t i = 0; i < served.size(); ++i) {
                    EXPECT_EQ(served[i], reference[i])
                        << "client=" << client << " round=" << round
                        << " sample=" << i;
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
}

// --- churn + disconnects ----------------------------------------------------

/// A test-owned `quorum_worker --listen` process the test can SIGKILL
/// mid-service (the daemon's own spawned workers die with the daemon,
/// which is the wrong lifetime for a churn test).
class churn_worker {
public:
    churn_worker() {
        int out_pipe[2];
        if (::pipe(out_pipe) != 0) {
            throw std::runtime_error("pipe failed");
        }
        pid_ = ::fork();
        if (pid_ == 0) {
            ::dup2(out_pipe[1], STDOUT_FILENO);
            ::close(out_pipe[0]);
            ::close(out_pipe[1]);
            ::execl(QUORUM_WORKER_BIN, QUORUM_WORKER_BIN, "--listen",
                    "127.0.0.1:0", static_cast<char*>(nullptr));
            std::perror("execl quorum_worker");
            ::_exit(127);
        }
        ::close(out_pipe[1]);
        std::string line;
        char byte = 0;
        while (::read(out_pipe[0], &byte, 1) == 1 && byte != '\n') {
            line.push_back(byte);
        }
        ::close(out_pipe[0]);
        const std::string tag = "listening on ";
        const std::size_t at = line.find(tag);
        if (at == std::string::npos) {
            throw std::runtime_error(
                "worker did not announce its port: " + line);
        }
        endpoint_ = util::parse_endpoint(line.substr(at + tag.size()));
    }

    ~churn_worker() { kill_now(); }

    churn_worker(const churn_worker&) = delete;
    churn_worker& operator=(const churn_worker&) = delete;

    [[nodiscard]] const util::endpoint& where() const { return endpoint_; }
    void kill_now() {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
            pid_ = -1;
        }
    }

private:
    pid_t pid_ = -1;
    util::endpoint endpoint_;
};

TEST(ServeChurn, WorkerKilledMidServiceNeverCorruptsAnyClientsScores) {
    // The daemon's fleet is built from two TEST-owned --listen workers
    // (--connect-worker); four clients keep scoring while one worker is
    // SIGKILLed mid-service. In-flight spans requeue to the survivor —
    // every reply, before and after the kill, must be bit-identical to
    // the in-process reference. No client may observe an error.
    churn_worker worker_a;
    churn_worker worker_b;
    core::quorum_config config = flagship_config(core::exec_mode::sampled,
                                                 2);
    config.shots = 64;
    std::vector<std::string> args = {
        "--mode",           mode_flag(config.mode),
        "--groups",         std::to_string(config.ensemble_groups),
        "--shots",          std::to_string(config.shots),
        "--seed",           std::to_string(config.seed),
        "--connect-worker", worker_a.where().str(),
        "--connect-worker", worker_b.where().str()};
    const serve_daemon daemon(std::move(args));

    const data::dataset d = flagship_dataset(12);
    const std::vector<double> reference = plain_scores(config, d);
    const std::vector<std::vector<double>> rows = rows_of(d);

    constexpr int clients = 4;
    constexpr int rounds = 3;
    std::atomic<bool> start{false};
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int client = 0; client < clients; ++client) {
        threads.emplace_back([&, client] {
            exec::serve_client connection(daemon.where());
            while (!start.load()) {
                std::this_thread::yield();
            }
            for (int round = 0; round < rounds; ++round) {
                const std::vector<double> served = connection.score(rows);
                ASSERT_EQ(served.size(), reference.size());
                for (std::size_t i = 0; i < served.size(); ++i) {
                    EXPECT_EQ(served[i], reference[i])
                        << "client=" << client << " round=" << round
                        << " sample=" << i;
                }
            }
        });
    }
    start.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    worker_a.kill_now(); // mid-service: requests are in flight right now
    for (std::thread& thread : threads) {
        thread.join();
    }
}

TEST(ServeChurn, ClientDisconnectMidBatchLeavesTheFleetHealthy) {
    // A rude client sends a full request and slams the connection shut
    // without reading its reply: the daemon's spans drain through the
    // fleet regardless, and the NEXT client must get bit-identical
    // scores — an abandoned batch can never poison a later one.
    core::quorum_config config = flagship_config(core::exec_mode::sampled,
                                                 2);
    config.shots = 64;
    const serve_daemon daemon(serve_args(config, 2));
    const data::dataset d = flagship_dataset(10);
    const std::vector<double> reference = plain_scores(config, d);
    const std::vector<std::vector<double>> rows = rows_of(d);

    {
        util::unique_fd rude = util::connect_tcp(daemon.where(), 5000);
        std::string request = "QSRV1 SCORE " + std::to_string(rows.size()) +
                              " " + std::to_string(rows[0].size()) + "\n";
        for (const std::vector<double>& row : rows) {
            for (std::size_t c = 0; c < row.size(); ++c) {
                request += (c == 0 ? "" : ",");
                request += exec::serve_format_double(row[c]);
            }
            request += "\n";
        }
        util::send_all(rude.get(), request.data(), request.size(), 5000,
                       daemon.where().str());
    } // closed without reading the reply

    exec::serve_client polite(daemon.where());
    const std::vector<double> served = polite.score(rows);
    ASSERT_EQ(served.size(), reference.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
        EXPECT_EQ(served[i], reference[i]) << i;
    }
}

// --- protocol edges ---------------------------------------------------------

TEST(ServeProtocol, MalformedRequestsGetStructuredErrorReplies) {
    core::quorum_config config = flagship_config(core::exec_mode::exact, 2);
    const serve_daemon daemon(serve_args(config, 1));

    const auto first_reply_line = [&](const std::string& request) {
        const util::unique_fd fd = util::connect_tcp(daemon.where(), 5000);
        util::send_all(fd.get(), request.data(), request.size(), 5000,
                       daemon.where().str());
        util::line_reader reader(fd.get(), 30000, daemon.where().str());
        std::string line;
        EXPECT_TRUE(reader.read_line(line)) << "no reply to: " << request;
        return line;
    };

    EXPECT_EQ(first_reply_line("HELLO\n").rfind("QSRV1 ERR ", 0), 0u);
    EXPECT_EQ(first_reply_line("QSRV1 SCORE 0 5\n").rfind("QSRV1 ERR ", 0),
              0u);
    EXPECT_EQ(
        first_reply_line("QSRV1 SCORE 1 3\n1.0,2.0\n").rfind("QSRV1 ERR ",
                                                             0),
        0u);
    EXPECT_EQ(
        first_reply_line("QSRV1 SCORE 1 2\n1.0,nonsense\n")
            .rfind("QSRV1 ERR ", 0),
        0u);
    // Non-finite cells parse whole but are not features: the reply names
    // the row and the column instead of passing them to the detector.
    for (const char* cell : {"nan", "inf", "-inf", "1e999"}) {
        EXPECT_EQ(first_reply_line(std::string("QSRV1 SCORE 2 3\n1,2,3\n4,") +
                                   cell + ",6\n"),
                  "QSRV1 ERR malformed feature row 1: column 1 is not a "
                  "finite number")
            << cell;
    }
    EXPECT_EQ(first_reply_line("QSRV1 SCORE 1 3\n1.0,2.0\n"),
              "QSRV1 ERR malformed feature row 0: 2 values where the "
              "header has 3");
    // A well-formed table too small to score: the reply names the row
    // count, not a source file of the daemon's build.
    EXPECT_EQ(first_reply_line("QSRV1 SCORE 1 2\n1.0,2.0\n"),
              "QSRV1 ERR need at least two samples to compare (got 1)");

    // The daemon survives all of that abuse: a well-formed request on a
    // fresh connection still scores.
    const data::dataset d = flagship_dataset(6);
    exec::serve_client client(daemon.where());
    const std::vector<double> served = client.score(rows_of(d));
    const std::vector<double> reference = plain_scores(config, d);
    ASSERT_EQ(served.size(), reference.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
        EXPECT_EQ(served[i], reference[i]) << i;
    }
}

} // namespace

#endif // QUORUM_SERVE_BIN && QUORUM_WORKER_BIN
