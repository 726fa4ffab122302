// serve_fleet: a real `quorum_serve --workers 2 --threads 1` scoring
// clustered requests of 32 rows x 12 features over at most two
// connections.
//
// Untraced run: set-up is spawning the daemon until it prints
// "serving on" with its fleet ready (repeated; the median counts). Then a
// warm-up, an open loop of Poisson arrivals at the fixed offered rate of
// perfbench/settings.json (latency counted from when each request was
// due; checked against its limit), and a closed loop on two connections
// of at least 1000 requests (the end-to-end latency and throughput).
// Every reply must equal, bit for bit, both the in-process detector's
// scores and the per-level reference; an ERR reply, a timeout or an
// unsent request is a failure. A run whose generator lag or backlog
// passes its bound is invalid.
//
// Traced run: the daemon cannot be wrapped from outside, so after a short
// open loop (load-generator metrics) and a one-connection closed loop
// against the real daemon, the run rebuilds one request's path in this
// process from public pieces: a worker_fleet of two real quorum_worker
// lanes over TCP whose transports are wrapped, a wrapped fleet_executor,
// and one quorum_detector per request.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <deque>
#include <dirent.h>
#include <fcntl.h>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.h"
#include "core/quorum.h"
#include "data/generators.h"
#include "exec/fleet.h"
#include "exec/registry.h"
#include "exec/serialise.h"
#include "exec/serve_client.h"
#include "exec/tcp_transport.h"
#include "metrics/roc.h"
#include "util/net.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace core = quorum::core;
namespace data = quorum::data;
namespace exec = quorum::exec;
namespace util = quorum::util;
namespace wire = quorum::exec::wire;

constexpr std::size_t request_rows = 32;
constexpr std::size_t request_cols = 12;
constexpr std::size_t distinct_requests = 16;
constexpr std::size_t serve_groups = 16;
constexpr std::size_t fleet_workers = 2;
constexpr std::size_t connections = 2;
constexpr int setup_repeats = 11;
constexpr int reply_timeout_ms = 10000;
constexpr double warmup_seconds = 0.5;
/// Closed-loop requests a measured run times at least: 1% of them lie
/// beyond its p99.
constexpr std::size_t min_closed_requests = 1000;

core::quorum_config serve_config(const std::string& backend) {
    core::quorum_config config;
    config.mode = core::exec_mode::sampled;
    config.shots = 1024;
    config.ensemble_groups = serve_groups;
    config.threads = 1;
    config.backend = backend;
    return config;
}

// --- processes ---------------------------------------------------------------

/// A child process leading its own process group. stop() ends the whole
/// group (the daemon's workers included) and reaps every member: this
/// process is a child subreaper (main), so orphaned workers come back to
/// it rather than to init.
class child_group {
public:
    child_group(const std::vector<std::string>& argv, int stdout_fd,
                int stderr_fd) {
        std::vector<char*> args;
        for (const std::string& arg : argv) {
            args.push_back(const_cast<char*>(arg.c_str()));
        }
        args.push_back(nullptr);
        pid_ = ::fork();
        if (pid_ < 0) {
            throw std::runtime_error("fork failed");
        }
        if (pid_ == 0) {
            ::setpgid(0, 0);
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (stdout_fd >= 0) {
                ::dup2(stdout_fd, STDOUT_FILENO);
            }
            if (stderr_fd >= 0) {
                ::dup2(stderr_fd, STDERR_FILENO);
            }
            ::execv(args[0], args.data());
            ::_exit(127);
        }
        ::setpgid(pid_, pid_); // no race with the child's own call
    }
    ~child_group() { stop(); }

    child_group(const child_group&) = delete;
    child_group& operator=(const child_group&) = delete;

    [[nodiscard]] pid_t pid() const noexcept { return pid_; }

    void stop() {
        if (pid_ <= 0) {
            return;
        }
        ::kill(-pid_, SIGTERM);
        const clock_type::time_point start = clock_type::now();
        bool killed = false;
        for (;;) {
            const pid_t reaped = ::waitpid(-pid_, nullptr, WNOHANG);
            if (reaped < 0 && errno == ECHILD) {
                break; // every member of the group has been reaped
            }
            if (reaped <= 0) {
                if (!killed && seconds_since(start) > 5.0) {
                    ::kill(-pid_, SIGKILL);
                    killed = true;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
        }
        pid_ = -1;
    }

private:
    pid_t pid_ = -1;
};

/// Pids of the live children of `parent` (the daemon's workers).
std::vector<int> children_of(int parent) {
    std::vector<int> out;
    DIR* proc = ::opendir("/proc");
    if (proc == nullptr) {
        return out;
    }
    while (const dirent* entry = ::readdir(proc)) {
        const int pid = std::atoi(entry->d_name);
        if (pid <= 0) {
            continue;
        }
        std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
        std::string line;
        std::getline(stat, line);
        // Fields after the parenthesised command: state, ppid, ...
        const std::size_t close = line.rfind(')');
        if (close == std::string::npos) {
            continue;
        }
        char state = 0;
        int ppid = 0;
        if (std::sscanf(line.c_str() + close + 1, " %c %d", &state, &ppid) ==
                2 &&
            ppid == parent) {
            out.push_back(pid);
        }
    }
    ::closedir(proc);
    return out;
}

/// A running quorum_serve, started and announced.
class serve_daemon {
public:
    serve_daemon(const std::string& log_path, double& startup_seconds) {
        int pipe_fds[2];
        if (::pipe(pipe_fds) != 0) {
            throw std::runtime_error("pipe failed");
        }
        const int log_fd =
            ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        const clock_type::time_point start = clock_type::now();
        process_ = std::make_unique<child_group>(
            std::vector<std::string>{
                PERFBENCH_SERVE_BIN, "--workers", std::to_string(fleet_workers),
                "--threads", "1", "--mode", "sampled", "--shots", "1024",
                "--groups", std::to_string(serve_groups)},
            pipe_fds[1], log_fd);
        ::close(pipe_fds[1]);
        if (log_fd >= 0) {
            ::close(log_fd);
        }
        const util::unique_fd out(pipe_fds[0]);
        const std::string tag = "serving on ";
        std::string text;
        for (;;) {
            pollfd ready{out.get(), POLLIN, 0};
            char chunk[512];
            const ssize_t n = ::poll(&ready, 1, 30000) == 1
                                  ? ::read(out.get(), chunk, sizeof(chunk))
                                  : 0;
            if (n <= 0) {
                throw std::runtime_error("quorum_serve never announced "
                                         "its address");
            }
            text.append(chunk, static_cast<std::size_t>(n));
            const std::size_t at = text.find(tag);
            if (at != std::string::npos &&
                text.find(' ', at + tag.size()) != std::string::npos) {
                const std::size_t from = at + tag.size();
                endpoint_ = util::parse_endpoint(
                    text.substr(from, text.find(' ', from) - from));
                startup_seconds = seconds_since(start);
                return;
            }
        }
    }

    [[nodiscard]] const util::endpoint& endpoint() const noexcept {
        return endpoint_;
    }

    /// Peak resident memory of the daemon plus its workers.
    [[nodiscard]] double peak_rss_mb() const {
        double total = peak_rss_mb_of(std::to_string(process_->pid()));
        for (const int worker : children_of(process_->pid())) {
            total += peak_rss_mb_of(std::to_string(worker));
        }
        return total;
    }

    void stop() { process_->stop(); }

private:
    std::unique_ptr<child_group> process_;
    util::endpoint endpoint_;
};

// --- requests -----------------------------------------------------------------

struct request_set {
    std::vector<std::string> text; ///< header + rows, QSRV1 framing
    std::vector<std::vector<std::string>> lines; ///< the row lines
    std::vector<std::vector<double>> expected;
    std::vector<std::vector<int>> labels;
};

/// Distinct requests drawn from the seed, and their expected scores: the
/// in-process detector's, which must equal the per-level reference.
request_set make_requests(std::uint64_t seed, std::size_t& failed) {
    request_set set;
    const std::string tag(exec::serve_protocol_tag);
    for (std::size_t r = 0; r < distinct_requests; ++r) {
        util::rng gen(util::derive_seed(seed, r));
        data::generator_spec spec;
        spec.samples = request_rows;
        spec.anomalies = 2;
        spec.features = request_cols;
        spec.anomaly_shift = 0.3;
        const data::dataset d = data::generate_clustered(spec, gen);
        std::string text = tag + " SCORE " + std::to_string(request_rows) +
                           " " + std::to_string(request_cols) + "\n";
        std::vector<std::string> lines;
        for (std::size_t i = 0; i < d.num_samples(); ++i) {
            std::string line;
            for (std::size_t j = 0; j < d.num_features(); ++j) {
                if (j != 0) {
                    line += ',';
                }
                line += exec::serve_format_double(d.at(i, j));
            }
            text += line + "\n";
            lines.push_back(std::move(line));
        }
        const std::vector<double> fused =
            core::quorum_detector(serve_config("statevector")).score(d).scores;
        core::quorum_config per_level = serve_config("statevector");
        per_level.fused_levels = false;
        const std::vector<double> reference =
            core::quorum_detector(per_level).score(d).scores;
        failed += same_bits(fused, reference) ? 0 : 1;
        set.text.push_back(std::move(text));
        set.lines.push_back(std::move(lines));
        set.expected.push_back(reference);
        set.labels.push_back(d.labels());
    }
    return set;
}

// --- load generation ---------------------------------------------------------

struct connection {
    explicit connection(const util::endpoint& at)
        : fd(util::connect_tcp(at, 5000)),
          reader(fd.get(), reply_timeout_ms, "quorum_serve") {}

    util::unique_fd fd;
    util::line_reader reader;
};

void send_request(connection& conn, const std::string& text) {
    util::send_all(conn.fd.get(), text.data(), text.size(), reply_timeout_ms,
                   "quorum_serve");
}

/// Reads one reply. Returns false on an ERR reply; throws when the
/// connection fails or times out.
bool read_reply(connection& conn, std::vector<double>& scores) {
    std::string line;
    if (!conn.reader.read_line(line)) {
        throw util::net_error("quorum_serve closed the connection");
    }
    const std::string ok = std::string(exec::serve_protocol_tag) + " OK " +
                           std::to_string(request_rows);
    if (line != ok) {
        return false;
    }
    scores.assign(request_rows, 0.0);
    for (double& score : scores) {
        if (!conn.reader.read_line(line) ||
            !exec::serve_parse_double(line, score)) {
            throw util::net_error("malformed score line");
        }
    }
    return true;
}

struct phase_result {
    std::size_t due = 0;
    std::size_t sent = 0;
    std::size_t succeeded = 0;
    std::size_t failed = 0;
    std::vector<double> latency_s; ///< successful requests
    std::vector<double> lag_s;     ///< open loop: send time - due time
    std::size_t max_backlog = 0;
    double seconds = 0.0;

    void merge(const phase_result& other) {
        sent += other.sent;
        succeeded += other.succeeded;
        failed += other.failed;
        latency_s.insert(latency_s.end(), other.latency_s.begin(),
                         other.latency_s.end());
    }
};

/// First reply seen per distinct request (the run's score digest).
class reply_book {
public:
    explicit reply_book(std::size_t n) : first_(n) {}

    void record(std::size_t r, const std::vector<double>& scores) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (first_[r].empty()) {
            first_[r] = scores;
        }
    }
    [[nodiscard]] std::string digest() {
        const std::lock_guard<std::mutex> lock(mutex_);
        score_digest d;
        for (const std::vector<double>& scores : first_) {
            d.add(scores);
        }
        return d.hex();
    }

private:
    std::mutex mutex_;
    std::vector<std::vector<double>> first_;
};

/// `clients` connections, each sending its next request when the previous
/// reply arrives, for `seconds` and at least `min_requests` requests.
phase_result closed_loop(const util::endpoint& at, const request_set& set,
                         std::size_t clients, double seconds,
                         std::size_t min_requests, reply_book& book) {
    std::vector<phase_result> per_client(clients);
    std::atomic<std::size_t> started{0};
    const clock_type::time_point start = clock_type::now();
    const clock_type::time_point deadline =
        start + std::chrono::duration_cast<clock_type::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            phase_result& mine = per_client[c];
            try {
                connection conn(at);
                std::vector<double> scores;
                for (std::size_t k = c;
                     clock_type::now() < deadline || started < min_requests;
                     k += clients) {
                    ++started;
                    const std::size_t r = k % set.text.size();
                    ++mine.due;
                    const clock_type::time_point sent = clock_type::now();
                    send_request(conn, set.text[r]);
                    ++mine.sent;
                    if (read_reply(conn, scores) &&
                        same_bits(scores, set.expected[r])) {
                        mine.latency_s.push_back(seconds_since(sent));
                        ++mine.succeeded;
                        book.record(r, scores);
                    } else {
                        ++mine.failed;
                        return; // an ERR reply ends the session
                    }
                }
            } catch (const std::exception& error) {
                std::fprintf(stderr, "closed loop: %s\n", error.what());
                if (mine.due == mine.succeeded + mine.failed) {
                    ++mine.due; // the connection never opened
                }
                ++mine.failed;
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    phase_result out;
    out.seconds = seconds_since(start);
    for (const phase_result& client : per_client) {
        out.due += client.due;
        out.merge(client);
    }
    return out;
}

/// `arrivals` Poisson arrivals at `rate`, spread over two connections
/// (each pipelines its requests; the daemon answers them in order). A
/// request's latency runs from when it was due to when its reply was read.
phase_result open_loop(const util::endpoint& at, const request_set& set,
                       double rate, std::size_t arrivals, std::uint64_t seed,
                       reply_book& book) {
    struct pending {
        std::size_t request = 0;
        clock_type::time_point due;
    };
    struct open_lane {
        explicit open_lane(const util::endpoint& at) : conn(at) {}
        connection conn;
        std::mutex mutex;
        std::condition_variable cv;
        std::deque<pending> queue;
        bool closed = false;
        bool broken = false;
        phase_result result;
    };

    // The schedule: exponential gaps from the seed.
    std::vector<double> offsets;
    util::rng gen(util::derive_seed(seed, 0x6f70656eull));
    for (double t = 0.0; offsets.size() < arrivals;) {
        t += -std::log(1.0 - gen.uniform()) / rate;
        offsets.push_back(t);
    }

    std::vector<std::unique_ptr<open_lane>> lanes;
    for (std::size_t c = 0; c < connections; ++c) {
        lanes.push_back(std::make_unique<open_lane>(at));
    }
    std::atomic<std::size_t> outstanding{0};
    std::vector<std::thread> readers;
    for (const std::unique_ptr<open_lane>& lane_ptr : lanes) {
        readers.emplace_back([&outstanding, &set, &book, &l = *lane_ptr] {
            std::vector<double> scores;
            for (;;) {
                pending next;
                {
                    std::unique_lock<std::mutex> lock(l.mutex);
                    l.cv.wait(lock,
                              [&] { return !l.queue.empty() || l.closed; });
                    if (l.queue.empty()) {
                        return;
                    }
                    next = l.queue.front();
                }
                bool ok = false;
                try {
                    ok = read_reply(l.conn, scores) &&
                         same_bits(scores, set.expected[next.request]);
                } catch (const std::exception& error) {
                    std::fprintf(stderr, "open loop: %s\n", error.what());
                    const std::lock_guard<std::mutex> lock(l.mutex);
                    l.broken = true;
                    l.result.failed += l.queue.size();
                    outstanding -= l.queue.size();
                    l.queue.clear();
                    return;
                }
                const std::lock_guard<std::mutex> lock(l.mutex);
                l.queue.pop_front();
                --outstanding;
                if (ok) {
                    l.result.latency_s.push_back(
                        std::chrono::duration<double>(clock_type::now() -
                                                      next.due)
                            .count());
                    ++l.result.succeeded;
                    book.record(next.request, scores);
                } else {
                    ++l.result.failed;
                }
            }
        });
    }

    phase_result out;
    const clock_type::time_point start = clock_type::now();
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        const clock_type::time_point due =
            start + std::chrono::duration_cast<clock_type::duration>(
                        std::chrono::duration<double>(offsets[i]));
        std::this_thread::sleep_until(due);
        ++out.due;
        // The live connection with the fewest requests in flight.
        open_lane* target = nullptr;
        std::size_t best = 0;
        for (const std::unique_ptr<open_lane>& l : lanes) {
            const std::lock_guard<std::mutex> lock(l->mutex);
            if (!l->broken && (target == nullptr || l->queue.size() < best)) {
                target = l.get();
                best = l->queue.size();
            }
        }
        if (target == nullptr) {
            ++out.failed; // unsent: no live connection
            continue;
        }
        const std::size_t r = i % set.text.size();
        {
            const std::lock_guard<std::mutex> lock(target->mutex);
            target->queue.push_back({r, due});
        }
        target->cv.notify_one();
        const std::size_t in_flight = ++outstanding;
        out.max_backlog = std::max(out.max_backlog, in_flight);
        try {
            send_request(target->conn, set.text[r]);
            ++out.sent;
            out.lag_s.push_back(std::chrono::duration<double>(
                                    clock_type::now() - due)
                                    .count());
        } catch (const std::exception& error) {
            // The reader fails the queued request when it reads the dead
            // connection; count nothing here.
            std::fprintf(stderr, "open loop send: %s\n", error.what());
        }
    }
    for (const std::unique_ptr<open_lane>& l : lanes) {
        {
            const std::lock_guard<std::mutex> lock(l->mutex);
            l->closed = true;
        }
        l->cv.notify_one();
    }
    for (std::thread& reader : readers) {
        reader.join();
    }
    out.seconds = seconds_since(start);
    for (const std::unique_ptr<open_lane>& l : lanes) {
        out.merge(l->result);
        out.failed += l->queue.size(); // queued on a connection that died
    }
    return out;
}

void print_phase(const char* name, const phase_result& p) {
    std::printf("serve_fleet %-11s due=%zu sent=%zu succeeded=%zu "
                "failed=%zu lag_p99_ms=%.3f max_backlog=%zu\n",
                name, p.due, p.sent, p.succeeded, p.failed,
                percentile(p.lag_s, 0.99) * 1e3, p.max_backlog);
}

// --- traced replica ----------------------------------------------------------

/// Counters of one fleet lane's transport.
struct lane_counters {
    std::int64_t send_ns = 0;
    std::int64_t wait_ns = 0;
    std::size_t span_requests = 0;
    std::size_t bytes = 0;
    std::size_t block_hits = 0;
};

/// wire_transport decorator on one fleet lane: times send and reply wait,
/// counts messages and bytes, tracks whether each span request's program
/// block equals the previous one on the lane (the worker's one-entry
/// decode cache key), and can capture the traffic for replay.
class traced_transport final : public exec::wire_transport {
public:
    explicit traced_transport(std::unique_ptr<exec::wire_transport> inner)
        : inner_(std::move(inner)) {}

    void send_message(std::span<const std::uint8_t> payload) override {
        const std::int64_t start = now_ns();
        inner_->send_message(payload);
        const std::int64_t end = now_ns();
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto tag = static_cast<wire::message>(payload[0]);
        if (tag == wire::message::hello) {
            hello_.assign(payload.begin(), payload.end());
            return;
        }
        if (tag != wire::message::run_span &&
            tag != wire::message::run_levels_span) {
            return;
        }
        wire::reader in(payload);
        (void)in.u8();
        (void)wire::decode_shard_work(in);
        const std::span<const std::uint8_t> block = in.raw(in.u32());
        const bool hit = previous_tag_ == payload[0] &&
                         std::equal(block.begin(), block.end(),
                                    previous_block_.begin(),
                                    previous_block_.end());
        if (!hit) {
            previous_tag_ = payload[0];
            previous_block_.assign(block.begin(), block.end());
        }
        if (recording_) {
            counters_.send_ns += end - start;
            counters_.bytes += payload.size();
            ++counters_.span_requests;
            counters_.block_hits += hit ? 1 : 0;
        }
        if (capturing_) {
            captured_.emplace_back(payload.begin(), payload.end());
        }
    }

    [[nodiscard]] std::vector<std::uint8_t> recv_message() override {
        const std::int64_t start = now_ns();
        std::vector<std::uint8_t> reply = inner_->recv_message();
        const std::int64_t end = now_ns();
        const std::lock_guard<std::mutex> lock(mutex_);
        if (recording_) {
            counters_.wait_ns += end - start;
            counters_.bytes += reply.size();
        }
        return reply;
    }

    void set_recording(bool on) {
        const std::lock_guard<std::mutex> lock(mutex_);
        recording_ = on;
    }
    void set_capturing(bool on) {
        const std::lock_guard<std::mutex> lock(mutex_);
        capturing_ = on;
    }
    [[nodiscard]] lane_counters counters() {
        const std::lock_guard<std::mutex> lock(mutex_);
        return counters_;
    }
    /// The lane's hello and the captured span requests.
    [[nodiscard]] std::pair<std::vector<std::uint8_t>,
                            std::vector<std::vector<std::uint8_t>>>
    captured() {
        const std::lock_guard<std::mutex> lock(mutex_);
        return {hello_, captured_};
    }

private:
    std::unique_ptr<exec::wire_transport> inner_;
    std::mutex mutex_;
    bool recording_ = false;
    bool capturing_ = false;
    lane_counters counters_;
    std::vector<std::uint8_t> hello_;
    std::uint8_t previous_tag_ = 0;
    std::vector<std::uint8_t> previous_block_;
    std::vector<std::vector<std::uint8_t>> captured_;
};

/// What the fleet_executor decorator records.
struct dispatch_log {
    std::mutex mutex;
    bool recording = false;
    bool measure_encode = false;
    std::int64_t dispatch_ns = 0;
    std::size_t batches = 0;
    std::int64_t plan_ns = 0;
    std::int64_t encode_ns = 0;
};

/// Decorator around exec::fleet_executor: times each dispatch and, when
/// asked, the span planning and wire encoding the fleet executor does
/// for the same batch (re-done here from the public pieces, so it is
/// kept out of the requests whose latency counts). It does not override
/// make_level_session: the base session replays run_batch_levels, which
/// is this decorator's.
class traced_fleet_executor final : public exec::executor {
public:
    traced_fleet_executor(std::shared_ptr<exec::worker_fleet> fleet,
                          dispatch_log& log)
        : inner_(fleet), fleet_(std::move(fleet)), log_(log) {}

    [[nodiscard]] std::string_view name() const noexcept override {
        return inner_.name();
    }
    [[nodiscard]] bool
    supports(exec::readout_kind kind) const noexcept override {
        return inner_.supports(kind);
    }
    [[nodiscard]] bool
    supports(exec::capability what) const noexcept override {
        return inner_.supports(what);
    }
    [[nodiscard]] double run(const quorum::qsim::circuit& c, int cbit,
                             util::rng* gen) const override {
        return inner_.run(c, cbit, gen);
    }
    void run_batch(const exec::program& prog,
                   std::span<const exec::sample> samples,
                   std::span<double> out) const override {
        const std::int64_t start = now_ns();
        inner_.run_batch(prog, samples, out);
        record(now_ns() - start);
    }
    void run_batch_levels(std::span<const exec::program> levels,
                          std::span<const exec::sample> samples,
                          std::span<double> out) const override {
        if (measuring_encode()) {
            measure_encode(levels, samples);
        }
        const std::int64_t start = now_ns();
        inner_.run_batch_levels(levels, samples, out);
        record(now_ns() - start);
    }

private:
    [[nodiscard]] bool measuring_encode() const {
        const std::lock_guard<std::mutex> lock(log_.mutex);
        return log_.measure_encode;
    }
    void record(std::int64_t ns) const {
        const std::lock_guard<std::mutex> lock(log_.mutex);
        if (log_.recording) {
            log_.dispatch_ns += ns;
            ++log_.batches;
        }
    }
    void measure_encode(std::span<const exec::program> levels,
                        std::span<const exec::sample> samples) const {
        const exec::span_planner planner(
            exec::parse_schedule_spec(fleet_->config().engine.schedule.str()));
        const std::int64_t start = now_ns();
        const std::vector<exec::shard_work> plan =
            planner.plan(samples.size(), fleet_->lane_count(), nullptr);
        const std::int64_t planned = now_ns();
        wire::writer block;
        block.u32(static_cast<std::uint32_t>(levels.size()));
        for (const exec::program& level : levels) {
            wire::encode_program(block, level);
        }
        const std::vector<std::uint8_t> blob = block.take();
        for (const exec::shard_work& span : plan) {
            (void)wire::encode_span_request(
                span, blob, samples.subspan(span.first, span.count),
                levels.size(), true);
        }
        const std::int64_t end = now_ns();
        const std::lock_guard<std::mutex> lock(log_.mutex);
        log_.plan_ns += planned - start;
        log_.encode_ns += end - planned;
        ++log_.batches;
    }

    exec::fleet_executor inner_;
    std::shared_ptr<exec::worker_fleet> fleet_;
    dispatch_log& log_;
};

/// One request through the replica, as the daemon serves it: parse the
/// row lines, build a detector, score, format the reply.
struct replica_timing {
    double total_s = 0.0;
    double parse_s = 0.0;
    double score_s = 0.0;
    double format_s = 0.0;
};

replica_timing replica_request(const request_set& set, std::size_t r,
                               const core::quorum_config& config,
                               std::vector<double>& scores) {
    replica_timing t;
    const clock_type::time_point start = clock_type::now();
    std::vector<std::vector<double>> rows(request_rows);
    for (std::size_t i = 0; i < request_rows; ++i) {
        const std::string& line = set.lines[r][i];
        std::size_t begin = 0;
        while (begin <= line.size()) {
            std::size_t end = line.find(',', begin);
            end = end == std::string::npos ? line.size() : end;
            double value = 0.0;
            if (!exec::serve_parse_double(line.substr(begin, end - begin),
                                          value)) {
                throw std::runtime_error("unparsable request cell");
            }
            rows[i].push_back(value);
            begin = end + 1;
        }
    }
    const clock_type::time_point parsed = clock_type::now();
    const core::quorum_detector detector(config);
    scores = detector.score(data::dataset::from_rows(rows)).scores;
    const clock_type::time_point scored = clock_type::now();
    std::string reply = std::string(exec::serve_protocol_tag) + " OK " +
                        std::to_string(request_rows) + "\n";
    for (const double score : scores) {
        reply += exec::serve_format_double(score);
        reply += '\n';
    }
    const clock_type::time_point end = clock_type::now();
    t.parse_s = std::chrono::duration<double>(parsed - start).count();
    t.score_s = std::chrono::duration<double>(scored - parsed).count();
    t.format_s = std::chrono::duration<double>(end - scored).count();
    t.total_s = std::chrono::duration<double>(end - start).count();
    return t;
}

/// Median time of the quorum_detector constructor plus make_executor of
/// its backend (what the daemon pays per request before scoring).
double detector_setup_us(const core::quorum_config& config) {
    std::vector<double> samples;
    for (int rep = 0; rep < 200; ++rep) {
        const std::int64_t start = now_ns();
        const core::quorum_detector detector(config);
        const std::unique_ptr<exec::executor> engine = exec::make_executor(
            detector.config().resolved_backend(),
            detector.config().to_engine_config());
        samples.push_back(static_cast<double>(now_ns() - start) / 1e3);
    }
    return median(samples);
}

/// Replays each lane's captured span requests through decode_program and
/// an in-process worker_session (after that lane's hello). Returns
/// {decode us per block, handle us per span}, medians over replays.
std::pair<double, double>
replay_worker(const std::vector<traced_transport*>& lanes,
              std::size_t& failed) {
    std::vector<double> decode_us;
    std::vector<double> handle_us;
    for (int rep = 0; rep < 5; ++rep) {
        std::int64_t decode_ns = 0;
        std::int64_t handle_ns = 0;
        std::size_t spans = 0;
        for (traced_transport* lane : lanes) {
            const auto [hello, requests] = lane->captured();
            exec::worker_session session;
            (void)session.handle(hello);
            for (const std::vector<std::uint8_t>& request : requests) {
                wire::reader in(request);
                const std::uint8_t tag = in.u8();
                (void)wire::decode_shard_work(in);
                const std::span<const std::uint8_t> block = in.raw(in.u32());
                const std::int64_t start = now_ns();
                wire::reader block_in(block);
                const std::uint32_t programs =
                    tag == static_cast<std::uint8_t>(
                               wire::message::run_levels_span)
                        ? block_in.u32()
                        : 1;
                for (std::uint32_t k = 0; k < programs; ++k) {
                    (void)wire::decode_program(block_in);
                }
                const std::int64_t decoded = now_ns();
                const std::vector<std::uint8_t> reply =
                    session.handle(request);
                const std::int64_t handled = now_ns();
                failed += reply.empty() ||
                                  reply[0] != static_cast<std::uint8_t>(
                                                  wire::message::result)
                              ? 1
                              : 0;
                decode_ns += decoded - start;
                handle_ns += handled - decoded;
                ++spans;
            }
        }
        if (spans == 0) {
            return {0.0, 0.0};
        }
        decode_us.push_back(static_cast<double>(decode_ns) / 1e3 /
                            static_cast<double>(spans));
        handle_us.push_back(static_cast<double>(handle_ns) / 1e3 /
                            static_cast<double>(spans));
    }
    return {median(decode_us), median(handle_us)};
}

/// The traced replica of the daemon's request path. Adds the per-layer
/// metrics to `out`; returns the replica's p50 request time (seconds,
/// recording off) for the daemon-overhead figure.
double run_replica(const request_set& set, double seconds,
                   reply_book& book, report& out) {
    util::unique_fd registry =
        util::listen_tcp(util::endpoint{"127.0.0.1", 0});
    const util::endpoint registry_at{"127.0.0.1",
                                     util::bound_port(registry.get())};
    std::vector<std::unique_ptr<child_group>> workers;
    for (std::size_t w = 0; w < fleet_workers; ++w) {
        workers.push_back(std::make_unique<child_group>(
            std::vector<std::string>{PERFBENCH_WORKER_BIN, "--connect",
                                     registry_at.str()},
            -1, -1));
    }
    exec::fleet_config fleet_config;
    fleet_config.inner = "statevector";
    fleet_config.engine = serve_config("statevector").to_engine_config();
    auto fleet = std::make_shared<exec::worker_fleet>(fleet_config);
    std::vector<traced_transport*> lanes;
    for (std::size_t w = 0; w < fleet_workers; ++w) {
        util::unique_fd conn = util::accept_tcp(registry.get(), 15000);
        if (!conn.valid()) {
            throw std::runtime_error("quorum_worker never dialed in");
        }
        const std::string label = "replica lane " + std::to_string(w);
        auto transport = std::make_unique<traced_transport>(
            std::make_unique<exec::tcp_transport>(std::move(conn), label));
        lanes.push_back(transport.get());
        fleet->add_lane(std::move(transport), label);
    }
    fleet->wait_for_lanes(fleet_workers, 15000);
    dispatch_log log;
    exec::register_backend("perfbench_fleet",
                           [fleet, &log](const exec::engine_config&) {
                               return std::make_unique<traced_fleet_executor>(
                                   fleet, log);
                           });
    const core::quorum_config config = serve_config("perfbench_fleet");
    const std::size_t requeued_before = fleet->stats().requeued_spans;

    std::vector<double> scores;
    std::size_t requests = 0;
    const auto phase = [&](double budget, std::vector<replica_timing>& t) {
        const clock_type::time_point start = clock_type::now();
        do {
            const std::size_t r = requests++ % set.text.size();
            t.push_back(replica_request(set, r, config, scores));
            ++out.attempted;
            if (same_bits(scores, set.expected[r])) {
                book.record(r, scores);
            } else {
                ++out.failed;
            }
        } while (seconds_since(start) < budget);
    };
    // Recording off (the overhead baseline), then on.
    std::vector<replica_timing> plain;
    phase(seconds / 2, plain);
    for (traced_transport* lane : lanes) {
        lane->set_recording(true);
    }
    {
        const std::lock_guard<std::mutex> lock(log.mutex);
        log.recording = true;
    }
    std::vector<replica_timing> traced;
    phase(seconds / 2, traced);
    for (traced_transport* lane : lanes) {
        lane->set_recording(false);
    }
    std::int64_t dispatch_ns = 0;
    {
        const std::lock_guard<std::mutex> lock(log.mutex);
        log.recording = false;
        dispatch_ns = log.dispatch_ns;
        log.measure_encode = true;
        log.batches = 0;
    }
    lane_counters lane_total;
    for (traced_transport* lane : lanes) {
        const lane_counters c = lane->counters();
        lane_total.send_ns += c.send_ns;
        lane_total.wait_ns += c.wait_ns;
        lane_total.span_requests += c.span_requests;
        lane_total.bytes += c.bytes;
        lane_total.block_hits += c.block_hits;
    }
    // Planning and encoding at the requests' batch sizes, then one
    // request's traffic captured for the worker replay.
    std::vector<double> plan_us;
    std::vector<double> encode_us;
    for (std::size_t k = 0; k < set.text.size(); ++k) {
        (void)replica_request(set, k, config, scores);
        const std::lock_guard<std::mutex> lock(log.mutex);
        plan_us.push_back(static_cast<double>(log.plan_ns) / 1e3 /
                          static_cast<double>(log.batches));
        encode_us.push_back(static_cast<double>(log.encode_ns) / 1e3);
        log.plan_ns = 0;
        log.encode_ns = 0;
        log.batches = 0;
    }
    {
        const std::lock_guard<std::mutex> lock(log.mutex);
        log.measure_encode = false;
    }
    for (traced_transport* lane : lanes) {
        lane->set_capturing(true);
    }
    (void)replica_request(set, 0, config, scores);
    for (traced_transport* lane : lanes) {
        lane->set_capturing(false);
    }
    const double setup_us = detector_setup_us(config);
    std::size_t replay_failed = 0;
    const auto [decode_us, handle_us] = replay_worker(lanes, replay_failed);
    out.failed += replay_failed;
    const std::size_t requeued = fleet->stats().requeued_spans - requeued_before;

    // Release the fleet: drop the registry's reference, then shut the
    // lanes down (workers exit on the shutdown message) and reap them.
    exec::register_backend("perfbench_fleet",
                           [](const exec::engine_config& engine) {
                               return exec::make_executor("statevector",
                                                          engine);
                           });
    fleet.reset();
    for (std::unique_ptr<child_group>& worker : workers) {
        worker->stop();
    }

    const auto n = static_cast<double>(traced.size());
    std::vector<double> total_s;
    std::vector<double> plain_s;
    std::vector<double> parse_us;
    std::vector<double> format_us;
    double score_s = 0.0;
    for (const replica_timing& t : traced) {
        total_s.push_back(t.total_s);
        parse_us.push_back(t.parse_s * 1e6);
        format_us.push_back(t.format_s * 1e6);
        score_s += t.score_s;
    }
    for (const replica_timing& t : plain) {
        plain_s.push_back(t.total_s);
    }
    out.add("qsim.compile_us_per_family",
            compile_us_per_family(serve_config("statevector")), "us");
    out.add("exec.plan_us_per_batch", median(plan_us), "us");
    out.add("exec.wire_encode_us_per_request", median(encode_us), "us");
    out.add("exec.dispatch_ms_per_request",
            static_cast<double>(dispatch_ns) / 1e6 / n, "ms");
    out.add("exec.transport_send_ms_per_request",
            static_cast<double>(lane_total.send_ns) / 1e6 / n, "ms");
    out.add("exec.transport_wait_ms_per_request",
            static_cast<double>(lane_total.wait_ns) / 1e6 / n, "ms");
    out.add("exec.messages_per_request",
            static_cast<double>(lane_total.span_requests) / n, "count");
    out.add("exec.wire_bytes_per_request",
            static_cast<double>(lane_total.bytes) / n, "B");
    out.add("exec.worker_decode_us_per_block", decode_us, "us");
    out.add("exec.worker_handle_us_per_span", handle_us, "us");
    out.add("exec.worker_decode_hit_ratio",
            static_cast<double>(lane_total.block_hits) /
                static_cast<double>(lane_total.span_requests),
            "ratio");
    out.add("exec.requeued_spans", static_cast<double>(requeued), "count");
    out.add("core.score_self_ms",
            (score_s - static_cast<double>(dispatch_ns) / 1e9) * 1e3 / n,
            "ms");
    out.add("core.detector_setup_us", setup_us, "us");
    out.add("tools.qsrv_parse_us_per_request", median(parse_us), "us");
    out.add("tools.qsrv_format_us_per_request", median(format_us), "us");
    out.add("trace.overhead_share", median(total_s) / median(plain_s) - 1.0,
            "ratio");
    return median(plain_s);
}

} // namespace

report run_serve_fleet(const options& opts) {
    report out;
    ::setenv("QUORUM_WORKER", PERFBENCH_WORKER_BIN, 1);
    const std::string log_path = opts.data_dir + "/serve_fleet-daemon.log";

    const request_set set = make_requests(opts.seed, out.failed);
    out.attempted += set.text.size();
    double auc = 0.0;
    for (std::size_t r = 0; r < set.text.size(); ++r) {
        auc += quorum::metrics::roc_auc(set.labels[r], set.expected[r]);
    }
    auc /= static_cast<double>(set.text.size());

    // Set-up, repeated: each start is stopped again except the last.
    std::vector<double> setup_s;
    std::unique_ptr<serve_daemon> live;
    for (int rep = 0; rep < (opts.trace ? 1 : setup_repeats); ++rep) {
        if (live) {
            live->stop();
        }
        double startup = 0.0;
        live = std::make_unique<serve_daemon>(log_path, startup);
        setup_s.push_back(startup);
    }
    const util::endpoint at = live->endpoint();
    reply_book book(set.text.size());

    // The end-to-end latency and throughput come from the closed loop:
    // at a fixed offered rate, a shared host whose capacity swings by 3x
    // queues requests whenever it slows, and the open-loop p99 of ten runs
    // of the same code spanned 28 to 178 ms. The open loop keeps its
    // validity checks and its figures.
    const auto arrivals = static_cast<std::size_t>(
        (opts.trace ? 0.25 : 0.35) * opts.seconds * opts.serve.offered_rate);
    const phase_result warmup =
        closed_loop(at, set, connections, warmup_seconds, 0, book);
    const phase_result open = open_loop(at, set, opts.serve.offered_rate,
                                        arrivals, opts.seed, book);
    const phase_result closed =
        opts.trace ? closed_loop(at, set, 1, 0.15 * opts.seconds, 0, book)
                   : closed_loop(at, set, connections, 0.55 * opts.seconds,
                                 min_closed_requests, book);
    const double rss_mb = live->peak_rss_mb();
    live->stop();
    print_phase("warm-up", warmup);
    print_phase("open-loop", open);
    print_phase("closed-loop", closed);
    for (const phase_result* p : {&warmup, &open, &closed}) {
        out.attempted += p->due;
        out.failed += p->failed;
    }
    const double lag_p99_ms = percentile(open.lag_s, 0.99) * 1e3;
    const double p99_ms = percentile(open.latency_s, 0.99) * 1e3;
    std::printf("serve_fleet: open loop at %.1f req/s: %zu requests timed, "
                "p50 %.3f ms, p99 %.3f ms (limit %.1f ms: %s)\n",
                opts.serve.offered_rate, open.latency_s.size(),
                median(open.latency_s) * 1e3, p99_ms, opts.serve.p99_limit_ms,
                p99_ms <= opts.serve.p99_limit_ms ? "met" : "missed");
    if (lag_p99_ms > opts.serve.lag_limit_ms) {
        out.invalid = "generator lag p99 " + std::to_string(lag_p99_ms) +
                      " ms is past its bound";
    } else if (open.max_backlog > opts.serve.backlog_limit) {
        out.invalid = "backlog reached " + std::to_string(open.max_backlog) +
                      " requests, past its bound";
    }

    if (!opts.trace) {
        const auto closed_rows =
            static_cast<double>(closed.succeeded * request_rows);
        out.add("setup_s", median(setup_s), "s");
        out.add("sample_groups_per_s",
                closed_rows * static_cast<double>(serve_groups) /
                    closed.seconds,
                "1/s");
        out.add("latency_p50_ms", median(closed.latency_s) * 1e3, "ms");
        out.add("latency_p99_ms", percentile(closed.latency_s, 0.99) * 1e3,
                "ms");
        out.add("roc_auc", auc, "ratio");
        out.add("rss_peak_mb", rss_mb, "MB");
        out.digest = book.digest();
        return out;
    }

    // The traced run's digest is the replica's: the path the decorators
    // wrap.
    const double daemon_p50_s = median(closed.latency_s);
    reply_book replica_book(set.text.size());
    const double replica_p50_s =
        run_replica(set, 0.45 * opts.seconds, replica_book, out);
    out.add("tools.daemon_overhead_ms", (daemon_p50_s - replica_p50_s) * 1e3,
            "ms");
    out.add("loadgen.lag_p99_ms", lag_p99_ms, "ms");
    out.add("loadgen.sent", static_cast<double>(open.sent), "count");
    out.add("loadgen.succeeded", static_cast<double>(open.succeeded),
            "count");
    out.add("loadgen.failed", static_cast<double>(open.failed), "count");
    out.digest = replica_book.digest();
    return out;
}

} // namespace perfbench
