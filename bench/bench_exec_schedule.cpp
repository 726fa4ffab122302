// Span-scheduling bench: static vs dynamic (work-pulling) span planning
// through the worker fleet (exec/fleet.h) on a deliberately SKEWED batch,
// across lane counts — the workload `--schedule dynamic` exists for.
//
// Skew model: a "skewed_bucket" wrapper backend re-evaluates marked
// samples `--heavy-reps` times (marker: negated first amplitude, so the
// cost key travels WITH the sample through any partitioning and over the
// wire). The heavy samples sit in one contiguous prefix — the shape of a
// big bucket — so the static plan hands one lane ~8x the work of its
// siblings while dynamic lanes pull grain-sized spans past the hot spot.
//
// Workers: every fleet lane is a real wire channel, a socketpair whose
// far end a thread serves with exec::serve_channel (the frame loop
// quorum_worker runs), so each span pays the fleet's full encode, frame
// and decode cost. The workers share the bench's process, which is how
// they find the bench-registered skewed engine by name. Scores are
// asserted bit-identical between the policies before anything is
// reported: the knob under test moves wall-clock only.
//
// Emits the flat BENCH_*.json artifact shape CI persists and bench_diff
// gates: {static,dynamic}_l{1,2}_samples_per_second (higher is better)
// are gated; the l4/l8 rows and the dynamic/static ratios ride in the
// ungated "detail" object — on a 1-core runner every ratio is ~1.0 (the
// policies cost the same CPU), the multi-core CI leg is where dynamic's
// win shows up.
//
//   --samples N      batch size (default 256; heavy prefix is N/8)
//   --heavy-reps N   re-evaluations per heavy sample (default 8)
//   --reps N         timed repetitions per configuration (default 3)
//   --grain N        dynamic grain (default 8)
//   --out PATH       also write the JSON report to PATH
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>

#include "bench_common.h"
#include "exec/fleet.h"
#include "exec/registry.h"
#include "exec/schedule.h"
#include "exec/tcp_transport.h"
#include "exec/wire.h"
#include "qml/amplitude_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "qml/swap_test.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace quorum;

std::size_t g_heavy_reps = 8;

/// Statevector wrapper with content-keyed cost skew: a sample whose
/// first amplitude is negative is evaluated `g_heavy_reps` times. The
/// marker travels with the sample, so the skew survives ANY span
/// partitioning — exactly like a bucket whose members are expensive.
class skewed_backend final : public exec::executor {
public:
    explicit skewed_backend(const exec::engine_config& config)
        : inner_(exec::make_executor("statevector", config)) {}

    [[nodiscard]] std::string_view name() const noexcept override {
        return "skewed_bucket";
    }
    [[nodiscard]] bool
    supports(exec::readout_kind kind) const noexcept override {
        return inner_->supports(kind);
    }
    [[nodiscard]] double run(const qsim::circuit& c, int cbit,
                             util::rng* gen) const override {
        return inner_->run(c, cbit, gen);
    }
    void run_batch(const exec::program& prog,
                   std::span<const exec::sample> samples,
                   std::span<double> out) const override {
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const bool heavy = !samples[i].amplitudes.empty() &&
                               samples[i].amplitudes.front() < 0.0;
            const std::size_t reps = heavy ? g_heavy_reps : 1;
            for (std::size_t r = 0; r < reps; ++r) {
                inner_->run_batch(prog, samples.subspan(i, 1),
                                  out.subspan(i, 1));
            }
        }
    }

private:
    std::unique_ptr<exec::executor> inner_;
};

struct workload {
    qml::ansatz_params params;
    std::vector<std::vector<double>> amplitudes;
    exec::program program;

    explicit workload(std::size_t samples) {
        util::rng gen(bench::bench_seed);
        params = qml::random_ansatz_params(3, 2, gen);
        amplitudes.resize(samples);
        for (std::size_t i = 0; i < samples; ++i) {
            std::vector<double> features(7);
            for (double& f : features) {
                f = (0.05 + 0.95 * gen.uniform()) / 7.0;
            }
            amplitudes[i] = qml::to_amplitudes(features, 3);
            if (i < samples / 8) { // heavy contiguous prefix (big bucket)
                amplitudes[i].front() = -amplitudes[i].front();
            }
        }
        program.circuit = qsim::compiled_program::compile(
            qml::autoencoder_template(params, 1));
        program.readout.kind = exec::readout_kind::cbit_probability;
        program.readout.cbit = qml::swap_result_cbit;
    }

    [[nodiscard]] std::vector<exec::sample> make_samples() const {
        std::vector<exec::sample> samples(amplitudes.size());
        for (std::size_t i = 0; i < samples.size(); ++i) {
            samples[i].amplitudes = amplitudes[i];
        }
        return samples;
    }
};

struct run_result {
    double best_seconds = 0.0;
    double checksum = 0.0;
};

/// In-process fleet workers: each transport the factory makes is one end
/// of a socketpair whose other end a thread serves with
/// exec::serve_channel until the fleet closes it. Destroy the fleet
/// first; the destructor joins the serving threads.
class channel_workers {
public:
    channel_workers() = default;
    channel_workers(const channel_workers&) = delete;
    channel_workers& operator=(const channel_workers&) = delete;

    ~channel_workers() {
        for (std::thread& worker : threads_) {
            worker.join();
        }
    }

    [[nodiscard]] exec::transport_factory factory() {
        return [this](std::size_t index)
                   -> std::unique_ptr<exec::wire_transport> {
            int sv[2];
            if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) !=
                0) {
                throw exec::transport_error("socketpair failed");
            }
            util::unique_fd near(sv[0]);
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                threads_.emplace_back([far = util::unique_fd(sv[1])] {
                    (void)exec::serve_channel(far.get(), far.get());
                });
            }
            return std::make_unique<exec::tcp_transport>(
                std::move(near), "in-process worker " + std::to_string(index));
        };
    }

private:
    std::mutex mutex_;
    std::vector<std::thread> threads_;
};

run_result time_policy(const workload& work, std::size_t lanes,
                       const std::string& schedule, std::size_t reps) {
    channel_workers workers;
    exec::fleet_config config;
    config.inner = "skewed_bucket";
    config.engine.schedule = exec::parse_schedule_spec(schedule);
    const auto fleet = std::make_shared<exec::worker_fleet>(config);
    for (std::size_t i = 0; i < lanes; ++i) {
        fleet->add_factory_lane(workers.factory(),
                                "in-process worker " + std::to_string(i));
    }
    fleet->wait_for_lanes(lanes, 15000);
    const exec::fleet_executor engine(fleet);
    const std::vector<exec::sample> samples = work.make_samples();
    std::vector<double> out(samples.size());
    engine.run_batch(work.program, samples, out); // warm-up
    run_result result;
    result.best_seconds = 1e100;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        util::timer timer;
        engine.run_batch(work.program, samples, out);
        result.best_seconds = std::min(result.best_seconds,
                                       timer.seconds());
    }
    for (const double value : out) {
        result.checksum += value;
    }
    return result;
}

} // namespace

int main(int argc, char** argv) {
    const std::size_t samples = bench::flag_value(argc, argv, "--samples", 256);
    g_heavy_reps = bench::flag_value(argc, argv, "--heavy-reps", 8);
    const std::size_t reps = bench::flag_value(argc, argv, "--reps", 3);
    const std::size_t grain = bench::flag_value(argc, argv, "--grain", 8);
    const std::string out_path = bench::flag_text(argc, argv, "--out");
    const std::string dynamic_spec =
        "dynamic:" + std::to_string(grain);

    exec::register_backend("skewed_bucket",
                           [](const exec::engine_config& config) {
                               return std::unique_ptr<exec::executor>(
                                   new skewed_backend(config));
                           });

    const workload work(samples);
    const unsigned cores = std::thread::hardware_concurrency();
    std::printf("bench_exec_schedule: %zu samples (heavy prefix %zu x%zu), "
                "%zu reps, dynamic grain %zu, %u hardware threads\n",
                samples, samples / 8, g_heavy_reps, reps, grain, cores);

    constexpr std::size_t lane_counts[] = {1, 2, 4, 8};
    double static_sps[4] = {};
    double dynamic_sps[4] = {};
    for (std::size_t s = 0; s < 4; ++s) {
        const std::size_t lanes = lane_counts[s];
        const run_result st = time_policy(work, lanes, "static", reps);
        const run_result dy = time_policy(work, lanes, dynamic_spec, reps);
        if (st.checksum != dy.checksum) { // bitwise: sums of equal bits
            std::fprintf(stderr,
                         "bench_exec_schedule: DETERMINISM VIOLATION at "
                         "lanes=%zu: static checksum %.17g != dynamic "
                         "%.17g\n",
                         lanes, st.checksum, dy.checksum);
            return 1;
        }
        static_sps[s] =
            static_cast<double>(samples) / st.best_seconds;
        dynamic_sps[s] =
            static_cast<double>(samples) / dy.best_seconds;
        std::printf("  lanes=%zu static %.0f samples/s, %s %.0f "
                    "samples/s (dynamic/static %.2fx)\n",
                    lanes, static_sps[s], dynamic_spec.c_str(),
                    dynamic_sps[s], dynamic_sps[s] / static_sps[s]);
    }

    char json[768];
    std::snprintf(
        json, sizeof(json),
        "{\"bench\":\"exec_schedule_fleet\",\"samples\":%zu,"
        "\"heavy_reps\":%zu,\"grain\":%zu,\"hardware_threads\":%u,"
        "\"static_l1_samples_per_second\":%.1f,"
        "\"dynamic_l1_samples_per_second\":%.1f,"
        "\"static_l2_samples_per_second\":%.1f,"
        "\"dynamic_l2_samples_per_second\":%.1f,"
        "\"detail\":{\"static_l4\":%.1f,\"dynamic_l4\":%.1f,"
        "\"static_l8\":%.1f,\"dynamic_l8\":%.1f,"
        "\"dynamic_over_static\":{\"l1\":%.3f,\"l2\":%.3f,\"l4\":%.3f,"
        "\"l8\":%.3f}}}",
        samples, g_heavy_reps, grain, cores, static_sps[0],
        dynamic_sps[0], static_sps[1], dynamic_sps[1], static_sps[2],
        dynamic_sps[2], static_sps[3], dynamic_sps[3],
        dynamic_sps[0] / static_sps[0], dynamic_sps[1] / static_sps[1],
        dynamic_sps[2] / static_sps[2], dynamic_sps[3] / static_sps[3]);
    std::printf("%s\n", json);
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        out << json << "\n";
    }
    return 0;
}
