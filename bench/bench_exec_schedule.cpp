// Span-scheduling bench: static vs dynamic (work-pulling) span planning
// on a deliberately SKEWED batch, across shard counts — the workload the
// exec::schedule subsystem exists for.
//
// Skew model: a "skewed_bucket" wrapper backend re-evaluates marked
// samples `--heavy-reps` times (marker: negated first amplitude, so the
// cost key travels WITH the sample through any partitioning). The heavy
// samples sit in one contiguous prefix — the shape of a big bucket — so
// the static plan hands one lane ~8x the work of its siblings while
// dynamic lanes pull grain-sized spans past the hot spot. Scores are
// asserted bit-identical between the policies before anything is
// reported: the knob under test moves wall-clock only.
//
// Emits the flat BENCH_*.json artifact shape CI persists and bench_diff
// gates: {static,dynamic}_s{1,2}_samples_per_second (higher is better)
// are gated; the s4/s8 rows and the dynamic/static ratios ride in the
// ungated "detail" object — on a 1-core runner every ratio is ~1.0 (the
// policies cost the same CPU), the multi-core CI leg is where dynamic's
// >= 1.3x shows up.
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
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "exec/registry.h"
#include "exec/schedule.h"
#include "qml/amplitude_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "qml/swap_test.h"
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

run_result time_policy(const workload& work, std::size_t shards,
                       const std::string& schedule, std::size_t reps) {
    exec::engine_config config;
    config.shards = shards;
    config.schedule = exec::parse_schedule_spec(schedule);
    const auto engine =
        exec::make_executor("sharded:skewed_bucket", config);
    const std::vector<exec::sample> samples = work.make_samples();
    std::vector<double> out(samples.size());
    engine->run_batch(work.program, samples, out); // warm-up
    run_result result;
    result.best_seconds = 1e100;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        util::timer timer;
        engine->run_batch(work.program, samples, out);
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

    constexpr std::size_t shard_counts[] = {1, 2, 4, 8};
    double static_sps[4] = {};
    double dynamic_sps[4] = {};
    for (std::size_t s = 0; s < 4; ++s) {
        const std::size_t shards = shard_counts[s];
        const run_result st = time_policy(work, shards, "static", reps);
        const run_result dy =
            time_policy(work, shards, dynamic_spec, reps);
        if (st.checksum != dy.checksum) { // bitwise: sums of equal bits
            std::fprintf(stderr,
                         "bench_exec_schedule: DETERMINISM VIOLATION at "
                         "shards=%zu: static checksum %.17g != dynamic "
                         "%.17g\n",
                         shards, st.checksum, dy.checksum);
            return 1;
        }
        static_sps[s] =
            static_cast<double>(samples) / st.best_seconds;
        dynamic_sps[s] =
            static_cast<double>(samples) / dy.best_seconds;
        std::printf("  shards=%zu static %.0f samples/s, %s %.0f "
                    "samples/s (dynamic/static %.2fx)\n",
                    shards, static_sps[s], dynamic_spec.c_str(),
                    dynamic_sps[s], dynamic_sps[s] / static_sps[s]);
    }

    char json[768];
    std::snprintf(
        json, sizeof(json),
        "{\"bench\":\"exec_schedule\",\"samples\":%zu,\"heavy_reps\":%zu,"
        "\"grain\":%zu,\"hardware_threads\":%u,"
        "\"static_s1_samples_per_second\":%.1f,"
        "\"dynamic_s1_samples_per_second\":%.1f,"
        "\"static_s2_samples_per_second\":%.1f,"
        "\"dynamic_s2_samples_per_second\":%.1f,"
        "\"detail\":{\"static_s4\":%.1f,\"dynamic_s4\":%.1f,"
        "\"static_s8\":%.1f,\"dynamic_s8\":%.1f,"
        "\"dynamic_over_static\":{\"s1\":%.3f,\"s2\":%.3f,\"s4\":%.3f,"
        "\"s8\":%.3f}}}",
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
