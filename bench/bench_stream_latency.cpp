// Streaming-path latency bench: per-arriving-sample push latency through
// a real stream::stream_scorer fed by the drifting-stream generator.
//
// Pushes one warm-up epoch first (construction faults, first-touch
// allocations and the first re-bucketing all land there), then times
// every remaining push individually and reports p50/p99 latency plus
// sustained arrivals/sec.
//
// Not a google-benchmark bench on purpose: the unit of interest is the
// latency DISTRIBUTION across arrivals of one steady-state stream, not
// the mean of repeated identical runs. Emits the flat BENCH_*.json
// artifact shape CI persists and bench_diff gates: samples_per_second
// (higher is better) and gated_latency_us.p50 (lower is better). The
// p99 is reported but not gated — single-digit-sample tails flap too
// hard on shared CI runners to gate at the 20% threshold.
//
//   --arrivals N   timed stream length after warm-up (default 192)
//   --groups N     ensemble groups (default: scaled 8)
//   --window N     sliding-window length (default 8)
//   --rebucket N   re-bucketing epoch length (default 32)
//   --shots N      shots per circuit (default 1024)
//   --out PATH     also write the JSON report to PATH
//
// Honours QUORUM_BENCH_SCALE (scales the ensemble-group count).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/generators.h"
#include "stream/stream_scorer.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

using namespace quorum;

int main(int argc, char** argv) {
    const std::size_t arrivals =
        bench::flag_value(argc, argv, "--arrivals", 192);
    const std::size_t groups =
        bench::flag_value(argc, argv, "--groups", bench::scaled_groups(8));
    const std::size_t window = bench::flag_value(argc, argv, "--window", 8);
    const std::size_t rebucket =
        bench::flag_value(argc, argv, "--rebucket", 32);
    const std::size_t shots = bench::flag_value(argc, argv, "--shots", 1024);
    const std::string out_path = bench::flag_text(argc, argv, "--out");

    stream::stream_config config;
    config.window = window;
    config.rebucket_interval = rebucket;
    config.detector.mode = core::exec_mode::sampled;
    config.detector.shots = shots;
    config.detector.ensemble_groups = groups;
    config.detector.seed = bench::bench_seed;

    // One warm-up epoch ahead of the timed arrivals: the timed region
    // starts at a steady-state epoch boundary.
    const std::size_t warmup = rebucket;
    util::rng gen(bench::bench_seed);
    data::stream_spec spec;
    spec.base.name = "bench_stream";
    spec.base.samples = warmup + arrivals;
    spec.base.anomalies =
        std::max<std::size_t>(1, spec.base.samples / 24);
    spec.base.features = 8;
    spec.base.anomaly_shift = 0.3;
    const data::dataset d = data::generate_drifting_stream(spec, gen);

    stream::stream_scorer scorer(config, d.num_features());
    std::printf("bench_stream_latency: %zu warm-up + %zu timed arrivals, "
                "groups=%zu window=%zu rebucket=%zu shots=%zu\n",
                warmup, arrivals, groups, window, rebucket, shots);

    for (std::size_t t = 0; t < warmup; ++t) {
        (void)scorer.push(d.row(t));
    }

    std::vector<double> latencies_us(arrivals, 0.0);
    double checksum = 0.0;
    util::timer wall;
    for (std::size_t t = 0; t < arrivals; ++t) {
        util::timer push_timer;
        const stream::stream_score verdict = scorer.push(d.row(warmup + t));
        latencies_us[t] = push_timer.seconds() * 1e6;
        checksum += verdict.score;
    }
    const double wall_seconds = wall.seconds();

    double mean = 0.0;
    for (const double latency : latencies_us) {
        mean += latency;
    }
    mean /= static_cast<double>(latencies_us.size());
    const double samples_per_second =
        static_cast<double>(arrivals) / wall_seconds;

    char json[512];
    std::snprintf(
        json, sizeof(json),
        "{\"bench\":\"stream_latency\",\"arrivals\":%zu,\"groups\":%zu,"
        "\"window\":%zu,\"rebucket\":%zu,\"shots\":%zu,"
        "\"wall_seconds\":%.3f,\"samples_per_second\":%.1f,"
        "\"gated_latency_us\":{\"p50\":%.1f},"
        "\"latency_us\":{\"mean\":%.1f,\"p99\":%.1f},"
        "\"score_checksum\":%.6f}",
        arrivals, groups, window, rebucket, shots, wall_seconds,
        samples_per_second, util::quantile(latencies_us, 0.50), mean,
        util::quantile(latencies_us, 0.99), checksum);
    std::printf("%s\n", json);
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        out << json << "\n";
    }
    return 0;
}
