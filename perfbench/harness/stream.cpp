// stream_push: the multivariate sensor stream pushed one arrival at a
// time into stream::stream_scorer.
//
// A pass builds a fresh scorer (timed: the set-up samples), pushes one
// warm-up epoch untimed, then times each of the following pushes. Every
// push's score, warm-up included, must equal, bit for bit, the score a
// reference scorer on the per-level path (fused_levels = false) gave the
// same stream position; the reference runs once, before the timed region.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.h"
#include "data/generators.h"
#include "metrics/roc.h"
#include "stream/stream_scorer.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace data = quorum::data;
namespace stream = quorum::stream;

constexpr const char* traced_backend = "perfbench_traced";
constexpr std::size_t timed_arrivals = 4096; ///< per pass

stream::stream_config stream_settings(const std::string& backend) {
    stream::stream_config config;
    config.window = 8;
    config.rebucket_interval = 64;
    config.detector.mode = quorum::core::exec_mode::sampled;
    config.detector.shots = 1024;
    config.detector.ensemble_groups = 32;
    config.detector.threads = 1;
    config.detector.backend = backend;
    return config;
}

/// Per-pass statistics: a pass times 4096 pushes, so its p99 has 40
/// pushes beyond it, and memory stays flat however many passes a run
/// makes.
struct push_stats {
    std::size_t pushes = 0;  ///< timed
    std::size_t checked = 0; ///< warm-up and timed
    std::vector<double> setup_seconds; ///< scorer construction, per pass
    std::vector<double> pass_seconds; ///< timed push time of each pass
    std::vector<double> pass_p50;
    std::vector<double> pass_p99;
    std::size_t failed = 0;
    std::vector<double> first_scores; ///< timed scores of the first pass
    /// Traced runs only: every timed push of the last pass.
    std::vector<std::pair<std::int64_t, std::int64_t>> spans;
};

/// Runs passes until `budget` seconds have passed (at least one), each
/// on the next CPU placement. `log`, when given, is emptied before each
/// pass's timed pushes, so it ends up holding the last pass's.
push_stats run_passes(const stream::stream_config& config,
                      const data::dataset& arrivals,
                      const std::vector<double>& reference,
                      std::size_t warmup, double budget,
                      trace::span_log* log) {
    push_stats stats;
    std::vector<double> latency(arrivals.num_samples() - warmup);
    cpu_rotation placements(config.detector.threads);
    const clock_type::time_point begin = clock_type::now();
    do {
        placements.next();
        const clock_type::time_point setup_start = clock_type::now();
        stream::stream_scorer scorer(config, arrivals.num_features());
        stats.setup_seconds.push_back(seconds_since(setup_start));
        for (std::size_t t = 0; t < warmup; ++t) {
            const stream::stream_score verdict = scorer.push(arrivals.row(t));
            stats.failed += same_bits({&verdict.score, 1},
                                      {&reference[t], 1})
                                ? 0
                                : 1;
        }
        if (log != nullptr) {
            (void)log->take();
            stats.spans.clear();
        }
        const bool first = stats.first_scores.empty();
        for (std::size_t t = warmup; t < arrivals.num_samples(); ++t) {
            const std::int64_t start = now_ns();
            const stream::stream_score verdict = scorer.push(arrivals.row(t));
            const std::int64_t end = now_ns();
            latency[t - warmup] = static_cast<double>(end - start) / 1e9;
            if (log != nullptr) {
                stats.spans.emplace_back(start, end);
            }
            stats.failed += same_bits({&verdict.score, 1},
                                      {&reference[t], 1})
                                ? 0
                                : 1;
            if (first) {
                stats.first_scores.push_back(verdict.score);
            }
        }
        stats.pushes += latency.size();
        stats.checked += arrivals.num_samples();
        double seconds = 0.0;
        for (const double s : latency) {
            seconds += s;
        }
        stats.pass_seconds.push_back(seconds);
        stats.pass_p50.push_back(median(latency));
        stats.pass_p99.push_back(percentile(latency, 0.99));
    } while (seconds_since(begin) < budget);
    return stats;
}

} // namespace

report run_stream_push(const options& opts) {
    report out;
    const stream::stream_config config = stream_settings("statevector");
    const std::size_t warmup = config.rebucket_interval;

    quorum::util::rng gen(opts.seed);
    data::sensor_stream_spec spec;
    spec.base.name = "sensor_stream";
    spec.base.samples = warmup + timed_arrivals;
    spec.base.anomalies = spec.base.samples / 24;
    spec.base.features = 8;
    const data::dataset arrivals = data::generate_sensor_stream(spec, gen);

    // Reference through the per-level path, outside the timed region.
    std::vector<double> reference;
    {
        stream::stream_config per_level = config;
        per_level.detector.fused_levels = false;
        stream::stream_scorer scorer(per_level, arrivals.num_features());
        for (std::size_t t = 0; t < arrivals.num_samples(); ++t) {
            reference.push_back(scorer.push(arrivals.row(t)).score);
        }
    }
    const std::vector<int> labels(arrivals.labels().begin() + warmup,
                                  arrivals.labels().end());
    const double auc = quorum::metrics::roc_auc(
        labels, std::span<const double>(reference).subspan(warmup));
    const auto groups =
        static_cast<double>(config.detector.ensemble_groups);

    if (!opts.trace) {
        const push_stats pushes = run_passes(config, arrivals, reference,
                                             warmup, opts.seconds, nullptr);
        score_digest digest;
        digest.add(pushes.first_scores);
        out.attempted = pushes.checked;
        out.failed = pushes.failed;
        out.digest = digest.hex();
        out.add("setup_s", median(pushes.setup_seconds), "s");
        // Throughput and p50 come from the best pass: interference from
        // other tenants of a shared host only ever slows a pass, and a
        // pass's p50 over 4096 pushes is precise enough that the best of
        // a run is steady. A pass's p99 rests on its 41 slowest pushes (64
        // are epoch re-plans), so its lowest over a run is itself noisy;
        // the p99 is the median over passes.
        out.add("sample_groups_per_s",
                static_cast<double>(timed_arrivals) * groups /
                    *std::min_element(pushes.pass_seconds.begin(),
                                      pushes.pass_seconds.end()),
                "1/s");
        out.add("latency_p50_ms",
                *std::min_element(pushes.pass_p50.begin(),
                                  pushes.pass_p50.end()) *
                    1e3,
                "ms");
        out.add("latency_p99_ms", median(pushes.pass_p99) * 1e3, "ms");
        out.add("roc_auc", auc, "ratio");
        out.add("rss_peak_mb", peak_rss_mb_self(), "MB");
        std::printf("stream_push: %zu timed pushes in %zu passes (%zu per "
                    "pass after a %zu-arrival warm-up)\n",
                    pushes.pushes, pushes.pass_p50.size(), timed_arrivals,
                    warmup);
        return out;
    }

    // Traced run: half the budget on the plain backend (the overhead
    // baseline), half on the decorator.
    trace::span_log log;
    trace::register_traced_backend(traced_backend, "statevector", log);
    const push_stats plain = run_passes(config, arrivals, reference, warmup,
                                        opts.seconds / 2, nullptr);
    const push_stats traced =
        run_passes(stream_settings(traced_backend), arrivals, reference,
                   warmup, opts.seconds / 2, &log);
    // The log holds the last pass's timed pushes only.
    const std::vector<trace::span> spans = log.take();
    const auto session_intervals = trace::intervals(spans);
    const trace::exec_totals totals = trace::summarise(spans);
    std::vector<double> steady_us;
    std::vector<double> epoch_us;
    std::vector<double> self_us;
    std::int64_t push_ns = 0;
    std::int64_t covered = 0;
    for (std::size_t i = 0; i < traced.spans.size(); ++i) {
        const auto [start, end] = traced.spans[i];
        const std::int64_t inside = covered_ns(session_intervals, start, end);
        const double us = static_cast<double>(end - start) / 1e3;
        ((warmup + i) % config.rebucket_interval == 0 ? epoch_us : steady_us)
            .push_back(us);
        push_ns += end - start;
        covered += inside;
        self_us.push_back(static_cast<double>(end - start - inside) / 1e3);
    }
    score_digest digest;
    digest.add(traced.first_scores);
    out.attempted = plain.checked + traced.checked;
    out.failed = plain.failed + traced.failed;
    out.digest = digest.hex();
    out.add("qml.encode_ns_per_sample",
            encode_ns_per_sample({arrivals}, config.detector, opts.seed),
            "ns");
    out.add("qsim.compile_us_per_family",
            compile_us_per_family(config.detector), "us");
    const auto timed = static_cast<double>(timed_arrivals);
    out.add("exec.replay_s",
            static_cast<double>(totals.busy_ns) / 1e9 / timed, "s");
    out.add("exec.replay_share",
            static_cast<double>(covered) / static_cast<double>(push_ns),
            "ratio");
    out.add("exec.calls", static_cast<double>(totals.calls) / timed,
            "count");
    out.add("exec.samples_per_call",
            static_cast<double>(totals.samples) /
                static_cast<double>(totals.calls),
            "count");
    out.add("exec.replay_ns_per_sample_level",
            static_cast<double>(totals.busy_ns) /
                static_cast<double>(totals.sample_levels),
            "ns");
    out.add("stream.steady_push_us", median(steady_us), "us");
    out.add("stream.epoch_push_us", median(epoch_us), "us");
    out.add("stream.push_self_us", median(self_us), "us");
    out.add("trace.overhead_share",
            median(traced.pass_p50) / median(plain.pass_p50) - 1.0,
            "ratio");
    return out;
}

} // namespace perfbench
