// Table workloads: batch_table (the paper's Table-I suite at paper
// defaults) and noisy_table (a small clustered table on the density
// engine with IBM Brisbane noise).
//
// An operation is one table pass: every table of the workload scored once
// by core::quorum_detector::score. Each pass's scores must equal, bit for
// bit, a reference computed once before the timed region through the
// per-level path (fused_levels = false).
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "core/quorum.h"
#include "data/generators.h"
#include "data/preprocess.h"
#include "metrics/roc.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace core = quorum::core;
namespace data = quorum::data;

constexpr const char* traced_backend = "perfbench_traced";
/// Untimed set-ups before the first timed one (first-touch page faults).
constexpr int setup_warmups = 3;
/// Share of each untraced pass's time spent again on timed set-ups after
/// it, so the set-up samples span the whole run like the passes do.
constexpr double setup_share = 0.02;

struct table_input {
    std::string path;
    std::size_t features = 0;
    double bucket_probability = 0.75;
};

struct table_workload {
    std::string name;
    core::quorum_config config; ///< shared by every table
    std::string plain_backend;
    std::vector<table_input> tables;
};

/// The loaded state a workload scores: one dataset and one detector per
/// table.
struct loaded_tables {
    std::vector<data::dataset> data;
    std::vector<core::quorum_detector> detectors;
    double read_csv_ms = 0.0;
};

core::quorum_config table_config(const table_workload& w,
                                 const table_input& t,
                                 const std::string& backend) {
    core::quorum_config config = w.config;
    config.bucket_probability = t.bucket_probability;
    config.backend = backend;
    return config;
}

/// Set-up as a user pays it: read every CSV and build every detector.
loaded_tables load(const table_workload& w, const std::string& backend) {
    loaded_tables out;
    for (const table_input& t : w.tables) {
        const clock_type::time_point start = clock_type::now();
        out.data.push_back(read_table_csv(t.path, t.features));
        out.read_csv_ms += seconds_since(start) * 1e3;
        out.detectors.emplace_back(table_config(w, t, backend));
    }
    return out;
}

/// Set-up samples of one run.
struct setup_samples {
    std::vector<double> seconds;
    std::vector<double> read_ms;
};

/// Times set-ups (load every table, build every detector) until `budget`
/// seconds have passed, at least one.
void time_setups(const table_workload& w, double budget,
                 setup_samples& samples) {
    const clock_type::time_point begin = clock_type::now();
    do {
        const clock_type::time_point start = clock_type::now();
        const loaded_tables tables = load(w, w.plain_backend);
        samples.seconds.push_back(seconds_since(start));
        samples.read_ms.push_back(tables.read_csv_ms);
    } while (seconds_since(begin) < budget);
}

struct pass_stats {
    std::vector<double> seconds; ///< one entry per pass
    std::size_t failed = 0;
    std::vector<std::vector<double>> first_scores;
};

/// Scores every table once per pass until `budget` seconds have passed
/// (at least one pass), checking each pass against `reference`.
/// `score_spans`, when given, receives the [start, end) of every score
/// call. `after_pass`, when given, runs after each pass with its time;
/// the run's budget counts it. Each pass runs on the next CPU placement
/// of the ensemble's thread count.
pass_stats
run_passes(const loaded_tables& tables,
           const std::vector<std::vector<double>>& reference, double budget,
           std::vector<std::pair<std::int64_t, std::int64_t>>* score_spans,
           const std::function<void(double)>& after_pass = {}) {
    pass_stats stats;
    cpu_rotation placements(tables.detectors.front().config().threads);
    const clock_type::time_point begin = clock_type::now();
    do {
        placements.next();
        const clock_type::time_point pass_start = clock_type::now();
        bool ok = true;
        for (std::size_t t = 0; t < tables.data.size(); ++t) {
            const std::int64_t start = now_ns();
            const core::score_report report =
                tables.detectors[t].score(tables.data[t]);
            if (score_spans != nullptr) {
                score_spans->emplace_back(start, now_ns());
            }
            ok = ok && same_bits(report.scores, reference[t]);
            if (stats.first_scores.size() < tables.data.size()) {
                stats.first_scores.push_back(report.scores);
            }
        }
        stats.seconds.push_back(seconds_since(pass_start));
        stats.failed += ok ? 0 : 1;
        if (after_pass) {
            after_pass(stats.seconds.back());
        }
    } while (seconds_since(begin) < budget);
    return stats;
}

/// Median time of normalize_for_quorum over every table of the workload.
double normalize_ms(const loaded_tables& tables) {
    std::vector<double> samples;
    for (int rep = 0; rep < 5; ++rep) {
        const clock_type::time_point start = clock_type::now();
        for (const data::dataset& d : tables.data) {
            (void)data::normalize_for_quorum(d.without_labels());
        }
        samples.push_back(seconds_since(start) * 1e3);
    }
    return median(samples);
}

report run_table_workload(const table_workload& w, const options& opts) {
    report out;
    for (int rep = 0; rep < setup_warmups; ++rep) {
        (void)load(w, w.plain_backend);
    }
    // Set-up is timed again after every untraced pass; the median over
    // the run is the set-up time.
    setup_samples setups;
    const auto time_setups_after = [&](double pass_seconds) {
        time_setups(w, setup_share * pass_seconds, setups);
    };

    trace::span_log log;
    if (opts.trace) {
        trace::register_traced_backend(traced_backend, w.plain_backend, log);
    }
    const loaded_tables tables = load(w, w.plain_backend);
    const loaded_tables traced =
        opts.trace ? load(w, traced_backend) : loaded_tables{};

    // Reference through the per-level path, outside the timed region.
    std::vector<std::vector<double>> reference;
    std::size_t sample_groups = 0;
    double auc_sum = 0.0;
    for (std::size_t t = 0; t < w.tables.size(); ++t) {
        core::quorum_config config =
            table_config(w, w.tables[t], w.plain_backend);
        config.fused_levels = false;
        reference.push_back(
            core::quorum_detector(config).score(tables.data[t]).scores);
        sample_groups +=
            tables.data[t].num_samples() * w.config.ensemble_groups;
        auc_sum += quorum::metrics::roc_auc(tables.data[t].labels(),
                                            reference.back());
    }

    if (!opts.trace) {
        const pass_stats passes = run_passes(tables, reference, opts.seconds,
                                             nullptr, time_setups_after);
        double total = 0.0;
        for (const double s : passes.seconds) {
            total += s;
        }
        score_digest digest;
        for (const std::vector<double>& scores : passes.first_scores) {
            digest.add(scores);
        }
        out.attempted = passes.seconds.size();
        out.failed = passes.failed;
        out.digest = digest.hex();
        out.add("setup_s", median(setups.seconds), "s");
        out.add("sample_groups_per_s",
                static_cast<double>(sample_groups * passes.seconds.size()) /
                    total,
                "1/s");
        out.add("latency_p50_ms", median(passes.seconds) * 1e3, "ms");
        out.add("latency_p99_ms", percentile(passes.seconds, 0.99) * 1e3,
                "ms");
        out.add("roc_auc", auc_sum / static_cast<double>(w.tables.size()),
                "ratio");
        out.add("rss_peak_mb", peak_rss_mb_self(), "MB");
        std::printf("%s: %zu passes of %zu tables, %zu sample-groups each; "
                    "%zu timed set-ups\n",
                    w.name.c_str(), passes.seconds.size(), w.tables.size(),
                    sample_groups, setups.seconds.size());
        return out;
    }

    // Traced run: half the budget on the plain backend (the overhead
    // baseline), half on the decorator.
    const pass_stats plain = run_passes(tables, reference, opts.seconds / 2,
                                        nullptr, time_setups_after);
    (void)log.take(); // nothing should be there; start clean
    std::vector<std::pair<std::int64_t, std::int64_t>> score_spans;
    const pass_stats passes =
        run_passes(traced, reference, opts.seconds / 2, &score_spans);
    const std::vector<trace::span> spans = log.take();
    const trace::exec_totals totals = trace::summarise(spans);
    const auto exec_intervals = trace::intervals(spans);
    std::int64_t score_ns = 0;
    std::int64_t covered = 0;
    for (const auto& [start, end] : score_spans) {
        score_ns += end - start;
        covered += covered_ns(exec_intervals, start, end);
    }
    const auto n_passes = static_cast<double>(passes.seconds.size());
    score_digest digest;
    for (const std::vector<double>& scores : passes.first_scores) {
        digest.add(scores);
    }
    out.attempted = plain.seconds.size() + passes.seconds.size();
    out.failed = plain.failed + passes.failed;
    out.digest = digest.hex();
    out.add("data.read_csv_ms", median(setups.read_ms), "ms");
    out.add("data.normalize_ms", normalize_ms(tables), "ms");
    out.add("qml.encode_ns_per_sample",
            encode_ns_per_sample(tables.data, w.config, opts.seed), "ns");
    out.add("exec.replay_s", static_cast<double>(totals.busy_ns) / 1e9 /
                                 n_passes,
            "s");
    out.add("exec.replay_share",
            static_cast<double>(covered) / static_cast<double>(score_ns),
            "ratio");
    out.add("exec.calls", static_cast<double>(totals.calls) / n_passes,
            "count");
    out.add("exec.samples_per_call",
            static_cast<double>(totals.samples) /
                static_cast<double>(totals.calls),
            "count");
    out.add("exec.replay_ns_per_sample_level",
            static_cast<double>(totals.busy_ns) /
                static_cast<double>(totals.sample_levels),
            "ns");
    out.add("core.score_self_ms",
            static_cast<double>(score_ns - covered) / 1e6 / n_passes, "ms");
    out.add("trace.overhead_share",
            median(passes.seconds) / median(plain.seconds) - 1.0, "ratio");
    return out;
}

core::quorum_config paper_config() {
    core::quorum_config config; // 3 qubits, 2 layers, levels {1, 2}
    config.mode = core::exec_mode::sampled;
    config.shots = 4096;
    config.ensemble_groups = 200;
    config.threads = 2;
    return config;
}

std::string csv_path(const options& opts, const std::string& table) {
    return opts.data_dir + "/" + opts.workload + "-" +
           std::to_string(opts.seed) + "-" + table + ".csv";
}

} // namespace

report run_batch_table(const options& opts) {
    table_workload w;
    w.name = "batch_table";
    w.config = paper_config();
    w.plain_backend = "statevector";
    for (const data::benchmark_dataset& entry :
         data::make_benchmark_suite(opts.seed)) {
        const std::string path = csv_path(opts, entry.name);
        write_table_csv(path, entry.data);
        w.tables.push_back(
            {path, entry.data.num_features(), entry.bucket_probability});
    }
    return run_table_workload(w, opts);
}

report run_noisy_table(const options& opts) {
    table_workload w;
    w.name = "noisy_table";
    w.config = paper_config();
    w.config.mode = core::exec_mode::noisy; // IBM Brisbane median noise
    w.config.ensemble_groups = 4;
    w.plain_backend = "density";
    quorum::util::rng gen(opts.seed);
    data::generator_spec spec;
    spec.name = "noisy_table";
    spec.samples = 32;
    // Three anomalies displaced by 0.5 on every feature: with four groups
    // under noise, fewer or fainter anomalies (or ones only some groups'
    // features see) leave the AUC of one table too unsteady from seed to
    // seed to compare runs by.
    spec.anomalies = 3;
    spec.features = 8;
    spec.anomaly_shift = 0.5;
    spec.anomaly_feature_fraction = 1.0;
    const data::dataset table = data::generate_clustered(spec, gen);
    const std::string path = csv_path(opts, spec.name);
    write_table_csv(path, table);
    w.tables.push_back({path, table.num_features(), 0.75});
    return run_table_workload(w, opts);
}

} // namespace perfbench
