// quorum_stream — score a time-ordered stream one arrival at a time.
//
//   quorum_stream --demo [options]
//   quorum_stream --input data.csv [options]
//
// Feeds samples to stream::stream_scorer in arrival order and reports
// per-arrival scores plus push-latency percentiles. The demo stream
// comes from data::generate_drifting_stream: clustered data whose
// centres drift sinusoidally over time, with anomalies injected at the
// target rate. `quorum_stream --help` prints every flag with its
// default; tools/README.md explains them.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "data/csv.h"
#include "data/generators.h"
#include "flags.h"
#include "metrics/confusion.h"
#include "metrics/report.h"
#include "metrics/roc.h"
#include "qml/angle_encoding.h"
#include "stream/stream_scorer.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

namespace {

/// The bundled demo stream.
struct demo_options {
    std::string scenario = "drift";
    std::size_t samples = 256;
    std::size_t anomalies = 10;
    std::size_t features = 8;
    double drift_amplitude = 0.12;
    double drift_period = 160.0;
};

} // namespace

int main(int argc, char** argv) {
    using namespace quorum;
    tools::table_options options;
    options.output = "quorum_stream_scores.csv";
    demo_options demo;
    stream::stream_config config;
    config.detector.ensemble_groups = 32;
    config.detector.mode = core::exec_mode::sampled;

    tools::flag_table flags(
        "quorum_stream",
        "quorum_stream — online Quorum anomaly scoring over a stream\n"
        "\n"
        "usage: quorum_stream --demo [options]\n"
        "       quorum_stream --input data.csv [options]\n",
        tools::registered_backends_line());
    tools::add_table_flags(flags, options, config.detector);
    flags.choice("--scenario", "S",
                 "demo stream: drift (drifting clusters) | sensors (a "
                 "correlated sensor bank with stuck and spike faults)",
                 [&demo](const std::string& v) {
                     if (v != "drift" && v != "sensors") {
                         return false;
                     }
                     demo.scenario = v;
                     return true;
                 },
                 demo.scenario);
    flags.count("--samples", "N", "demo stream length (>= 1)", demo.samples,
                1);
    flags.count("--anomalies", "N", "demo anomalies (below --samples)",
                demo.anomalies);
    flags.count("--features", "N", "demo raw features (>= 1)", demo.features,
                1);
    flags.real("--drift", "A", "demo drift amplitude", demo.drift_amplitude);
    flags.real("--drift-period", "P", "demo drift period in arrivals (> 0)",
               demo.drift_period, {.low = 0.0});
    flags.count("--window", "N", "sliding-window length (>= 1)",
                config.window, 1);
    flags.count("--rebucket", "N", "arrivals per re-bucketing epoch (>= 2)",
                config.rebucket_interval, 2);
    tools::add_scoring_flags(flags, config.detector);
    if (const auto exit_code = flags.parse(argc, argv)) {
        return *exit_code;
    }
    if (!options.demo && options.input.empty()) {
        return flags.usage_error("either --input or --demo is required");
    }
    if (options.demo && demo.anomalies >= demo.samples) {
        return flags.usage_error(
            "--anomalies " + std::to_string(demo.anomalies) +
            " must be below --samples " + std::to_string(demo.samples));
    }

    try {
        data::dataset input;
        if (options.demo) {
            util::rng gen(config.detector.seed);
            if (demo.scenario == "sensors") {
                data::sensor_stream_spec spec;
                spec.base.name = "sensor_stream";
                spec.base.samples = demo.samples;
                spec.base.anomalies = demo.anomalies;
                spec.base.features = demo.features;
                input = data::generate_sensor_stream(spec, gen);
                std::cout << "demo stream: " << input.num_samples()
                          << " arrivals from a " << input.num_features()
                          << "-sensor bank, " << input.num_anomalies()
                          << " injected faults\n";
            } else {
                data::stream_spec spec;
                spec.base.name = "drifting_stream";
                spec.base.samples = demo.samples;
                spec.base.anomalies = demo.anomalies;
                spec.base.features = demo.features;
                spec.base.anomaly_shift = 0.3;
                spec.drift_amplitude = demo.drift_amplitude;
                spec.drift_period = demo.drift_period;
                input = data::generate_drifting_stream(spec, gen);
                std::cout << "demo stream: " << input.num_samples()
                          << " arrivals, " << input.num_anomalies()
                          << " planted anomalies, drift amplitude "
                          << spec.drift_amplitude << "\n";
            }
        } else {
            data::csv_options csv;
            csv.has_header = options.has_header;
            csv.label_column = options.label_column;
            input = data::read_csv_file(options.input, csv);
            std::cout << "streaming " << input.num_samples()
                      << " rows x " << input.num_features()
                      << " features from " << options.input << "\n";
        }

        stream::stream_scorer scorer(config, input.num_features());
        const core::quorum_config& detector = scorer.config().detector;
        std::cout << "scoring: mode=" << core::exec_mode_name(detector.mode)
                  << " backend=" << detector.resolved_backend();
        if (detector.encoding != qml::encoding::amplitude) {
            std::cout << " encoding=" << qml::encoding_name(detector.encoding);
        }
        std::cout << " groups=" << detector.ensemble_groups
                  << " window=" << scorer.config().window
                  << " rebucket=" << scorer.config().rebucket_interval
                  << " qubits=" << detector.n_qubits
                  << " shots=" << detector.shots << "\n";

        std::vector<double> scores(input.num_samples(), 0.0);
        std::vector<double> latencies_us(input.num_samples(), 0.0);
        std::vector<std::size_t> runs(input.num_samples(), 0);
        util::timer total;
        for (std::size_t t = 0; t < input.num_samples(); ++t) {
            util::timer push_timer;
            const stream::stream_score verdict = scorer.push(input.row(t));
            latencies_us[t] = push_timer.seconds() * 1e6;
            scores[t] = verdict.score;
            runs[t] = verdict.runs;
        }
        const double elapsed = total.seconds();
        const auto push_us = [&latencies_us](double q) {
            return latencies_us.empty() ? 0.0
                                        : util::quantile(latencies_us, q);
        };
        std::cout << "streamed " << input.num_samples() << " arrivals in "
                  << metrics::table_printer::fmt(elapsed, 2) << "s ("
                  << metrics::table_printer::fmt(
                         static_cast<double>(input.num_samples()) /
                             std::max(elapsed, 1e-12),
                         1)
                  << "/s, push p50 "
                  << metrics::table_printer::fmt(push_us(0.50), 1)
                  << "us, p99 "
                  << metrics::table_printer::fmt(push_us(0.99), 1)
                  << "us)\n\n";

        std::vector<std::size_t> ranking(scores.size());
        std::iota(ranking.begin(), ranking.end(), std::size_t{0});
        std::stable_sort(ranking.begin(), ranking.end(),
                         [&scores](std::size_t a, std::size_t b) {
                             return scores[a] > scores[b];
                         });
        metrics::table_printer table({"rank", "position", "score", "runs"});
        for (std::size_t r = 0; r < std::min(options.top, ranking.size());
             ++r) {
            table.add_row({std::to_string(r + 1),
                           std::to_string(ranking[r]),
                           metrics::table_printer::fmt(scores[ranking[r]], 1),
                           std::to_string(runs[ranking[r]])});
        }
        table.print(std::cout);

        std::ofstream out(options.output);
        if (!out) {
            std::cerr << "error: cannot open --out path '" << options.output
                      << "' for writing\n";
            return 1;
        }
        out << "position,score,runs";
        if (input.has_labels()) {
            out << ",label";
        }
        out << "\n";
        for (std::size_t t = 0; t < scores.size(); ++t) {
            out << t << "," << scores[t] << "," << runs[t];
            if (input.has_labels()) {
                out << "," << input.labels()[t];
            }
            out << "\n";
        }
        out.flush();
        if (!out) {
            std::cerr << "error: failed writing scores to --out path '"
                      << options.output << "'\n";
            return 1;
        }
        std::cout << "\nwrote per-arrival scores to " << options.output
                  << "\n";

        if (input.has_labels() && input.num_anomalies() > 0) {
            const auto counts = metrics::evaluate_top_k(
                input.labels(), scores, input.num_anomalies());
            std::cout << "evaluation (labels withheld from the scorer): "
                      << "precision " << metrics::table_printer::fmt(
                             counts.precision())
                      << ", recall " << metrics::table_printer::fmt(
                             counts.recall())
                      << ", ROC-AUC "
                      << metrics::table_printer::fmt(
                             metrics::roc_auc(input.labels(), scores))
                      << "\n";
        }
    } catch (const std::exception& error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
