// quorum_stream — score a time-ordered stream one arrival at a time.
//
//   quorum_stream --demo [options]
//   quorum_stream --input data.csv [options]
//
// Feeds samples to stream::stream_scorer in arrival order and reports
// per-arrival scores plus push-latency percentiles. The demo stream
// comes from data::generate_drifting_stream: clustered data whose
// centres drift sinusoidally over time, with anomalies injected at the
// target rate.
//
// Options:
//   --input PATH          CSV whose rows arrive in order (else --demo)
//   --scenario S          demo stream family: drift (drifting clusters,
//                         default) or sensors (correlated multivariate
//                         sensor bank with stuck/spike faults)
//   --out PATH            scores CSV (default: quorum_stream_scores.csv;
//                         --output is an alias)
//   --label-column K      0/1 label column for evaluation (-1 = none)
//   --no-header           input has no header row
//   --samples N           demo stream length (default 256)
//   --anomalies N         demo anomalies (default 10)
//   --features N          demo raw features (default 8)
//   --drift A             demo drift amplitude (default 0.12)
//   --drift-period P      demo drift period in arrivals (default 160)
//   --window N            sliding-window length (default 8)
//   --rebucket N          arrivals per re-bucketing epoch (default 64)
//   --groups N            ensemble groups (default 32)
//   --shots N             shots per circuit (default 4096)
//   --qubits N            register size (default 3)
//   --rate R              estimated anomaly rate (default 0.03)
//   --bucket-prob P       bucket containment probability (default 0.75)
//   --mode M              exact | sampled | per_shot | noisy
//                         (default sampled)
//   --encoding E          amplitude | angle (default amplitude)
//   --backend B           execution engine (default auto)
//   --schedule S          span planning for wrapper backends: static or
//                         dynamic[:grain] (identical scores; default
//                         static)
//   --no-fused            per-level evaluation instead of the fused
//                         session (identical scores; A/B hatch)
//   --seed S              master seed (default 2025)
//   --top K               print the K strongest suspects (default 10)
//   --help                this text
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "data/csv.h"
#include "data/generators.h"
#include "exec/registry.h"
#include "metrics/confusion.h"
#include "metrics/report.h"
#include "metrics/roc.h"
#include "qml/angle_encoding.h"
#include "stream/stream_scorer.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

struct cli_options {
    std::string input;
    std::string output = "quorum_stream_scores.csv";
    int label_column = -1;
    bool has_header = true;
    bool demo = false;
    std::size_t top = 10;
    std::string scenario = "drift";
    std::size_t demo_samples = 256;
    std::size_t demo_anomalies = 10;
    std::size_t demo_features = 8;
    double drift_amplitude = 0.12;
    double drift_period = 160.0;
    quorum::stream::stream_config config;
};

void print_usage() {
    std::cout <<
        "quorum_stream — online Quorum anomaly scoring over a stream\n"
        "\n"
        "  quorum_stream --demo [--scenario drift|sensors] [--samples N]\n"
        "                [--anomalies N] [--features N] [--drift A]\n"
        "                [--drift-period P]\n"
        "  quorum_stream --input data.csv [--label-column K] [--no-header]\n"
        "  common: [--out scores.csv] [--window N] [--rebucket N]\n"
        "          [--groups N] [--shots N] [--qubits N] [--rate R]\n"
        "          [--bucket-prob P]\n"
        "          [--mode exact|sampled|per_shot|noisy] [--backend B]\n"
        "          [--encoding amplitude|angle]\n"
        "          [--schedule static|dynamic[:grain]]\n"
        "          [--no-fused] [--seed S] [--top K]\n"
        "\n"
        "registered backends:";
    for (const std::string& name : quorum::exec::backend_names()) {
        std::cout << " " << name;
    }
    std::cout << "\n";
}

// Strict flag parsing shared with the other tools (util/parse.h).
using quorum::util::parse_count;
using quorum::util::parse_int;
using quorum::util::parse_real;

bool parse_arguments(int argc, char** argv, cli_options& options) {
    options.config.detector.ensemble_groups = 32;
    options.config.detector.mode = quorum::core::exec_mode::sampled;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                return nullptr;
            }
            return argv[++i];
        };
        const auto next_count = [&](auto& out) -> bool {
            const char* v = next();
            if (v == nullptr) {
                return false;
            }
            if (!parse_count(v, out)) {
                std::cerr << "invalid value for " << arg << ": " << v
                          << "\n";
                return false;
            }
            return true;
        };
        const auto next_real = [&](double& out) -> bool {
            const char* v = next();
            if (v == nullptr) {
                return false;
            }
            if (!parse_real(v, out)) {
                std::cerr << "invalid value for " << arg << ": " << v
                          << "\n";
                return false;
            }
            return true;
        };
        if (arg == "--help" || arg == "-h") {
            print_usage();
            std::exit(0);
        } else if (arg == "--demo") {
            options.demo = true;
        } else if (arg == "--no-header") {
            options.has_header = false;
        } else if (arg == "--input") {
            const char* v = next();
            if (v == nullptr) {
                return false;
            }
            options.input = v;
        } else if (arg == "--out" || arg == "--output") {
            const char* v = next();
            if (v == nullptr) {
                return false;
            }
            options.output = v;
        } else if (arg == "--label-column") {
            const char* v = next();
            if (v == nullptr || !parse_int(v, options.label_column)) {
                if (v != nullptr) {
                    std::cerr << "invalid value for " << arg << ": " << v
                              << "\n";
                }
                return false;
            }
        } else if (arg == "--scenario") {
            const char* v = next();
            if (v == nullptr) {
                return false;
            }
            if (std::string(v) != "drift" && std::string(v) != "sensors") {
                std::cerr << "unknown scenario: " << v
                          << " (drift | sensors)\n";
                return false;
            }
            options.scenario = v;
        } else if (arg == "--samples") {
            if (!next_count(options.demo_samples)) {
                return false;
            }
        } else if (arg == "--anomalies") {
            if (!next_count(options.demo_anomalies)) {
                return false;
            }
        } else if (arg == "--features") {
            if (!next_count(options.demo_features)) {
                return false;
            }
        } else if (arg == "--drift") {
            if (!next_real(options.drift_amplitude)) {
                return false;
            }
        } else if (arg == "--drift-period") {
            if (!next_real(options.drift_period)) {
                return false;
            }
        } else if (arg == "--window") {
            if (!next_count(options.config.window)) {
                return false;
            }
        } else if (arg == "--rebucket") {
            if (!next_count(options.config.rebucket_interval)) {
                return false;
            }
        } else if (arg == "--groups") {
            if (!next_count(options.config.detector.ensemble_groups)) {
                return false;
            }
        } else if (arg == "--shots") {
            if (!next_count(options.config.detector.shots)) {
                return false;
            }
        } else if (arg == "--qubits") {
            if (!next_count(options.config.detector.n_qubits)) {
                return false;
            }
        } else if (arg == "--rate") {
            if (!next_real(options.config.detector.estimated_anomaly_rate)) {
                return false;
            }
        } else if (arg == "--bucket-prob") {
            if (!next_real(options.config.detector.bucket_probability)) {
                return false;
            }
        } else if (arg == "--no-fused") {
            options.config.detector.fused_levels = false;
        } else if (arg == "--seed") {
            if (!next_count(options.config.detector.seed)) {
                return false;
            }
        } else if (arg == "--top") {
            if (!next_count(options.top)) {
                return false;
            }
        } else if (arg == "--mode") {
            const char* v = next();
            if (v == nullptr ||
                !quorum::core::parse_exec_mode(
                    v, options.config.detector.mode)) {
                std::cerr << "unknown mode\n";
                return false;
            }
        } else if (arg == "--encoding") {
            const char* v = next();
            if (v == nullptr ||
                !quorum::qml::parse_encoding(
                    v, options.config.detector.encoding)) {
                if (v != nullptr) {
                    std::cerr << "unknown encoding: " << v
                              << " (amplitude | angle)\n";
                }
                return false;
            }
        } else if (arg == "--backend") {
            const char* v = next();
            if (v == nullptr) {
                return false;
            }
            options.config.detector.backend = v;
        } else if (arg == "--schedule") {
            const char* v = next();
            if (v == nullptr) {
                return false;
            }
            options.config.detector.schedule = v;
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            return false;
        }
    }
    if (!options.demo && options.input.empty()) {
        std::cerr << "either --input or --demo is required\n";
        return false;
    }
    return true;
}

double percentile(std::vector<double> sorted_values, double q) {
    std::sort(sorted_values.begin(), sorted_values.end());
    if (sorted_values.empty()) {
        return 0.0;
    }
    const double rank = q * static_cast<double>(sorted_values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted_values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac;
}

} // namespace

int main(int argc, char** argv) {
    using namespace quorum;
    cli_options options;
    try {
        if (!parse_arguments(argc, argv, options)) {
            print_usage();
            return 2;
        }
    } catch (const std::exception& error) {
        std::cerr << "bad option value: " << error.what() << "\n";
        print_usage();
        return 2;
    }

    try {
        data::dataset input;
        if (options.demo) {
            util::rng gen(options.config.detector.seed);
            if (options.scenario == "sensors") {
                data::sensor_stream_spec spec;
                spec.base.name = "sensor_stream";
                spec.base.samples = options.demo_samples;
                spec.base.anomalies = options.demo_anomalies;
                spec.base.features = options.demo_features;
                input = data::generate_sensor_stream(spec, gen);
                std::cout << "demo stream: " << input.num_samples()
                          << " arrivals from a " << input.num_features()
                          << "-sensor bank, " << input.num_anomalies()
                          << " injected faults\n";
            } else {
                data::stream_spec spec;
                spec.base.name = "drifting_stream";
                spec.base.samples = options.demo_samples;
                spec.base.anomalies = options.demo_anomalies;
                spec.base.features = options.demo_features;
                spec.base.anomaly_shift = 0.3;
                spec.drift_amplitude = options.drift_amplitude;
                spec.drift_period = options.drift_period;
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

        stream::stream_scorer scorer(options.config, input.num_features());
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
        std::cout << "streamed " << input.num_samples() << " arrivals in "
                  << metrics::table_printer::fmt(elapsed, 2) << "s ("
                  << metrics::table_printer::fmt(
                         static_cast<double>(input.num_samples()) /
                             std::max(elapsed, 1e-12),
                         1)
                  << "/s, push p50 "
                  << metrics::table_printer::fmt(
                         percentile(latencies_us, 0.50), 1)
                  << "us, p99 "
                  << metrics::table_printer::fmt(
                         percentile(latencies_us, 0.99), 1)
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
