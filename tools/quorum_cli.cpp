// quorum_cli — run Quorum anomaly detection from the command line.
//
//   quorum_cli --input data.csv [options]
//
// Options:
//   --input PATH          CSV file to score (required unless --demo)
//   --out PATH            scores CSV (default: quorum_scores.csv;
//                         --output is an alias)
//   --label-column K      0/1 label column for evaluation (-1 = none)
//   --no-header           input has no header row
//   --groups N            ensemble groups (default 300)
//   --shots N             shots per circuit (default 4096)
//   --qubits N            register size (default 3)
//   --rate R              estimated anomaly rate (default 0.03)
//   --bucket-prob P       bucket containment probability (default 0.75)
//   --mode M              exact | sampled | per_shot | noisy (default sampled)
//   --encoding E          amplitude (paper §IV-B, 2^n - 1 features per
//                         register) or angle (one RY(pi·f) per qubit, n
//                         features per register, O(n) prep depth;
//                         default amplitude)
//   --backend B           execution engine: auto | statevector | density |
//                         sharded[:inner] | remote[:inner] | any registered
//                         backend (default auto)
//   --shards N            lanes for the sharded/remote backends: every
//                         batch is split across N in-process shards or N
//                         quorum_worker processes (default: all cores;
//                         ignored by plain backends)
//   --workers N           alias for --shards (reads better with --backend
//                         remote:...)
//   --schedule S          span planning for the sharded/remote backends:
//                         static (one balanced span per lane) or
//                         dynamic[:grain] (grain-sample spans pulled from
//                         a shared queue; absorbs skew). Scores are
//                         identical either way (default static)
//   --threads N           worker threads (default: all cores)
//   --no-fused            evaluate compression levels one batch at a time
//                         instead of through the fused multi-level path
//                         (identical scores; A/B validation hatch)
//   --seed S              master seed (default 2025)
//   --top K               print the K strongest suspects (default 10)
//   --demo                run on a bundled synthetic dataset instead
//   --qasm PATH           also dump one example circuit as OpenQASM 2.0
//   --help                this text
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "core/quorum.h"
#include "data/csv.h"
#include "data/generators.h"
#include "exec/registry.h"
#include "exec/fleet.h"
#include "exec/schedule.h"
#include "exec/sharded_backend.h"
#include "metrics/confusion.h"
#include "metrics/detection_curve.h"
#include "metrics/report.h"
#include "metrics/roc.h"
#include "qml/amplitude_encoding.h"
#include "qml/angle_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "qsim/qasm.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

struct cli_options {
    std::string input;
    std::string output = "quorum_scores.csv";
    std::string qasm_path;
    int label_column = -1;
    bool has_header = true;
    bool demo = false;
    std::size_t top = 10;
    quorum::core::quorum_config config;
};

void print_usage() {
    std::cout <<
        "quorum_cli — zero-training unsupervised quantum anomaly detection\n"
        "\n"
        "  quorum_cli --input data.csv [--out scores.csv]\n"
        "             [--label-column K] [--no-header]\n"
        "             [--groups N] [--shots N] [--qubits N] [--rate R]\n"
        "             [--bucket-prob P] [--mode exact|sampled|per_shot|noisy]\n"
        "             [--encoding amplitude|angle]\n"
        "             [--backend auto|NAME|sharded:NAME|remote:NAME]\n"
        "             [--shards N] [--workers N]\n"
        "             [--schedule static|dynamic[:grain]]\n"
        "             [--threads N] [--no-fused] [--seed S]\n"
        "             [--top K] [--qasm out.qasm]\n"
        "  quorum_cli --demo\n"
        "\n"
        "registered backends:";
    for (const std::string& name : quorum::exec::backend_names()) {
        std::cout << " " << name;
    }
    std::cout << "\n";
}

// Strict flag parsing (whole string consumed, range checked, no silent
// wraparound) lives in util/parse.h, shared with quorum_worker and
// quorum_serve; mode names parse through core::parse_exec_mode.
using quorum::util::parse_count;
using quorum::util::parse_int;
using quorum::util::parse_real;

bool parse_arguments(int argc, char** argv, cli_options& options) {
    options.config.ensemble_groups = 300;
    options.config.mode = quorum::core::exec_mode::sampled;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                return nullptr;
            }
            return argv[++i];
        };
        // Consumes the next argument as a non-negative integer.
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
        } else if (arg == "--qasm") {
            const char* v = next();
            if (v == nullptr) {
                return false;
            }
            options.qasm_path = v;
        } else if (arg == "--label-column") {
            const char* v = next();
            if (v == nullptr || !parse_int(v, options.label_column)) {
                if (v != nullptr) {
                    std::cerr << "invalid value for " << arg << ": " << v
                              << "\n";
                }
                return false;
            }
        } else if (arg == "--groups") {
            if (!next_count(options.config.ensemble_groups)) {
                return false;
            }
        } else if (arg == "--shots") {
            if (!next_count(options.config.shots)) {
                return false;
            }
        } else if (arg == "--qubits") {
            if (!next_count(options.config.n_qubits)) {
                return false;
            }
        } else if (arg == "--rate") {
            const char* v = next();
            if (v == nullptr ||
                !parse_real(v, options.config.estimated_anomaly_rate)) {
                if (v != nullptr) {
                    std::cerr << "invalid value for " << arg << ": " << v
                              << "\n";
                }
                return false;
            }
        } else if (arg == "--bucket-prob") {
            const char* v = next();
            if (v == nullptr ||
                !parse_real(v, options.config.bucket_probability)) {
                if (v != nullptr) {
                    std::cerr << "invalid value for " << arg << ": " << v
                              << "\n";
                }
                return false;
            }
        } else if (arg == "--threads") {
            if (!next_count(options.config.threads)) {
                return false;
            }
        } else if (arg == "--shards" || arg == "--workers") {
            if (!next_count(options.config.shards)) {
                return false;
            }
        } else if (arg == "--no-fused") {
            options.config.fused_levels = false;
        } else if (arg == "--seed") {
            if (!next_count(options.config.seed)) {
                return false;
            }
        } else if (arg == "--top") {
            if (!next_count(options.top)) {
                return false;
            }
        } else if (arg == "--mode") {
            const char* v = next();
            if (v == nullptr ||
                !quorum::core::parse_exec_mode(v, options.config.mode)) {
                std::cerr << "unknown mode\n";
                return false;
            }
        } else if (arg == "--encoding") {
            const char* v = next();
            if (v == nullptr ||
                !quorum::qml::parse_encoding(v, options.config.encoding)) {
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
            options.config.backend = v;
        } else if (arg == "--schedule") {
            const char* v = next();
            if (v == nullptr) {
                return false;
            }
            options.config.schedule = v;
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
        // Belt-and-braces: every flag parses via the strict helpers
        // above, but a future parser regression must still exit 2.
        std::cerr << "bad option value: " << error.what() << "\n";
        print_usage();
        return 2;
    }

    try {
        data::dataset input;
        if (options.demo) {
            util::rng gen(options.config.seed);
            data::generator_spec spec;
            spec.samples = 300;
            spec.anomalies = 12;
            spec.features = 12;
            spec.anomaly_shift = 0.3;
            input = data::generate_clustered(spec, gen);
            std::cout << "demo dataset: " << input.num_samples()
                      << " samples, " << input.num_anomalies()
                      << " planted anomalies\n";
        } else {
            data::csv_options csv;
            csv.has_header = options.has_header;
            csv.label_column = options.label_column;
            input = data::read_csv_file(options.input, csv);
            std::cout << "loaded " << input.num_samples() << " samples x "
                      << input.num_features() << " features from "
                      << options.input << "\n";
        }

        core::quorum_detector detector(options.config);
        std::cout << "scoring: mode=" << core::exec_mode_name(
                         options.config.mode)
                  << " backend=" << options.config.resolved_backend();
        if (options.config.resolved_backend().starts_with("sharded")) {
            // The backend's own resolution (0 = hardware threads,
            // clamped), so the header reports the lanes actually used.
            std::cout << " shards="
                      << exec::resolve_lane_count(
                             options.config.shards,
                             exec::sharded_backend::max_shards);
        } else if (options.config.resolved_backend().starts_with("remote")) {
            std::cout << " workers="
                      << exec::resolve_lane_count(
                             options.config.shards,
                             exec::fleet_executor::max_remote_workers);
        }
        if (options.config.schedule != "static") {
            // Echo the parsed canonical form (e.g. bare "dynamic" shows
            // its default grain).
            std::cout << " schedule="
                      << exec::parse_schedule_spec(options.config.schedule)
                             .str();
        }
        if (options.config.encoding != qml::encoding::amplitude) {
            std::cout << " encoding="
                      << qml::encoding_name(options.config.encoding);
        }
        std::cout << " groups=" << options.config.ensemble_groups
                  << " qubits=" << options.config.n_qubits
                  << " shots=" << options.config.shots << "\n";
        util::timer timer;
        const core::score_report report = detector.score(input);
        std::cout << "scored in " << metrics::table_printer::fmt(
                         timer.seconds(), 2)
                  << "s (bucket size " << report.bucket_size << ")\n\n";

        metrics::table_printer table({"rank", "sample", "score"});
        const auto ranking = report.ranking();
        for (std::size_t r = 0; r < std::min(options.top, ranking.size());
             ++r) {
            table.add_row({std::to_string(r + 1),
                           std::to_string(ranking[r]),
                           metrics::table_printer::fmt(
                               report.scores[ranking[r]], 1)});
        }
        table.print(std::cout);

        std::ofstream out(options.output);
        if (!out) {
            std::cerr << "error: cannot open --out path '" << options.output
                      << "' for writing\n";
            return 1;
        }
        data::write_scores_csv(out, input, report.scores);
        out.flush();
        if (!out) {
            std::cerr << "error: failed writing scores to --out path '"
                      << options.output << "'\n";
            return 1;
        }
        std::cout << "\nwrote scores to " << options.output << "\n";

        if (input.has_labels() && input.num_anomalies() > 0) {
            const auto counts = metrics::evaluate_top_k(
                input.labels(), report.scores, input.num_anomalies());
            std::cout << "evaluation (labels withheld from the detector): "
                      << "precision " << metrics::table_printer::fmt(
                             counts.precision())
                      << ", recall " << metrics::table_printer::fmt(
                             counts.recall())
                      << ", F1 " << metrics::table_printer::fmt(counts.f1())
                      << ", ROC-AUC "
                      << metrics::table_printer::fmt(metrics::roc_auc(
                             input.labels(), report.scores))
                      << "\n";
        }

        if (!options.qasm_path.empty()) {
            // Export one representative circuit (first sample, level 1).
            util::rng gen(options.config.seed);
            const auto params = qml::random_ansatz_params(
                options.config.n_qubits, options.config.ansatz_layers, gen);
            std::vector<double> features(
                std::min(qml::encoded_feature_count(options.config.encoding,
                                                    options.config.n_qubits),
                         input.num_features()),
                0.1);
            const auto amps = qml::to_encoded_amplitudes(
                options.config.encoding, features, options.config.n_qubits);
            const qsim::circuit c =
                qml::build_autoencoder_circuit(amps, params, 1);
            std::ofstream qasm_out(options.qasm_path);
            qsim::write_qasm(qasm_out, c);
            std::cout << "wrote example circuit to " << options.qasm_path
                      << "\n";
        }
    } catch (const std::exception& error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
