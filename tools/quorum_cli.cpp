// quorum_cli — run Quorum anomaly detection from the command line.
//
//   quorum_cli --input data.csv [options]
//   quorum_cli --demo [options]
//
// `quorum_cli --help` prints every flag with its default; tools/README.md
// explains them.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "core/quorum.h"
#include "data/csv.h"
#include "data/generators.h"
#include "exec/fleet.h"
#include "exec/schedule.h"
#include "flags.h"
#include "metrics/confusion.h"
#include "metrics/detection_curve.h"
#include "metrics/report.h"
#include "metrics/roc.h"
#include "qml/amplitude_encoding.h"
#include "qml/angle_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "qsim/qasm.h"
#include "util/rng.h"
#include "util/timer.h"

int main(int argc, char** argv) {
    using namespace quorum;
    tools::table_options options;
    options.output = "quorum_scores.csv";
    std::string qasm_path;
    core::quorum_config config;
    config.ensemble_groups = 300;
    config.mode = core::exec_mode::sampled;

    tools::flag_table flags(
        "quorum_cli",
        "quorum_cli — zero-training unsupervised quantum anomaly detection\n"
        "\n"
        "usage: quorum_cli --input data.csv [options]\n"
        "       quorum_cli --demo [options]\n",
        tools::registered_backends_line());
    tools::add_table_flags(flags, options, config);
    flags.text("--qasm", "PATH",
               "also write one example circuit as OpenQASM 2.0", qasm_path);
    tools::add_scoring_flags(flags, config);
    tools::add_threads_flag(flags, config);
    flags.count("--workers", "N",
                "quorum_worker processes of a remote backend, 0 = all "
                "cores; identical scores",
                config.shards);
    if (const auto exit_code = flags.parse(argc, argv)) {
        return *exit_code;
    }
    if (!options.demo && options.input.empty()) {
        return flags.usage_error("either --input or --demo is required");
    }

    try {
        data::dataset input;
        if (options.demo) {
            util::rng gen(config.seed);
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

        core::quorum_detector detector(config);
        std::cout << "scoring: mode=" << core::exec_mode_name(
                         config.mode)
                  << " backend=" << config.resolved_backend();
        if (config.resolved_backend().starts_with("remote")) {
            // The backend's own resolution (0 = hardware threads,
            // clamped), so the header reports the lanes actually used.
            std::cout << " workers="
                      << exec::resolve_lane_count(
                             config.shards,
                             exec::fleet_executor::max_remote_workers);
        }
        if (config.schedule != "static") {
            // Echo the parsed canonical form (e.g. bare "dynamic" shows
            // its default grain).
            std::cout << " schedule="
                      << exec::parse_schedule_spec(config.schedule)
                             .str();
        }
        if (config.encoding != qml::encoding::amplitude) {
            std::cout << " encoding="
                      << qml::encoding_name(config.encoding);
        }
        std::cout << " groups=" << config.ensemble_groups
                  << " qubits=" << config.n_qubits
                  << " shots=" << config.shots << "\n";
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

        if (!qasm_path.empty()) {
            // Export one representative circuit (first sample, level 1).
            util::rng gen(config.seed);
            const auto params = qml::random_ansatz_params(
                config.n_qubits, config.ansatz_layers, gen);
            std::vector<double> features(
                std::min(qml::encoded_feature_count(config.encoding,
                                                    config.n_qubits),
                         input.num_features()),
                0.1);
            const auto amps = qml::to_encoded_amplitudes(
                config.encoding, features, config.n_qubits);
            const qsim::circuit c =
                qml::build_autoencoder_circuit(amps, params, 1);
            std::ofstream qasm_out(qasm_path);
            qsim::write_qasm(qasm_out, c);
            qasm_out.flush();
            if (!qasm_out) {
                std::cerr << "error: cannot write --qasm path '" << qasm_path
                          << "'\n";
                return 1;
            }
            std::cout << "wrote example circuit to " << qasm_path << "\n";
        }
    } catch (const std::exception& error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
