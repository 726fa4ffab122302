// Scenario-diversity bench: detection quality AND throughput of the
// detector variants this repo adds around the paper's flagship
// configuration, on the new data domains.
//
// Rows (one gated samples-per-second figure each):
//   flagship_amplitude  the paper's configuration (n = 3, amplitude
//                       encoding) on a clustered tabular dataset
//   flagship_angle      same detector with angle encoding (RY(pi*f)
//                       per qubit): the O(n)-prep ablation
//   hybrid              PCA(4) -> n = 2 Quorum (baseline/hybrid_qae.h)
//   hep                 flagship detector on the HEP dijet events
//                       (resonance-bump anomalies, arXiv:2112.04958)
//   sensors             streaming scorer over the multivariate sensor
//                       stream (stuck/spike faults)
//
// Each row also reports ROC-AUC; the printed table compares every
// variant against the amplitude flagship run — the paper's own
// configuration — so the ablation question ("what does angle encoding
// / a classical bottleneck cost in quality?") is answered in one
// glance. AUC values ride in the ungated "auc" detail object: quality
// regression is pinned by tests/core/test_scenario_quality.cpp, the
// bench_diff gate watches throughput only.
//
//   --reps N    timed repetitions per row (default 2)
//   --out PATH  also write the flat BENCH json artifact to PATH
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "baseline/hybrid_qae.h"
#include "bench_common.h"
#include "core/quorum.h"
#include "data/generators.h"
#include "metrics/roc.h"
#include "stream/stream_scorer.h"
#include "util/timer.h"

namespace {

using namespace quorum;

struct scenario_result {
    double samples_per_second = 0.0;
    double auc = 0.0;
};

data::dataset make_flagship_dataset() {
    util::rng gen(bench::bench_seed);
    data::generator_spec spec;
    spec.name = "scenario_flagship";
    spec.samples = 256;
    spec.anomalies = 16;
    spec.features = 12;
    return data::generate_clustered(spec, gen);
}

core::quorum_config scenario_config(qml::encoding enc) {
    core::quorum_config config;
    config.ensemble_groups = bench::scaled_groups(60);
    config.mode = core::exec_mode::exact;
    config.encoding = enc;
    config.seed = bench::bench_seed;
    return config;
}

scenario_result run_batch_scenario(const data::dataset& d,
                                   const core::quorum_config& config,
                                   std::size_t reps) {
    const core::quorum_detector detector(config);
    core::score_report report = detector.score(d); // warm-up + scores
    double best = 1e100;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        util::timer timer;
        report = detector.score(d);
        best = std::min(best, timer.seconds());
    }
    scenario_result result;
    result.samples_per_second =
        static_cast<double>(d.num_samples()) / best;
    result.auc = metrics::roc_auc(d.labels(), report.scores);
    return result;
}

scenario_result run_hybrid_scenario(const data::dataset& d,
                                    std::size_t reps) {
    baseline::hybrid_qae_config config;
    config.detector.ensemble_groups = bench::scaled_groups(60);
    config.detector.mode = core::exec_mode::exact;
    config.detector.seed = bench::bench_seed;
    baseline::hybrid_qae hybrid(config);
    hybrid.fit(d);
    core::score_report report = hybrid.score_all(d); // warm-up
    double best = 1e100;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        util::timer timer;
        report = hybrid.score_all(d);
        best = std::min(best, timer.seconds());
    }
    scenario_result result;
    result.samples_per_second =
        static_cast<double>(d.num_samples()) / best;
    result.auc = metrics::roc_auc(d.labels(), report.scores);
    return result;
}

scenario_result run_sensor_scenario(std::size_t reps) {
    data::sensor_stream_spec spec;
    spec.base.name = "sensor_stream";
    spec.base.samples = 384;
    spec.base.anomalies = 20;
    spec.base.features = 8;
    util::rng gen(bench::bench_seed);
    const data::dataset d = data::generate_sensor_stream(spec, gen);

    stream::stream_config config;
    config.window = 4;
    config.rebucket_interval = 64;
    config.detector = scenario_config(qml::encoding::amplitude);
    config.detector.ensemble_groups = bench::scaled_groups(12);

    std::vector<double> scores(d.num_samples(), 0.0);
    double best = 1e100;
    for (std::size_t rep = 0; rep < reps + 1; ++rep) { // rep 0 warms up
        stream::stream_scorer scorer(config, d.num_features());
        util::timer timer;
        for (std::size_t t = 0; t < d.num_samples(); ++t) {
            scores[t] = scorer.push(d.row(t)).score;
        }
        if (rep > 0) {
            best = std::min(best, timer.seconds());
        }
    }
    // Score quality over the warmed-up tail: the first epoch is still
    // accumulating bucket statistics, so its scores are all ~0.
    const std::size_t skip = config.rebucket_interval;
    const std::vector<int> tail_labels(d.labels().begin() +
                                           static_cast<long>(skip),
                                       d.labels().end());
    const std::vector<double> tail_scores(scores.begin() +
                                              static_cast<long>(skip),
                                          scores.end());
    scenario_result result;
    result.samples_per_second =
        static_cast<double>(d.num_samples()) / best;
    result.auc = metrics::roc_auc(tail_labels, tail_scores);
    return result;
}

} // namespace

int main(int argc, char** argv) {
    const std::size_t reps = bench::flag_value(argc, argv, "--reps", 2);
    const std::string out_path = bench::flag_text(argc, argv, "--out");

    std::printf("=== Scenario diversity: encoding / hybrid / new domains "
                "===\n");
    std::printf("ensemble groups: %zu (QUORUM_BENCH_SCALE=%.2f), reps %zu\n\n",
                bench::scaled_groups(60), bench::bench_scale(), reps);

    const data::dataset flagship = make_flagship_dataset();
    util::rng hep_gen(bench::bench_seed);
    const data::dataset hep =
        data::make_hep_events(data::hep_spec{}, hep_gen);

    const scenario_result amplitude = run_batch_scenario(
        flagship, scenario_config(qml::encoding::amplitude), reps);
    const scenario_result angle = run_batch_scenario(
        flagship, scenario_config(qml::encoding::angle), reps);
    const scenario_result hybrid = run_hybrid_scenario(flagship, reps);
    const scenario_result hep_row = run_batch_scenario(
        hep, scenario_config(qml::encoding::amplitude), reps);
    const scenario_result sensors = run_sensor_scenario(reps);

    // The amplitude flagship row IS the paper's configuration: every
    // other row's quality is read as a delta against it.
    std::printf("%-20s %14s %10s %18s\n", "scenario", "samples/s", "AUC",
                "AUC vs amplitude");
    const auto print_row = [&](const char* name,
                               const scenario_result& row) {
        std::printf("%-20s %14.0f %10.3f %+18.3f\n", name,
                    row.samples_per_second, row.auc,
                    row.auc - amplitude.auc);
    };
    print_row("flagship_amplitude", amplitude);
    print_row("flagship_angle", angle);
    print_row("hybrid_pca_qae", hybrid);
    print_row("hep_dijet", hep_row);
    print_row("sensor_stream", sensors);
    std::printf("\npaper reference: amplitude encoding at n = 3 separates "
                "all four Table I domains\n(near-perfect on the most "
                "separable); the rows above must stay >= the\nlower "
                "bounds pinned in tests/core/test_scenario_quality.cpp.\n");

    char json[768];
    std::snprintf(
        json, sizeof(json),
        "{\"bench\":\"scenarios\",\"groups\":%zu,\"reps\":%zu,"
        "\"flagship_amplitude_samples_per_second\":%.1f,"
        "\"flagship_angle_samples_per_second\":%.1f,"
        "\"hybrid_samples_per_second\":%.1f,"
        "\"hep_samples_per_second\":%.1f,"
        "\"sensors_samples_per_second\":%.1f,"
        "\"auc\":{\"flagship_amplitude\":%.4f,\"flagship_angle\":%.4f,"
        "\"hybrid\":%.4f,\"hep\":%.4f,\"sensors\":%.4f}}",
        bench::scaled_groups(60), reps, amplitude.samples_per_second,
        angle.samples_per_second, hybrid.samples_per_second,
        hep_row.samples_per_second, sensors.samples_per_second,
        amplitude.auc, angle.auc, hybrid.auc, hep_row.auc, sensors.auc);
    std::printf("\n%s\n", json);
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        out << json << "\n";
    }
    return 0;
}
