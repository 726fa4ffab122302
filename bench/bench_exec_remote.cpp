// Remote-execution microbenchmarks (google-benchmark): what moving a
// span out of the process costs. Two granularities on the Fig. 8
// flagship workload (sampled mode, 4096 shots, paper-default circuits):
//
//   bm_remote_run_batch    — one whole-dataset batch per run_batch call
//                            dispatched to 1/2/4 quorum_worker processes
//                            (serialise + pipe + decode + recompile on
//                            the worker, once per span per batch);
//   bm_remote_ensemble_group — a full core ensemble group through
//                            remote workers (one batch of all rows per
//                            group: the dispatch overhead at the
//                            detector's real batch size).
//
// Scores are bit-identical for any worker count (enforced
// by tests/exec/test_remote_backend.cpp and the golden fixtures); this
// bench quantifies what that invariance costs over a process boundary.
// CI persists the JSON as a BENCH_exec_remote artifact.
#include <cstdlib>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/ensemble.h"
#include "data/feature_select.h"
#include "data/generators.h"
#include "data/preprocess.h"
#include "exec/registry.h"
#include "qml/amplitude_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "qsim/compiled_program.h"
#include "util/rng.h"

namespace {

using namespace quorum;

/// The flagship comparison's first Table I dataset (breast-cancer
/// analogue), normalised exactly as the detector would.
const data::dataset& flagship_normalized() {
    static const data::dataset d = [] {
        const auto suite = data::make_benchmark_suite(bench::bench_seed);
        return data::normalize_for_quorum(suite[0].data.without_labels());
    }();
    return d;
}

/// Fig. 8 settings: sampled mode, 4096 shots, paper-default circuits.
core::quorum_config flagship_config(const char* backend,
                                    std::size_t lanes) {
    core::quorum_config config;
    config.mode = core::exec_mode::sampled;
    config.shots = 4096;
    config.seed = bench::bench_seed;
    config.backend = backend;
    config.shards = lanes;
    return config;
}

/// Whole-dataset batches (both compression levels) through the given
/// backend spec at the configured lane count.
void run_batch_arm(benchmark::State& state, const char* backend) {
    const auto lanes = static_cast<std::size_t>(state.range(0));
    const data::dataset& d = flagship_normalized();
    const core::quorum_config config = flagship_config(backend, lanes);
    const auto engine = exec::make_executor(config.resolved_backend(),
                                            config.to_engine_config());

    util::rng gen(util::derive_seed(config.seed, 0));
    const auto features = data::select_features(
        d.num_features(), qml::max_features(config.n_qubits), gen);
    const qml::ansatz_params params = qml::random_ansatz_params(
        config.n_qubits, config.ansatz_layers, gen);
    std::vector<std::vector<double>> amplitudes(d.num_samples());
    std::vector<exec::sample> batch(d.num_samples());
    std::vector<util::rng> gens;
    gens.reserve(d.num_samples());
    for (std::size_t i = 0; i < d.num_samples(); ++i) {
        const std::vector<double> selected =
            data::gather_features(d.row(i), features);
        amplitudes[i] = qml::to_amplitudes(selected, config.n_qubits);
        gens.emplace_back(util::derive_seed(7, i));
        batch[i] = exec::sample{amplitudes[i], {}, &gens[i]};
    }
    std::vector<exec::program> programs;
    for (const std::size_t level : config.effective_compression_levels()) {
        exec::program program;
        program.circuit = qsim::compiled_program::compile(
            qml::autoencoder_reg_a_template(params, level));
        program.readout.kind = exec::readout_kind::prep_overlap_p1;
        programs.push_back(std::move(program));
    }

    std::vector<double> out(d.num_samples());
    for (auto _ : state) {
        double checksum = 0.0;
        for (const exec::program& program : programs) {
            // Streams are single-use per batch (exec::sample contract):
            // re-derive them per run_batch call, as the ensemble loop
            // does, so every worker count draws identical sequences.
            for (std::size_t i = 0; i < gens.size(); ++i) {
                gens[i] = util::rng(util::derive_seed(7, i));
            }
            engine->run_batch(program, batch, out);
            for (const double p : out) {
                checksum += p;
            }
        }
        benchmark::DoNotOptimize(checksum);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(d.num_samples() * programs.size()));
}

void bm_remote_run_batch(benchmark::State& state) {
    run_batch_arm(state, "remote:statevector");
}
BENCHMARK(bm_remote_run_batch)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// One full ensemble group through core: the remote dispatch overhead is
/// paid once per group batch — the realistic detector hot path.
void bm_remote_ensemble_group(benchmark::State& state) {
    const auto lanes = static_cast<std::size_t>(state.range(0));
    const data::dataset& d = flagship_normalized();
    const core::quorum_config config =
        flagship_config("remote:statevector", lanes);
    const auto engine = exec::make_executor(config.resolved_backend(),
                                            config.to_engine_config());
    for (auto _ : state) {
        const core::group_result result =
            core::run_ensemble_group(d, config, 0, *engine);
        benchmark::DoNotOptimize(result.abs_z_sum.data());
    }
}
BENCHMARK(bm_remote_ensemble_group)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
#ifdef QUORUM_WORKER_BIN
    // Point the remote backend at the build-tree worker unless the
    // caller already chose one.
    ::setenv("QUORUM_WORKER", QUORUM_WORKER_BIN, 0);
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
