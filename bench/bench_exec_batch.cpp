// Microbenchmarks of the batched execution engine (google-benchmark):
// quantifies what the exec layer buys over the pre-refactor per-sample
// path. The headline pair is bm_ensemble_exact_{legacy,batched}: one full
// ensemble group at the paper-default configuration (3 qubits, levels
// {1,2}, exact mode), evaluated by rebuilding every circuit per sample
// (the old code path, reimplemented here) versus through the compiled
// batched engine. The acceptance bar for the engine is >= 2x.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "core/ensemble.h"
#include "data/feature_select.h"
#include "data/generators.h"
#include "data/preprocess.h"
#include "exec/registry.h"
#include "qml/amplitude_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "qsim/compiled_program.h"
#include "qsim/statevector_runner.h"
#include "util/rng.h"

namespace {

using namespace quorum;

data::dataset benchmark_dataset(std::size_t samples) {
    util::rng gen(2025);
    data::generator_spec spec;
    spec.samples = samples;
    spec.anomalies = std::max<std::size_t>(1, samples / 25);
    spec.features = 12;
    const data::dataset raw = data::generate_clustered(spec, gen);
    return data::normalize_for_quorum(raw.without_labels());
}

/// The pre-refactor hot path: rebuild state-prep + ansatz + readout from
/// scratch for every (sample, level) and run it through the simulator.
void bm_ensemble_exact_legacy(benchmark::State& state) {
    const auto samples = static_cast<std::size_t>(state.range(0));
    const data::dataset d = benchmark_dataset(samples);
    const core::quorum_config config; // paper defaults, exact mode
    for (auto _ : state) {
        util::rng gen(util::derive_seed(config.seed, 0));
        (void)gen.permutation(d.num_samples()); // bucket draw stand-in
        const auto features = data::select_features(
            d.num_features(), qml::max_features(config.n_qubits), gen);
        const qml::ansatz_params params = qml::random_ansatz_params(
            config.n_qubits, config.ansatz_layers, gen);
        // Amplitudes are encoded once per group, exactly as the old
        // ensemble loop did; only the per-(sample, level) circuit rebuild
        // differs from the batched arm.
        std::vector<std::vector<double>> amplitudes(d.num_samples());
        for (std::size_t i = 0; i < d.num_samples(); ++i) {
            const std::vector<double> selected =
                data::gather_features(d.row(i), features);
            amplitudes[i] = qml::to_amplitudes(selected, config.n_qubits);
        }
        double checksum = 0.0;
        for (const std::size_t level :
             config.effective_compression_levels()) {
            for (std::size_t i = 0; i < d.num_samples(); ++i) {
                checksum +=
                    qml::analytic_swap_p1(amplitudes[i], params, level);
            }
        }
        benchmark::DoNotOptimize(checksum);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(
            samples * core::quorum_config{}.effective_compression_levels()
                          .size()));
}
BENCHMARK(bm_ensemble_exact_legacy)->Arg(60)->Arg(240);

/// The same workload through the engine: compile once per level, replay
/// the suffix across the batch (core::run_ensemble_group's hot path).
void bm_ensemble_exact_batched(benchmark::State& state) {
    const auto samples = static_cast<std::size_t>(state.range(0));
    const data::dataset d = benchmark_dataset(samples);
    const core::quorum_config config;
    const auto engine = exec::make_executor(config.resolved_backend(),
                                            config.to_engine_config());
    for (auto _ : state) {
        util::rng gen(util::derive_seed(config.seed, 0));
        (void)gen.permutation(d.num_samples());
        const auto features = data::select_features(
            d.num_features(), qml::max_features(config.n_qubits), gen);
        const qml::ansatz_params params = qml::random_ansatz_params(
            config.n_qubits, config.ansatz_layers, gen);
        std::vector<std::vector<double>> amplitudes(d.num_samples());
        std::vector<exec::sample> batch(d.num_samples());
        for (std::size_t i = 0; i < d.num_samples(); ++i) {
            const std::vector<double> selected =
                data::gather_features(d.row(i), features);
            amplitudes[i] = qml::to_amplitudes(selected, config.n_qubits);
            batch[i].amplitudes = amplitudes[i];
        }
        std::vector<double> p_values(d.num_samples());
        double checksum = 0.0;
        for (const std::size_t level :
             config.effective_compression_levels()) {
            exec::program program;
            program.circuit = qsim::compiled_program::compile(
                qml::autoencoder_reg_a_template(params, level));
            program.readout.kind = exec::readout_kind::prep_overlap_p1;
            engine->run_batch(program, batch, p_values);
            for (const double p : p_values) {
                checksum += p;
            }
        }
        benchmark::DoNotOptimize(checksum);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(
            samples * core::quorum_config{}.effective_compression_levels()
                          .size()));
}
BENCHMARK(bm_ensemble_exact_batched)->Arg(60)->Arg(240);

/// End-to-end group evaluation through core (engine path), for the
/// numbers quoted in docs: paper-default exact mode, one group.
void bm_run_ensemble_group(benchmark::State& state) {
    const data::dataset d = benchmark_dataset(
        static_cast<std::size_t>(state.range(0)));
    const core::quorum_config config;
    for (auto _ : state) {
        const core::group_result result =
            core::run_ensemble_group(d, config, 0);
        benchmark::DoNotOptimize(result.abs_z_sum.data());
    }
}
BENCHMARK(bm_run_ensemble_group)->Arg(60)->Arg(240);

/// One Table-I group as batch scoring runs it (§IV-E): the breast_cancer
/// table of make_benchmark_suite (367 x 30, bucket probability 0.75),
/// sampled at 4096 shots, on one engine built outside the timed loop.
/// The group's rows reach the engine in one run_batch_levels call; a
/// call per bucket would re-plan the family and cut lane blocks short
/// once per bucket, which bench_diff's threshold catches.
void bm_run_ensemble_group_sampled(benchmark::State& state) {
    const data::benchmark_dataset table = data::make_benchmark_suite(2025)[0];
    const data::dataset d =
        data::normalize_for_quorum(table.data.without_labels());
    core::quorum_config config;
    config.mode = core::exec_mode::sampled;
    config.shots = 4096;
    config.bucket_probability = table.bucket_probability;
    const auto engine = exec::make_executor(config.resolved_backend(),
                                            config.to_engine_config());
    for (auto _ : state) {
        const core::group_result result =
            core::run_ensemble_group(d, config, 0, *engine);
        benchmark::DoNotOptimize(result.abs_z_sum.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(d.num_samples()));
}
BENCHMARK(bm_run_ensemble_group_sampled);

/// Full-circuit exact evaluation: per-sample rebuild + run_exact versus
/// batched replay of the compiled 7-qubit program.
void bm_full_circuit_legacy(benchmark::State& state) {
    util::rng gen(7);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    std::vector<std::vector<double>> amps(32);
    for (auto& a : amps) {
        std::vector<double> features(7);
        for (double& f : features) {
            f = gen.uniform() / 7.0;
        }
        a = qml::to_amplitudes(features, 3);
    }
    for (auto _ : state) {
        double checksum = 0.0;
        for (const auto& a : amps) {
            const qsim::circuit c =
                qml::build_autoencoder_circuit(a, params, 1);
            const qsim::exact_run_result result =
                qsim::statevector_runner::run_exact(c);
            checksum +=
                result.cbit_probability_one(qml::swap_result_cbit);
        }
        benchmark::DoNotOptimize(checksum);
    }
}
BENCHMARK(bm_full_circuit_legacy);

void bm_full_circuit_batched(benchmark::State& state) {
    util::rng gen(7);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    std::vector<std::vector<double>> amps(32);
    for (auto& a : amps) {
        std::vector<double> features(7);
        for (double& f : features) {
            f = gen.uniform() / 7.0;
        }
        a = qml::to_amplitudes(features, 3);
    }
    const auto engine =
        exec::make_executor("statevector", exec::engine_config{});
    exec::program program;
    program.circuit = qsim::compiled_program::compile(
        qml::autoencoder_template(params, 1));
    program.readout.kind = exec::readout_kind::cbit_probability;
    program.readout.cbit = qml::swap_result_cbit;
    std::vector<exec::sample> batch(amps.size());
    for (std::size_t i = 0; i < amps.size(); ++i) {
        batch[i].amplitudes = amps[i];
    }
    std::vector<double> out(amps.size());
    for (auto _ : state) {
        engine->run_batch(program, batch, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(bm_full_circuit_batched);

/// Gate fusion in isolation: applying the autoencoder suffix to a 7-qubit
/// state gate-by-gate versus as fused dense blocks.
void bm_suffix_unfused(benchmark::State& state) {
    util::rng gen(11);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    const qsim::compiled_program program = qsim::compiled_program::compile(
        qml::autoencoder_template(params, 1));
    qsim::statevector sv(7);
    for (auto _ : state) {
        for (const qsim::compiled_op& compiled : program.suffix()) {
            if (compiled.op.kind == qsim::op_kind::gate) {
                sv.apply_gate(compiled.op.gate, compiled.op.qubits,
                              compiled.op.params);
            }
        }
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(program.suffix_gate_count()));
}
BENCHMARK(bm_suffix_unfused);

void bm_suffix_fused(benchmark::State& state) {
    util::rng gen(11);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    const qsim::compiled_program program = qsim::compiled_program::compile(
        qml::autoencoder_template(params, 1));
    std::vector<qsim::operation> suffix_ops;
    for (const qsim::compiled_op& compiled : program.suffix()) {
        suffix_ops.push_back(compiled.op);
    }
    const std::vector<qsim::fused_op> fused =
        qsim::fuse_operations(suffix_ops);
    qsim::statevector sv(7);
    std::vector<qsim::amp> scratch(8);
    std::int64_t unitaries = 0;
    for (const qsim::fused_op& op : fused) {
        unitaries += op.op == qsim::fused_op::kind::unitary ? 1 : 0;
    }
    for (auto _ : state) {
        for (const qsim::fused_op& op : fused) {
            if (op.op != qsim::fused_op::kind::unitary) {
                continue;
            }
            if (op.qubits.size() == 1) {
                sv.apply_1q(op.matrix, op.qubits[0]);
            } else {
                sv.apply_matrix_prepared(op.matrix, op.sorted_qubits,
                                         op.offsets, scratch);
            }
        }
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * unitaries);
}
BENCHMARK(bm_suffix_fused);

/// The Table-I family (3 qubits, 2 layers, levels {1, 2}) of `params`.
std::vector<exec::program> table_family(const qml::ansatz_params& params) {
    std::vector<exec::program> family;
    for (const std::size_t level : {1, 2}) {
        exec::program program;
        program.circuit = qsim::compiled_program::compile(
            qml::autoencoder_reg_a_template(params, level));
        program.readout.kind = exec::readout_kind::prep_overlap_p1;
        family.push_back(std::move(program));
    }
    return family;
}

/// The Table-I family (4096 shots, sampled unless `mode` says otherwise)
/// over `batch` samples with per-(sample, level) streams.
struct family_workload {
    std::unique_ptr<exec::executor> engine;
    std::vector<exec::program> family;
    std::vector<std::vector<double>> amplitudes;
    std::vector<util::rng> gens;
    std::vector<util::rng*> gen_ptrs;
    std::vector<exec::sample> samples;

    explicit family_workload(std::size_t batch,
                             exec::sampling mode = exec::sampling::binomial,
                             std::size_t shots = 4096) {
        exec::engine_config config;
        config.sampling_mode = mode;
        config.shots = shots;
        engine = exec::make_executor("statevector", config);
        util::rng gen(17);
        family = table_family(qml::random_ansatz_params(3, 2, gen));
        amplitudes.resize(batch);
        gens.reserve(2 * batch);
        for (std::size_t i = 0; i < batch; ++i) {
            std::vector<double> features(7);
            for (double& f : features) {
                f = gen.uniform() / 7.0;
            }
            amplitudes[i] = qml::to_amplitudes(features, 3);
            for (std::size_t k = 0; k < 2; ++k) {
                gens.emplace_back(util::derive_seed(5, 2 * i + k));
                gen_ptrs.push_back(&gens.back());
            }
        }
        samples.resize(batch);
        for (std::size_t i = 0; i < batch; ++i) {
            samples[i].amplitudes = amplitudes[i];
            samples[i].level_gens =
                std::span<util::rng* const>(gen_ptrs.data() + 2 * i, 2);
        }
    }
};

/// A bucket of `batch` samples in one level-session call: lane blocks
/// once the batch reaches the lane cutoff, per-sample replay below it.
/// Against bm_family_per_sample these rows set the cutoff.
void bm_family_lanes(benchmark::State& state) {
    const auto batch = static_cast<std::size_t>(state.range(0));
    family_workload w(batch);
    const auto session = w.engine->make_level_session(w.family);
    std::vector<double> out(2 * batch);
    for (auto _ : state) {
        session->run(w.samples, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(batch));
}
BENCHMARK(bm_family_lanes)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(40);

/// The same samples pushed one session call each (the stream's traffic):
/// always the per-sample replay.
void bm_family_per_sample(benchmark::State& state) {
    const auto batch = static_cast<std::size_t>(state.range(0));
    family_workload w(batch);
    const auto session = w.engine->make_level_session(w.family);
    std::vector<double> out(2 * batch);
    const std::span<const exec::sample> samples = w.samples;
    for (auto _ : state) {
        for (std::size_t i = 0; i < batch; ++i) {
            session->run(samples.subspan(i, 1),
                         std::span(out).subspan(2 * i, 2));
        }
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(batch));
}
BENCHMARK(bm_family_per_sample)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(40);

/// The stream's traffic: `groups` Table-I families with distinct angles
/// (ensemble groups), one sample each, sampled at 1024 shots. Sample g
/// goes through family g.
struct group_workload : family_workload {
    std::vector<std::vector<exec::program>> families;

    explicit group_workload(std::size_t groups)
        : family_workload(groups, exec::sampling::binomial, 1024) {
        for (std::size_t g = 0; g < groups; ++g) {
            util::rng gen(util::derive_seed(23, g));
            families.push_back(
                table_family(qml::random_ansatz_params(3, 2, gen)));
        }
    }
};

/// Every group in one group-session call: lane blocks of eight families.
void bm_group_lanes(benchmark::State& state) {
    const auto groups = static_cast<std::size_t>(state.range(0));
    group_workload w(groups);
    const auto session = w.engine->make_group_session(w.families);
    std::vector<double> out(2 * groups);
    for (auto _ : state) {
        session->run(w.samples, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(groups));
}
BENCHMARK(bm_group_lanes)->Arg(8)->Arg(32);

/// The same groups through one level session each, one call per group:
/// the per-sample replay.
void bm_group_per_family(benchmark::State& state) {
    const auto groups = static_cast<std::size_t>(state.range(0));
    group_workload w(groups);
    std::vector<std::unique_ptr<exec::level_session>> sessions;
    for (const std::vector<exec::program>& family : w.families) {
        sessions.push_back(w.engine->make_level_session(family));
    }
    std::vector<double> out(2 * groups);
    const std::span<const exec::sample> samples = w.samples;
    for (auto _ : state) {
        for (std::size_t g = 0; g < groups; ++g) {
            sessions[g]->run(samples.subspan(g, 1),
                             std::span(out).subspan(2 * g, 2));
        }
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(groups));
}
BENCHMARK(bm_group_per_family)->Arg(8)->Arg(32);

/// The sampler's inputs: the exact readouts of the family workload, 128
/// samples at both levels.
std::vector<double> swap_test_probabilities() {
    family_workload w(128, exec::sampling::exact);
    std::vector<double> p(256);
    w.engine->run_batch_levels(w.family, w.samples, p);
    return p;
}

/// One Binomial(4096, p) draw per item, as rng::binomial drew it before
/// the sampler was copied in: a std::binomial_distribution per call.
void bm_binomial_std(benchmark::State& state) {
    const std::vector<double> p = swap_test_probabilities();
    util::rng gen(4);
    std::size_t i = 0;
    for (auto _ : state) {
        std::binomial_distribution<std::uint64_t> dist(4096, p[i++ % 256]);
        benchmark::DoNotOptimize(dist(gen.engine()));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_binomial_std);

/// The same draws through rng::binomial's memoised copy.
void bm_binomial_owned(benchmark::State& state) {
    const std::vector<double> p = swap_test_probabilities();
    util::rng gen(4);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.binomial(4096, p[i++ % 256]));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_binomial_owned);

} // namespace

BENCHMARK_MAIN();
