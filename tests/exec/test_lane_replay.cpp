// Lane replay bit-identity suite. On the AVX2 kernels the statevector
// backend replays lane_width samples of a register-A family together, in
// [amplitude][lane] arrays with reset branches in fixed slots; each lane
// must produce exactly the doubles of the per-sample replay. Every output
// of run_batch_levels is compared bit for bit (std::bit_cast) with
// per-level run_batch and with single-sample level sessions, which both
// replay per sample, in exact and sampled modes. The GroupSession cases
// do the same for group sessions, whose lanes run different families of
// one shape (the stream's ensemble groups), one sample each.
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../loopback.h"
#include "exec/fleet.h"
#include "exec/registry.h"
#include "exec/statevector_backend.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "qsim/circuit.h"
#include "qsim/compiled_program.h"
#include "qsim/kernels.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace {

using namespace quorum;

constexpr std::size_t width = qsim::kernels::lane_width;
constexpr std::size_t max_batch = 2 * width + 1;

bool lanes_active() {
    return qsim::kernels::active_isa() == qsim::kernels::isa::avx2;
}

exec::engine_config engine_config(exec::sampling mode) {
    exec::engine_config config;
    config.sampling_mode = mode;
    config.shots = mode == exec::sampling::exact ? 0 : 4096;
    return config;
}

const exec::statevector_backend& as_statevector(const exec::executor& e) {
    return dynamic_cast<const exec::statevector_backend&>(e);
}

/// `count` normalised real amplitude vectors over n qubits: signed values,
/// about a quarter of the entries -0.0.
std::vector<std::vector<double>> salted_amplitudes(std::size_t n,
                                                   std::size_t count,
                                                   std::uint64_t seed) {
    util::rng gen(seed);
    std::vector<std::vector<double>> all(count);
    for (std::vector<double>& amps : all) {
        amps.resize(std::size_t{1} << n);
        double norm = 0.0;
        for (double& a : amps) {
            a = gen.uniform() < 0.25 ? -0.0 : gen.uniform(-1.0, 1.0);
            norm += a * a;
        }
        if (norm == 0.0) {
            amps[0] = 1.0;
            norm = 1.0;
        }
        const double scale = 1.0 / std::sqrt(norm);
        for (double& a : amps) {
            a *= scale;
        }
    }
    return all;
}

/// Per-(sample, level) rng streams; every replay path gets a fresh table
/// so each draws from identical states.
struct stream_table {
    std::vector<util::rng> gens;
    std::vector<util::rng*> pointers;
    std::size_t levels;

    stream_table(std::size_t samples, std::size_t level_count)
        : levels(level_count) {
        gens.reserve(samples * level_count);
        for (std::size_t i = 0; i < samples * level_count; ++i) {
            gens.emplace_back(util::derive_seed(99, i));
            pointers.push_back(&gens.back());
        }
    }

    [[nodiscard]] std::span<util::rng* const> of(std::size_t i) const {
        return {pointers.data() + i * levels, levels};
    }
};

std::vector<exec::sample>
make_samples(std::span<const std::vector<double>> amplitudes,
             std::span<const std::vector<double>> prefix_params,
             const stream_table* streams) {
    std::vector<exec::sample> samples(amplitudes.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        samples[i].amplitudes = amplitudes[i];
        if (!prefix_params.empty()) {
            samples[i].prefix_params = prefix_params[i];
        }
        if (streams != nullptr) {
            samples[i].level_gens = streams->of(i);
        }
    }
    return samples;
}

std::vector<exec::program> reg_a_family(const qml::ansatz_params& params,
                                        std::span<const std::size_t> levels) {
    std::vector<exec::program> family;
    for (const std::size_t level : levels) {
        exec::program program;
        program.circuit = qsim::compiled_program::compile(
            qml::autoencoder_reg_a_template(params, level));
        program.readout.kind = exec::readout_kind::prep_overlap_p1;
        family.push_back(std::move(program));
    }
    return family;
}

/// The full SWAP-test circuits of one ansatz, read through a classical
/// bit (for engines without the overlap shortcut).
std::vector<exec::program> cbit_family(const qml::ansatz_params& params,
                                       std::span<const std::size_t> levels) {
    std::vector<exec::program> family;
    for (const std::size_t level : levels) {
        exec::program program;
        program.circuit = qsim::compiled_program::compile(
            qml::autoencoder_template(params, level));
        program.readout.kind = exec::readout_kind::cbit_probability;
        program.readout.cbit = qml::swap_result_cbit;
        family.push_back(std::move(program));
    }
    return family;
}

/// A register-A shaped family over n qubits: initialize, `body`, then
/// level k's resets (the top k + 1 qubits, as Quorum nests them), then
/// `tail`, read through the overlap shortcut.
std::vector<exec::program>
custom_family(std::size_t n, std::size_t levels,
              const std::function<void(qsim::circuit&)>& body,
              const std::function<void(qsim::circuit&)>& tail,
              std::size_t parameterized_ops = 0) {
    std::vector<qsim::qubit_t> reg(n);
    for (std::size_t q = 0; q < n; ++q) {
        reg[q] = static_cast<qsim::qubit_t>(q);
    }
    std::vector<double> placeholder(std::size_t{1} << n, 0.0);
    placeholder[0] = 1.0;
    std::vector<exec::program> family;
    for (std::size_t level = 1; level <= levels; ++level) {
        qsim::circuit c(n);
        c.initialize(reg, placeholder);
        body(c);
        for (std::size_t r = 0; r < level; ++r) {
            c.reset(reg[n - 1 - r]);
        }
        tail(c);
        qsim::compile_options options;
        options.parameterized_ops = parameterized_ops;
        exec::program program;
        program.circuit = qsim::compiled_program::compile(c, options);
        program.readout.kind = exec::readout_kind::prep_overlap_p1;
        family.push_back(std::move(program));
    }
    return family;
}

void expect_bits_equal(std::span<const double> got,
                       std::span<const double> expected,
                       const std::string& what) {
    ASSERT_EQ(got.size(), expected.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (std::bit_cast<std::uint64_t>(got[i]) !=
            std::bit_cast<std::uint64_t>(expected[i])) {
            ADD_FAILURE() << what << ", output " << i << ": " << got[i]
                          << " vs " << expected[i];
            return;
        }
    }
}

/// run_batch_levels over the whole batch, against per-level run_batch and
/// against one single-sample session call per sample.
void expect_matches_per_sample(
    const exec::executor& engine, std::span<const exec::program> family,
    std::span<const std::vector<double>> amplitudes, const std::string& what,
    std::span<const std::vector<double>> prefix_params = {}) {
    const std::size_t n = amplitudes.size();
    const std::size_t levels = family.size();

    stream_table lane_streams(n, levels);
    const std::vector<exec::sample> batch =
        make_samples(amplitudes, prefix_params, &lane_streams);
    std::vector<double> lanes(n * levels);
    engine.run_batch_levels(family, batch, lanes);

    stream_table level_streams(n, levels);
    std::vector<exec::sample> singles =
        make_samples(amplitudes, prefix_params, nullptr);
    std::vector<double> per_level(n * levels);
    std::vector<double> column(n);
    for (std::size_t k = 0; k < levels; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
            singles[i].gen = level_streams.of(i)[k];
        }
        engine.run_batch(family[k], singles, column);
        for (std::size_t i = 0; i < n; ++i) {
            per_level[i * levels + k] = column[i];
        }
    }
    expect_bits_equal(lanes, per_level, what + " vs per-level run_batch");

    stream_table session_streams(n, levels);
    const std::vector<exec::sample> session_batch =
        make_samples(amplitudes, prefix_params, &session_streams);
    const std::unique_ptr<exec::level_session> session =
        engine.make_level_session(
            std::vector<exec::program>(family.begin(), family.end()));
    std::vector<double> sessions(n * levels);
    for (std::size_t i = 0; i < n; ++i) {
        session->run(std::span(session_batch).subspan(i, 1),
                     std::span(sessions).subspan(i * levels, levels));
    }
    expect_bits_equal(lanes, sessions, what + " vs single-sample sessions");
}

constexpr exec::sampling modes[] = {exec::sampling::exact,
                                    exec::sampling::binomial};

std::string mode_name(exec::sampling mode) {
    return mode == exec::sampling::exact ? "exact" : "sampled";
}

TEST(LaneReplay, MatchesPerSampleForEveryLevelSetAndBatchSize) {
    for (const exec::sampling mode : modes) {
        const auto engine =
            exec::make_executor("statevector", engine_config(mode));
        for (std::size_t n = 2; n <= 5; ++n) {
            util::rng gen(100 + n);
            const qml::ansatz_params params =
                qml::random_ansatz_params(n, 2, gen);
            const auto amplitudes = salted_amplitudes(n, max_batch, 200 + n);
            for (std::size_t set = 1; set < (std::size_t{1} << (n - 1));
                 ++set) {
                std::vector<std::size_t> levels;
                for (std::size_t level = 1; level < n; ++level) {
                    if ((set >> (level - 1) & 1) != 0) {
                        levels.push_back(level);
                    }
                }
                const auto family = reg_a_family(params, levels);
                const auto& backend = as_statevector(*engine);
                EXPECT_EQ(backend.replays_in_lanes(family, max_batch),
                          lanes_active());
                EXPECT_FALSE(backend.replays_in_lanes(family, 1));
                for (std::size_t batch = 1; batch <= max_batch; ++batch) {
                    expect_matches_per_sample(
                        *engine, family, std::span(amplitudes).first(batch),
                        mode_name(mode) + ", n = " + std::to_string(n) +
                            ", level set " + std::to_string(set) +
                            ", batch " + std::to_string(batch));
                }
            }
        }
    }
}

TEST(LaneReplay, LanesThatPruneAResetBranchMatch) {
    // Qubit 2 is reset first and the body never touches it, so a lane's
    // p_one there is its input mass on indices 4..7: zero (outcome-1
    // branch pruned), one (outcome-0 branch pruned), below
    // probability_epsilon but not zero (pruned, finite amplitudes), or
    // in between (both kept) — all four in one block.
    const auto body = [](qsim::circuit& c) {
        c.rx(0.3, 0);
        c.cx(0, 1);
        c.rz(1.1, 1);
    };
    const auto tail = [](qsim::circuit& c) {
        c.rx(-0.7, 0);
        c.cx(0, 1);
        c.x(2);
        c.rz(0.4, 2);
    };
    const auto family = custom_family(3, 2, body, tail);
    const double h = std::sqrt(0.5);
    const double tiny = 1e-7;
    const double rest = std::sqrt(1.0 - tiny * tiny);
    const std::vector<std::vector<double>> kinds = {
        {h, 0.0, -0.0, h, 0.0, 0.0, 0.0, -0.0},
        {0.0, -0.0, 0.0, 0.0, h, 0.0, -h, 0.0},
        {rest, 0.0, 0.0, 0.0, 0.0, tiny, 0.0, 0.0},
        {0.5, -0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 0.5},
    };
    std::vector<std::vector<double>> amplitudes;
    for (std::size_t i = 0; i < max_batch; ++i) {
        amplitudes.push_back(kinds[(i * 3) % kinds.size()]);
    }
    for (const exec::sampling mode : modes) {
        const auto engine =
            exec::make_executor("statevector", engine_config(mode));
        EXPECT_EQ(as_statevector(*engine).replays_in_lanes(family, width),
                  lanes_active());
        expect_matches_per_sample(*engine, family, amplitudes,
                                  mode_name(mode) + " pruning block");
    }
}

TEST(LaneReplay, GeneralSingleQubitGatesMatch) {
    // rx and rz matrices have a zero real or imaginary part in every
    // entry, which hides a reassociated complex sum; u3, h, sx, s, t and y
    // do not.
    const auto body = [](qsim::circuit& c) {
        c.u3(0.7, 1.9, -0.4, 0);
        c.h(1);
        c.sx(2);
        c.cx(0, 3);
        c.u3(2.1, -0.3, 0.8, 3);
        c.t(1);
        c.cx(1, 2);
        c.y(0);
    };
    const auto tail = [](qsim::circuit& c) {
        c.s(0);
        c.u3(-1.2, 0.5, 2.2, 1);
        c.cx(2, 0);
        c.sx(3);
        c.h(2);
    };
    const auto family = custom_family(4, 3, body, tail);
    const auto amplitudes = salted_amplitudes(4, max_batch, 15);
    for (const exec::sampling mode : modes) {
        const auto engine =
            exec::make_executor("statevector", engine_config(mode));
        EXPECT_EQ(as_statevector(*engine).replays_in_lanes(family, max_batch),
                  lanes_active());
        expect_matches_per_sample(*engine, family, amplitudes,
                                  mode_name(mode) + " general 1q gates");
    }
}

/// A remote:statevector engine over `workers` in-process loopback
/// workers: it cuts every batch into spans and takes the base group
/// session, the wrapper paths the lane replay must survive.
std::unique_ptr<exec::executor> loopback_remote(exec::engine_config config,
                                                std::size_t workers) {
    config.shards = workers;
    return std::make_unique<exec::fleet_executor>(config, "statevector",
                                                  test::loopback_factory());
}

TEST(LaneReplay, RemoteStatevectorMatchesPlain) {
    util::rng gen(5);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    const std::size_t levels[] = {1, 2};
    const auto family = reg_a_family(params, levels);
    const auto amplitudes = salted_amplitudes(3, 3 * width + 5, 6);
    for (const exec::sampling mode : modes) {
        const auto plain =
            exec::make_executor("statevector", engine_config(mode));
        stream_table plain_streams(amplitudes.size(), 2);
        const auto plain_batch = make_samples(amplitudes, {}, &plain_streams);
        std::vector<double> expected(amplitudes.size() * 2);
        plain->run_batch_levels(family, plain_batch, expected);
        for (const std::size_t workers : {1, 2, 3, 5}) {
            const auto remote = loopback_remote(engine_config(mode), workers);
            expect_matches_per_sample(*remote, family, amplitudes,
                                      mode_name(mode) + " remote");
            stream_table streams(amplitudes.size(), 2);
            const auto batch = make_samples(amplitudes, {}, &streams);
            std::vector<double> got(amplitudes.size() * 2);
            remote->run_batch_levels(family, batch, got);
            expect_bits_equal(got, expected,
                              mode_name(mode) + " remote " +
                                  std::to_string(workers) + " vs plain");
        }
    }
}

TEST(LaneReplay, OutOfCoverageFamiliesReplayPerSampleAndMatch) {
    const auto amplitudes = salted_amplitudes(3, max_batch, 8);
    const auto encoder = [](qsim::circuit& c) {
        c.rx(0.9, 0);
        c.cx(0, 1);
        c.rz(0.2, 2);
    };
    const auto decoder = [](qsim::circuit& c) {
        c.rz(-0.2, 2);
        c.cx(0, 1);
        c.rx(-0.9, 0);
    };
    // A dense two-qubit gate in the body.
    const auto dense_body = [&](qsim::circuit& c) {
        encoder(c);
        c.cz(1, 2);
    };
    const auto dense = custom_family(3, 2, dense_body, decoder);
    // A parameterized prefix supplied per sample.
    const auto prefixed_body = [&](qsim::circuit& c) {
        c.ry(0.0, 0);
        c.rz(0.0, 1);
        encoder(c);
    };
    const auto prefixed = custom_family(3, 2, prefixed_body, decoder, 2);
    std::vector<std::vector<double>> prefix_params;
    util::rng gen(9);
    for (std::size_t i = 0; i < max_batch; ++i) {
        prefix_params.push_back({gen.angle(), gen.angle()});
    }
    // Levels that are not nested.
    util::rng ansatz_gen(10);
    const qml::ansatz_params params =
        qml::random_ansatz_params(3, 2, ansatz_gen);
    const std::size_t reversed[] = {2, 1};
    const auto unnested = reg_a_family(params, reversed);
    // The full SWAP-test circuit read through a classical bit.
    const std::size_t nested[] = {1, 2};
    const auto cbit = cbit_family(params, nested);
    for (const exec::sampling mode : modes) {
        const auto engine =
            exec::make_executor("statevector", engine_config(mode));
        const auto& backend = as_statevector(*engine);
        EXPECT_FALSE(backend.replays_in_lanes(dense, max_batch));
        EXPECT_FALSE(backend.replays_in_lanes(prefixed, max_batch));
        EXPECT_FALSE(backend.replays_in_lanes(unnested, max_batch));
        EXPECT_FALSE(backend.replays_in_lanes(cbit, max_batch));
        const std::string name = mode_name(mode);
        expect_matches_per_sample(*engine, dense, amplitudes,
                                  name + " dense 2q gate");
        expect_matches_per_sample(*engine, prefixed, amplitudes,
                                  name + " prefix params", prefix_params);
        expect_matches_per_sample(*engine, unnested, amplitudes,
                                  name + " non-nested levels");
        expect_matches_per_sample(*engine, cbit,
                                  std::span(amplitudes).first(width + 1),
                                  name + " cbit readout");
    }
}

TEST(LaneReplay, DispatchFollowsTheActiveIsa) {
    // With QUORUM_DISABLE_AVX2 set (the CI scalar leg) active_isa() is
    // scalar and no batch size replays in lanes; the suites above then
    // compare the per-sample path with itself.
    util::rng gen(12);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    const std::size_t levels[] = {1, 2};
    const auto family = reg_a_family(params, levels);
    const auto engine = exec::make_executor(
        "statevector", engine_config(exec::sampling::binomial));
    const auto& backend = as_statevector(*engine);
    for (std::size_t batch = 1; batch <= max_batch; ++batch) {
        if (!lanes_active()) {
            EXPECT_FALSE(backend.replays_in_lanes(family, batch));
        }
    }
    EXPECT_EQ(backend.replays_in_lanes(family, max_batch), lanes_active());
    // Per-shot sampling never replays in lanes.
    exec::engine_config per_shot = engine_config(exec::sampling::per_shot);
    const auto shots = exec::make_executor("statevector", per_shot);
    EXPECT_FALSE(as_statevector(*shots).replays_in_lanes(family, max_batch));
}

TEST(LaneReplay, UnnormalisedSampleInABlockIsRejected) {
    util::rng gen(13);
    const qml::ansatz_params params = qml::random_ansatz_params(3, 2, gen);
    const std::size_t levels[] = {1, 2};
    const auto family = reg_a_family(params, levels);
    auto amplitudes = salted_amplitudes(3, width, 14);
    amplitudes[width / 2][0] += 0.5;
    const auto engine = exec::make_executor(
        "statevector", engine_config(exec::sampling::exact));
    const auto batch = make_samples(amplitudes, {}, nullptr);
    std::vector<double> out(width * 2);
    try {
        engine->run_batch_levels(family, batch, out);
        ADD_FAILURE() << "expected a contract_error";
    } catch (const util::contract_error& e) {
        EXPECT_NE(std::string(e.what()).find("amplitudes must be normalised"),
                  std::string::npos) << e.what();
    }
}

using family_list = std::vector<std::vector<exec::program>>;

/// `groups` families of the Table-I shape over n qubits (2 ansatz
/// layers), each with its own random angles.
family_list distinct_families(std::size_t n,
                              std::span<const std::size_t> levels,
                              std::size_t groups, std::uint64_t seed) {
    family_list families;
    for (std::size_t g = 0; g < groups; ++g) {
        util::rng gen(util::derive_seed(seed, g));
        families.push_back(
            reg_a_family(qml::random_ansatz_params(n, 2, gen), levels));
    }
    return families;
}

/// One group-session run over `families` with sample g in family g,
/// twice on the same session (cold and warm buffers), against one
/// single-sample level session per family and against per-level
/// run_batch. Every path draws from its own fresh stream table.
void expect_group_matches_per_family(
    const exec::executor& engine, const family_list& families,
    std::span<const std::vector<double>> amplitudes,
    const std::string& what) {
    const std::size_t groups = families.size();
    const std::size_t levels = families.front().size();
    ASSERT_EQ(amplitudes.size(), groups) << what;

    const std::unique_ptr<exec::group_session> session =
        engine.make_group_session(families);
    std::vector<std::vector<double>> runs;
    for (int pass = 0; pass < 2; ++pass) {
        stream_table streams(groups, levels);
        const auto batch = make_samples(amplitudes, {}, &streams);
        std::vector<double> got(groups * levels);
        session->run(batch, got);
        runs.push_back(std::move(got));
    }
    expect_bits_equal(runs[1], runs[0], what + ", warm vs cold run");

    stream_table session_streams(groups, levels);
    const auto singles = make_samples(amplitudes, {}, &session_streams);
    std::vector<double> sessions(groups * levels);
    for (std::size_t g = 0; g < groups; ++g) {
        engine.make_level_session(families[g])
            ->run(std::span(singles).subspan(g, 1),
                  std::span(sessions).subspan(g * levels, levels));
    }
    expect_bits_equal(runs[0], sessions, what + " vs per-family sessions");

    stream_table level_streams(groups, levels);
    std::vector<exec::sample> plain = make_samples(amplitudes, {}, nullptr);
    std::vector<double> per_level(groups * levels);
    for (std::size_t g = 0; g < groups; ++g) {
        for (std::size_t k = 0; k < levels; ++k) {
            plain[g].gen = level_streams.of(g)[k];
            engine.run_batch(families[g][k], std::span(plain).subspan(g, 1),
                             std::span(per_level).subspan(g * levels + k, 1));
        }
    }
    expect_bits_equal(runs[0], per_level, what + " vs per-level run_batch");
}

constexpr std::size_t group_counts[] = {1, 2, 7, 8, 9, 17, 32};

TEST(LaneReplay, GroupSessionMatchesPerFamilySessions) {
    const std::size_t levels[] = {1, 2};
    for (const exec::sampling mode : modes) {
        const auto engine =
            exec::make_executor("statevector", engine_config(mode));
        for (const std::size_t groups : group_counts) {
            const family_list families =
                distinct_families(3, levels, groups, 40 + groups);
            EXPECT_EQ(as_statevector(*engine).replays_groups_in_lanes(
                          families),
                      lanes_active() && groups >= 2)
                << groups << " groups";
            expect_group_matches_per_family(
                *engine, families, salted_amplitudes(3, groups, 50 + groups),
                mode_name(mode) + ", " + std::to_string(groups) + " groups");
        }
    }
}

TEST(LaneReplay, GroupSessionMatchesForEveryRegisterAndLevelSet) {
    for (const exec::sampling mode : modes) {
        const auto engine =
            exec::make_executor("statevector", engine_config(mode));
        for (std::size_t n = 2; n <= 5; ++n) {
            for (std::size_t set = 1; set < (std::size_t{1} << (n - 1));
                 ++set) {
                std::vector<std::size_t> levels;
                for (std::size_t level = 1; level < n; ++level) {
                    if ((set >> (level - 1) & 1) != 0) {
                        levels.push_back(level);
                    }
                }
                const family_list families =
                    distinct_families(n, levels, width + 3, 60 + n);
                EXPECT_EQ(as_statevector(*engine).replays_groups_in_lanes(
                              families),
                          lanes_active());
                expect_group_matches_per_family(
                    *engine, families, salted_amplitudes(n, width + 3, n),
                    mode_name(mode) + ", n = " + std::to_string(n) +
                        ", level set " + std::to_string(set));
            }
        }
    }
}

TEST(LaneReplay, GroupSessionGeneralGatesAndPrunedBranchesMatch) {
    // Each group's u3, h-like and rotation matrices differ, and the
    // inputs make qubit 2's first reset prune a branch in some lanes
    // (see LanesThatPruneAResetBranchMatch).
    family_list families;
    for (std::size_t g = 0; g < width + 2; ++g) {
        const double a = 0.3 + 0.41 * static_cast<double>(g);
        const auto body = [a](qsim::circuit& c) {
            c.u3(a, 1.9 - a, -0.4, 0);
            c.h(1);
            c.cx(0, 1);
            c.rz(a * 1.7, 1);
            c.sx(0);
        };
        const auto tail = [a](qsim::circuit& c) {
            c.s(0);
            c.u3(-1.2, a, 2.2, 1);
            c.cx(0, 1);
            c.x(2);
            c.ry(-a, 2);
        };
        families.push_back(custom_family(3, 2, body, tail));
    }
    const double h = std::sqrt(0.5);
    const double tiny = 1e-7;
    const double rest = std::sqrt(1.0 - tiny * tiny);
    const std::vector<std::vector<double>> kinds = {
        {h, 0.0, -0.0, h, 0.0, 0.0, 0.0, -0.0},
        {0.0, -0.0, 0.0, 0.0, h, 0.0, -h, 0.0},
        {rest, 0.0, 0.0, 0.0, 0.0, tiny, 0.0, 0.0},
        {0.5, -0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 0.5},
    };
    std::vector<std::vector<double>> amplitudes;
    for (std::size_t g = 0; g < families.size(); ++g) {
        amplitudes.push_back(kinds[(g * 3) % kinds.size()]);
    }
    for (const exec::sampling mode : modes) {
        const auto engine =
            exec::make_executor("statevector", engine_config(mode));
        EXPECT_EQ(as_statevector(*engine).replays_groups_in_lanes(families),
                  lanes_active());
        expect_group_matches_per_family(*engine, families, amplitudes,
                                        mode_name(mode) + " general gates");
    }
}

TEST(LaneReplay, GroupSessionFallbacksMatch) {
    const std::size_t levels[] = {1, 2};
    const std::size_t groups = width + 1;
    const auto amplitudes = salted_amplitudes(3, groups, 70);
    // Group g's body rotates qubit `target` by its own angle (or applies
    // x there) and ends in `entangler`.
    const auto family = [](std::size_t g, qsim::qubit_t target, bool x,
                           bool dense) {
        const double a = 0.2 + 0.3 * static_cast<double>(g);
        return custom_family(
            3, 2,
            [=](qsim::circuit& c) {
                if (x) {
                    c.x(target);
                } else {
                    c.rx(a, target);
                }
                c.rz(-a, 2);
                if (dense) {
                    c.cz(1, 2);
                } else {
                    c.cx(0, 1);
                }
            },
            [=](qsim::circuit& c) {
                c.cx(0, 1);
                c.rx(-a, 0);
            });
    };
    const auto with_group = [&](std::size_t odd, qsim::qubit_t target,
                                bool x, bool dense) {
        family_list families;
        for (std::size_t g = 0; g < groups; ++g) {
            families.push_back(g == odd ? family(g, target, x, dense)
                                        : family(g, 0, false, false));
        }
        return families;
    };
    const family_list same_shape = with_group(groups, 0, false, false);
    // One family outside lane coverage: a dense two-qubit gate.
    const family_list dense = with_group(2, 0, false, true);
    // Lane-covered families of other shapes: a rotation on another
    // qubit, an x where the others rotate.
    const family_list other_qubit = with_group(5, 1, false, false);
    const family_list x_gate = with_group(groups - 1, 0, true, false);
    // Another level set of the same count: other level ends.
    const std::size_t other_levels[] = {1, 3};
    family_list mixed_levels = distinct_families(4, levels, groups, 74);
    util::rng wide_gen(73);
    mixed_levels[6] =
        reg_a_family(qml::random_ansatz_params(4, 2, wide_gen), other_levels);
    const auto wide_amplitudes = salted_amplitudes(4, groups, 75);

    for (const exec::sampling mode : modes) {
        const auto engine =
            exec::make_executor("statevector", engine_config(mode));
        const auto& backend = as_statevector(*engine);
        const std::string name = mode_name(mode);
        EXPECT_EQ(backend.replays_groups_in_lanes(same_shape),
                  lanes_active());
        EXPECT_FALSE(backend.replays_groups_in_lanes(dense));
        EXPECT_FALSE(backend.replays_groups_in_lanes(other_qubit));
        EXPECT_FALSE(backend.replays_groups_in_lanes(x_gate));
        EXPECT_FALSE(backend.replays_groups_in_lanes(mixed_levels));
        expect_group_matches_per_family(*engine, same_shape, amplitudes,
                                        name + " one shape");
        expect_group_matches_per_family(*engine, dense, amplitudes,
                                        name + " dense family");
        expect_group_matches_per_family(*engine, other_qubit, amplitudes,
                                        name + " other qubit");
        expect_group_matches_per_family(*engine, x_gate, amplitudes,
                                        name + " x for a rotation");
        expect_group_matches_per_family(*engine, mixed_levels,
                                        wide_amplitudes,
                                        name + " other level ends");
        // The remote wrapper and the density engine take the base session.
        const auto remote = loopback_remote(engine_config(mode), 3);
        expect_group_matches_per_family(*remote, same_shape, amplitudes,
                                        name + " remote");
    }

    family_list cbit_families;
    for (std::size_t g = 0; g < 3; ++g) {
        util::rng family_gen(util::derive_seed(76, g));
        cbit_families.push_back(
            cbit_family(qml::random_ansatz_params(3, 2, family_gen), levels));
    }
    // Gate-lowering engines prepare non-negative real amplitudes only.
    auto cbit_amplitudes = salted_amplitudes(3, 3, 77);
    for (std::vector<double>& amps : cbit_amplitudes) {
        for (double& a : amps) {
            a = std::abs(a);
        }
    }
    exec::engine_config per_shot = engine_config(exec::sampling::per_shot);
    per_shot.shots = 32;
    const auto shots = exec::make_executor("statevector", per_shot);
    EXPECT_FALSE(as_statevector(*shots).replays_groups_in_lanes(same_shape));
    expect_group_matches_per_family(*shots, cbit_families, cbit_amplitudes,
                                    "per-shot");
    const auto density = exec::make_executor(
        "density", engine_config(exec::sampling::exact));
    expect_group_matches_per_family(*density, cbit_families, cbit_amplitudes,
                                    "density");
}

/// The contract_error message of `call`, or "" when it did not throw.
std::string contract_message(const std::function<void()>& call) {
    try {
        call();
    } catch (const util::contract_error& e) {
        return e.what();
    }
    return "";
}

TEST(LaneReplay, GroupSessionContractErrors) {
    const std::size_t levels[] = {1, 2};
    const std::size_t groups = width;
    const family_list families = distinct_families(3, levels, groups, 80);
    auto amplitudes = salted_amplitudes(3, groups + 1, 81);
    const auto has = [](const std::string& message, const char* part) {
        return message.find(part) != std::string::npos;
    };
    exec::register_backend("lane_replay_remote",
                           [](const exec::engine_config& config) {
                               return loopback_remote(config, 3);
                           });
    for (const char* spec : {"statevector", "lane_replay_remote"}) {
        const auto engine = exec::make_executor(
            spec, engine_config(exec::sampling::binomial));
        const auto session = engine->make_group_session(families);
        stream_table streams(groups + 1, 2);
        const auto batch = make_samples(amplitudes, {}, &streams);
        std::vector<double> out(groups * 2);
        const std::span<const exec::sample> all = batch;

        EXPECT_TRUE(has(contract_message([&] {
                            session->run(all.first(groups - 1), out);
                        }),
                        "one sample per family"))
            << spec;
        EXPECT_TRUE(has(contract_message([&] { session->run(all, out); }),
                        "one sample per family"))
            << spec;
        std::vector<double> short_out(groups * 2 - 1);
        EXPECT_TRUE(has(contract_message([&] {
                            session->run(all.first(groups), short_out);
                        }),
                        "families x levels"))
            << spec;

        std::vector<exec::sample> wrong_levels(all.begin(),
                                               all.begin() + groups);
        wrong_levels[3].level_gens = streams.of(3).first(1);
        EXPECT_TRUE(has(contract_message(
                            [&] { session->run(wrong_levels, out); }),
                        "one rng stream per level"))
            << spec;

        family_list uneven = families;
        uneven[5].pop_back();
        EXPECT_TRUE(has(contract_message([&] {
                            (void)engine->make_group_session(uneven);
                        }),
                        "share one level count"))
            << spec;
        EXPECT_TRUE(has(contract_message([&] {
                            (void)engine->make_group_session({});
                        }),
                        "at least one family"))
            << spec;

        auto unnormalised = amplitudes;
        unnormalised[groups / 2][0] += 0.5;
        const auto bad = make_samples(std::span(unnormalised).first(groups),
                                      {}, &streams);
        EXPECT_TRUE(has(contract_message([&] { session->run(bad, out); }),
                        "amplitudes must be normalised"))
            << spec;
    }
}

} // namespace
