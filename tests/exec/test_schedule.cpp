// Schedule-policy property suite: the span planner's contract is that the
// POLICY is a pure performance knob — "dynamic:<grain>" must produce
// IEEE-identical scores to "static" in every execution mode, on every
// consumer (the remote backend's private fleet and a shared serving
// fleet, both over an in-process loopback transport), for any grain and
// lane count. Plus the plan-shape invariants that make that true
// (sample-index-keyed spans balanced to within one sample, lane-count
// independence, span cap), the strict spec grammar, and the fault model
// under dynamic dispatch (requeue-once survives worker death with
// bit-identical output).
#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../loopback.h"

#include "core/config.h"
#include "core/quorum.h"
#include "data/dataset.h"
#include "exec/fleet.h"
#include "exec/registry.h"
#include "exec/schedule.h"
#include "qml/amplitude_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "qml/swap_test.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace {

using namespace quorum;

struct batch_fixture {
    qml::ansatz_params params;
    std::vector<std::vector<double>> amplitudes;

    explicit batch_fixture(std::uint64_t seed, std::size_t samples = 12) {
        util::rng gen(seed);
        params = qml::random_ansatz_params(3, 2, gen);
        amplitudes.resize(samples);
        for (auto& amps : amplitudes) {
            std::vector<double> features(7);
            for (double& f : features) {
                f = gen.uniform() / 7.0;
            }
            amps = qml::to_amplitudes(features, 3);
        }
    }

    [[nodiscard]] std::vector<exec::sample>
    make_samples(std::vector<util::rng>* gens = nullptr) const {
        std::vector<exec::sample> samples(amplitudes.size());
        for (std::size_t i = 0; i < amplitudes.size(); ++i) {
            samples[i].amplitudes = amplitudes[i];
            if (gens != nullptr) {
                samples[i].gen = &(*gens)[i];
            }
        }
        return samples;
    }

    [[nodiscard]] std::vector<util::rng> make_gens(std::uint64_t seed) const {
        std::vector<util::rng> gens;
        gens.reserve(amplitudes.size());
        for (std::size_t i = 0; i < amplitudes.size(); ++i) {
            gens.emplace_back(util::derive_seed(seed, i));
        }
        return gens;
    }
};

exec::program analytic_program(const qml::ansatz_params& params,
                               std::size_t level) {
    exec::program program;
    program.circuit = qsim::compiled_program::compile(
        qml::autoencoder_reg_a_template(params, level));
    program.readout.kind = exec::readout_kind::prep_overlap_p1;
    return program;
}

exec::program full_program(const qml::ansatz_params& params,
                           std::size_t level) {
    exec::program program;
    program.circuit = qsim::compiled_program::compile(
        qml::autoencoder_template(params, level));
    program.readout.kind = exec::readout_kind::cbit_probability;
    program.readout.cbit = qml::swap_result_cbit;
    return program;
}

using test::loopback_factory;

/// One execution-mode configuration of the invariance sweep. The program
/// flavour follows the mode's semantics: analytic shortcut where the
/// engine supports it, the full 2n+1-qubit circuit elsewhere.
struct mode_case {
    const char* name;
    std::string inner;
    exec::engine_config config;
    bool stochastic;
    bool full_circuit;
    std::size_t samples;
};

std::vector<mode_case> all_modes() {
    std::vector<mode_case> modes;
    modes.push_back({"exact", "statevector", exec::engine_config{},
                     /*stochastic=*/false, /*full_circuit=*/false, 12});
    {
        exec::engine_config config;
        config.sampling_mode = exec::sampling::binomial;
        config.shots = 512;
        modes.push_back({"sampled", "statevector", config,
                         /*stochastic=*/true, /*full_circuit=*/false, 12});
    }
    {
        exec::engine_config config;
        config.sampling_mode = exec::sampling::per_shot;
        config.shots = 64;
        modes.push_back({"per_shot", "statevector", config,
                         /*stochastic=*/true, /*full_circuit=*/true, 6});
    }
    {
        exec::engine_config config;
        config.noise = qsim::noise_model::ibm_brisbane_median();
        config.sampling_mode = exec::sampling::binomial;
        config.shots = 256;
        modes.push_back({"noisy", "density", config, /*stochastic=*/true,
                         /*full_circuit=*/true, 5});
    }
    return modes;
}

constexpr const char* dynamic_grains[] = {"dynamic:1", "dynamic:3",
                                          "dynamic:16"};

/// Runs one mode's batch under "static" and every dynamic grain through
/// `run_once` (which builds the consumer under test from the config) and
/// asserts the scores are bit-identical across all policies.
void expect_schedule_invariant(
    const mode_case& mode,
    const std::function<void(const exec::engine_config&, const mode_case&,
                             std::span<double>)>& run_once,
    std::size_t values_per_sample = 1) {
    mode_case current = mode;
    std::vector<double> reference(mode.samples * values_per_sample);
    current.config.schedule = exec::parse_schedule_spec("static");
    run_once(current.config, current, reference);
    for (const char* spec : dynamic_grains) {
        current.config.schedule = exec::parse_schedule_spec(spec);
        std::vector<double> out(reference.size());
        run_once(current.config, current, out);
        for (std::size_t i = 0; i < out.size(); ++i) {
            // EXPECT_EQ on doubles = bit-identical.
            EXPECT_EQ(out[i], reference[i])
                << mode.name << " " << spec << " value=" << i;
        }
    }
}

// --- spec grammar -----------------------------------------------------------

TEST(Schedule, SpecParsingAcceptsTheGrammar) {
    const exec::schedule_spec s = exec::parse_schedule_spec("static");
    EXPECT_EQ(s.policy, exec::schedule_policy::static_spans);
    EXPECT_EQ(s.str(), "static");

    const exec::schedule_spec bare = exec::parse_schedule_spec("dynamic");
    EXPECT_EQ(bare.policy, exec::schedule_policy::dynamic_spans);
    EXPECT_EQ(bare.grain, exec::default_dynamic_grain);
    EXPECT_EQ(bare.str(), "dynamic:256");

    const exec::schedule_spec sized =
        exec::parse_schedule_spec("dynamic:16");
    EXPECT_EQ(sized.policy, exec::schedule_policy::dynamic_spans);
    EXPECT_EQ(sized.grain, 16u);
    EXPECT_EQ(sized.str(), "dynamic:16");
    EXPECT_EQ(sized, exec::parse_schedule_spec(sized.str()));
}

TEST(Schedule, SpecParsingRejectsGarbageNamingTheSpec) {
    for (const char* bad :
         {"", "dynamic:0", "dynamic:banana", "dynamic:-3", "dynamic:",
          "dynamic:1x", "static:4", "Dynamic", " dynamic", "dynamic:3 ",
          "round_robin"}) {
        try {
            (void)exec::parse_schedule_spec(bad);
            FAIL() << "expected contract_error for '" << bad << "'";
        } catch (const util::contract_error& error) {
            // The error names the offending spec so a mistyped
            // --schedule flag is diagnosable from the message alone.
            EXPECT_NE(std::strstr(error.what(), bad), nullptr)
                << "spec '" << bad << "' not in: " << error.what();
        }
    }
}

TEST(Schedule, ConfigValidationRejectsBadScheduleSpecs) {
    core::quorum_config config;
    config.schedule = "dynamic:0";
    try {
        config.validate();
        FAIL() << "expected contract_error";
    } catch (const util::contract_error& error) {
        EXPECT_NE(std::strstr(error.what(), "dynamic:0"), nullptr)
            << error.what();
    }
}

// --- plan shape -------------------------------------------------------------

TEST(Schedule, StaticPlansAreMakeShardPlanVerbatim) {
    const exec::span_planner planner(exec::parse_schedule_spec("static"));
    for (const std::size_t n : {1u, 7u, 60u, 241u}) {
        for (const std::size_t lanes : {1u, 2u, 3u, 7u, 64u}) {
            const auto plan = planner.plan(n, lanes);
            const auto direct = exec::make_shard_plan(n, lanes);
            ASSERT_EQ(plan.size(), direct.size());
            for (std::size_t k = 0; k < plan.size(); ++k) {
                EXPECT_EQ(plan[k].shard, direct[k].shard);
                EXPECT_EQ(plan[k].first, direct[k].first);
                EXPECT_EQ(plan[k].count, direct[k].count);
            }
        }
    }
}

TEST(Schedule, PlanIsStableContiguousAndBalanced) {
    for (const std::size_t n : {1u, 7u, 60u, 241u}) {
        for (const std::size_t shards : {1u, 2u, 3u, 7u, 64u}) {
            const auto plan = exec::make_shard_plan(n, shards);
            const auto replay = exec::make_shard_plan(n, shards);
            ASSERT_EQ(plan.size(), replay.size());
            std::size_t covered = 0;
            for (std::size_t k = 0; k < plan.size(); ++k) {
                // Keyed by sample index only: re-planning is bit-stable.
                EXPECT_EQ(plan[k].shard, replay[k].shard);
                EXPECT_EQ(plan[k].first, replay[k].first);
                EXPECT_EQ(plan[k].count, replay[k].count);
                EXPECT_EQ(plan[k].first, covered); // contiguous, in order
                EXPECT_GT(plan[k].count, 0u);      // no empty spans
                // Balanced to within one sample.
                EXPECT_LE(plan[k].count, n / shards + 1);
                covered += plan[k].count;
            }
            EXPECT_EQ(covered, n) << n << " samples, " << shards
                                  << " shards";
        }
    }
}

TEST(Schedule, PathologicalShardCountsAreCappedNotLooped) {
    // An unsigned wrap of "-1" (or any huge value) must not spin 2^64
    // plan iterations or overflow the span arithmetic.
    const auto plan =
        exec::make_shard_plan(5, std::numeric_limits<std::size_t>::max());
    ASSERT_EQ(plan.size(), 5u);
    for (std::size_t k = 0; k < plan.size(); ++k) {
        EXPECT_EQ(plan[k].first, k);
        EXPECT_EQ(plan[k].count, 1u);
    }
}

TEST(Schedule, DynamicPlansAreContiguousGrainSizedAndSeeded) {
    const exec::span_planner planner(
        exec::parse_schedule_spec("dynamic:3"));
    for (const std::size_t n : {1u, 3u, 7u, 60u, 241u}) {
        const auto plan = planner.plan(n, 4);
        ASSERT_EQ(plan.size(), (n + 2) / 3);
        std::size_t covered = 0;
        for (std::size_t k = 0; k < plan.size(); ++k) {
            EXPECT_EQ(plan[k].shard, k); // output keyed by span index
            EXPECT_EQ(plan[k].first, covered);
            EXPECT_GT(plan[k].count, 0u);
            EXPECT_LE(plan[k].count, 3u);
            covered += plan[k].count;
        }
        EXPECT_EQ(covered, n);
    }
}

TEST(Schedule, DynamicPlansIgnoreTheLaneCount) {
    // The plan is a pure function of (n_samples, grain): growing or
    // shrinking the lane set between batches must not move a single
    // span boundary — that is what keeps scores fleet-size-invariant
    // under dynamic dispatch.
    const exec::span_planner planner(
        exec::parse_schedule_spec("dynamic:5"));
    const auto one = planner.plan(83, 1);
    for (const std::size_t lanes : {2u, 3u, 64u}) {
        const auto plan = planner.plan(83, lanes);
        ASSERT_EQ(plan.size(), one.size());
        for (std::size_t k = 0; k < plan.size(); ++k) {
            EXPECT_EQ(plan[k].first, one[k].first);
            EXPECT_EQ(plan[k].count, one[k].count);
        }
    }
}

TEST(Schedule, DynamicSpanCountIsCappedDeterministically) {
    // 10000 samples at grain 1 would be 10000 spans; the cap coarsens
    // the effective grain to ceil(10000/4096) = 3, from n_samples alone.
    const exec::span_planner planner(
        exec::parse_schedule_spec("dynamic:1"));
    const auto plan = planner.plan(10000, 8);
    EXPECT_LE(plan.size(), exec::max_spans_per_batch);
    ASSERT_EQ(plan.size(), 3334u); // ceil(10000 / 3)
    std::size_t covered = 0;
    for (const exec::shard_work& span : plan) {
        EXPECT_EQ(span.first, covered);
        covered += span.count;
    }
    EXPECT_EQ(covered, 10000u);
}

// --- policy invariance on every consumer ------------------------------------

TEST(Schedule, ShardedScoresMatchStaticInEveryMode) {
    // Level families — the detector's fused run_batch_levels path —
    // sharded over 2 and 3 remote workers (engine_config::shards), in
    // every mode: each level draws from its own stream, as the detector
    // hands them out.
    for (const mode_case& mode : all_modes()) {
        const batch_fixture fixture(61, mode.samples);
        std::vector<exec::program> levels;
        for (const std::size_t level : {1u, 2u}) {
            levels.push_back(mode.full_circuit
                                 ? full_program(fixture.params, level)
                                 : analytic_program(fixture.params, level));
        }
        for (const std::size_t workers : {2u, 3u}) {
            expect_schedule_invariant(
                mode,
                [&](const exec::engine_config& config, const mode_case& m,
                    std::span<double> out) {
                    exec::engine_config cfg = config;
                    cfg.shards = workers;
                    const exec::fleet_executor engine(cfg, m.inner,
                                                      loopback_factory());
                    std::vector<util::rng> level_one = fixture.make_gens(99);
                    std::vector<util::rng> level_two =
                        fixture.make_gens(199);
                    std::vector<util::rng*> gen_ptrs;
                    for (std::size_t i = 0; i < level_one.size(); ++i) {
                        gen_ptrs.push_back(&level_one[i]);
                        gen_ptrs.push_back(&level_two[i]);
                    }
                    std::vector<exec::sample> samples =
                        fixture.make_samples();
                    if (m.stochastic) {
                        for (std::size_t i = 0; i < samples.size(); ++i) {
                            samples[i].level_gens =
                                std::span<util::rng* const>(
                                    gen_ptrs.data() + 2 * i, 2);
                        }
                    }
                    engine.run_batch_levels(levels, samples, out);
                },
                levels.size());
        }
    }
}

TEST(Schedule, RemoteScoresMatchStaticInEveryMode) {
    for (const mode_case& mode : all_modes()) {
        const batch_fixture fixture(63, mode.samples);
        const exec::program program =
            mode.full_circuit ? full_program(fixture.params, 1)
                              : analytic_program(fixture.params, 1);
        for (const std::size_t workers : {2u, 3u}) {
            expect_schedule_invariant(
                mode, [&](const exec::engine_config& config,
                          const mode_case& m, std::span<double> out) {
                    exec::engine_config cfg = config;
                    cfg.shards = workers;
                    const exec::fleet_executor engine(cfg, m.inner,
                                                      loopback_factory());
                    std::vector<util::rng> gens = fixture.make_gens(99);
                    engine.run_batch(
                        program,
                        fixture.make_samples(m.stochastic ? &gens : nullptr),
                        out);
                });
        }
    }
}

TEST(Schedule, FleetScoresMatchStaticInEveryMode) {
    for (const mode_case& mode : all_modes()) {
        const batch_fixture fixture(65, mode.samples);
        const exec::program program =
            mode.full_circuit ? full_program(fixture.params, 1)
                              : analytic_program(fixture.params, 1);
        expect_schedule_invariant(
            mode, [&](const exec::engine_config& config,
                      const mode_case& m, std::span<double> out) {
                exec::fleet_config fleet_cfg;
                fleet_cfg.inner = m.inner;
                fleet_cfg.engine = config;
                auto fleet =
                    std::make_shared<exec::worker_fleet>(fleet_cfg);
                for (std::size_t i = 0; i < 2; ++i) {
                    fleet->add_factory_lane(loopback_factory(),
                                            "loop #" + std::to_string(i));
                }
                fleet->wait_for_lanes(2, 5000);
                const exec::fleet_executor engine(fleet);
                std::vector<util::rng> gens = fixture.make_gens(99);
                engine.run_batch(
                    program,
                    fixture.make_samples(m.stochastic ? &gens : nullptr),
                    out);
            });
    }
}

TEST(Schedule, RemoteLevelFamiliesMatchStaticBitForBit) {
    // The fused run_batch_levels path plans through the same planner —
    // one dynamic grain sweep over a 2-level family pins it too.
    const batch_fixture fixture(67, 10);
    const std::vector<exec::program> levels = {
        analytic_program(fixture.params, 1),
        analytic_program(fixture.params, 2)};
    exec::engine_config config;
    config.shards = 3;
    std::vector<double> reference(fixture.amplitudes.size() * 2);
    const exec::fleet_executor static_engine(config, "statevector",
                                             loopback_factory());
    static_engine.run_batch_levels(levels, fixture.make_samples(), reference);
    for (const char* spec : dynamic_grains) {
        config.schedule = exec::parse_schedule_spec(spec);
        const exec::fleet_executor engine(config, "statevector",
                                          loopback_factory());
        std::vector<double> out(reference.size());
        engine.run_batch_levels(levels, fixture.make_samples(), out);
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(out[i], reference[i]) << spec << " value=" << i;
        }
    }
}

// --- fault model under dynamic dispatch -------------------------------------

/// Transport whose Nth recv throws once (a worker dying mid-span under
/// dynamic dispatch). Atomic: the lane thread (handshakes) and the
/// calling thread (spans) both drive the transport.
struct kill_plan {
    std::atomic<int> recv_calls{0};
    int die_on_recv_call = 0;
    std::atomic<int> constructed{0};
};

class killable_transport : public exec::wire_transport {
public:
    explicit killable_transport(kill_plan* plan) : plan_(plan) {}

    void send_message(std::span<const std::uint8_t> payload) override {
        replies_.push_back(session_.handle(payload));
    }

    [[nodiscard]] std::vector<std::uint8_t> recv_message() override {
        if (++plan_->recv_calls == plan_->die_on_recv_call) {
            throw exec::transport_error("injected: worker died mid-span");
        }
        if (replies_.empty()) {
            throw exec::transport_error("no reply queued");
        }
        std::vector<std::uint8_t> reply = std::move(replies_.front());
        replies_.pop_front();
        return reply;
    }

private:
    kill_plan* plan_;
    exec::worker_session session_;
    std::deque<std::vector<std::uint8_t>> replies_;
};

TEST(Schedule, RemoteDynamicSurvivesWorkerDeathWithIdenticalScores) {
    const batch_fixture fixture(71);
    std::vector<double> reference(fixture.amplitudes.size());
    exec::make_executor("statevector", exec::engine_config{})
        ->run_batch(analytic_program(fixture.params, 1),
                    fixture.make_samples(), reference);

    kill_plan plan;
    // One worker keeps the recv order deterministic: recv 1 is the
    // hello_ack, then one recv per span. dynamic:4 over 12 samples is
    // 3 spans; kill the second span's reply — the lane restarts (fresh
    // handshake) and re-runs THAT span, requeue-once, scores unharmed.
    plan.die_on_recv_call = 3;
    exec::engine_config config;
    config.shards = 1;
    config.schedule = exec::parse_schedule_spec("dynamic:4");
    const exec::fleet_executor engine(
        config, "statevector",
        [&plan](std::size_t) -> std::unique_ptr<exec::wire_transport> {
            ++plan.constructed;
            return std::make_unique<killable_transport>(&plan);
        });
    std::vector<double> out(fixture.amplitudes.size());
    engine.run_batch(analytic_program(fixture.params, 1),
                     fixture.make_samples(), out);
    EXPECT_EQ(plan.constructed.load(), 2); // 1 worker + 1 restart
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], reference[i]) << i;
    }
}

TEST(Schedule, FleetStatsAccountForEveryDynamicSpan) {
    const batch_fixture fixture(73);
    exec::fleet_config fleet_cfg;
    fleet_cfg.engine.schedule = exec::parse_schedule_spec("dynamic:1");
    auto fleet = std::make_shared<exec::worker_fleet>(fleet_cfg);
    for (std::size_t i = 0; i < 2; ++i) {
        fleet->add_factory_lane(loopback_factory(),
                                "loop #" + std::to_string(i));
    }
    fleet->wait_for_lanes(2, 5000);
    const exec::fleet_executor engine(fleet);
    std::vector<double> out(fixture.amplitudes.size());
    engine.run_batch(analytic_program(fixture.params, 1),
                     fixture.make_samples(), out);

    const exec::fleet_stats stats = fleet->stats();
    EXPECT_EQ(stats.live_lanes, 2u);
    EXPECT_EQ(stats.requeued_spans, 0u);
    // dynamic:1 over 12 samples = 12 spans, every one attributed to a
    // lane; which lane got how many is timing, the sum is not.
    EXPECT_EQ(stats.spans_completed, 12u);
    ASSERT_EQ(stats.lanes.size(), 2u);
    std::size_t summed = 0;
    for (const exec::fleet_lane_stats& lane : stats.lanes) {
        EXPECT_TRUE(lane.live);
        EXPECT_FALSE(lane.label.empty());
        summed += lane.spans_completed;
    }
    EXPECT_EQ(summed, stats.spans_completed);
}

// --- detector-level invariance ----------------------------------------------

TEST(Schedule, DetectorScoresAreScheduleInvariant) {
    // End-to-end: the full Quorum pipeline (ensemble, fused levels,
    // bucketing) through a 3-worker remote fleet scores IEEE == under
    // both policies — --schedule is a pure wall-clock knob.
    exec::register_backend("schedule_test_loopback",
                           [](const exec::engine_config& config) {
                               return std::make_unique<exec::fleet_executor>(
                                   config, "statevector", loopback_factory());
                           });
    std::vector<std::vector<double>> rows(18);
    util::rng gen(2025);
    for (auto& row : rows) {
        row.resize(9);
        for (double& f : row) {
            f = gen.uniform();
        }
    }
    const data::dataset data = data::dataset::from_rows(rows);

    core::quorum_config config;
    config.ensemble_groups = 8;
    config.backend = "schedule_test_loopback";
    config.shards = 3;
    const std::vector<double> reference =
        core::quorum_detector(config).score(data).scores;
    for (const char* spec : {"dynamic:3", "dynamic:16"}) {
        config.schedule = spec;
        const std::vector<double> scores =
            core::quorum_detector(config).score(data).scores;
        ASSERT_EQ(scores.size(), reference.size());
        for (std::size_t i = 0; i < scores.size(); ++i) {
            EXPECT_EQ(scores[i], reference[i]) << spec << " row=" << i;
        }
    }
}

} // namespace
