// Remote-backend property suite: `remote:<inner>` is a fleet_executor
// over a private worker fleet (exec/fleet.h). Worker-count invariance
// (remote scores IEEE == to the plain inner backend for any worker
// count, in every mode), registry/spec handling, and the fault model —
// worker death is restarted + requeued once, persistent death /
// malformed replies / version mismatches surface as structured
// contract_errors naming the worker and its sample span.
//
// Most tests drive the protocol through IN-PROCESS transports (a
// loopback that feeds exec::worker_session directly, and fault-injecting
// wrappers around it), so every path runs under the sanitizer job; a few
// spawn REAL quorum_worker processes via the build-tree binary.
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../loopback.h"

#include "core/config.h"
#include "exec/process_transport.h"
#include "exec/registry.h"
#include "exec/fleet.h"
#include "exec/serialise.h"
#include "qml/amplitude_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "qml/swap_test.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace {

using namespace quorum;

constexpr std::size_t worker_counts[] = {1, 2, 4};

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

/// Runs the batch through remote:<inner> (loopback workers) at every
/// worker count and asserts bitwise equality with the plain inner
/// backend: no batch split may show in the values.
void expect_worker_invariant(const batch_fixture& fixture,
                             const exec::program& program,
                             const std::string& inner,
                             exec::engine_config config, bool stochastic) {
    std::vector<double> reference(fixture.amplitudes.size());
    {
        config.shards = 1;
        const auto engine = exec::make_executor(inner, config);
        std::vector<util::rng> gens = fixture.make_gens(99);
        engine->run_batch(
            program, fixture.make_samples(stochastic ? &gens : nullptr),
            reference);
    }
    for (const std::size_t workers : worker_counts) {
        config.shards = workers;
        const exec::fleet_executor engine(config, inner,
                                          loopback_factory());
        std::vector<util::rng> gens = fixture.make_gens(99);
        std::vector<double> out(fixture.amplitudes.size());
        engine.run_batch(
            program, fixture.make_samples(stochastic ? &gens : nullptr),
            out);
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(out[i], reference[i])
                << "workers=" << workers << " sample=" << i;
        }
    }
}

TEST(RemoteBackend, ExactModeIsBitIdenticalForAnyWorkerCount) {
    const batch_fixture fixture(61);
    expect_worker_invariant(fixture, analytic_program(fixture.params, 1),
                            "statevector", exec::engine_config{},
                            /*stochastic=*/false);
    expect_worker_invariant(fixture, full_program(fixture.params, 2),
                            "statevector", exec::engine_config{},
                            /*stochastic=*/false);
}

TEST(RemoteBackend, SampledModeIsBitIdenticalForAnyWorkerCount) {
    const batch_fixture fixture(63);
    exec::engine_config config;
    config.sampling_mode = exec::sampling::binomial;
    config.shots = 512;
    expect_worker_invariant(fixture, analytic_program(fixture.params, 1),
                            "statevector", config, /*stochastic=*/true);
}

TEST(RemoteBackend, PerShotModeIsBitIdenticalForAnyWorkerCount) {
    const batch_fixture fixture(65, 6);
    exec::engine_config config;
    config.sampling_mode = exec::sampling::per_shot;
    config.shots = 64;
    expect_worker_invariant(fixture, full_program(fixture.params, 1),
                            "statevector", config, /*stochastic=*/true);
}

TEST(RemoteBackend, NoisyModeIsBitIdenticalForAnyWorkerCount) {
    const batch_fixture fixture(67, 5);
    exec::engine_config config;
    config.noise = qsim::noise_model::ibm_brisbane_median();
    config.sampling_mode = exec::sampling::binomial;
    config.shots = 256;
    expect_worker_invariant(fixture, full_program(fixture.params, 1),
                            "density", config, /*stochastic=*/true);
}

TEST(RemoteBackend, LevelFamiliesMatchTheInnerBackendBitForBit) {
    const batch_fixture fixture(69, 8);
    exec::engine_config config;
    config.sampling_mode = exec::sampling::binomial;
    config.shots = 128;
    const std::vector<exec::program> family = {
        analytic_program(fixture.params, 1),
        analytic_program(fixture.params, 2)};

    const auto make_level_gens = [&](std::vector<util::rng>& gens,
                                     std::vector<util::rng*>& ptrs) {
        gens.clear();
        ptrs.clear();
        for (std::size_t i = 0; i < fixture.amplitudes.size() * 2; ++i) {
            gens.emplace_back(util::derive_seed(77, i));
        }
        for (util::rng& gen : gens) {
            ptrs.push_back(&gen);
        }
    };
    std::vector<util::rng> gens;
    std::vector<util::rng*> ptrs;

    std::vector<double> reference(fixture.amplitudes.size() * 2);
    {
        config.shards = 1;
        const auto inner = exec::make_executor("statevector", config);
        make_level_gens(gens, ptrs);
        std::vector<exec::sample> batch = fixture.make_samples();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            batch[i].level_gens =
                std::span<util::rng* const>(ptrs.data() + i * 2, 2);
        }
        inner->run_batch_levels(family, batch, reference);
    }
    for (const std::size_t workers : worker_counts) {
        config.shards = workers;
        const exec::fleet_executor engine(config, "statevector",
                                          loopback_factory());
        make_level_gens(gens, ptrs);
        std::vector<exec::sample> batch = fixture.make_samples();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            batch[i].level_gens =
                std::span<util::rng* const>(ptrs.data() + i * 2, 2);
        }
        std::vector<double> out(reference.size());
        engine.run_batch_levels(family, batch, out);
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(out[i], reference[i])
                << "workers=" << workers << " slot=" << i;
        }
    }
}

// --- fault injection --------------------------------------------------------

/// Shared fault plan: which span reply should be lost to a worker death
/// (counted over all lanes, handshake acks excluded — lanes handshake on
/// their own threads), or whether replies should be replaced with
/// garbage / a forged handshake. Counters are atomic: lane threads and
/// the calling thread both drive transports.
struct fault_plan {
    std::atomic<int> span_replies{0};
    int die_on_span_reply = 0;     ///< 1-based span reply index; 0 = never
    int garbage_on_span_reply = 0; ///< garble ONE span reply by index
    bool die_always = false;
    bool forge_bad_version = false;
    bool garbage_replies = false;
    std::atomic<int> constructed{0};
};

class faulty_transport : public exec::wire_transport {
public:
    explicit faulty_transport(fault_plan* plan) : plan_(plan) {}

    void send_message(std::span<const std::uint8_t> payload) override {
        if (plan_->die_always) {
            throw exec::transport_error("injected: worker is gone");
        }
        replies_.push_back(session_.handle(payload));
    }

    [[nodiscard]] std::vector<std::uint8_t> recv_message() override {
        if (plan_->die_always) {
            throw exec::transport_error("injected: worker died mid-span");
        }
        if (replies_.empty()) {
            throw exec::transport_error("no reply queued");
        }
        std::vector<std::uint8_t> reply = std::move(replies_.front());
        replies_.pop_front();
        const bool is_ack =
            !reply.empty() &&
            reply[0] ==
                static_cast<std::uint8_t>(exec::wire::message::hello_ack);
        if (plan_->forge_bad_version && is_ack) {
            exec::wire::writer forged;
            forged.u8(
                static_cast<std::uint8_t>(exec::wire::message::hello_ack));
            forged.u32(exec::wire::protocol_magic);
            forged.u32(exec::wire::protocol_version + 9);
            return forged.take();
        }
        if (is_ack) {
            return reply;
        }
        const int index = ++plan_->span_replies;
        if (index == plan_->die_on_span_reply) {
            throw exec::transport_error("injected: worker died mid-span");
        }
        if (plan_->garbage_replies || index == plan_->garbage_on_span_reply) {
            return {0x7C, 0xDE, 0xAD};
        }
        return reply;
    }

private:
    fault_plan* plan_;
    exec::worker_session session_;
    std::deque<std::vector<std::uint8_t>> replies_;
};

exec::transport_factory faulty_factory(fault_plan* plan) {
    return [plan](std::size_t) -> std::unique_ptr<exec::wire_transport> {
        ++plan->constructed;
        return std::make_unique<faulty_transport>(plan);
    };
}

TEST(RemoteBackend, WorkerDeathIsRestartedAndTheSpanRequeued) {
    const batch_fixture fixture(71);
    std::vector<double> reference(fixture.amplitudes.size());
    exec::make_executor("statevector", exec::engine_config{})
        ->run_batch(analytic_program(fixture.params, 1),
                    fixture.make_samples(), reference);

    fault_plan plan;
    // Kill the first span reply: the worker dies mid-span, is restarted
    // (fresh handshake) and its span is requeued — scores unharmed. One
    // worker, so the requeued span can only run on the restarted lane
    // and the restart count is exact (with more workers a live sibling
    // may re-run it before the dead lane rejoins).
    plan.die_on_span_reply = 1;
    exec::engine_config config;
    config.shards = 1;
    const exec::fleet_executor engine(config, "statevector",
                                      faulty_factory(&plan));
    std::vector<double> out(fixture.amplitudes.size());
    engine.run_batch(analytic_program(fixture.params, 1),
                     fixture.make_samples(), out);
    EXPECT_EQ(plan.constructed.load(), 2); // 1 worker + 1 restart
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], reference[i]) << i;
    }
}

TEST(RemoteBackend, PersistentWorkerDeathIsAStructuredError) {
    const batch_fixture fixture(73, 6);
    // Workers that can never start: every lane spends its rejoin budget
    // and is abandoned, and the batch fails naming its span and the
    // last lane failure.
    fault_plan plan;
    plan.die_always = true;
    exec::engine_config config;
    config.shards = 2;
    const exec::fleet_executor engine(config, "statevector",
                                      faulty_factory(&plan));
    std::vector<double> out(fixture.amplitudes.size());
    try {
        engine.run_batch(analytic_program(fixture.params, 1),
                         fixture.make_samples(), out);
        FAIL() << "expected contract_error";
    } catch (const util::contract_error& error) {
        EXPECT_NE(std::strstr(error.what(), "remote worker "), nullptr)
            << error.what();
        EXPECT_NE(std::strstr(error.what(), "samples ["), nullptr)
            << error.what();
        EXPECT_NE(std::strstr(error.what(), "no live workers"), nullptr)
            << error.what();
    }
}

TEST(RemoteBackend, MalformedRepliesAreStructuredErrorsWithoutRetry) {
    const batch_fixture fixture(75, 6);
    fault_plan plan;
    plan.garbage_replies = true;
    exec::engine_config config;
    config.shards = 1;
    const exec::fleet_executor engine(config, "statevector",
                                      faulty_factory(&plan));
    std::vector<double> out(fixture.amplitudes.size());
    try {
        engine.run_batch(analytic_program(fixture.params, 1),
                         fixture.make_samples(), out);
        FAIL() << "expected contract_error";
    } catch (const util::contract_error& error) {
        EXPECT_NE(std::strstr(error.what(), "remote worker 0"), nullptr)
            << error.what();
        EXPECT_NE(std::strstr(error.what(), "unexpected reply type"),
                  nullptr)
            << error.what();
    }
    EXPECT_EQ(plan.constructed.load(), 1); // protocol corruption: no restart
}

TEST(RemoteBackend, FailedBatchCannotLeakStaleRepliesIntoTheNext) {
    // With 2 workers, both spans may be in flight when span 0's reply
    // turns out garbled and the batch fails — the other reply is still
    // unread. The fleet reads every owed reply before it throws, so a
    // FOLLOW-UP batch gets correct values, not a stale batch-1 reply
    // (which has the right count and would be accepted silently).
    const batch_fixture fixture(85);
    std::vector<double> reference(fixture.amplitudes.size());
    exec::make_executor("statevector", exec::engine_config{})
        ->run_batch(analytic_program(fixture.params, 1),
                    fixture.make_samples(), reference);

    fault_plan plan;
    plan.garbage_on_span_reply = 1;
    exec::engine_config config;
    config.shards = 2;
    const exec::fleet_executor engine(config, "statevector",
                                      faulty_factory(&plan));
    std::vector<double> out(fixture.amplitudes.size(), -1.0);
    EXPECT_THROW(engine.run_batch(analytic_program(fixture.params, 1),
                                  fixture.make_samples(), out),
                 util::contract_error);
    engine.run_batch(analytic_program(fixture.params, 1),
                     fixture.make_samples(), out);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], reference[i]) << i;
    }
}

TEST(RemoteBackend, HandshakeVersionMismatchIsAStructuredError) {
    const batch_fixture fixture(77, 4);
    fault_plan plan;
    plan.forge_bad_version = true;
    exec::engine_config config;
    config.shards = 1;
    const exec::fleet_executor engine(config, "statevector",
                                      faulty_factory(&plan));
    std::vector<double> out(fixture.amplitudes.size());
    try {
        engine.run_batch(analytic_program(fixture.params, 1),
                         fixture.make_samples(), out);
        FAIL() << "expected contract_error";
    } catch (const util::contract_error& error) {
        EXPECT_NE(std::strstr(error.what(), "protocol version"), nullptr)
            << error.what();
    }
}

TEST(RemoteBackend, EmptyBatchesNeverTouchATransport) {
    exec::engine_config config;
    config.shards = 2;
    const exec::fleet_executor engine(
        config, "statevector",
        [](std::size_t) -> std::unique_ptr<exec::wire_transport> {
            ADD_FAILURE() << "no transport should be created";
            return nullptr;
        });
    const batch_fixture fixture(79, 1);
    const exec::program program = analytic_program(fixture.params, 1);
    engine.run_batch(program, {}, {});
}

// --- registry / config integration ------------------------------------------

TEST(RemoteBackend, RegistryResolvesRemoteSpecs) {
    EXPECT_TRUE(exec::is_backend_registered("remote"));
    EXPECT_TRUE(exec::is_backend_registered("remote:statevector"));
    EXPECT_TRUE(exec::is_backend_registered("remote:density"));
    EXPECT_FALSE(exec::is_backend_registered("remote:bogus"));
    EXPECT_FALSE(exec::is_backend_registered("remote:remote"));
    EXPECT_FALSE(exec::is_backend_registered("remote:sharded"));
    EXPECT_THROW((void)exec::parse_backend_spec("remote:"),
                 util::contract_error);
    EXPECT_THROW((void)exec::parse_backend_spec("remote:remote"),
                 util::contract_error);
    EXPECT_THROW((void)exec::parse_backend_spec("remote:sharded:x"),
                 util::contract_error);
    EXPECT_THROW((void)exec::make_executor("remote:bogus",
                                           exec::engine_config{}),
                 util::contract_error);

    const exec::backend_spec composite =
        exec::parse_backend_spec("remote:density");
    EXPECT_EQ(composite.name, "remote");
    EXPECT_EQ(composite.inner, "density");

    exec::engine_config config;
    config.shards = 2;
    const auto bare = exec::make_executor("remote", config);
    EXPECT_EQ(bare->name(), "remote:statevector");
    const auto dense = exec::make_executor("remote:density", config);
    EXPECT_EQ(dense->name(), "remote:density");
    EXPECT_TRUE(dense->supports(exec::readout_kind::cbit_probability));
    EXPECT_FALSE(dense->supports(exec::readout_kind::prep_overlap_p1));
}

TEST(RemoteBackend, WorkerCountResolvesAndClamps) {
    exec::engine_config config;
    config.shards = 3;
    const exec::fleet_executor engine(config, "statevector",
                                      loopback_factory());
    EXPECT_EQ(engine.worker_count(), 3u);

    config.shards = 0;
    const exec::fleet_executor defaulted(config, "statevector",
                                         loopback_factory());
    EXPECT_GE(defaulted.worker_count(), 1u);

    config.shards = std::numeric_limits<std::size_t>::max();
    const exec::fleet_executor clamped(config, "statevector",
                                       loopback_factory());
    EXPECT_EQ(clamped.worker_count(),
              exec::fleet_executor::max_remote_workers);
}

TEST(RemoteBackend, ConfigResolvesRemoteAutoByMode) {
    core::quorum_config config;
    config.backend = "remote";
    EXPECT_EQ(config.resolved_backend(), "remote:statevector");
    config.backend = "remote:auto";
    config.mode = core::exec_mode::noisy;
    EXPECT_EQ(config.resolved_backend(), "remote:density");
    config.backend = "remote:density";
    EXPECT_EQ(config.resolved_backend(), "remote:density");
}

TEST(RemoteBackend, ConstructionValidatesTheInnerBackendLocally) {
    exec::engine_config config;
    config.sampling_mode = exec::sampling::per_shot;
    config.shots = 16;
    // per_shot is unsupported by the density engine: the local probe
    // rejects the pair at CONSTRUCTION (= config validation) time, no
    // worker involved.
    EXPECT_THROW(exec::fleet_executor(config, "density",
                                      loopback_factory()),
                 std::exception);
    EXPECT_THROW(exec::fleet_executor(exec::engine_config{}, "bogus",
                                      loopback_factory()),
                 util::contract_error);
    EXPECT_THROW(exec::fleet_executor(exec::engine_config{}, "remote",
                                      loopback_factory()),
                 util::contract_error);
}

// --- real worker processes --------------------------------------------------

TEST(RemoteBackend, DefaultWorkerBinaryHonoursTheEnvironment) {
    const char* old = std::getenv("QUORUM_WORKER");
    const std::string saved = old == nullptr ? "" : old;
    ::setenv("QUORUM_WORKER", "/tmp/some_worker", 1);
    EXPECT_EQ(exec::default_worker_binary(), "/tmp/some_worker");
    if (old == nullptr) {
        ::unsetenv("QUORUM_WORKER");
    } else {
        ::setenv("QUORUM_WORKER", saved.c_str(), 1);
    }
}

#ifdef QUORUM_WORKER_BIN

class worker_env : public ::testing::Test {
protected:
    void SetUp() override {
        const char* old = std::getenv("QUORUM_WORKER");
        saved_ = old == nullptr ? "" : old;
        had_ = old != nullptr;
        ::setenv("QUORUM_WORKER", QUORUM_WORKER_BIN, 1);
    }
    void TearDown() override {
        if (had_) {
            ::setenv("QUORUM_WORKER", saved_.c_str(), 1);
        } else {
            ::unsetenv("QUORUM_WORKER");
        }
    }

private:
    std::string saved_;
    bool had_ = false;
};

TEST_F(worker_env, RealWorkerProcessesMatchThePlainBackend) {
    const batch_fixture fixture(81);
    exec::engine_config config;
    config.sampling_mode = exec::sampling::binomial;
    config.shots = 256;
    std::vector<double> reference(fixture.amplitudes.size());
    {
        const auto inner = exec::make_executor("statevector", config);
        std::vector<util::rng> gens = fixture.make_gens(3);
        inner->run_batch(analytic_program(fixture.params, 1),
                         fixture.make_samples(&gens), reference);
    }
    config.shards = 2;
    const auto engine = exec::make_executor("remote:statevector", config);
    for (int repeat = 0; repeat < 2; ++repeat) { // 2nd run: program cache
        std::vector<util::rng> gens = fixture.make_gens(3);
        std::vector<double> out(fixture.amplitudes.size());
        engine->run_batch(analytic_program(fixture.params, 1),
                          fixture.make_samples(&gens), out);
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(out[i], reference[i]) << "repeat=" << repeat << " "
                                            << i;
        }
    }
}

TEST_F(worker_env, MissingWorkerBinarySurfacesAsAStructuredError) {
    ::setenv("QUORUM_WORKER", "/nonexistent/quorum_worker", 1);
    const batch_fixture fixture(83, 4);
    exec::engine_config config;
    config.shards = 1;
    const auto engine = exec::make_executor("remote:statevector", config);
    std::vector<double> out(fixture.amplitudes.size());
    try {
        engine->run_batch(analytic_program(fixture.params, 1),
                          fixture.make_samples(), out);
        FAIL() << "expected contract_error";
    } catch (const util::contract_error& error) {
        EXPECT_NE(std::strstr(error.what(), "remote worker 0"), nullptr)
            << error.what();
        EXPECT_NE(std::strstr(error.what(), "/nonexistent/quorum_worker"),
                  nullptr)
            << error.what();
    }
}

#endif // QUORUM_WORKER_BIN

} // namespace
