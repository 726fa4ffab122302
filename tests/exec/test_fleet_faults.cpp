// Worker-fleet fault suite: fleet-size invariance (scores IEEE == to the
// plain backend for any lane count), the requeue-once fault model
// (worker death mid-span → requeue + rejoin; second death → structured
// error naming the lane and span), error and garbled replies naming the
// lane, failed batches reading every owed reply, registered-lane
// drop/redial, the no-workers structural failure, concurrent clients
// sharing the lanes, and churn against REAL `quorum_worker` TCP
// processes (SIGKILL mid-use, restart, rejoin).
//
// In-process cases run the worker side inline (exec::worker_session
// behind fault-injecting transports), so the whole fault model executes
// under the sanitizer job.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "exec/fleet.h"
#include "exec/registry.h"
#include "exec/serialise.h"
#include "exec/tcp_transport.h"
#include "qml/amplitude_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "util/contracts.h"
#include "util/net.h"
#include "util/rng.h"

namespace {

using namespace quorum;

struct fleet_batch_fixture {
    qml::ansatz_params params;
    std::vector<std::vector<double>> amplitudes;

    explicit fleet_batch_fixture(std::uint64_t seed,
                                 std::size_t samples = 12) {
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

exec::program fleet_analytic_program(const qml::ansatz_params& params,
                                     std::size_t level) {
    exec::program program;
    program.circuit = qsim::compiled_program::compile(
        qml::autoencoder_reg_a_template(params, level));
    program.readout.kind = exec::readout_kind::prep_overlap_p1;
    return program;
}

/// Shared fault plan for the in-process fleet lanes: the next
/// `kill_replies` SPAN replies (never handshake acks) are replaced by a
/// thrown transport_error, simulating the worker dying mid-span; the
/// next `error_replies` / `garbage_replies` by a worker error reply /
/// bytes that are no reply at all.
struct fleet_fault_plan {
    std::atomic<int> kill_replies{0};
    std::atomic<int> error_replies{0};
    std::atomic<int> garbage_replies{0};
    std::atomic<int> constructed{0};
};

/// Spends one unit of an injection budget; false once it is used up.
bool take(std::atomic<int>& budget) {
    int left = budget.load();
    while (left > 0 && !budget.compare_exchange_weak(left, left - 1)) {
    }
    return left > 0;
}

class fleet_loopback_transport : public exec::wire_transport {
public:
    explicit fleet_loopback_transport(fleet_fault_plan* plan = nullptr)
        : plan_(plan) {}

    void send_message(std::span<const std::uint8_t> payload) override {
        replies_.push_back(session_.handle(payload));
    }

    [[nodiscard]] std::vector<std::uint8_t> recv_message() override {
        if (replies_.empty()) {
            throw exec::transport_error("no reply queued");
        }
        std::vector<std::uint8_t> reply = std::move(replies_.front());
        replies_.pop_front();
        const bool is_ack =
            !reply.empty() &&
            reply[0] ==
                static_cast<std::uint8_t>(exec::wire::message::hello_ack);
        if (plan_ != nullptr && !is_ack) {
            if (take(plan_->kill_replies)) {
                throw exec::transport_error(
                    "injected: worker died mid-span");
            }
            if (take(plan_->error_replies)) {
                return exec::wire::encode_error_reply(
                    "injected: engine failure");
            }
            if (take(plan_->garbage_replies)) {
                return {0x7C, 0xDE, 0xAD};
            }
        }
        return reply;
    }

private:
    fleet_fault_plan* plan_;
    exec::worker_session session_;
    std::deque<std::vector<std::uint8_t>> replies_;
};

exec::transport_factory
fleet_loopback_factory(fleet_fault_plan* plan = nullptr) {
    return [plan](std::size_t) -> std::unique_ptr<exec::wire_transport> {
        if (plan != nullptr) {
            ++plan->constructed;
        }
        return std::make_unique<fleet_loopback_transport>(plan);
    };
}

std::shared_ptr<exec::worker_fleet>
make_loopback_fleet(std::size_t lanes, exec::fleet_config config = {},
                    fleet_fault_plan* plan = nullptr) {
    auto fleet = std::make_shared<exec::worker_fleet>(config);
    for (std::size_t i = 0; i < lanes; ++i) {
        fleet->add_factory_lane(fleet_loopback_factory(plan),
                                "loopback #" + std::to_string(i));
    }
    fleet->wait_for_lanes(lanes, 5000);
    return fleet;
}

// --- fleet-size invariance --------------------------------------------------

TEST(FleetExecutor, ExactScoresAreFleetSizeInvariant) {
    const fleet_batch_fixture fixture(101);
    const exec::program program =
        fleet_analytic_program(fixture.params, 1);
    std::vector<double> reference(fixture.amplitudes.size());
    exec::make_executor("statevector", exec::engine_config{})
        ->run_batch(program, fixture.make_samples(), reference);

    for (const std::size_t lanes : {1u, 2u, 4u}) {
        const exec::fleet_executor engine(make_loopback_fleet(lanes));
        EXPECT_EQ(engine.name(), "fleet:statevector");
        std::vector<double> out(fixture.amplitudes.size());
        engine.run_batch(program, fixture.make_samples(), out);
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(out[i], reference[i])
                << "lanes=" << lanes << " sample=" << i;
        }
    }
}

TEST(FleetExecutor, SampledScoresAreFleetSizeInvariant) {
    const fleet_batch_fixture fixture(103);
    exec::fleet_config config;
    config.engine.sampling_mode = exec::sampling::binomial;
    config.engine.shots = 512;
    const exec::program program =
        fleet_analytic_program(fixture.params, 1);
    std::vector<double> reference(fixture.amplitudes.size());
    {
        const auto inner =
            exec::make_executor("statevector", config.engine);
        std::vector<util::rng> gens = fixture.make_gens(11);
        inner->run_batch(program, fixture.make_samples(&gens), reference);
    }
    for (const std::size_t lanes : {1u, 2u, 4u}) {
        const exec::fleet_executor engine(
            make_loopback_fleet(lanes, config));
        std::vector<util::rng> gens = fixture.make_gens(11);
        std::vector<double> out(fixture.amplitudes.size());
        engine.run_batch(program, fixture.make_samples(&gens), out);
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(out[i], reference[i])
                << "lanes=" << lanes << " sample=" << i;
        }
    }
}

TEST(FleetExecutor, LevelFamiliesMatchTheInnerBackendBitForBit) {
    const fleet_batch_fixture fixture(105, 8);
    exec::fleet_config config;
    config.engine.sampling_mode = exec::sampling::binomial;
    config.engine.shots = 128;
    const std::vector<exec::program> family = {
        fleet_analytic_program(fixture.params, 1),
        fleet_analytic_program(fixture.params, 2)};

    const auto make_level_gens = [&](std::vector<util::rng>& gens,
                                     std::vector<util::rng*>& ptrs) {
        gens.clear();
        ptrs.clear();
        for (std::size_t i = 0; i < fixture.amplitudes.size() * 2; ++i) {
            gens.emplace_back(util::derive_seed(55, i));
        }
        for (util::rng& gen : gens) {
            ptrs.push_back(&gen);
        }
    };
    std::vector<util::rng> gens;
    std::vector<util::rng*> ptrs;

    std::vector<double> reference(fixture.amplitudes.size() * 2);
    {
        const auto inner =
            exec::make_executor("statevector", config.engine);
        make_level_gens(gens, ptrs);
        std::vector<exec::sample> batch = fixture.make_samples();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            batch[i].level_gens =
                std::span<util::rng* const>(ptrs.data() + i * 2, 2);
        }
        inner->run_batch_levels(family, batch, reference);
    }
    for (const std::size_t lanes : {1u, 3u}) {
        const exec::fleet_executor engine(
            make_loopback_fleet(lanes, config));
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
                << "lanes=" << lanes << " slot=" << i;
        }
    }
}

// --- fault model ------------------------------------------------------------

TEST(FleetFaults, WorkerDeathRequeuesTheSpanAndTheLaneRejoins) {
    // One injected mid-span death in a 2-lane fleet: the span is requeued
    // exactly once and re-run by a live lane (possibly the reconnected
    // one), scores stay bit-identical, and the dead lane REJOINS through
    // its factory — the fleet is back to full strength afterwards.
    const fleet_batch_fixture fixture(107);
    const exec::program program =
        fleet_analytic_program(fixture.params, 1);
    std::vector<double> reference(fixture.amplitudes.size());
    exec::make_executor("statevector", exec::engine_config{})
        ->run_batch(program, fixture.make_samples(), reference);

    fleet_fault_plan plan;
    const std::shared_ptr<exec::worker_fleet> fleet =
        make_loopback_fleet(2, {}, &plan);
    plan.kill_replies = 1;
    const exec::fleet_executor engine(fleet);
    std::vector<double> out(fixture.amplitudes.size());
    engine.run_batch(program, fixture.make_samples(), out);
    EXPECT_EQ(fleet->requeued_spans(), 1u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], reference[i]) << i;
    }
    fleet->wait_for_lanes(2, 5000); // the dead lane reconnected
    EXPECT_GE(plan.constructed.load(), 3); // 2 lanes + >= 1 rejoin
}

TEST(FleetFaults, SecondDeathIsAStructuredErrorNamingWorkerAndSpan) {
    // Every span reply dies: the single lane's span is requeued once,
    // the lane rejoins, the re-run dies again — requeue exhausted. The
    // failure must be a contract_error naming the lane label and the
    // sample span, exactly like the remote backend's fault contract.
    const fleet_batch_fixture fixture(109, 6);
    fleet_fault_plan plan;
    exec::fleet_config config;
    config.rejoin_attempts = 10;
    config.rejoin_delay_ms = 10;
    const std::shared_ptr<exec::worker_fleet> fleet =
        make_loopback_fleet(1, config, &plan);
    plan.kill_replies = 1000000;
    const exec::fleet_executor engine(fleet);
    std::vector<double> out(fixture.amplitudes.size());
    try {
        engine.run_batch(fleet_analytic_program(fixture.params, 1),
                         fixture.make_samples(), out);
        FAIL() << "expected contract_error";
    } catch (const util::contract_error& error) {
        EXPECT_NE(std::strstr(error.what(), "fleet worker loopback #0"),
                  nullptr)
            << error.what();
        EXPECT_NE(std::strstr(error.what(), "samples [0, 6)"), nullptr)
            << error.what();
        EXPECT_NE(std::strstr(error.what(), "requeue exhausted"), nullptr)
            << error.what();
    }
    EXPECT_EQ(fleet->requeued_spans(), 1u);
}

TEST(FleetFaults, SpanFailuresNameTheLaneAndTheSpan) {
    // An error reply and a garbled reply are protocol failures, not
    // deaths: no requeue, no reconnect, and each failure names the lane
    // that sent the reply and the sample span.
    const fleet_batch_fixture fixture(117, 6);
    const exec::program program =
        fleet_analytic_program(fixture.params, 1);
    fleet_fault_plan plan;
    const std::shared_ptr<exec::worker_fleet> fleet =
        make_loopback_fleet(1, {}, &plan);
    const exec::fleet_executor engine(fleet);
    std::vector<double> out(fixture.amplitudes.size());
    const std::pair<std::atomic<int>*, const char*> faults[] = {
        {&plan.error_replies, "injected: engine failure"},
        {&plan.garbage_replies, "unexpected reply type"}};
    for (const auto& [budget, why] : faults) {
        *budget = 1;
        try {
            engine.run_batch(program, fixture.make_samples(), out);
            FAIL() << "expected contract_error";
        } catch (const util::contract_error& error) {
            EXPECT_NE(std::strstr(error.what(), "loopback #0"), nullptr)
                << error.what();
            EXPECT_NE(std::strstr(error.what(), "samples [0, 6)"), nullptr)
                << error.what();
            EXPECT_NE(std::strstr(error.what(), why), nullptr)
                << error.what();
        }
    }
    EXPECT_EQ(fleet->requeued_spans(), 0u);
    EXPECT_EQ(plan.constructed.load(), 1);
}

TEST(FleetFaults, FailedBatchReadsEveryOwedReplyBeforeThrowing) {
    // Two idle lanes: the batch sends both spans before it reads a
    // reply. Span 0's reply is garbled, so the batch fails while span 1's
    // reply is still owed. The fleet must read it before throwing — a
    // follow-up batch over DIFFERENT samples would otherwise take that
    // stale reply (right count, wrong values) as its own.
    const fleet_batch_fixture failed(119);
    const fleet_batch_fixture next(121);
    const exec::program next_program =
        fleet_analytic_program(next.params, 1);
    std::vector<double> reference(next.amplitudes.size());
    exec::make_executor("statevector", exec::engine_config{})
        ->run_batch(next_program, next.make_samples(), reference);

    fleet_fault_plan plan;
    const std::shared_ptr<exec::worker_fleet> fleet =
        make_loopback_fleet(2, {}, &plan);
    const exec::fleet_executor engine(fleet);
    plan.garbage_replies = 1;
    std::vector<double> out(failed.amplitudes.size());
    EXPECT_THROW(engine.run_batch(fleet_analytic_program(failed.params, 1),
                                  failed.make_samples(), out),
                 util::contract_error);
    engine.run_batch(next_program, next.make_samples(), out);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], reference[i]) << i;
    }
    EXPECT_EQ(fleet->lane_count(), 2u); // no lane was reset
    EXPECT_EQ(plan.constructed.load(), 2);
}

TEST(FleetFaults, RegisteredLaneDeathDropsTheLaneUntilItRedials) {
    // A registered lane (worker dialed in) has no factory: when it dies
    // the lane is gone and — with nobody else live — its requeued span
    // fails structurally. "Redialing" (a fresh add_lane) restores the
    // fleet without restarting it.
    const fleet_batch_fixture fixture(111, 6);
    const exec::program program =
        fleet_analytic_program(fixture.params, 1);
    std::vector<double> reference(fixture.amplitudes.size());
    exec::make_executor("statevector", exec::engine_config{})
        ->run_batch(program, fixture.make_samples(), reference);

    fleet_fault_plan plan;
    auto fleet = std::make_shared<exec::worker_fleet>(exec::fleet_config{});
    fleet->add_lane(std::make_unique<fleet_loopback_transport>(&plan),
                    "registered #1");
    fleet->wait_for_lanes(1, 5000);
    plan.kill_replies = 1000000;

    const exec::fleet_executor engine(fleet);
    std::vector<double> out(fixture.amplitudes.size());
    try {
        engine.run_batch(program, fixture.make_samples(), out);
        FAIL() << "expected contract_error";
    } catch (const util::contract_error& error) {
        EXPECT_NE(std::strstr(error.what(), "no live workers"), nullptr)
            << error.what();
    }
    EXPECT_EQ(fleet->lane_count(), 0u);

    // The worker dials back in: a fresh registered lane, same fleet.
    plan.kill_replies = 0;
    fleet->add_lane(std::make_unique<fleet_loopback_transport>(&plan),
                    "registered #2");
    fleet->wait_for_lanes(1, 5000);
    engine.run_batch(program, fixture.make_samples(), out);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], reference[i]) << i;
    }
}

TEST(FleetFaults, NoWorkersFailsStructurallyInsteadOfHanging) {
    const fleet_batch_fixture fixture(113, 4);
    const auto fleet =
        std::make_shared<exec::worker_fleet>(exec::fleet_config{});
    const exec::fleet_executor engine(fleet);
    std::vector<double> out(fixture.amplitudes.size());
    try {
        engine.run_batch(fleet_analytic_program(fixture.params, 1),
                         fixture.make_samples(), out);
        FAIL() << "expected contract_error";
    } catch (const util::contract_error& error) {
        EXPECT_NE(std::strstr(error.what(), "no live workers"), nullptr)
            << error.what();
    }
}

TEST(FleetFaults, HandshakeVersionMismatchSurfacesThroughWaitForLanes) {
    /// A "worker" that acks every hello with a forged future protocol
    /// version: the lane must never go live, and the structured failure
    /// (naming the version and the lane) is reported by wait_for_lanes.
    class bad_version_transport : public exec::wire_transport {
    public:
        void send_message(std::span<const std::uint8_t> /*payload*/)
            override {}
        [[nodiscard]] std::vector<std::uint8_t> recv_message() override {
            exec::wire::writer forged;
            forged.u8(static_cast<std::uint8_t>(
                exec::wire::message::hello_ack));
            forged.u32(exec::wire::protocol_magic);
            forged.u32(exec::wire::protocol_version + 9);
            return forged.take();
        }
    };
    const auto fleet =
        std::make_shared<exec::worker_fleet>(exec::fleet_config{});
    fleet->add_lane(std::make_unique<bad_version_transport>(),
                    "future-worker");
    try {
        fleet->wait_for_lanes(1, 2000);
        FAIL() << "expected contract_error";
    } catch (const util::contract_error& error) {
        EXPECT_NE(std::strstr(error.what(), "protocol version"), nullptr)
            << error.what();
        EXPECT_NE(std::strstr(error.what(), "future-worker"), nullptr)
            << error.what();
    }
    EXPECT_EQ(fleet->lane_count(), 0u);
}

TEST(FleetFaults, ConfigRejectsNestingAndDegenerateBounds) {
    exec::fleet_config nested;
    nested.inner = "remote:statevector";
    EXPECT_THROW(exec::worker_fleet{nested}, util::contract_error);
    nested.inner = "fleet";
    EXPECT_THROW(exec::worker_fleet{nested}, util::contract_error);
    exec::fleet_config negative;
    negative.rejoin_attempts = -1;
    EXPECT_THROW(exec::worker_fleet{negative}, util::contract_error);
}

// --- concurrency ------------------------------------------------------------

TEST(FleetStress, ConcurrentClientsAreBitIdenticalToSequentialRuns) {
    // Four client threads hammer ONE shared 2-lane fleet, so callers
    // constantly wait for lanes other batches hold. Every client's scores
    // must equal its own sequential reference bit for bit, and the whole
    // thing must finish without deadlock — a caller blocks only while it
    // holds no lane, which is what keeps lane checkout deadlock-free.
    exec::fleet_config config;
    config.engine.sampling_mode = exec::sampling::binomial;
    config.engine.shots = 256;
    const std::shared_ptr<exec::worker_fleet> fleet =
        make_loopback_fleet(2, config);
    const exec::fleet_executor engine(fleet);

    constexpr int clients = 4;
    constexpr int rounds = 3;
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int client = 0; client < clients; ++client) {
        threads.emplace_back([&, client] {
            const fleet_batch_fixture fixture(
                200 + static_cast<std::uint64_t>(client));
            const exec::program program =
                fleet_analytic_program(fixture.params, 1);
            std::vector<double> reference(fixture.amplitudes.size());
            {
                const auto inner =
                    exec::make_executor("statevector", config.engine);
                std::vector<util::rng> gens = fixture.make_gens(
                    static_cast<std::uint64_t>(client) + 31);
                inner->run_batch(program, fixture.make_samples(&gens),
                                 reference);
            }
            for (int round = 0; round < rounds; ++round) {
                std::vector<util::rng> gens = fixture.make_gens(
                    static_cast<std::uint64_t>(client) + 31);
                std::vector<double> out(fixture.amplitudes.size());
                engine.run_batch(program, fixture.make_samples(&gens),
                                 out);
                for (std::size_t i = 0; i < out.size(); ++i) {
                    EXPECT_EQ(out[i], reference[i])
                        << "client=" << client << " round=" << round
                        << " sample=" << i;
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
}

// --- real TCP workers under churn -------------------------------------------

#ifdef QUORUM_WORKER_BIN

/// Spawns `quorum_worker --listen 127.0.0.1:<port>` (0 = ephemeral) and
/// parses the bound port from its announcement line.
class fleet_listen_worker {
public:
    explicit fleet_listen_worker(std::uint16_t port = 0) {
        int out_pipe[2];
        if (::pipe(out_pipe) != 0) {
            throw std::runtime_error("pipe failed");
        }
        const std::string where =
            "127.0.0.1:" + std::to_string(port);
        pid_ = ::fork();
        if (pid_ == 0) {
            ::dup2(out_pipe[1], STDOUT_FILENO);
            ::close(out_pipe[0]);
            ::close(out_pipe[1]);
            ::execl(QUORUM_WORKER_BIN, QUORUM_WORKER_BIN, "--listen",
                    where.c_str(), static_cast<char*>(nullptr));
            std::perror("execl quorum_worker");
            ::_exit(127);
        }
        ::close(out_pipe[1]);
        std::string line;
        char byte = 0;
        while (::read(out_pipe[0], &byte, 1) == 1 && byte != '\n') {
            line.push_back(byte);
        }
        ::close(out_pipe[0]);
        const std::string tag = "listening on 127.0.0.1:";
        const std::size_t at = line.find(tag);
        if (at == std::string::npos) {
            throw std::runtime_error(
                "worker did not announce its port: " + line);
        }
        endpoint_.host = "127.0.0.1";
        endpoint_.port = static_cast<std::uint16_t>(
            std::stoul(line.substr(at + tag.size())));
    }

    ~fleet_listen_worker() { kill_now(); }

    fleet_listen_worker(const fleet_listen_worker&) = delete;
    fleet_listen_worker& operator=(const fleet_listen_worker&) = delete;

    [[nodiscard]] const util::endpoint& where() const { return endpoint_; }
    void kill_now() {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
            pid_ = -1;
        }
    }

private:
    pid_t pid_ = -1;
    util::endpoint endpoint_;
};

TEST(FleetTcp, KilledWorkerRequeuesToSurvivorAndRejoinsAfterRestart) {
    // The full churn story over real sockets: a 2-worker TCP fleet
    // scores a batch; one worker is SIGKILLed; the next batch still
    // lands bit-identically (spans requeue to the survivor while the
    // dead lane's factory retries); the worker is restarted ON THE SAME
    // PORT (SO_REUSEADDR) and the lane rejoins; a third batch is again
    // bit-identical with the fleet back at full strength.
    const fleet_batch_fixture fixture(115);
    const exec::program program =
        fleet_analytic_program(fixture.params, 1);
    std::vector<double> reference(fixture.amplitudes.size());
    exec::make_executor("statevector", exec::engine_config{})
        ->run_batch(program, fixture.make_samples(), reference);

    auto worker_a = std::make_unique<fleet_listen_worker>();
    fleet_listen_worker worker_b;
    const std::uint16_t port_a = worker_a->where().port;
    const std::vector<util::endpoint> endpoints = {worker_a->where(),
                                                   worker_b.where()};
    exec::fleet_config config;
    config.rejoin_attempts = 100;
    config.rejoin_delay_ms = 100;
    const auto fleet = std::make_shared<exec::worker_fleet>(config);
    for (std::size_t lane = 0; lane < 2; ++lane) {
        fleet->add_factory_lane(
            exec::tcp_transport_factory(endpoints),
            endpoints[lane].str());
    }
    fleet->wait_for_lanes(2, 10000);

    const exec::fleet_executor engine(fleet);
    const auto expect_batch = [&](const char* when) {
        std::vector<double> out(fixture.amplitudes.size());
        engine.run_batch(program, fixture.make_samples(), out);
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(out[i], reference[i]) << when << " sample=" << i;
        }
    };

    expect_batch("healthy fleet");
    worker_a->kill_now();
    expect_batch("after SIGKILL");
    worker_a = std::make_unique<fleet_listen_worker>(port_a);
    fleet->wait_for_lanes(2, 30000);
    expect_batch("after rejoin");
}

#endif // QUORUM_WORKER_BIN

} // namespace
