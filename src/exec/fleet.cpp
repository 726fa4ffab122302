#include "exec/fleet.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <utility>

#include "exec/registry.h"
#include "exec/serialise.h"
#include "util/contracts.h"

namespace quorum::exec {

namespace {

util::contract_error span_error(const std::string& who,
                                const shard_work& span,
                                const std::string& why) {
    return util::contract_error(
        who + " (samples [" + std::to_string(span.first) + ", " +
        std::to_string(span.first + span.count) + ")) failed: " + why);
}

/// Validates one reply and writes its span's slice into `out`. Error
/// replies and malformed results are protocol failures, not transience:
/// they fail the span (no retry), naming the lane that sent them.
void decode_result_into(std::span<const std::uint8_t> reply,
                        const std::string& lane, const shard_work& span,
                        std::size_t values_per_sample,
                        std::span<double> out) {
    const std::string who = "fleet worker " + lane;
    if (reply.empty()) {
        throw span_error(who, span, "empty reply");
    }
    wire::reader in(reply);
    const std::uint8_t type = in.u8();
    if (type == static_cast<std::uint8_t>(wire::message::error)) {
        std::string message = "malformed error reply";
        try {
            message = in.str();
        } catch (const util::contract_error&) {
        }
        throw span_error(who, span, message);
    }
    if (type != static_cast<std::uint8_t>(wire::message::result)) {
        throw span_error(who, span,
                         "unexpected reply type " + std::to_string(type));
    }
    try {
        const std::uint64_t count = in.u64();
        QUORUM_EXPECTS_MSG(count == span.count * values_per_sample,
                           "result count does not match the span");
        in.expect_available(count, 8);
        double* slot = out.data() + span.first * values_per_sample;
        for (std::uint64_t i = 0; i < count; ++i) {
            slot[i] = in.f64();
        }
        in.expect_done();
    } catch (const util::contract_error& error) {
        throw span_error(who, span,
                         std::string("malformed reply: ") + error.what());
    }
}

} // namespace

// --- worker_fleet -----------------------------------------------------------

worker_fleet::worker_fleet(fleet_config config) : config_(std::move(config)) {
    QUORUM_EXPECTS_MSG(is_plain_engine_name(config_.inner),
                       "the fleet wraps one plain inner backend name (no "
                       "nesting)");
    QUORUM_EXPECTS_MSG(config_.rejoin_attempts >= 0 &&
                           config_.rejoin_delay_ms >= 0,
                       "fleet rejoin parameters must be non-negative");
    hello_ = wire::encode_hello(config_.inner, config_.engine);
}

worker_fleet::~worker_fleet() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        for (const std::unique_ptr<lane_state>& lane : lanes_) {
            lane->wake.notify_one();
        }
    }
    idle_cv_.notify_all();
    lanes_cv_.notify_all();
    for (const std::unique_ptr<lane_state>& lane : lanes_) {
        if (lane->thread.joinable()) {
            lane->thread.join();
        }
    }
}

void worker_fleet::add_factory_lane(transport_factory factory,
                                    std::string label) {
    QUORUM_EXPECTS_MSG(static_cast<bool>(factory),
                       "fleet lane needs a transport factory");
    auto lane = std::make_unique<lane_state>();
    lane->label = std::move(label);
    lane->factory = std::move(factory);
    lane_state* raw = lane.get();
    const std::lock_guard<std::mutex> lock(mutex_);
    QUORUM_EXPECTS_MSG(!stopping_, "fleet is shutting down");
    raw->factory_index = lanes_.size();
    ++pending_lanes_;
    lanes_.push_back(std::move(lane));
    raw->thread = std::thread([this, raw] { lane_main(*raw); });
}

void worker_fleet::add_lane(std::unique_ptr<wire_transport> transport,
                            std::string label) {
    QUORUM_EXPECTS_MSG(transport != nullptr,
                       "fleet lane needs a transport");
    auto lane = std::make_unique<lane_state>();
    lane->label = std::move(label);
    lane->transport = std::move(transport);
    lane_state* raw = lane.get();
    const std::lock_guard<std::mutex> lock(mutex_);
    QUORUM_EXPECTS_MSG(!stopping_, "fleet is shutting down");
    ++pending_lanes_;
    lanes_.push_back(std::move(lane));
    raw->thread = std::thread([this, raw] { lane_main(*raw); });
}

std::size_t worker_fleet::lane_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return live_lanes_;
}

std::size_t worker_fleet::owned_lanes() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return live_lanes_ + pending_lanes_;
}

std::size_t worker_fleet::requeued_spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return requeued_;
}

fleet_stats worker_fleet::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    fleet_stats snapshot;
    snapshot.live_lanes = live_lanes_;
    snapshot.requeued_spans = requeued_;
    snapshot.lanes.reserve(lanes_.size());
    for (const std::unique_ptr<lane_state>& lane : lanes_) {
        const std::size_t completed = lane->completed.load();
        snapshot.lanes.push_back(
            fleet_lane_stats{lane->label, completed, lane->live});
        snapshot.spans_completed += completed;
    }
    return snapshot;
}

void worker_fleet::wait_for_lanes(std::size_t lanes, int timeout_ms) const {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool ready =
        lanes_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           [&] { return live_lanes_ >= lanes; });
    QUORUM_EXPECTS_MSG(
        ready, "fleet: timed out waiting for " + std::to_string(lanes) +
                   " live workers (have " + std::to_string(live_lanes_) +
                   (last_lane_error_.empty()
                        ? std::string(")")
                        : "; last failure: " + last_lane_error_ + ")"));
}

std::string worker_fleet::no_workers_message() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    QUORUM_EXPECTS_MSG(!stopping_, "fleet is shutting down");
    std::string message = "fleet has no live workers";
    if (!last_lane_error_.empty()) {
        message += " (last failure: " + last_lane_error_ + ")";
    }
    return message;
}

void worker_fleet::note_lane_gone_locked() {
    lanes_cv_.notify_all();
    if (no_lanes_locked()) {
        idle_cv_.notify_all();
    }
}

void worker_fleet::lane_main(lane_state& lane) {
    int failures = 0;
    for (;;) {
        // Connect + handshake. Factory lanes retry (bounded) — this is
        // both the initial connect and the post-death rejoin; registered
        // lanes get exactly the one connection their worker dialed in.
        try {
            if (lane.transport == nullptr) {
                lane.transport = lane.factory(lane.factory_index);
                QUORUM_EXPECTS_MSG(lane.transport != nullptr,
                                   "transport factory returned null");
            }
            lane.transport->send_message(hello_);
            wire::check_hello_ack(lane.transport->recv_message(),
                                  "fleet worker " + lane.label);
        } catch (const std::exception& error) {
            lane.transport.reset();
            std::unique_lock<std::mutex> lock(mutex_);
            last_lane_error_ = lane.label + ": " + error.what();
            ++failures;
            if (stopping_ || lane.factory == nullptr ||
                failures > config_.rejoin_attempts) {
                --pending_lanes_;
                note_lane_gone_locked();
                return;
            }
            lock.unlock();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(config_.rejoin_delay_ms));
            continue;
        }
        failures = 0;
        std::unique_lock<std::mutex> lock(mutex_);
        --pending_lanes_;
        ++live_lanes_;
        lane.live = true;
        idle_.push_back(&lane);
        idle_cv_.notify_one();
        lanes_cv_.notify_all();
        // Serving happens on the callers' threads; this one sleeps until
        // a caller reports the worker dead or the fleet stops.
        lane.wake.wait(lock, [&] { return stopping_ || !lane.live; });
        if (lane.live) {
            // Fleet shutdown with the lane idle: tell the worker to exit
            // cleanly (EOF on transport destruction also works, so
            // failures are ignorable).
            lane.live = false;
            --live_lanes_;
            lock.unlock();
            try {
                lane.transport->send_message(wire::encode_shutdown());
            } catch (...) { // NOLINT(bugprone-empty-catch)
            }
            return;
        }
        // lane_died already moved the lane from live to pending.
        // Registered lanes drop out (their worker rejoins by dialing in
        // again); factory lanes go back to the top and reconnect.
        lock.unlock();
        lane.transport.reset();
        lock.lock();
        if (lane.factory == nullptr || stopping_) {
            --pending_lanes_;
            note_lane_gone_locked();
            return;
        }
    }
}

worker_fleet::lane_state* worker_fleet::checkout(bool wait) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (wait) {
        idle_cv_.wait(lock, [&] {
            return stopping_ || !idle_.empty() || no_lanes_locked();
        });
    }
    if (stopping_ || idle_.empty()) {
        return nullptr;
    }
    lane_state* lane = idle_.front();
    idle_.pop_front();
    return lane;
}

void worker_fleet::checkin(lane_state& lane) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        idle_.push_back(&lane);
    }
    // Wakes at most one waiting caller; lane threads wait on their own
    // condition variables and never see this.
    idle_cv_.notify_one();
}

void worker_fleet::lane_died(lane_state& lane, const std::string& why) {
    const std::lock_guard<std::mutex> lock(mutex_);
    last_lane_error_ = lane.label + ": " + why;
    lane.live = false;
    --live_lanes_;
    ++pending_lanes_; // until its thread reconnects or drops it
    lane.wake.notify_one();
}

void worker_fleet::run_spans(
    std::span<const shard_work> plan,
    std::span<const std::vector<std::uint8_t>> requests,
    std::size_t values_per_sample, std::span<double> out) {
    QUORUM_EXPECTS_MSG(plan.size() == requests.size(),
                       "fleet: one request per planned span");
    struct sent_span {
        std::size_t index;
        lane_state* lane;
    };
    std::deque<sent_span> in_flight; // oldest first
    std::vector<std::size_t> resend; // requeued spans not yet re-sent
    std::vector<bool> requeued(plan.size(), false);
    std::size_t next = 0;
    std::exception_ptr failure;

    const auto has_unsent = [&] {
        return failure == nullptr && (!resend.empty() || next < plan.size());
    };
    const auto take_unsent = [&] {
        if (resend.empty()) {
            return next++;
        }
        const std::size_t k = resend.back();
        resend.pop_back();
        return k;
    };
    // The span's lane died: requeue it ONCE onto any live lane; a second
    // death fails the batch (a failing batch sends nothing more).
    const auto requeue = [&](std::size_t k, lane_state& lane,
                             const std::string& why) {
        lane_died(lane, why);
        if (failure != nullptr) {
            return;
        }
        if (!requeued[k]) {
            requeued[k] = true;
            resend.push_back(k);
            const std::lock_guard<std::mutex> lock(mutex_);
            ++requeued_;
            return;
        }
        failure = std::make_exception_ptr(
            span_error("fleet worker " + lane.label, plan[k],
                       "worker died (requeue exhausted): " + why));
    };
    const auto send = [&](std::size_t k, lane_state& lane) {
        try {
            lane.transport->send_message(requests[k]);
            in_flight.push_back(sent_span{k, &lane});
        } catch (const std::exception& error) {
            requeue(k, lane, error.what());
        }
    };

    for (;;) {
        // Put every idle lane to work; block only while this batch holds
        // no lane at all (it would otherwise read its own replies).
        while (has_unsent()) {
            lane_state* lane = checkout(in_flight.empty());
            if (lane != nullptr) {
                send(take_unsent(), *lane);
            } else if (in_flight.empty()) {
                throw span_error("fleet span", plan[take_unsent()],
                                 no_workers_message());
            } else {
                break;
            }
        }
        if (in_flight.empty()) {
            break;
        }
        const sent_span oldest = in_flight.front();
        in_flight.pop_front();
        lane_state& lane = *oldest.lane;
        std::vector<std::uint8_t> reply;
        try {
            reply = lane.transport->recv_message();
        } catch (const std::exception& error) {
            requeue(oldest.index, lane, error.what());
            continue;
        }
        ++lane.completed;
        if (failure == nullptr) {
            try {
                decode_result_into(reply, lane.label, plan[oldest.index],
                                   values_per_sample, out);
            } catch (...) {
                failure = std::current_exception();
            }
        }
        if (has_unsent()) {
            send(take_unsent(), lane);
        } else {
            checkin(lane);
        }
    }
    if (failure != nullptr) {
        std::rethrow_exception(failure);
    }
}

// --- fleet_executor ---------------------------------------------------------

fleet_executor::fleet_executor(std::shared_ptr<worker_fleet> fleet)
    : fleet_(std::move(fleet)) {
    QUORUM_EXPECTS_MSG(fleet_ != nullptr, "fleet executor needs a fleet");
    const fleet_config& config = fleet_->config();
    spec_ = "fleet:" + config.inner;
    planner_ = span_planner(config.engine.schedule);
    needs_rng_ = config.engine.sampling_mode != sampling::exact;
    probe_ = make_executor(config.inner, config.engine);
}

fleet_executor::fleet_executor(const engine_config& config,
                               const std::string& inner,
                               transport_factory factory)
    : fleet_executor(
          std::make_shared<worker_fleet>(fleet_config{inner, config})) {
    QUORUM_EXPECTS_MSG(static_cast<bool>(factory),
                       "remote backend needs a transport factory");
    spec_ = "remote:" + inner;
    private_lanes_ = resolve_lane_count(config.shards, max_remote_workers);
    factory_ = std::move(factory);
}

worker_fleet& fleet_executor::started_fleet() const {
    if (private_lanes_ != 0) {
        std::call_once(started_, [this] {
            for (std::size_t i = 0; i < private_lanes_; ++i) {
                fleet_->add_factory_lane(factory_,
                                         "remote worker " + std::to_string(i));
            }
        });
    }
    return *fleet_;
}

std::size_t fleet_executor::worker_count() const {
    const std::size_t owned = fleet_->owned_lanes();
    return owned != 0 ? owned : private_lanes_;
}

void fleet_executor::dispatch(std::span<const std::uint8_t> blob,
                              std::span<const sample> samples,
                              std::size_t levels,
                              std::span<double> out) const {
    worker_fleet& fleet = started_fleet();
    // Keyed by sample index only, so scores are invariant to the fleet
    // size and the schedule.
    const std::vector<shard_work> plan = planner_.plan(
        samples.size(), std::max<std::size_t>(worker_count(), 1));
    std::vector<std::vector<std::uint8_t>> requests;
    requests.reserve(plan.size());
    for (const shard_work& span : plan) {
        requests.push_back(wire::encode_span_request(
            span, blob, samples.subspan(span.first, span.count), levels,
            needs_rng_));
    }
    fleet.run_spans(plan, requests, std::max<std::size_t>(levels, 1), out);
}

void fleet_executor::run_batch(const program& prog,
                               std::span<const sample> samples,
                               std::span<double> out) const {
    validate_batch(prog, samples, out, needs_rng_);
    if (samples.empty()) {
        return;
    }
    wire::writer block;
    wire::encode_program(block, prog);
    dispatch(block.take(), samples, 0, out);
}

void fleet_executor::run_batch_levels(std::span<const program> levels,
                                      std::span<const sample> samples,
                                      std::span<double> out) const {
    validate_level_batch(levels, samples, out, needs_rng_);
    if (samples.empty()) {
        return;
    }
    wire::writer block;
    block.u32(static_cast<std::uint32_t>(levels.size()));
    for (const program& level : levels) {
        wire::encode_program(block, level);
    }
    dispatch(block.take(), samples, levels.size(), out);
}

} // namespace quorum::exec
