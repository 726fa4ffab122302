// Worker fleet: the one path that ships spans of a batch to worker
// processes, for the `remote:<inner>` backend and for quorum_serve.
//
// The fleet owns long-lived lanes, each a wire_transport plus a thread,
// and multiplexes ANY number of concurrent batches across them. Any live
// lane may execute any span; results are keyed by sample index alone,
// and every double travels as its IEEE-754 bit pattern — so scores are
// IEEE == to the plain backend for any fleet size and any interleaving
// of concurrent callers (tests/exec/test_fleet_faults.cpp, tests/core/
// test_serve_golden.cpp).
//
// Span I/O runs on the CALLING thread (worker_fleet::run_spans): it
// checks out idle live lanes, sends one span on each, reads the replies
// oldest-first and sends the next unsent span on each lane it frees.
// Lane threads only connect, handshake and rejoin, so a span costs no
// thread hand-off on the coordinator side.
//
// Lanes come in two flavours:
//   * factory lanes (add_factory_lane) create their transport through a
//     transport_factory — spawned subprocesses or outbound TCP connects —
//     and RECONNECT through it after a worker death (bounded attempts),
//     rejoining the fleet;
//   * registered lanes (add_lane) adopt a connection a worker dialed in
//     on; when that worker dies the lane is dropped, and the worker
//     rejoins by dialing in again.
//
// Fault model: a span whose lane dies mid-flight is requeued ONCE and
// any live lane re-runs it (spans are idempotent — same plan, same RNG
// snapshots, same bits). A second death, an error reply or a malformed
// reply fails that span's batch with a structured util::contract_error
// naming the lane and sample span, leaving other in-flight batches
// untouched; a failed batch sends none of its remaining spans and reads
// every reply it is still owed before it throws, so no lane returns to
// the pool holding an unread reply. A lane whose handshake keeps failing
// (e.g. a protocol version mismatch) is abandoned after its rejoin
// budget; when no lane is left, a batch fails structurally (naming its
// span and the last lane failure) instead of waiting forever.
#ifndef QUORUM_EXEC_FLEET_H
#define QUORUM_EXEC_FLEET_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "exec/schedule.h"
#include "exec/wire.h"

namespace quorum::exec {

struct fleet_config {
    /// Plain inner backend every worker runs (no nesting).
    std::string inner = "statevector";
    /// Engine parameters shipped in the handshake; `shards` is ignored
    /// (fleet size is the set of lanes, not a config field).
    engine_config engine{};
    /// Reconnect attempts a factory lane makes after each death before
    /// it is abandoned. Registered lanes never reconnect (their worker
    /// dials back in instead).
    int rejoin_attempts = 5;
    int rejoin_delay_ms = 100;
};

/// One lane's telemetry inside a fleet_stats snapshot.
struct fleet_lane_stats {
    std::string label;
    /// Spans this lane has completed (reply delivered) since it joined.
    std::size_t spans_completed = 0;
    bool live = false;
};

/// Point-in-time fleet telemetry (worker_fleet::stats). Lane counts are
/// taken under the fleet lock; span counters are read while batches may
/// be completing, so deltas between two snapshots attribute work only
/// approximately while other requests are in flight.
struct fleet_stats {
    std::size_t live_lanes = 0;
    std::size_t spans_completed = 0; ///< sum over lanes
    std::size_t requeued_spans = 0;
    std::vector<fleet_lane_stats> lanes;
};

class worker_fleet {
public:
    explicit worker_fleet(fleet_config config);
    ~worker_fleet();

    worker_fleet(const worker_fleet&) = delete;
    worker_fleet& operator=(const worker_fleet&) = delete;

    /// Adds a lane that creates — and, after a death, re-creates — its
    /// transport through `factory` (called with a stable per-lane index).
    /// The handshake runs on the lane thread; the lane counts as live
    /// only after its hello_ack checks out.
    void add_factory_lane(transport_factory factory, std::string label);

    /// Registers an already-connected worker (one that dialed into the
    /// coordinator). The fleet is the protocol client on this connection
    /// too: the lane thread sends the hello and checks the ack.
    void add_lane(std::unique_ptr<wire_transport> transport,
                  std::string label);

    /// Lanes that have completed the handshake and are serving.
    [[nodiscard]] std::size_t lane_count() const;

    /// Lanes live or still (re)connecting — the width batches are
    /// planned over, so a fleet that is still starting up splits its
    /// first batch as widely as a warm one.
    [[nodiscard]] std::size_t owned_lanes() const;

    /// Spans requeued after an observed worker death (fault telemetry).
    [[nodiscard]] std::size_t requeued_spans() const;

    /// Full telemetry snapshot: per-lane completed-span counts, live
    /// flags, and the requeue total — what quorum_serve logs per
    /// request so fleet fault behaviour is observable in production.
    [[nodiscard]] fleet_stats stats() const;

    /// Blocks until at least `lanes` lanes are live. Throws
    /// util::contract_error (citing the last lane failure) on timeout.
    void wait_for_lanes(std::size_t lanes, int timeout_ms) const;

    /// Runs one planned batch on the calling thread: ships `requests[k]`
    /// for `plan[k]` through the lanes it checks out and reassembles the
    /// replies sample-major into `out` (`values_per_sample` doubles per
    /// sample — 1 for run_batch shape, the level count for level
    /// families). Blocks only while the batch holds no lane. Thread-safe;
    /// any number of batches may be in flight at once.
    void run_spans(std::span<const shard_work> plan,
                   std::span<const std::vector<std::uint8_t>> requests,
                   std::size_t values_per_sample, std::span<double> out);

    [[nodiscard]] const fleet_config& config() const noexcept {
        return config_;
    }

private:
    struct lane_state {
        std::string label;
        transport_factory factory; ///< null for registered lanes
        std::size_t factory_index = 0;
        /// Owned by the lane thread while (re)connecting, by the caller
        /// that checked the lane out while a span is in flight.
        std::unique_ptr<wire_transport> transport;
        /// Wakes this lane's thread (and no other) when a caller saw
        /// its worker die or the fleet is stopping.
        std::condition_variable wake;
        std::thread thread;
        std::atomic<std::size_t> completed{0}; ///< spans served
        /// Handshake done and not seen dead (guarded by mutex_).
        bool live = false;
    };

    void lane_main(lane_state& lane);
    /// Takes an idle live lane. With `wait`, blocks until one is free;
    /// returns null when none is free (without `wait`), or when no lane
    /// is left or the fleet is stopping.
    lane_state* checkout(bool wait);
    void checkin(lane_state& lane);
    /// A caller saw the lane's transport fail: takes the lane out of
    /// service and hands it back to its thread to reconnect or drop.
    void lane_died(lane_state& lane, const std::string& why);
    /// Called (locked) whenever a lane leaves the live/pending set: once
    /// nobody is left to serve, wakes every waiting caller to fail.
    void note_lane_gone_locked();
    [[nodiscard]] bool no_lanes_locked() const {
        return live_lanes_ == 0 && pending_lanes_ == 0;
    }
    [[nodiscard]] std::string no_workers_message() const;

    fleet_config config_;
    std::vector<std::uint8_t> hello_;

    mutable std::mutex mutex_;
    mutable std::condition_variable idle_cv_;  ///< callers: lane free
    mutable std::condition_variable lanes_cv_; ///< watchers: lane counts
    std::vector<std::unique_ptr<lane_state>> lanes_;
    /// Idle live lanes, longest-idle first: a lone caller then sends
    /// span k to the same worker every batch (measurably faster than
    /// most-recent-first on small 4-worker batches).
    std::deque<lane_state*> idle_;
    std::size_t live_lanes_ = 0;
    std::size_t pending_lanes_ = 0;
    std::size_t requeued_ = 0;
    bool stopping_ = false;
    std::string last_lane_error_;
};

/// Executor adapter: scoring through a fleet. Construction instantiates
/// a local probe of the inner backend (config validation + single-circuit
/// runs); batches are planned with the configured span planner
/// (engine.schedule) over the fleet's owned lanes — scores are fleet-size-
/// and schedule-invariant, so a fleet that grew or shrank between batches
/// changes nothing but the split — and shipped through
/// worker_fleet::run_spans.
///
/// Two shapes: quorum_serve registers one per request via
/// exec::register_backend, all sharing one fleet; `remote:<inner>` owns a
/// private fleet whose factory lanes start at its first non-empty batch,
/// so building or validating a remote config spawns nothing.
class fleet_executor final : public executor {
public:
    /// Workers are whole processes; beyond this a remote worker count is
    /// a misconfiguration, not a parallelism request.
    static constexpr std::size_t max_remote_workers = 64;

    /// Scores through a shared fleet ("fleet:<inner>").
    explicit fleet_executor(std::shared_ptr<worker_fleet> fleet);

    /// `remote:<inner>`: a private fleet of
    /// resolve_lane_count(config.shards, max_remote_workers) factory
    /// lanes labelled "remote worker <i>", created through `factory`
    /// (process_transport_factory() for the registry's remote backend).
    fleet_executor(const engine_config& config, const std::string& inner,
                   transport_factory factory);

    [[nodiscard]] std::string_view name() const noexcept override {
        return spec_;
    }
    [[nodiscard]] bool supports(readout_kind kind) const noexcept override {
        return probe_->supports(kind);
    }
    [[nodiscard]] bool supports(capability what) const noexcept override {
        return what == capability::parallel_batches ||
               probe_->supports(what);
    }

    /// Single circuits have nothing to distribute; local probe.
    [[nodiscard]] double run(const qsim::circuit& c, int cbit,
                             util::rng* gen) const override {
        return probe_->run(c, cbit, gen);
    }

    void run_batch(const program& prog, std::span<const sample> samples,
                   std::span<double> out) const override;
    void run_batch_levels(std::span<const program> levels,
                          std::span<const sample> samples,
                          std::span<double> out) const override;

    /// Lanes the next batch is planned over: the fleet's owned lanes, or
    /// — before a remote engine's first batch has started its private
    /// fleet — the number of lanes it will start.
    [[nodiscard]] std::size_t worker_count() const;

private:
    /// Starts a remote engine's private lanes (once); returns the fleet.
    worker_fleet& started_fleet() const;
    /// Plans the batch, encodes one request per span around the program
    /// block `blob` (`levels` == 0 for run_batch shape) and runs it.
    void dispatch(std::span<const std::uint8_t> blob,
                  std::span<const sample> samples, std::size_t levels,
                  std::span<double> out) const;

    std::shared_ptr<worker_fleet> fleet_;
    std::string spec_;
    span_planner planner_;
    bool needs_rng_;
    std::unique_ptr<executor> probe_;
    /// Remote engines only: the lanes to start and their factory.
    std::size_t private_lanes_ = 0;
    transport_factory factory_;
    mutable std::once_flag started_;
};

} // namespace quorum::exec

#endif // QUORUM_EXEC_FLEET_H
