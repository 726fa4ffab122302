// Span planning and dispatch policy — the ONE place batches are cut into
// per-lane work spans. The worker fleet (worker processes: the remote
// backend and quorum_serve) plans through span_planner.
//
// Two policies:
//
//   static          — the even-span plan: min(lanes, n) contiguous
//                     spans balanced to within one sample, one span per
//                     lane.
//   dynamic:<grain> — many small spans of ~`grain` samples each, handed
//                     out in plan order to whichever lane is free (the
//                     fleet sends the next span on each lane it frees),
//                     so fast lanes absorb skew instead of idling behind
//                     the slowest span.
//
// Determinism: a plan is a pure function of (n_samples, lanes, grain) —
// never of time, load or completion order — and every span writes its
// output slice at `shard_work.first`. All stochasticity lives in the
// per-sample rng streams the samples carry, so ANY partition evaluated
// in ANY order produces IEEE-identical scores (pinned by
// tests/exec/test_schedule.cpp: dynamic ≡ static bit-for-bit in every
// mode, on every consumer).
#ifndef QUORUM_EXEC_SCHEDULE_H
#define QUORUM_EXEC_SCHEDULE_H

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace quorum::exec {

struct program;

/// One lane's slice of a batch, as plain data. In-process execution
/// runs the sample span directly; the worker fleet ships the compiled
/// program and the span's samples, each with its own rng stream
/// snapshot, over the wire instead.
struct shard_work {
    std::size_t shard = 0;         ///< span index the work is keyed to
    std::size_t first = 0;         ///< first sample index of the span
    std::size_t count = 0;         ///< samples in the span (> 0)
    /// The planner's `prog` argument, copied; no executor reads it.
    const program* prog = nullptr;
};

/// Builds the deterministic STATIC work plan: min(lanes, n_samples)
/// contiguous sample spans, balanced to within one sample and never
/// empty, keyed only by (n_samples, lanes) — the same inputs always
/// yield the same plan.
[[nodiscard]] std::vector<shard_work>
make_shard_plan(std::size_t n_samples, std::size_t shards,
                const program* prog = nullptr);

enum class schedule_policy {
    /// One balanced span per lane (make_shard_plan, bit-for-bit).
    static_spans,
    /// ~grain-sample spans, each taken by whichever lane is free.
    dynamic_spans,
};

/// Grain a bare "dynamic" spec defaults to. A span is one inner executor
/// call, which re-plans the family before it replays, so a span needs
/// hundreds of samples for that to stay in the noise. A call carries a
/// whole ensemble group's rows, so a group of a few thousand rows still
/// splits into several spans per lane.
inline constexpr std::size_t default_dynamic_grain = 256;

/// Cap on dynamic spans per batch: beyond this the effective grain grows
/// (deterministically, from n_samples alone) so a huge batch with a tiny
/// grain cannot drown dispatch in per-span overhead.
inline constexpr std::size_t max_spans_per_batch = 4096;

/// A parsed `--schedule` value.
struct schedule_spec {
    schedule_policy policy = schedule_policy::static_spans;
    /// Samples per dynamic span (>= 1 there; 0 and ignored for static).
    std::size_t grain = 0;

    friend bool operator==(const schedule_spec&,
                           const schedule_spec&) = default;

    /// Canonical spec string: "static" or "dynamic:<grain>".
    [[nodiscard]] std::string str() const;
};

/// Parses "static", "dynamic" (grain = default_dynamic_grain) or
/// "dynamic:<grain>" with the tools' strict numeric rules. Anything else
/// — unknown policy, "dynamic:0", a grain with garbage — throws
/// util::contract_error naming the offending spec.
[[nodiscard]] schedule_spec parse_schedule_spec(std::string_view spec);

/// Plans batches under one schedule_spec. Stateless and thread-safe.
class span_planner {
public:
    /// Static planner (today's behaviour).
    span_planner() = default;

    explicit span_planner(schedule_spec spec);

    [[nodiscard]] const schedule_spec& spec() const noexcept {
        return spec_;
    }

    /// The work plan for a batch of `n_samples` across `lanes` lanes
    /// (>= 1). Static plans are make_shard_plan verbatim; dynamic plans
    /// are grain-keyed spans [k*g, (k+1)*g) independent of the lane
    /// count entirely — growing or shrinking the lane set between
    /// batches changes which lane pulls a span, never the spans.
    [[nodiscard]] std::vector<shard_work>
    plan(std::size_t n_samples, std::size_t lanes,
         const program* prog = nullptr) const;

private:
    schedule_spec spec_{};
};

} // namespace quorum::exec

#endif // QUORUM_EXEC_SCHEDULE_H
