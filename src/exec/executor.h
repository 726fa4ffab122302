// The pluggable execution-engine layer.
//
// Everything above qsim (the ensemble loop, the CLI, the trained
// baselines) evaluates circuits through this interface instead of calling
// a simulator directly. A backend wraps one engine (state-vector exact /
// per-shot, density-matrix noisy, remote worker processes) behind two
// entry points:
//
//   run(circuit)          — one complete circuit, one readout;
//   run_batch(program, samples) — a compiled_program replayed across a
//                           batch of samples, amortising circuit build,
//                           validation and gate fusion over the batch.
//
// Backends are stateless: every method is const and thread-safe, so one
// executor instance can serve all ensemble worker threads. Per-sample
// stochasticity comes exclusively from the rng stream each sample carries,
// which keeps results deterministic for any thread count and batch order.
#ifndef QUORUM_EXEC_EXECUTOR_H
#define QUORUM_EXEC_EXECUTOR_H

#include <cstddef>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "exec/schedule.h"
#include "qsim/compiled_program.h"
#include "qsim/noise.h"
#include "util/rng.h"

namespace quorum::exec {

/// How a backend turns a probability into a reported value.
enum class sampling {
    /// Report the exact probability (no rng needed).
    exact,
    /// Draw Binomial(shots, p)/shots from the sample's rng — statistically
    /// identical to `shots` circuit repetitions.
    binomial,
    /// Simulate every shot stochastically (hardware semantics; supported
    /// by the state-vector backend only).
    per_shot,
};

/// Engine parameters a backend is constructed with. This deliberately
/// knows nothing about Quorum's detector config — core maps
/// quorum_config onto it (see core::make_engine_config).
struct engine_config {
    sampling sampling_mode = sampling::exact;
    /// Repetitions for binomial/per_shot sampling (>= 1 there).
    std::size_t shots = 0;
    /// Noise model for the density backend (ignored elsewhere).
    qsim::noise_model noise = qsim::noise_model::ideal();
    /// quorum_worker processes the "remote" backend partitions every
    /// batch across (0 = one per hardware thread; ignored by the other
    /// backends).
    std::size_t shards = 0;
    /// Span-planning policy for the worker fleet (the remote backend and
    /// quorum_serve). Like `shards`, this is coordinator-side only: it shapes
    /// the plan, never the per-span work, so it does NOT travel on the
    /// wire (encode_engine_config) and cannot change scores — see
    /// exec/schedule.h for the determinism argument.
    schedule_spec schedule{};
};

/// One sample of a batch.
///
/// RNG stream contract: streams are SINGLE-USE PER BATCH. A backend may
/// consume draws from the stream object in place (the in-process
/// engines) or from a value snapshot of it (the remote backend ships
/// util::rng_state over the wire and advances only the worker-side
/// copy), so the object's state AFTER a batch is unspecified. Callers
/// must derive a fresh stream per (sample, batch) — exactly what core's
/// ensemble loop does — and never reuse one across run_batch calls;
/// reuse would silently diverge between backends that are otherwise
/// bit-identical.
struct sample {
    /// Amplitudes fed to every prep slot of the program (empty when the
    /// program has no slots).
    std::span<const double> amplitudes{};
    /// Rotation angles for the program's parameterized prefix, in op
    /// order (empty when the program has none).
    std::span<const double> prefix_params{};
    /// Private deterministic rng stream; may be null under
    /// sampling::exact, must be non-null otherwise. Single-use per
    /// batch (see the struct comment).
    util::rng* gen = nullptr;
    /// Multi-level batches only (run_batch_levels): one rng stream per
    /// level program, in level order — level k draws from level_gens[k]
    /// exactly as a per-level run_batch would draw from `gen`. Ignored by
    /// run_batch; may be empty under sampling::exact.
    std::span<util::rng* const> level_gens{};
};

/// What run_batch reports per sample.
enum class readout_kind {
    /// P(classical bit = 1) via the program's recorded measure map.
    cbit_probability,
    /// SWAP-test P(1) computed from the fidelity between the final state
    /// and the sample's own prep amplitudes — the register-A analytic
    /// shortcut (programs without measurements).
    prep_overlap_p1,
    /// Sum over `qubits` (in the given order) of P(|1>) — the trained-QAE
    /// trash-population objective. sampling::exact only.
    excited_population,
    /// (1 - <Z_q>)/2 for qubits[0] — the QNN readout. sampling::exact only.
    z_probability,
};

struct readout_spec {
    readout_kind kind = readout_kind::cbit_probability;
    int cbit = 0;                       ///< cbit_probability
    std::vector<qsim::qubit_t> qubits{}; ///< excited_population / z_probability
};

/// A compiled circuit plus its readout — the unit run_batch executes.
struct program {
    qsim::compiled_program circuit;
    readout_spec readout{};
};

/// Optional backend capabilities beyond readout evaluation, queried
/// through executor::supports(capability).
enum class capability {
    /// run_batch_levels evaluates a program family with a genuinely fused
    /// implementation (shared prep + encoder prefix evolved once per
    /// sample). Backends without it still accept run_batch_levels via the
    /// naive per-level base implementation — the capability only tells
    /// callers whether fusing buys anything.
    fused_levels,
    /// run_batch and run_batch_levels already spread every batch over
    /// concurrent lanes of the backend's own (the worker fleet), so a
    /// caller that splits a batch gains no parallelism and pays one
    /// dispatch per piece.
    parallel_batches,
};

/// A persistent evaluation session over one program family — the
/// streaming-path analogue of run_batch_levels. Where run_batch_levels
/// re-plans the family (replay plans, fork points, scratch sizing) and
/// re-allocates its work buffers on every call, a session does that work
/// ONCE at creation and keeps the buffers across run() calls, so pushing
/// single-sample batches through it is allocation-free at steady state.
///
/// Results obey the run_batch_levels contract exactly: run() output is
/// EQUAL (IEEE ==) to engine.run_batch_levels(family(), samples, out).
/// Sessions are NOT thread-safe (they own mutable buffers) — create one
/// per consumer; the engine that created a session must outlive it.
class level_session {
public:
    virtual ~level_session() = default;

    level_session(const level_session&) = delete;
    level_session& operator=(const level_session&) = delete;

    /// The program family this session replays, in level order.
    [[nodiscard]] virtual std::span<const program>
    family() const noexcept = 0;

    /// Evaluates the family for every sample, sample-major:
    /// out[i * family().size() + k] = readout of level k for sample i.
    virtual void run(std::span<const sample> samples,
                     std::span<double> out) = 0;

protected:
    level_session() = default;
};

/// A persistent session over several program families of one level count
/// L — the stream's ensemble groups, one family each — that evaluates one
/// sample per family per call. Family g's results are EQUAL (IEEE ==) to
/// a one-sample level session over family g; a backend may evaluate the
/// families together (the statevector backend replays them side by side
/// in lanes). Not thread-safe; the engine that created a session must
/// outlive it.
class group_session {
public:
    virtual ~group_session() = default;

    group_session(const group_session&) = delete;
    group_session& operator=(const group_session&) = delete;

    /// Evaluates samples[g] through family g for every family, family-
    /// major: out[g * L + k] = readout of level k of family g. Takes
    /// exactly one sample per family.
    virtual void run(std::span<const sample> samples,
                     std::span<double> out) = 0;

protected:
    group_session() = default;
};

/// Abstract execution engine. Implementations are registered with the
/// backend registry (exec/registry.h) and selected by name.
class executor {
public:
    virtual ~executor() = default;

    executor(const executor&) = delete;
    executor& operator=(const executor&) = delete;

    /// The backend's registry name.
    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

    /// True when this backend (under its configured sampling semantics)
    /// can evaluate the given readout kind. Callers use this to pick a
    /// program shape — e.g. core falls back from the register-A overlap
    /// shortcut to the full SWAP-test circuit on backends that only read
    /// classical bits.
    [[nodiscard]] virtual bool
    supports(readout_kind kind) const noexcept = 0;

    /// True when the backend implements the given optional capability
    /// (default: none). See exec::capability.
    [[nodiscard]] virtual bool supports(capability) const noexcept {
        return false;
    }

    /// Runs one complete circuit and reports P(cbit = 1) under this
    /// backend's sampling semantics. `gen` may be null under
    /// sampling::exact and must be non-null otherwise.
    [[nodiscard]] virtual double run(const qsim::circuit& c, int cbit,
                                     util::rng* gen) const = 0;

    /// Replays `prog` for every sample and writes one readout value per
    /// sample into `out` (out.size() == samples.size()). Thread-safe.
    virtual void run_batch(const program& prog,
                           std::span<const sample> samples,
                           std::span<double> out) const = 0;

    /// Evaluates a program FAMILY — one program per compression level,
    /// all sharing the same prep slots / parameterized prefix (e.g. state
    /// prep + encoder E(θ) followed by level-specific resets + decoder) —
    /// for every sample, writing results sample-major:
    /// out[i * levels.size() + k] = readout of levels[k] for samples[i].
    ///
    /// Contract: results are EQUAL (IEEE ==) to running each level alone
    /// through run_batch with sample.gen = sample.level_gens[k]; fused
    /// implementations (supports(capability::fused_levels)) only amortise
    /// the work the levels share. The base implementation is that naive
    /// per-level loop. Thread-safe.
    virtual void run_batch_levels(std::span<const program> levels,
                                  std::span<const sample> samples,
                                  std::span<double> out) const;

    /// Creates a persistent session over `family` (see level_session).
    /// The base implementation simply replays run_batch_levels per call —
    /// correct everywhere, amortised nowhere; backends with
    /// capability::fused_levels override it to hoist planning and buffer
    /// allocation out of the per-call path. The engine must outlive the
    /// session.
    [[nodiscard]] virtual std::unique_ptr<level_session>
    make_level_session(std::vector<program> family) const;

    /// Creates a persistent session over `families`, which must be non-
    /// empty and share one level count (see group_session). The base
    /// implementation opens one make_level_session per family and runs
    /// them in family order, so a backend or decorator that does not
    /// override it evaluates the families one session call each. The
    /// engine must outlive the session.
    [[nodiscard]] virtual std::unique_ptr<group_session>
    make_group_session(std::vector<std::vector<program>> families) const;

protected:
    executor() = default;
};

/// Resolves the remote backend's configured worker count (engine_config::
/// shards): 0 means one lane per hardware thread, anything beyond
/// `max_lanes` is clamped. Shared by the remote backend and the CLI
/// banner so the reported lane count can never drift from the one
/// actually used.
[[nodiscard]] std::size_t resolve_lane_count(std::size_t configured,
                                             std::size_t max_lanes) noexcept;

/// The value a backend reports for a readout probability: `p_one` itself
/// under sampling::exact, otherwise a Binomial(shots, p_one) draw from
/// `gen` (non-null there) divided by shots.
[[nodiscard]] double report_probability(const engine_config& config,
                                        util::rng* gen, double p_one);

/// Validates a batch's shape against a program: the output span matches
/// the batch, per-sample amplitude counts match the program's prep slots,
/// prefix param counts match, and (when needs_rng) every sample carries an
/// rng stream. Throws util::contract_error on violations. Backends call
/// this at the top of run_batch so every engine rejects malformed batches
/// identically.
void validate_batch(const program& prog, std::span<const sample> samples,
                    std::span<double> out, bool needs_rng);

/// The run_batch_levels analogue: a non-empty family whose programs all
/// share one prep-slot/prefix shape, an output span of
/// samples.size() * levels.size(), per-sample shapes matching the family,
/// and (when needs_rng) one rng stream per level per sample. Throws
/// util::contract_error on violations.
void validate_level_batch(std::span<const program> levels,
                          std::span<const sample> samples,
                          std::span<double> out, bool needs_rng);

/// validate_level_batch in two halves, for sessions, whose family is
/// fixed: the family's shape (checked once, at creation) and the batch
/// against an accepted family (checked per call).
void validate_level_family(std::span<const program> levels);
void validate_level_samples(std::span<const program> levels,
                            std::span<const sample> samples,
                            std::span<double> out, bool needs_rng);

/// The group_session::run analogue: one sample per family and an output
/// span of families * levels. Each family's sample is checked by the
/// family's own level batch. Throws util::contract_error on violations.
void validate_group_batch(std::size_t families, std::size_t levels,
                          std::span<const sample> samples,
                          std::span<double> out);

} // namespace quorum::exec

#endif // QUORUM_EXEC_EXECUTOR_H
