// Deterministic, splittable random number generation.
//
// Quorum's ensemble groups are "embarrassingly parallel" (paper §IV-F); to
// keep results bit-identical regardless of thread count, every ensemble
// group derives its own independent stream from (master_seed, stream_index)
// via SplitMix64, and each stream drives a xoshiro256** engine.
#ifndef QUORUM_UTIL_RNG_H
#define QUORUM_UTIL_RNG_H

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace quorum::util {

/// SplitMix64: tiny, high-quality 64-bit mixer. Used for seeding and for
/// deriving independent child streams from (seed, index) pairs.
class splitmix64 {
public:
    using result_type = std::uint64_t;

    explicit splitmix64(std::uint64_t seed) noexcept : state_(seed) {}

    result_type operator()() noexcept {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept {
        return std::numeric_limits<std::uint64_t>::max();
    }

private:
    std::uint64_t state_;
};

/// xoshiro256**: fast general-purpose engine (Blackman & Vigna). Satisfies
/// UniformRandomBitGenerator so it composes with <random> distributions.
class xoshiro256ss {
public:
    using result_type = std::uint64_t;

    /// Seeds the four state words via SplitMix64 as the authors recommend.
    explicit xoshiro256ss(std::uint64_t seed) noexcept {
        splitmix64 mixer(seed);
        for (auto& word : state_) {
            word = mixer();
        }
    }

    /// The four raw state words — a complete snapshot of the engine.
    [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept {
        return state_;
    }

    /// Restores a snapshot taken with state().
    void set_state(const std::array<std::uint64_t, 4>& words) noexcept {
        state_ = words;
    }

    result_type operator()() noexcept {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept {
        return std::numeric_limits<std::uint64_t>::max();
    }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_{};
};

/// A value snapshot of an rng stream: the construction seed plus the four
/// engine state words. Restoring it resumes the stream at exactly the draw
/// it was captured at — the remote execution backend ships these over the
/// wire so worker processes consume bit-identical draw sequences.
struct rng_state {
    std::uint64_t seed = 0;
    std::array<std::uint64_t, 4> words{};
};

/// Convenience façade over xoshiro256** with the draws Quorum needs.
/// Copyable; child(i) derives a statistically independent stream.
class rng {
public:
    explicit rng(std::uint64_t seed) noexcept : engine_(seed), seed_(seed) {}

    /// Derives an independent child stream for (this stream's seed, index).
    /// Deterministic: does not consume state from this stream.
    [[nodiscard]] rng child(std::uint64_t index) const noexcept;

    /// Captures the stream (seed + engine words) as plain data. Every draw
    /// helper constructs its distribution per call, so the engine words
    /// are the stream's complete state.
    [[nodiscard]] rng_state state() const noexcept {
        return rng_state{seed_, engine_.state()};
    }

    /// Reconstructs a stream from a snapshot: the returned stream produces
    /// exactly the draws the captured stream would have produced next.
    [[nodiscard]] static rng from_state(const rng_state& snapshot) noexcept {
        rng restored(snapshot.seed);
        restored.engine_.set_state(snapshot.words);
        return restored;
    }

    /// Uniform double in [0, 1).
    double uniform();

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi);

    /// Uniform angle in [0, 2π) — the paper's U(0, 2π) ansatz initialiser.
    double angle();

    /// Uniform integer in [0, n). Requires n > 0.
    std::size_t uniform_index(std::size_t n);

    /// Standard normal draw (Box–Muller-free; uses std::normal_distribution).
    double normal(double mean = 0.0, double stddev = 1.0);

    /// Bernoulli draw with success probability p (clamped to [0,1]).
    bool bernoulli(double p);

    /// Binomial(n, p) sample count. Used to emulate `shots` circuit
    /// repetitions when only a single ancilla probability is measured.
    /// Draws what libstdc++ 12's std::binomial_distribution<uint64_t>
    /// would, engine word for engine word, on any standard library.
    /// n == 0 or p <= 0 gives 0, p >= 1 gives n, and a NaN p is a
    /// contract_error.
    std::uint64_t binomial(std::uint64_t n, double p);

    /// In-place Fisher–Yates shuffle.
    template <typename T>
    void shuffle(std::span<T> values) {
        for (std::size_t i = values.size(); i > 1; --i) {
            const std::size_t j = uniform_index(i);
            std::swap(values[i - 1], values[j]);
        }
    }

    /// A random permutation of {0, 1, ..., n-1}.
    std::vector<std::size_t> permutation(std::size_t n);

    /// k distinct indices drawn uniformly from {0, ..., n-1}, k <= n.
    std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                        std::size_t k);

    /// Underlying engine, for use with <random> distributions.
    xoshiro256ss& engine() noexcept { return engine_; }

    /// The seed this stream was constructed with.
    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

private:
    xoshiro256ss engine_;
    std::uint64_t seed_;
};

/// Mixes a (seed, index) pair into a new 64-bit seed. Exposed so that code
/// outside `rng` (e.g. the ensemble driver) can document its stream layout.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t index) noexcept;

} // namespace quorum::util

#endif // QUORUM_UTIL_RNG_H
