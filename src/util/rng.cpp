#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "util/contracts.h"

namespace quorum::util {

namespace {

// --- Binomial sampler -----------------------------------------------------
//
// An in-repo copy of libstdc++ 12's std::binomial_distribution<uint64_t>
// (bits/random.tcc: param_type::_M_initialize, operator(), _M_waiting) as
// rng::binomial used it: a fresh distribution per draw, so the Marsaglia
// polar normal's saved value lives for one draw only. Every expression
// keeps the original's operands, conversions and evaluation order, and
// this TU is built with -ffp-contract=off, so the copy consumes the same
// engine words and returns the same counts as the library (pinned by
// tests/util/test_rng.cpp). Scores therefore no longer depend on which
// standard library is linked.
//
// Two things differ, neither visible in the result: every parameter
// _M_initialize derives from (n, floor(n * p12)) alone is memoised per
// thread in a small direct-mapped table, and lgamma at small integer
// arguments is read from one table built on the process's first draw.
// Both compute lgamma with lgamma_r, which returns lgamma's values
// without writing the global signgam (a data race when threads sample
// concurrently). The memo lives on the heap, so threads that never
// sample carry none of it.

/// generate_canonical<double, 53> for a 64-bit engine: one engine word
/// over 2^64, nudged below 1 when the conversion rounds up to it.
double canonical(xoshiro256ss& engine) {
    double sum = 0.0;
    sum += static_cast<double>(engine()) * 1.0;
    const double ret = sum / 0x1p64;
    return ret >= 1.0 ? std::nextafter(1.0, 0.0) : ret;
}

/// -log(1 - u) for a canonical u: the exponential draw the sampler uses.
double exponential(xoshiro256ss& engine) {
    return -std::log(1.0 - canonical(engine));
}

/// std::normal_distribution<double>(0, 1) for the lifetime of one draw.
class polar_normal {
public:
    double operator()(xoshiro256ss& engine) {
        double ret = 0.0;
        if (saved_available_) {
            saved_available_ = false;
            ret = saved_;
        } else {
            double x = 0.0;
            double y = 0.0;
            double r2 = 0.0;
            do {
                x = 2.0 * canonical(engine) - 1.0;
                y = 2.0 * canonical(engine) - 1.0;
                r2 = x * x + y * y;
            } while (r2 > 1.0 || r2 == 0.0);
            const double mult = std::sqrt(-2 * std::log(r2) / r2);
            saved_ = x * mult;
            saved_available_ = true;
            ret = y * mult;
        }
        return ret * 1.0 + 0.0;
    }

private:
    double saved_ = 0.0;
    bool saved_available_ = false;
};

double lgamma_reentrant(double x) {
    int sign = 0;
    return ::lgamma_r(x, &sign);
}

/// What _M_initialize derives from (t, np) alone; t == 0 marks an empty
/// memo slot (binomial never samples n == 0).
struct binomial_shape {
    std::uint64_t t;
    double np;
    double d1, d2, s1, s2, c, a1, a123, s, lf, lp1p;
};

/// 256 shapes (24 KB) per sampling thread; lgamma at [0, 4100), enough
/// for every argument of n <= 4098 (32 KB) once per process.
constexpr std::size_t shape_slots = 256;
constexpr std::size_t lgamma_slots = 4100;

/// This thread's shape memo, zeroed on its first draw.
binomial_shape* thread_shapes() {
    thread_local std::unique_ptr<binomial_shape[]> shapes;
    if (!shapes) {
        shapes = std::make_unique<binomial_shape[]>(shape_slots);
    }
    return shapes.get();
}

/// lgamma(x) for the integer-valued x the sampler passes, from the table
/// while x indexes it.
double lgamma_integer(double x) {
    static const std::vector<double> table = [] {
        std::vector<double> values(lgamma_slots);
        for (std::size_t i = 0; i < lgamma_slots; ++i) {
            values[i] = lgamma_reentrant(static_cast<double>(i));
        }
        return values;
    }();
    if (x >= 0.0 && x < static_cast<double>(lgamma_slots)) {
        const auto i = static_cast<std::size_t>(x);
        if (static_cast<double>(i) == x) {
            return table[i];
        }
    }
    return lgamma_reentrant(x);
}

/// param_type::_M_initialize's rejection-branch parameters for (t, np).
const binomial_shape& shape_for(std::uint64_t t, double np) {
    binomial_shape& slot =
        thread_shapes()[(static_cast<std::uint64_t>(np) + t) % shape_slots];
    if (slot.t == t && slot.np == np) {
        return slot;
    }
    const double pa = np / t;
    const double one_p = 1 - pa;

    const double pi_4 = 0.7853981633974483096156608458198757L;
    const double d1x =
        std::sqrt(np * one_p * std::log(32 * np / (81 * pi_4 * one_p)));
    slot.d1 = std::round(std::max<double>(1.0, d1x));
    const double d2x =
        std::sqrt(np * one_p * std::log(32 * t * one_p / (pi_4 * pa)));
    slot.d2 = std::round(std::max<double>(1.0, d2x));

    // sqrt(pi / 2)
    const double spi_2 = 1.2533141373155002512078826424055226L;
    slot.s1 = std::sqrt(np * one_p) * (1 + slot.d1 / (4 * np));
    slot.s2 = std::sqrt(np * one_p) * (1 + slot.d2 / (4 * t * one_p));
    slot.c = 2 * slot.d1 / np;
    slot.a1 = std::exp(slot.c) * slot.s1 * spi_2;
    const double a12 = slot.a1 + slot.s2 * spi_2;
    const double s1s = slot.s1 * slot.s1;
    slot.a123 = a12 + (std::exp(slot.d1 / (t * one_p)) * 2 * s1s / slot.d1 *
                       std::exp(-slot.d1 * slot.d1 / (2 * s1s)));
    const double s2s = slot.s2 * slot.s2;
    slot.s = (slot.a123 + 2 * s2s / slot.d2 *
                              std::exp(-slot.d2 * slot.d2 / (2 * s2s)));
    slot.lf = (lgamma_integer(np + 1) + lgamma_integer(t - np + 1));
    slot.lp1p = std::log(pa / one_p);
    slot.t = t;
    slot.np = np;
    return slot;
}

/// _M_waiting: the waiting-time method for t * p12 < 8 and the tail of
/// the rejection method.
std::uint64_t waiting(xoshiro256ss& engine, std::uint64_t t, double q) {
    std::uint64_t x = 0;
    double sum = 0.0;
    do {
        if (t == x) {
            return x;
        }
        const double e = exponential(engine);
        sum += e / (t - x);
        x += 1;
    } while (sum <= q);
    return x - 1;
}

/// binomial_distribution<uint64_t>(t, p)(engine) for p in (0, 1).
std::uint64_t draw_binomial(xoshiro256ss& engine, std::uint64_t t, double p) {
    const double p12 = p <= 0.5 ? p : 1.0 - p;
    std::uint64_t ret = 0;
    if (t * p12 >= 8) {
        const double np = std::floor(t * p12);
        const binomial_shape& shape = shape_for(t, np);
        const double pa = np / t;
        const double q = -std::log(1 - (p12 - pa) / (1 - pa));
        polar_normal nd;
        double x = 0.0;

        const double naf = (1 - std::numeric_limits<double>::epsilon()) / 2;
        const double thr = std::numeric_limits<std::uint64_t>::max() + naf;

        // sqrt(pi / 2)
        const double spi_2 = 1.2533141373155002512078826424055226L;
        const double a1 = shape.a1;
        const double a12 = a1 + shape.s2 * spi_2;
        const double a123 = shape.a123;
        const double s1s = shape.s1 * shape.s1;
        const double s2s = shape.s2 * shape.s2;

        bool reject = false;
        do {
            const double u = shape.s * canonical(engine);

            double v = 0.0;

            if (u <= a1) {
                const double n = nd(engine);
                const double y = shape.s1 * std::abs(n);
                reject = y >= shape.d1;
                if (!reject) {
                    const double e = exponential(engine);
                    x = std::floor(y);
                    v = -e - n * n / 2 + shape.c;
                }
            } else if (u <= a12) {
                const double n = nd(engine);
                const double y = shape.s2 * std::abs(n);
                reject = y >= shape.d2;
                if (!reject) {
                    const double e = exponential(engine);
                    x = std::floor(-y);
                    v = -e - n * n / 2;
                }
            } else if (u <= a123) {
                const double e1 = exponential(engine);
                const double e2 = exponential(engine);

                const double y = shape.d1 + 2 * s1s * e1 / shape.d1;
                x = std::floor(y);
                v = (-e2 + shape.d1 * (1 / (t - np) - y / (2 * s1s)));
                reject = false;
            } else {
                const double e1 = exponential(engine);
                const double e2 = exponential(engine);

                const double y = shape.d2 + 2 * s2s * e1 / shape.d2;
                x = std::floor(-y);
                v = -e2 - shape.d2 * y / (2 * s2s);
                reject = false;
            }

            reject = reject || x < -np || x > t - np;
            if (!reject) {
                const double lfx = lgamma_integer(np + x + 1) +
                                   lgamma_integer(t - (np + x) + 1);
                reject = v > shape.lf - lfx + x * shape.lp1p;
            }

            reject |= x + np >= thr;
        } while (reject);

        x += np + naf;

        const std::uint64_t z =
            waiting(engine, t - static_cast<std::uint64_t>(x), q);
        ret = static_cast<std::uint64_t>(x) + z;
    } else {
        ret = waiting(engine, t, -std::log(1 - p12));
    }

    if (p12 != p) {
        ret = t - ret;
    }
    return ret;
}

} // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) noexcept {
    // Two SplitMix64 steps keyed by (seed ^ golden-ratio-scrambled index):
    // enough mixing that adjacent indices give unrelated streams.
    splitmix64 mixer(seed ^
                     (index * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL));
    (void)mixer();
    return mixer();
}

rng rng::child(std::uint64_t index) const noexcept {
    return rng(derive_seed(seed_, index));
}

double rng::uniform() {
    // 53-bit mantissa construction: uniform on [0, 1).
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

double rng::uniform(double lo, double hi) {
    QUORUM_EXPECTS(lo <= hi);
    return lo + (hi - lo) * uniform();
}

double rng::angle() {
    return uniform(0.0, 2.0 * 3.14159265358979323846);
}

std::size_t rng::uniform_index(std::size_t n) {
    QUORUM_EXPECTS(n > 0);
    const std::uint64_t x = engine_();
#if defined(__SIZEOF_INT128__)
    // Lemire multiply-shift: exact 128-bit multiply-high (GCC/Clang).
    const unsigned __int128 m =
        static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(n);
    return static_cast<std::size_t>(m >> 64);
#else
    // Portable fallback: multiply-shift on the top 32 bits. Unbiased up to
    // the 2^-32 discretisation — far below every statistical tolerance
    // here — but a *different stream* than the 128-bit path, so only one
    // path is ever compiled per platform.
    QUORUM_EXPECTS_MSG(n <= 0xFFFFFFFFULL,
                       "index ranges above 2^32 unsupported");
    return static_cast<std::size_t>(
        ((x >> 32) * static_cast<std::uint64_t>(n)) >> 32);
#endif
}

double rng::normal(double mean, double stddev) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
}

bool rng::bernoulli(double p) {
    if (p <= 0.0) {
        return false;
    }
    if (p >= 1.0) {
        return true;
    }
    return uniform() < p;
}

std::uint64_t rng::binomial(std::uint64_t n, double p) {
    QUORUM_EXPECTS_MSG(!std::isnan(p),
                       "binomial probability is NaN (p = " +
                           std::to_string(p) + ")");
    if (n == 0 || p <= 0.0) {
        return 0;
    }
    if (p >= 1.0) {
        return n;
    }
    return draw_binomial(engine_, n, p);
}

std::vector<std::size_t> rng::permutation(std::size_t n) {
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) {
        perm[i] = i;
    }
    shuffle(std::span<std::size_t>(perm));
    return perm;
}

std::vector<std::size_t> rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
    QUORUM_EXPECTS(k <= n);
    // Partial Fisher–Yates over an index table: O(n) space, O(n + k) time.
    std::vector<std::size_t> indices(n);
    for (std::size_t i = 0; i < n; ++i) {
        indices[i] = i;
    }
    std::vector<std::size_t> chosen;
    chosen.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
        const std::size_t j = i + uniform_index(n - i);
        std::swap(indices[i], indices[j]);
        chosen.push_back(indices[i]);
    }
    return chosen;
}

} // namespace quorum::util
