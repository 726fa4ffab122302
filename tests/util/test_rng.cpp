#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/contracts.h"

#include "util/rng.h"

namespace {

using quorum::util::derive_seed;
using quorum::util::rng;

TEST(Rng, SameSeedSameStream) {
    rng a(42);
    rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
    }
}

TEST(Rng, DifferentSeedsDiffer) {
    rng a(1);
    rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        equal += a.engine()() == b.engine()() ? 1 : 0;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
    rng gen(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = gen.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected) {
    rng gen(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = gen.uniform(-2.5, 3.5);
        EXPECT_GE(u, -2.5);
        EXPECT_LT(u, 3.5);
    }
}

TEST(Rng, UniformRangeRejectsInverted) {
    rng gen(1);
    EXPECT_THROW(gen.uniform(1.0, 0.0), quorum::util::contract_error);
}

TEST(Rng, AngleCoversZeroTwoPi) {
    rng gen(11);
    double lo = 10.0;
    double hi = -10.0;
    for (int i = 0; i < 20000; ++i) {
        const double theta = gen.angle();
        lo = std::min(lo, theta);
        hi = std::max(hi, theta);
        EXPECT_GE(theta, 0.0);
        EXPECT_LT(theta, 2.0 * 3.14159265358979323846);
    }
    EXPECT_LT(lo, 0.1);
    EXPECT_GT(hi, 6.1);
}

TEST(Rng, UniformIndexBounds) {
    rng gen(13);
    std::vector<int> histogram(7, 0);
    for (int i = 0; i < 70000; ++i) {
        const std::size_t k = gen.uniform_index(7);
        ASSERT_LT(k, 7u);
        ++histogram[k];
    }
    // Roughly uniform: each bin within 15% of expectation.
    for (const int count : histogram) {
        EXPECT_NEAR(count, 10000, 1500);
    }
}

TEST(Rng, UniformIndexRejectsZero) {
    rng gen(1);
    EXPECT_THROW(gen.uniform_index(0), quorum::util::contract_error);
}

TEST(Rng, NormalMoments) {
    rng gen(17);
    double sum = 0.0;
    double sum_sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double x = gen.normal(2.0, 3.0);
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.05);
    EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(Rng, BernoulliEdgeCases) {
    rng gen(19);
    EXPECT_FALSE(gen.bernoulli(0.0));
    EXPECT_TRUE(gen.bernoulli(1.0));
    EXPECT_FALSE(gen.bernoulli(-0.5));
    EXPECT_TRUE(gen.bernoulli(1.5));
}

TEST(Rng, BernoulliFrequency) {
    rng gen(23);
    int ones = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        ones += gen.bernoulli(0.3) ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(ones) / n, 0.3, 0.01);
}

TEST(Rng, BinomialEdgeCases) {
    rng gen(29);
    EXPECT_EQ(gen.binomial(0, 0.5), 0u);
    EXPECT_EQ(gen.binomial(100, 0.0), 0u);
    EXPECT_EQ(gen.binomial(100, 1.0), 100u);
}

TEST(Rng, BinomialMean) {
    rng gen(31);
    double total = 0.0;
    const int trials = 2000;
    for (int i = 0; i < trials; ++i) {
        total += static_cast<double>(gen.binomial(4096, 0.25));
    }
    EXPECT_NEAR(total / trials, 1024.0, 5.0);
}

TEST(Rng, BinomialRejectsNan) {
    rng gen(29);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW((void)gen.binomial(4096, nan), quorum::util::contract_error);
    EXPECT_THROW((void)gen.binomial(0, nan), quorum::util::contract_error);
    // The infinities keep their clamped meaning.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(gen.binomial(4096, inf), 4096u);
    EXPECT_EQ(gen.binomial(4096, -inf), 0u);
}

#if defined(__GLIBCXX__)
// rng::binomial is a copy of libstdc++ 12's binomial_distribution: over
// every regime of the sampler (the waiting method below n * p = 8, the
// rejection method above it, both sides of p = 0.5, n = 1, n up to 2^40)
// each draw must return the library's count and leave the engine where
// the library leaves it.
TEST(Rng, BinomialMatchesLibstdcxxDrawForDraw) {
    rng ours(2025);
    quorum::util::xoshiro256ss theirs = ours.engine();
    std::size_t draws = 0;
    std::size_t mismatches = 0;
    const auto check = [&](std::uint64_t n, double p) {
        ASSERT_GT(p, 0.0);
        ASSERT_LT(p, 1.0);
        std::binomial_distribution<std::uint64_t> dist(n, p);
        const std::uint64_t expected = dist(theirs);
        const std::uint64_t got = ours.binomial(n, p);
        ++draws;
        if (got != expected || ours.engine().state() != theirs.state()) {
            if (++mismatches <= 5) {
                ADD_FAILURE() << "n = " << n << ", p = " << p << ": got "
                              << got << ", libstdc++ " << expected;
            }
            theirs = ours.engine();
        }
    };
    rng cases(7);
    // n * p just below, at and just above 8, on both sides of p = 0.5.
    for (const std::uint64_t n : {9ULL, 16ULL, 100ULL, 1024ULL, 4096ULL,
                                  65536ULL}) {
        const double at = 8.0 / static_cast<double>(n);
        for (const double p :
             {at, std::nextafter(at, 0.0), std::nextafter(at, 1.0),
              at * (1 - 1e-9), at * (1 + 1e-9), at * 0.99, at * 1.01}) {
            for (int i = 0; i < 8000; ++i) {
                check(n, p);
                check(n, 1.0 - p);
            }
        }
    }
    // p = 0.5 and either side of it.
    for (const double p : {0.5, std::nextafter(0.5, 0.0),
                           std::nextafter(0.5, 1.0), 0.4999, 0.5001, 0.3,
                           0.7}) {
        for (int i = 0; i < 20000; ++i) {
            check(1 + cases.uniform_index(100000), p);
        }
    }
    // n = 1, and n up to 2^40.
    for (int i = 0; i < 50000; ++i) {
        check(1, 1e-6 + cases.uniform() * (1 - 2e-6));
    }
    for (const std::uint64_t n : {1ULL << 20, 1ULL << 32, 1ULL << 40}) {
        for (int i = 0; i < 20000; ++i) {
            check(n, 1e-6 + cases.uniform() * (1 - 2e-6));
        }
    }
    // Random n with p uniform, near 0, near 1 and on a k/n grid.
    for (int i = 0; i < 60000; ++i) {
        const std::uint64_t n = 1 + cases.uniform_index(100000);
        check(n, 1e-9 + cases.uniform() * (1 - 2e-9));
        check(n, 1e-9 + cases.uniform() * 1e-3);
        check(n, 1.0 - (1e-9 + cases.uniform() * 1e-3));
        const std::uint64_t k = 1 + cases.uniform_index(n + 1);
        if (k < n) {
            check(n, static_cast<double>(k) / static_cast<double>(n));
        }
    }
    // The Quorum regime: 4096 and 1024 shots at swap-test probabilities.
    for (int i = 0; i < 100000; ++i) {
        const double p = 0.5 * cases.uniform();
        if (p > 0.0) {
            check(4096, p);
            check(1024, p);
        }
    }
    EXPECT_GE(draws, 1000000u);
    EXPECT_EQ(mismatches, 0u);
}
#endif

// Threads drawing at once, each from its own stream, build the shared
// lgamma table and their own memos on their first draws; every thread
// must see the draws a lone thread sees. Under ThreadSanitizer this is
// also where a sampler calling std::lgamma (which writes glibc's global
// signgam) shows its data race.
TEST(Rng, ConcurrentBinomialDrawsMatchSequentialOnes) {
    const auto draw_all = [](std::uint64_t seed) {
        rng gen(seed);
        std::vector<std::uint64_t> draws;
        for (int i = 0; i < 2000; ++i) {
            draws.push_back(gen.binomial(4096, 0.001 + 0.00025 * i));
        }
        return draws;
    };
    constexpr std::size_t threads = 4;
    std::vector<std::vector<std::uint64_t>> concurrent(threads);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] { concurrent[t] = draw_all(100 + t); });
    }
    for (std::thread& worker : pool) {
        worker.join();
    }
    for (std::size_t t = 0; t < threads; ++t) {
        EXPECT_EQ(concurrent[t], draw_all(100 + t)) << "thread " << t;
    }
}

// The sampler's stream pinned on any standard library: one stream, one
// draw per row, then the engine's next word.
TEST(Rng, BinomialPinnedDraws) {
    struct pinned_draw {
        std::uint64_t n;
        double p;
        std::uint64_t expected;
    };
    constexpr std::array<pinned_draw, 24> table{{
        {4096, 0.01, 23},
        {4096, 0.0019, 8},
        {4096, 0.3, 1214},
        {4096, 0.5, 2056},
        {4096, 0.97, 3976},
        {1024, 0.2, 185},
        {1, 0.5, 1},
        {100, 0.08, 5},
        {100, 0.0799, 6},
        {1ULL << 40, 0.25, 274878200119ULL},
        {65536, 0.999, 65471},
        {12, 0.6, 6},
        {4096, 0.125, 525},
        {4096, 0.0625, 235},
        {1024, 0.45, 441},
        {1024, 0.0078125, 3},
        {50000, 0.5001, 25134},
        {3, 0.999, 3},
        {4096, 0.4, 1604},
        {4096, 0.02, 77},
        {1ULL << 32, 1e-9, 2},
        {777, 0.75, 573},
        {4096, 0.2, 819},
        {4096, 0.002, 8},
    }};
    rng gen(2025);
    for (const pinned_draw& row : table) {
        EXPECT_EQ(gen.binomial(row.n, row.p), row.expected)
            << "n = " << row.n << ", p = " << row.p;
    }
    EXPECT_EQ(gen.engine()(), 3288371889155385544ULL);
}

TEST(Rng, PermutationIsPermutation) {
    rng gen(37);
    const std::vector<std::size_t> perm = gen.permutation(100);
    ASSERT_EQ(perm.size(), 100u);
    std::set<std::size_t> seen(perm.begin(), perm.end());
    EXPECT_EQ(seen.size(), 100u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
    rng gen(41);
    for (int trial = 0; trial < 50; ++trial) {
        const auto sample = gen.sample_without_replacement(50, 20);
        ASSERT_EQ(sample.size(), 20u);
        std::set<std::size_t> seen(sample.begin(), sample.end());
        EXPECT_EQ(seen.size(), 20u);
        for (const std::size_t s : sample) {
            EXPECT_LT(s, 50u);
        }
    }
}

TEST(Rng, SampleWithoutReplacementFullSet) {
    rng gen(43);
    const auto sample = gen.sample_without_replacement(10, 10);
    std::set<std::size_t> seen(sample.begin(), sample.end());
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementRejectsOverdraw) {
    rng gen(47);
    EXPECT_THROW(gen.sample_without_replacement(5, 6),
                 quorum::util::contract_error);
}

TEST(Rng, ChildStreamsIndependent) {
    rng parent(1000);
    rng c0 = parent.child(0);
    rng c1 = parent.child(1);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        equal += c0.engine()() == c1.engine()() ? 1 : 0;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, ChildDeterministicAndStateless) {
    rng parent(55);
    // Drawing from the parent must not change child derivation.
    rng before = parent.child(3);
    (void)parent.uniform();
    (void)parent.uniform();
    rng after = parent.child(3);
    for (int i = 0; i < 20; ++i) {
        EXPECT_DOUBLE_EQ(before.uniform(), after.uniform());
    }
}

TEST(Rng, DeriveSeedMixesIndices) {
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        seeds.insert(derive_seed(12345, i));
    }
    EXPECT_EQ(seeds.size(), 1000u);
}

TEST(Rng, ShuffleKeepsElements) {
    rng gen(59);
    std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> shuffled = values;
    gen.shuffle(std::span<int>(shuffled));
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, values);
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformStaysInRangeForAllSeeds) {
    rng gen(GetParam());
    for (int i = 0; i < 1000; ++i) {
        const double u = gen.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST_P(RngSeedSweep, PermutationValidForAllSeeds) {
    rng gen(GetParam());
    const auto perm = gen.permutation(31);
    std::set<std::size_t> seen(perm.begin(), perm.end());
    EXPECT_EQ(seen.size(), 31u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 2ULL, 42ULL, 1000ULL,
                                           0xFFFFFFFFFFFFFFFFULL));

} // namespace
