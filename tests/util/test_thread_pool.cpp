// util::parallel_for: every index once, on at most `lanes` threads, with
// the first exception rethrown after the other iterations ran.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace {

using quorum::util::default_thread_count;
using quorum::util::parallel_for;

TEST(ThreadPool, ZeroRequestedGivesOneWorker) {
    // Zero lanes still runs every index, all of them on the caller.
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> visits{0};
    std::atomic<bool> elsewhere{false};
    parallel_for(20, 0, [&](std::size_t) {
        visits.fetch_add(1);
        if (std::this_thread::get_id() != caller) {
            elsewhere.store(true);
        }
    });
    EXPECT_EQ(visits.load(), 20);
    EXPECT_FALSE(elsewhere.load());
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
    std::vector<std::atomic<int>> visits(1000);
    parallel_for(1000, 4, [&](std::size_t i) { visits[i].fetch_add(1); });
    for (const auto& v : visits) {
        EXPECT_EQ(v.load(), 1);
    }
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
    bool called = false;
    parallel_for(0, 4, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForMoreTasksThanThreads) {
    std::atomic<long> sum{0};
    parallel_for(10000, 2, [&](std::size_t i) {
        sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 10000L * 9999L / 2L);
}

TEST(ThreadPool, ParallelForRunsOnAtMostLanesThreads) {
    // min(lanes, count) lanes: the caller and lanes - 1 started threads.
    for (const std::size_t lanes : {1u, 3u, 8u}) {
        for (const std::size_t count : {2u, 5u, 200u}) {
            std::mutex mutex;
            std::set<std::thread::id> seen;
            parallel_for(count, lanes, [&](std::size_t) {
                const std::scoped_lock lock(mutex);
                seen.insert(std::this_thread::get_id());
            });
            EXPECT_LE(seen.size(), std::min(lanes, count))
                << lanes << " lanes, " << count << " indices";
        }
    }
}

TEST(ThreadPool, ParallelForRethrowsBodyException) {
    EXPECT_THROW((parallel_for(100, 3,
                               [](std::size_t i) {
                                   if (i == 57) {
                                       throw std::runtime_error("body");
                                   }
                               })),
                 std::runtime_error);
}

TEST(ThreadPool, ParallelForContinuesAfterException) {
    // Every other iteration runs before the first exception is rethrown.
    for (const std::size_t lanes : {1u, 3u}) {
        std::atomic<int> ran{0};
        try {
            parallel_for(50, lanes, [&](std::size_t i) {
                if (i == 3 || i == 40) {
                    throw std::runtime_error(i == 3 ? "first" : "second");
                }
                ran.fetch_add(1);
            });
            ADD_FAILURE() << "expected an exception";
        } catch (const std::runtime_error& error) {
            EXPECT_EQ(ran.load(), 48) << lanes << " lanes";
            if (lanes == 1) {
                // One lane runs in index order, so "first" is index 3's.
                EXPECT_EQ(std::string(error.what()), "first");
            }
        }
    }
}

TEST(ThreadPool, DefaultThreadCountPositive) {
    EXPECT_GE(default_thread_count(), 1u);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
    // Group-then-range nesting: every call starts its own threads.
    for (const std::size_t lanes : {1u, 2u, 4u}) {
        std::atomic<int> count{0};
        parallel_for(4, lanes, [&](std::size_t) {
            parallel_for(8, lanes,
                         [&](std::size_t) { count.fetch_add(1); });
        });
        EXPECT_EQ(count.load(), 32) << lanes << " lanes";
    }
}

TEST(ThreadPool, NestedParallelForPropagatesInnerException) {
    EXPECT_THROW((parallel_for(3, 2,
                               [&](std::size_t) {
                                   parallel_for(3, 2, [](std::size_t i) {
                                       if (i == 1) {
                                           throw std::runtime_error(
                                               "inner");
                                       }
                                   });
                               })),
                 std::runtime_error);
    std::atomic<int> count{0};
    parallel_for(10, 2, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ConcurrentParallelForCallsAreIndependent) {
    // Two threads driving parallel_for at once (the shape of a server
    // scoring two requests).
    std::atomic<long> sum_a{0};
    std::atomic<long> sum_b{0};
    std::thread other([&]() {
        parallel_for(500, 2, [&](std::size_t i) {
            sum_a.fetch_add(static_cast<long>(i));
        });
    });
    parallel_for(500, 2, [&](std::size_t i) {
        sum_b.fetch_add(static_cast<long>(i));
    });
    other.join();
    EXPECT_EQ(sum_a.load(), 500L * 499L / 2L);
    EXPECT_EQ(sum_b.load(), 500L * 499L / 2L);
}

class PoolSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoolSizeSweep, SumIndependentOfPoolSize) {
    std::atomic<long> sum{0};
    parallel_for(777, GetParam(), [&](std::size_t i) {
        sum.fetch_add(static_cast<long>(i * i));
    });
    long expected = 0;
    for (long i = 0; i < 777; ++i) {
        expected += i * i;
    }
    EXPECT_EQ(sum.load(), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PoolSizeSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 16u));

} // namespace
