// bench/bench_common.h's flag helpers, which every bench that takes flags
// reads them through. They used to parse with strtoull(v, nullptr, 10),
// so "--reps banana" became 0 and "--clients -1" became 2^64 - 1; a
// malformed or missing value now exits 2 naming the flag. bench_scale()
// parsed QUORUM_BENCH_SCALE with strtod(raw, nullptr) the same way
// ("banana" ran at scale 1.0, "0.5x" at 0.5).
#include "bench_common.h"

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using quorum::bench::flag_text;
using quorum::bench::flag_value;

/// A mutable argv for `args`, with a program name in front.
struct command_line {
    explicit command_line(std::vector<std::string> args)
        : storage(std::move(args)) {
        storage.insert(storage.begin(), "bench");
        for (std::string& arg : storage) {
            argv.push_back(arg.data());
        }
    }
    [[nodiscard]] int argc() const { return static_cast<int>(argv.size()); }

    std::vector<std::string> storage;
    std::vector<char*> argv;
};

TEST(BenchFlags, ReadsCountsAndTextOrFallsBack) {
    command_line line({"--reps", "5", "--out", "x.json"});
    EXPECT_EQ(flag_value(line.argc(), line.argv.data(), "--reps", 3), 5u);
    EXPECT_EQ(flag_value(line.argc(), line.argv.data(), "--grain", 8), 8u);
    EXPECT_EQ(flag_text(line.argc(), line.argv.data(), "--out"), "x.json");
    EXPECT_EQ(flag_text(line.argc(), line.argv.data(), "--trace"), "");
}

TEST(BenchFlagsDeathTest, MalformedValueExitsTwoNamingTheFlag) {
    for (const char* bad : {"banana", "-1", "99999999999999999999", "3x", ""}) {
        command_line line({"--clients", bad});
        EXPECT_EXIT(
            (void)flag_value(line.argc(), line.argv.data(), "--clients", 4),
            ::testing::ExitedWithCode(2), "bad value '.*' for --clients")
            << bad;
    }
}

TEST(BenchFlagsDeathTest, MissingValueExitsTwoNamingTheFlag) {
    command_line line({"--reps"});
    EXPECT_EXIT((void)flag_value(line.argc(), line.argv.data(), "--reps", 3),
                ::testing::ExitedWithCode(2), "missing value for --reps");
    EXPECT_EXIT((void)flag_text(line.argc(), line.argv.data(), "--reps"),
                ::testing::ExitedWithCode(2), "missing value for --reps");
}

TEST(BenchFlagsDeathTest, MalformedScaleExitsTwoNamingTheVariable) {
    const char* before = std::getenv("QUORUM_BENCH_SCALE");
    const std::string saved = before == nullptr ? "" : before;
    for (const char* bad : {"banana", "0.5x", "", "nan", "inf", "0", "-2"}) {
        ASSERT_EQ(setenv("QUORUM_BENCH_SCALE", bad, 1), 0);
        EXPECT_EXIT((void)quorum::bench::bench_scale(),
                    ::testing::ExitedWithCode(2),
                    "bad value '.*' for QUORUM_BENCH_SCALE")
            << bad;
    }
    ASSERT_EQ(setenv("QUORUM_BENCH_SCALE", "0.5", 1), 0);
    EXPECT_EQ(quorum::bench::bench_scale(), 0.5);
    ASSERT_EQ(setenv("QUORUM_BENCH_SCALE", "1e-9", 1), 0);
    EXPECT_EQ(quorum::bench::bench_scale(), 0.05);
    if (before == nullptr) {
        ASSERT_EQ(unsetenv("QUORUM_BENCH_SCALE"), 0);
        EXPECT_EQ(quorum::bench::bench_scale(), 1.0);
    } else {
        ASSERT_EQ(setenv("QUORUM_BENCH_SCALE", saved.c_str(), 1), 0);
    }
}

} // namespace
