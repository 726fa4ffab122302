// bench/bench_common.h's flag helpers, which every bench that takes flags
// reads them through. They used to parse with strtoull(v, nullptr, 10),
// so "--reps banana" became 0 and "--clients -1" became 2^64 - 1; a
// malformed or missing value now exits 2 naming the flag.
#include "bench_common.h"

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

} // namespace
