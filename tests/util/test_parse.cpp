// util/parse.h: the strict parsing helpers behind every tool flag. The
// regression of record is CLI flags silently mis-parsing via std::atoi
// ("--retry banana" → 0 retries, "--workers -1" → 2^64 - 1 workers);
// these tests pin the strict behaviour for garbage, negatives, overflow
// and trailing junk.
#include "util/parse.h"

#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace {

using namespace quorum;

TEST(Parse, UnsignedAcceptsPlainDigits) {
    unsigned long long value = 99;
    EXPECT_TRUE(util::parse_unsigned("0", value));
    EXPECT_EQ(value, 0u);
    EXPECT_TRUE(util::parse_unsigned("42", value));
    EXPECT_EQ(value, 42u);
    EXPECT_TRUE(util::parse_unsigned("18446744073709551615", value));
    EXPECT_EQ(value, std::numeric_limits<unsigned long long>::max());
}

TEST(Parse, UnsignedRejectsGarbageSignsAndOverflow) {
    unsigned long long value = 7;
    EXPECT_FALSE(util::parse_unsigned("", value));
    EXPECT_FALSE(util::parse_unsigned("banana", value));
    EXPECT_FALSE(util::parse_unsigned("12banana", value));
    EXPECT_FALSE(util::parse_unsigned("-1", value));
    EXPECT_FALSE(util::parse_unsigned("+1", value));
    EXPECT_FALSE(util::parse_unsigned(" 1", value));
    EXPECT_FALSE(util::parse_unsigned("1 ", value));
    // One past max: must report overflow, not wrap.
    EXPECT_FALSE(util::parse_unsigned("18446744073709551616", value));
    EXPECT_EQ(value, 7u) << "failed parses must not clobber the output";
}

TEST(Parse, CountFitsTargetType) {
    int retries = -1;
    EXPECT_TRUE(util::parse_count("3", retries));
    EXPECT_EQ(retries, 3);
    EXPECT_TRUE(util::parse_count("2147483647", retries));
    EXPECT_EQ(retries, std::numeric_limits<int>::max());
    // INT_MAX + 1 fits unsigned long long but not int.
    EXPECT_FALSE(util::parse_count("2147483648", retries));
    EXPECT_FALSE(util::parse_count("-1", retries));
    EXPECT_FALSE(util::parse_count("banana", retries));

    std::size_t wide = 0;
    EXPECT_TRUE(util::parse_count("2147483648", wide));
    EXPECT_EQ(wide, 2147483648u);

    std::uint8_t tiny = 0;
    EXPECT_TRUE(util::parse_count("255", tiny));
    EXPECT_EQ(tiny, 255u);
    EXPECT_FALSE(util::parse_count("256", tiny));
}

TEST(Parse, RealConsumesWholeString) {
    double value = 0.0;
    EXPECT_TRUE(util::parse_real("0.75", value));
    EXPECT_DOUBLE_EQ(value, 0.75);
    EXPECT_TRUE(util::parse_real("-2.5e-3", value));
    EXPECT_DOUBLE_EQ(value, -2.5e-3);
    EXPECT_FALSE(util::parse_real("", value));
    EXPECT_FALSE(util::parse_real("banana", value));
    EXPECT_FALSE(util::parse_real("0.5abc", value));
    EXPECT_FALSE(util::parse_real("0.5 ", value));
}

TEST(Parse, RealRejectsNonFiniteAndLeadingWhitespace) {
    // strtod takes all of these; a flag such as --drift nan used to run.
    double value = 0.25;
    EXPECT_FALSE(util::parse_real("nan", value));
    EXPECT_FALSE(util::parse_real("NaN", value));
    EXPECT_FALSE(util::parse_real("inf", value));
    EXPECT_FALSE(util::parse_real("-inf", value));
    EXPECT_FALSE(util::parse_real("infinity", value));
    EXPECT_FALSE(util::parse_real("1e999", value)) << "overflows to +inf";
    EXPECT_FALSE(util::parse_real(" 0.5", value));
    EXPECT_FALSE(util::parse_real("\t0.5", value));
    EXPECT_EQ(value, 0.25) << "failed parses must not clobber the output";
    EXPECT_TRUE(util::parse_real("1e308", value));
    EXPECT_DOUBLE_EQ(value, 1e308);
}

TEST(Parse, IntAcceptsNegativesButNotGarbage) {
    int value = 0;
    EXPECT_TRUE(util::parse_int("-1", value));
    EXPECT_EQ(value, -1);
    EXPECT_TRUE(util::parse_int("2147483647", value));
    EXPECT_EQ(value, std::numeric_limits<int>::max());
    EXPECT_TRUE(util::parse_int("-2147483648", value));
    EXPECT_EQ(value, std::numeric_limits<int>::min());
    EXPECT_FALSE(util::parse_int("2147483648", value));
    EXPECT_FALSE(util::parse_int("-2147483649", value));
    EXPECT_FALSE(util::parse_int("banana", value));
    EXPECT_FALSE(util::parse_int("3banana", value));
    EXPECT_FALSE(util::parse_int("", value));
    EXPECT_FALSE(util::parse_int(" 5", value)) << "strtol skips whitespace";
    EXPECT_FALSE(util::parse_int("\n-1", value));
}

} // namespace
