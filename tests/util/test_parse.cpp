// util/parse.h: the strict parsing helpers behind every tool flag. The
// regression of record is CLI flags silently mis-parsing via std::atoi
// ("--retry banana" → 0 retries, "--workers -1" → 2^64 - 1 workers);
// these tests pin the strict behaviour for garbage, negatives, overflow
// and trailing junk. The real parsers (parse_real, and the QSRV1
// protocol's exec::serve_parse_double built on it) read plain decimals
// through from_chars_finite; strtod-only copies of both, as they read
// before that fast path, pin their grammar and bits over a corpus.
#include "util/parse.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "../number_corpus.h"
#include "exec/serve_client.h"

namespace {

using namespace quorum;

/// parse_real with strtod alone: the reference for the fast path.
bool strtod_parse_real(std::string_view text, double& out) {
    const std::string copy(text);
    char* end = nullptr;
    const double value = std::strtod(copy.c_str(), &end);
    if (copy.empty() || std::isspace(static_cast<unsigned char>(copy[0])) ||
        *end != '\0' || !std::isfinite(value)) {
        return false;
    }
    out = value;
    return true;
}

/// exec::serve_parse_double with strtod alone (which skips leading
/// whitespace): the reference for the fast path.
bool strtod_serve_parse_double(const std::string& text, double& value) {
    if (text.empty()) {
        return false;
    }
    char* end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !std::isfinite(parsed)) {
        return false;
    }
    value = parsed;
    return true;
}

bool same_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

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

TEST(Parse, FromCharsFiniteTakesPlainDecimalsOnly) {
    for (const char* plain : {"-1.5", ".5", "5.", "2e-3", "1E5", "3e-324",
                              "1.7976931348623157e308"}) {
        const std::optional<double> value = util::from_chars_finite(plain);
        ASSERT_TRUE(value.has_value()) << plain;
        EXPECT_TRUE(same_bits(*value, std::strtod(plain, nullptr))) << plain;
    }
    EXPECT_TRUE(std::signbit(util::from_chars_finite("-0").value_or(1.0)));
    // Left to strtod: its wider grammar, its error cases, and trailing
    // text, an embedded NUL included.
    for (const char* declined : {"", "+1.5", " 1.5", "1.5 ", "0x1p3", "inf",
                                 "-Infinity", "nan", "1e400", "1e-400", "1e",
                                 "1.5abc"}) {
        EXPECT_FALSE(util::from_chars_finite(declined)) << declined;
    }
    EXPECT_FALSE(util::from_chars_finite(std::string_view("1.5\0x", 5)));
}

TEST(Parse, RealAndServeParseKeepStrtodsDecisionsAndBits) {
    for (const std::string& text : test::number_corpus(4000)) {
        double expected = 0.0;
        double actual = 0.0;
        const bool accepted = strtod_parse_real(text, expected);
        ASSERT_EQ(util::parse_real(text, actual), accepted)
            << '"' << text << '"';
        if (accepted) {
            ASSERT_TRUE(same_bits(actual, expected)) << '"' << text << '"';
        }
        const bool served = strtod_serve_parse_double(text, expected);
        ASSERT_EQ(exec::serve_parse_double(text, actual), served)
            << '"' << text << '"';
        if (served) {
            ASSERT_TRUE(same_bits(actual, expected)) << '"' << text << '"';
        }
    }
}

TEST(Parse, TextAfterAnEmbeddedNulIsTrailingGarbage) {
    // strtod stops at the NUL; the whole text still has to be a number.
    double value = 0.25;
    const std::string_view text("1.5\0abc", 7);
    EXPECT_FALSE(util::parse_real(text, value));
    EXPECT_FALSE(exec::serve_parse_double(text, value));
    EXPECT_EQ(value, 0.25);
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
