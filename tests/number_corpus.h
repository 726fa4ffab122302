// The number texts the parser suites run through both the from_chars
// fast path and a strtod-only reference (tests/util/test_parse.cpp,
// tests/data/test_csv.cpp): seeded random finite doubles, subnormals
// included, printed in six printf formats; strings at the edges of
// strtod's grammar; and 800-digit mantissas, two of them a hair either
// side of a rounding tie.
#ifndef QUORUM_TESTS_NUMBER_CORPUS_H
#define QUORUM_TESTS_NUMBER_CORPUS_H

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

namespace quorum::test {

/// The edge strings, then up to `patterns` random finite doubles (every
/// eighth with its exponent cleared, so a subnormal or zero) in %.17g,
/// %.6g, %.3e, %.20e, %.0f and %a, then the long mantissas.
inline std::vector<std::string> number_corpus(std::size_t patterns) {
    std::vector<std::string> corpus = {
        "",       "-",      ".",        "+1.5",      " 1.5",   "\t1.5",
        "1.5 ",   "0x1p3",  "1e",       "1e400",     "-1e400", "1e-400",
        "-1e-400", "2.4e-324", "3e-324", "nan",      "-Infinity",
        "1.5abc", "-0"};
    std::mt19937_64 gen(20250417);
    char text[512];
    for (std::size_t i = 0; i < patterns; ++i) {
        std::uint64_t bits = gen();
        if (i % 8 == 0) {
            bits &= ~(std::uint64_t{0x7FF} << 52);
        }
        const double value = std::bit_cast<double>(bits);
        if (!std::isfinite(value)) {
            continue;
        }
        for (const char* format :
             {"%.17g", "%.6g", "%.3e", "%.20e", "%.0f", "%a"}) {
            std::snprintf(text, sizeof(text), format, value);
            corpus.emplace_back(text);
        }
    }
    std::string digits(800, '0');
    for (char& digit : digits) {
        digit = static_cast<char>('0' + gen() % 10);
    }
    digits[0] = '7';
    for (const char* exponent : {"e-330", "e-310", "e-20", "", "e300"}) {
        corpus.push_back(digits.substr(0, 1) + "." + digits.substr(1) +
                         exponent);
    }
    // 2^53 + 1 is halfway between two doubles: exactly that ties to
    // even (2^53); a 1 in the 800th digit rounds up (2^53 + 2).
    const std::string tie = "9007199254740993." + std::string(784, '0');
    corpus.push_back(tie);
    corpus.push_back(tie.substr(0, tie.size() - 1) + "1");
    return corpus;
}

} // namespace quorum::test

#endif // QUORUM_TESTS_NUMBER_CORPUS_H
