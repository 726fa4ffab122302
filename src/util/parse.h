// Strict flag/number parsing shared by the tools layer, and the number
// fast path every text-to-double parser in the library goes through.
//
// Every helper consumes the WHOLE string or reports failure — no
// std::atoi-style silent truncation ("banana" → 0) and no unsigned
// wraparound ("-1" → 2^64 - 1). Callers decide what failure means
// (usage error, contract_error, ...); these helpers never throw.
#ifndef QUORUM_UTIL_PARSE_H
#define QUORUM_UTIL_PARSE_H

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace quorum::util {

/// Parses a non-negative integer from a plain digit string. Rejects
/// empty strings, signs, whitespace, trailing garbage, and values that
/// overflow unsigned long long.
inline bool parse_unsigned(std::string_view text,
                           unsigned long long& out) noexcept {
    if (text.empty()) {
        return false;
    }
    unsigned long long value = 0;
    constexpr auto max = std::numeric_limits<unsigned long long>::max();
    for (const char c : text) {
        if (c < '0' || c > '9') {
            return false;
        }
        const auto digit = static_cast<unsigned long long>(c - '0');
        if (value > (max - digit) / 10) {
            return false; // would overflow
        }
        value = value * 10 + digit;
    }
    out = value;
    return true;
}

/// Parses a non-negative count into any integer type T, rejecting
/// values that do not fit. Negative inputs fail the digit scan, so
/// T may be signed (e.g. an `int retries` that must be >= 0).
template <typename T>
bool parse_count(std::string_view text, T& out) noexcept {
    unsigned long long value = 0;
    if (!parse_unsigned(text, value) ||
        value > static_cast<unsigned long long>(
                    std::numeric_limits<T>::max())) {
        return false;
    }
    out = static_cast<T>(value);
    return true;
}

/// The value of `text` when std::from_chars reads all of it as a finite
/// number, else nullopt. It takes only the plain decimal grammar ("-1.5",
/// ".5", "2e-3", a subnormal) and declines the rest of what strtod reads:
/// a leading '+' or blank, hex, "inf"/"nan", overflow, an underflow to
/// zero, trailing text. Both functions round correctly, so a value it
/// accepts has strtod's bits. parse_real (and through it
/// exec::serve_parse_double) and data::read_csv's cells try it first and
/// keep strtod, with its terminated copy, for what it declines.
inline std::optional<double> from_chars_finite(std::string_view text) noexcept {
    double value = 0.0;
    const char* const last = text.data() + text.size();
    const auto [end, error] = std::from_chars(text.data(), last, value);
    if (error != std::errc{} || end != last || !std::isfinite(value)) {
        return std::nullopt;
    }
    return value;
}

/// Strict double parse: the whole string must be consumed (std::stod
/// silently accepts trailing garbage like "0.5abc"), with no leading
/// whitespace, and the value must be finite ("nan", "inf" and "1e999",
/// which overflows to inf, all fail). Otherwise strtod's grammar and
/// bits: a leading '+', hex and an underflow are accepted.
inline bool parse_real(std::string_view text, double& out) noexcept {
    if (const std::optional<double> fast = from_chars_finite(text)) {
        out = *fast;
        return true;
    }
    const std::string copy(text); // strtod needs a terminator
    char* end = nullptr;
    const double value = std::strtod(copy.c_str(), &end);
    if (copy.empty() || std::isspace(static_cast<unsigned char>(copy[0])) ||
        end != copy.c_str() + copy.size() || !std::isfinite(value)) {
        return false;
    }
    out = value;
    return true;
}

/// Strict int parse for flags where negatives are meaningful
/// (e.g. --label-column: -1 = no labels). No leading whitespace.
inline bool parse_int(std::string_view text, int& out) noexcept {
    const std::string copy(text);
    char* end = nullptr;
    const long value = std::strtol(copy.c_str(), &end, 10);
    if (copy.empty() || std::isspace(static_cast<unsigned char>(copy[0])) ||
        *end != '\0' ||
        value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max()) {
        return false;
    }
    out = static_cast<int>(value);
    return true;
}

} // namespace quorum::util

#endif // QUORUM_UTIL_PARSE_H
