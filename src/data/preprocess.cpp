#include "data/preprocess.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "util/contracts.h"

namespace quorum::data {

normalization_summary summarize_ranges(const dataset& input) {
    normalization_summary summary;
    summary.feature_min.assign(input.num_features(),
                               std::numeric_limits<double>::infinity());
    summary.feature_max.assign(input.num_features(),
                               -std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < input.num_samples(); ++i) {
        for (std::size_t j = 0; j < input.num_features(); ++j) {
            const double v = input.at(i, j);
            if (!std::isfinite(v)) {
                std::string where = "dataset row " + std::to_string(i) +
                                    ", column " + std::to_string(j);
                if (j < input.feature_names().size()) {
                    where += " ('" + input.feature_names()[j] + "')";
                }
                throw util::contract_error(where + " is " +
                                           std::to_string(v) +
                                           ", not a finite number");
            }
            summary.feature_min[j] = std::min(summary.feature_min[j], v);
            summary.feature_max[j] = std::max(summary.feature_max[j], v);
        }
    }
    return summary;
}

namespace {

/// Shared range-based normalisation kernel: x -> (x - min)/range * cap.
/// normalize_for_quorum passes cap = 1/M (bit-identical to the original
/// inline expression); normalize_unit_range passes cap = 1.
dataset normalize_range_scaled(const dataset& input, double cap) {
    const normalization_summary summary = summarize_ranges(input);
    dataset out = input;
    for (std::size_t j = 0; j < input.num_features(); ++j) {
        const double range = summary.feature_max[j] - summary.feature_min[j];
        for (std::size_t i = 0; i < input.num_samples(); ++i) {
            if (range <= 0.0) {
                out.at(i, j) = 0.0;
            } else {
                out.at(i, j) = (input.at(i, j) - summary.feature_min[j]) /
                               range * cap;
            }
        }
    }
    return out;
}

} // namespace

dataset normalize_for_quorum(const dataset& input) {
    return normalize_range_scaled(
        input, 1.0 / static_cast<double>(input.num_features()));
}

dataset normalize_unit_range(const dataset& input) {
    return normalize_range_scaled(input, 1.0);
}

double hash_category(std::string_view token) noexcept {
    // FNV-1a 64-bit, folded into the unit interval.
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char ch : token) {
        hash ^= static_cast<std::uint8_t>(ch);
        hash *= 0x100000001b3ULL;
    }
    return static_cast<double>(hash >> 11) * 0x1.0p-53;
}

} // namespace quorum::data
