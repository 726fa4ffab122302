// Preprocessing and the paper's 1/M normalisation (§IV-A):
//
//   normalized = raw / max_feature_value * (1/M)
//
// so every feature lies in [0, 1/M] and the sum of squares of any sample's
// features is at most M * (1/M)^2 = 1/M <= 1 — which is exactly what
// amplitude encoding with an overflow state needs. The paper's formula
// assumes non-negative inputs; `normalize_for_quorum` therefore first
// shifts each feature by its minimum ("range-based normalization").
// Non-numeric features are hashed to floats (§IV-A).
#ifndef QUORUM_DATA_PREPROCESS_H
#define QUORUM_DATA_PREPROCESS_H

#include <string_view>

#include "data/dataset.h"

namespace quorum::data {

/// Per-feature ranges observed during normalisation.
struct normalization_summary {
    std::vector<double> feature_min;
    std::vector<double> feature_max;
};

/// Range-based normalisation + 1/M scaling:
/// x -> (x - min_f) / (max_f - min_f) * (1/M). Constant features map to 0.
/// Labels and metadata are preserved (labels still never influence values).
[[nodiscard]] dataset normalize_for_quorum(const dataset& input);

/// Range-based normalisation into the full unit interval:
/// x -> (x - min_f) / (max_f - min_f). Constant features map to 0.
/// This is what angle encoding wants (each feature becomes its own
/// RY(pi·x) rotation, so the 1/M amplitude budget does not apply).
[[nodiscard]] dataset normalize_unit_range(const dataset& input);

/// Observed min/max per feature (for reports and tests). Throws
/// util::contract_error naming the 0-based row and column (with the
/// feature name when there is one) of a NaN or infinite value.
[[nodiscard]] normalization_summary summarize_ranges(const dataset& input);

/// Deterministic hash of a non-numeric feature into [0, 1) (FNV-1a based),
/// the paper's "transforming all non-numeric features into float values
/// (e.g., via hashing)".
[[nodiscard]] double hash_category(std::string_view token) noexcept;

} // namespace quorum::data

#endif // QUORUM_DATA_PREPROCESS_H
