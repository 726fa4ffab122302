#include <cmath>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "util/contracts.h"

#include "data/preprocess.h"
#include "util/rng.h"

namespace {

using namespace quorum::data;

TEST(Preprocess, NormalizeForQuorumBoundsFeatures) {
    quorum::util::rng gen(3);
    dataset d(50, 4);
    for (std::size_t i = 0; i < 50; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
            d.at(i, j) = gen.uniform(-100.0, 100.0);
        }
    }
    const dataset normalized = normalize_for_quorum(d);
    const double cap = 1.0 / 4.0;
    for (std::size_t i = 0; i < 50; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
            EXPECT_GE(normalized.at(i, j), -1e-12);
            EXPECT_LE(normalized.at(i, j), cap + 1e-12);
        }
    }
}

TEST(Preprocess, SumOfSquaresNeverExceedsOne) {
    // The paper's key invariant (§IV-A): after 1/M normalisation, every
    // sample's squared feature mass fits into a quantum state.
    quorum::util::rng gen(5);
    dataset d(100, 17);
    for (std::size_t i = 0; i < 100; ++i) {
        for (std::size_t j = 0; j < 17; ++j) {
            d.at(i, j) = gen.normal(0.0, 50.0);
        }
    }
    const dataset normalized = normalize_for_quorum(d);
    for (std::size_t i = 0; i < 100; ++i) {
        double sum_squares = 0.0;
        for (std::size_t j = 0; j < 17; ++j) {
            sum_squares += normalized.at(i, j) * normalized.at(i, j);
        }
        EXPECT_LE(sum_squares, 1.0 + 1e-12);
    }
}

TEST(Preprocess, ExtremesMapToZeroAndCap) {
    dataset d = dataset::from_rows({{10.0, -5.0}, {20.0, 5.0}});
    const dataset normalized = normalize_for_quorum(d);
    EXPECT_DOUBLE_EQ(normalized.at(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(normalized.at(1, 0), 0.5); // 1/M with M=2
    EXPECT_DOUBLE_EQ(normalized.at(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(normalized.at(1, 1), 0.5);
}

TEST(Preprocess, ConstantFeatureMapsToZero) {
    dataset d = dataset::from_rows({{3.0, 1.0}, {3.0, 2.0}});
    const dataset normalized = normalize_for_quorum(d);
    EXPECT_DOUBLE_EQ(normalized.at(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(normalized.at(1, 0), 0.0);
}

TEST(Preprocess, LabelsSurviveNormalisationUntouched) {
    dataset d = dataset::from_rows({{1.0}, {2.0}}, {1, 0});
    const dataset normalized = normalize_for_quorum(d);
    EXPECT_EQ(normalized.label(0), 1);
    EXPECT_EQ(normalized.label(1), 0);
}

TEST(Preprocess, NanRejected) {
    // The error names the 0-based row and column, and the feature name
    // when there is one.
    const auto message = [](const dataset& d) {
        try {
            (void)normalize_for_quorum(d);
        } catch (const quorum::util::contract_error& error) {
            return std::string(error.what());
        }
        return std::string("accepted");
    };
    dataset d(3, 2);
    d.at(2, 1) = std::numeric_limits<double>::infinity();
    EXPECT_THROW(summarize_ranges(d), quorum::util::contract_error);
    EXPECT_NE(message(d).find("row 2, column 1 is inf"), std::string::npos)
        << message(d);
    d.at(2, 1) = 0.0;
    d.at(1, 0) = std::numeric_limits<double>::quiet_NaN();
    d.set_feature_names({"volts", "amps"});
    EXPECT_NE(message(d).find("row 1, column 0 ('volts')"), std::string::npos)
        << message(d);
}

TEST(Preprocess, SummarizeRangesCorrect) {
    dataset d = dataset::from_rows({{1.0, -2.0}, {5.0, 0.0}, {3.0, -7.0}});
    const normalization_summary summary = summarize_ranges(d);
    EXPECT_DOUBLE_EQ(summary.feature_min[0], 1.0);
    EXPECT_DOUBLE_EQ(summary.feature_max[0], 5.0);
    EXPECT_DOUBLE_EQ(summary.feature_min[1], -7.0);
    EXPECT_DOUBLE_EQ(summary.feature_max[1], 0.0);
}

TEST(Preprocess, HashCategoryDeterministicAndInRange) {
    const double a1 = hash_category("visa");
    const double a2 = hash_category("visa");
    const double b = hash_category("mastercard");
    EXPECT_DOUBLE_EQ(a1, a2);
    EXPECT_NE(a1, b);
    EXPECT_GE(a1, 0.0);
    EXPECT_LT(a1, 1.0);
    EXPECT_GE(hash_category(""), 0.0);
}

TEST(Preprocess, HashSpreadsValues) {
    // 1000 distinct tokens should not collide (sanity, not crypto).
    std::set<double> seen;
    for (int i = 0; i < 1000; ++i) {
        seen.insert(hash_category("token_" + std::to_string(i)));
    }
    EXPECT_EQ(seen.size(), 1000u);
}

} // namespace
