// Streaming and batch statistics used throughout Quorum's scoring pipeline
// (per-bucket SWAP-test means and standard deviations, score percentiles).
#ifndef QUORUM_UTIL_STATS_H
#define QUORUM_UTIL_STATS_H

#include <cstddef>
#include <span>

namespace quorum::util {

/// Numerically stable single-pass mean/variance accumulator (Welford).
class welford_accumulator {
public:
    /// Adds one observation.
    void add(double value) noexcept;

    /// Number of observations so far.
    [[nodiscard]] std::size_t count() const noexcept { return count_; }

    /// Running mean; 0 when empty.
    [[nodiscard]] double mean() const noexcept { return mean_; }

    /// Population variance (divide by n); 0 when fewer than 1 observation.
    [[nodiscard]] double variance_population() const noexcept;

    /// Sample variance (divide by n-1); 0 when fewer than 2 observations.
    [[nodiscard]] double variance_sample() const noexcept;

    /// Population standard deviation.
    [[nodiscard]] double stddev_population() const noexcept;

    /// Merges another accumulator into this one (parallel reduction).
    void merge(const welford_accumulator& other) noexcept;

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/// Arithmetic mean of a sequence; 0 for an empty one.
[[nodiscard]] double mean(std::span<const double> values) noexcept;

/// Population standard deviation of a sequence; 0 for fewer than 2 values.
[[nodiscard]] double stddev_population(std::span<const double> values) noexcept;

/// q-th quantile (q in [0,1]) with linear interpolation between order
/// statistics. The input need not be sorted. Throws on empty input.
[[nodiscard]] double quantile(std::span<const double> values, double q);

/// Median (quantile 0.5).
[[nodiscard]] double median(std::span<const double> values);

} // namespace quorum::util

#endif // QUORUM_UTIL_STATS_H
