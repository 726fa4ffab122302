#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/contracts.h"

namespace quorum::util {

void welford_accumulator::add(double value) noexcept {
    ++count_;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
}

double welford_accumulator::variance_population() const noexcept {
    if (count_ < 1) {
        return 0.0;
    }
    return m2_ / static_cast<double>(count_);
}

double welford_accumulator::variance_sample() const noexcept {
    if (count_ < 2) {
        return 0.0;
    }
    return m2_ / static_cast<double>(count_ - 1);
}

double welford_accumulator::stddev_population() const noexcept {
    return std::sqrt(variance_population());
}

void welford_accumulator::merge(const welford_accumulator& other) noexcept {
    if (other.count_ == 0) {
        return;
    }
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double total = static_cast<double>(count_ + other.count_);
    const double delta = other.mean_ - mean_;
    m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                           static_cast<double>(other.count_) / total;
    mean_ += delta * static_cast<double>(other.count_) / total;
    count_ += other.count_;
}

double mean(std::span<const double> values) noexcept {
    if (values.empty()) {
        return 0.0;
    }
    welford_accumulator acc;
    for (const double v : values) {
        acc.add(v);
    }
    return acc.mean();
}

double stddev_population(std::span<const double> values) noexcept {
    welford_accumulator acc;
    for (const double v : values) {
        acc.add(v);
    }
    return acc.stddev_population();
}

double quantile(std::span<const double> values, double q) {
    QUORUM_EXPECTS(!values.empty());
    QUORUM_EXPECTS(q >= 0.0 && q <= 1.0);
    std::vector<double> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1) {
        return sorted.front();
    }
    const double position = q * static_cast<double>(sorted.size() - 1);
    const auto lower = static_cast<std::size_t>(position);
    const double fraction = position - static_cast<double>(lower);
    if (lower + 1 >= sorted.size()) {
        return sorted.back();
    }
    return sorted[lower] + fraction * (sorted[lower + 1] - sorted[lower]);
}

double median(std::span<const double> values) { return quantile(values, 0.5); }

} // namespace quorum::util
