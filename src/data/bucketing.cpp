#include "data/bucketing.h"

#include <cmath>

#include "util/contracts.h"

namespace quorum::data {

namespace {

/// lgamma without writing the global signgam (std::lgamma does, which
/// is a data race when ensemble groups size their buckets concurrently).
double log_gamma(double x) {
    int sign = 0;
    return ::lgamma_r(x, &sign);
}

/// log C(n, k) via lgamma (exact enough for probabilities).
double log_choose(std::size_t n, std::size_t k) {
    QUORUM_EXPECTS(k <= n);
    return log_gamma(static_cast<double>(n) + 1.0) -
           log_gamma(static_cast<double>(k) + 1.0) -
           log_gamma(static_cast<double>(n - k) + 1.0);
}

} // namespace

double prob_bucket_contains_anomaly(std::size_t population,
                                    std::size_t anomalies,
                                    std::size_t bucket_size) {
    QUORUM_EXPECTS(population >= 1);
    QUORUM_EXPECTS(anomalies <= population);
    QUORUM_EXPECTS(bucket_size >= 1 && bucket_size <= population);
    if (anomalies == 0) {
        return 0.0;
    }
    if (bucket_size > population - anomalies) {
        return 1.0; // pigeonhole: not enough normal samples to fill it
    }
    // P[no anomaly] = C(N-A, s) / C(N, s).
    const double log_p_none = log_choose(population - anomalies, bucket_size) -
                              log_choose(population, bucket_size);
    return 1.0 - std::exp(log_p_none);
}

std::size_t solve_bucket_size(std::size_t population, std::size_t anomalies,
                              double target_probability) {
    QUORUM_EXPECTS(population >= 1);
    QUORUM_EXPECTS(target_probability > 0.0 && target_probability < 1.0);
    if (anomalies == 0) {
        return population;
    }
    // The containment probability is monotone in bucket_size: binary search.
    std::size_t lo = 1;
    std::size_t hi = population;
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (prob_bucket_contains_anomaly(population, anomalies, mid) >=
            target_probability) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    return lo;
}

std::vector<std::vector<std::size_t>>
make_buckets(std::size_t population, std::size_t bucket_size, util::rng& gen) {
    QUORUM_EXPECTS(population >= 1);
    QUORUM_EXPECTS(bucket_size >= 1);
    const std::size_t bucket_count =
        (population + bucket_size - 1) / bucket_size;
    const std::vector<std::size_t> order = gen.permutation(population);

    std::vector<std::vector<std::size_t>> buckets(bucket_count);
    // Sizes differ by at most one: the first `population % bucket_count`
    // buckets take one extra element.
    const std::size_t base = population / bucket_count;
    const std::size_t extra = population % bucket_count;
    std::size_t cursor = 0;
    for (std::size_t b = 0; b < bucket_count; ++b) {
        const std::size_t size = base + (b < extra ? 1 : 0);
        buckets[b].assign(order.begin() + static_cast<std::ptrdiff_t>(cursor),
                          order.begin() +
                              static_cast<std::ptrdiff_t>(cursor + size));
        cursor += size;
    }
    QUORUM_ENSURES(cursor == population);
    return buckets;
}

} // namespace quorum::data
