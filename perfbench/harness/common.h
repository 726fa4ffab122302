// Shared pieces of the benchmark harness: run options, the report each
// workload returns, timing and percentile helpers, the score digest and
// the bitwise output check.
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/config.h"
#include "data/dataset.h"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
[[nodiscard]] inline double seconds_since(clock_type::time_point start) {
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// Monotonic nanoseconds (span timestamps).
[[nodiscard]] inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               clock_type::now().time_since_epoch())
        .count();
}

/// Settings of the open-loop phase of serve_fleet (perfbench/settings.json).
struct serve_settings {
    double offered_rate = 0.0;     ///< Poisson arrivals per second
    double p99_limit_ms = 0.0;     ///< latency limit of the open loop
    double lag_limit_ms = 0.0;     ///< generator lag p99 bound
    std::size_t backlog_limit = 0; ///< outstanding-request bound
};

/// One run's options, as run.py passes them.
struct options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    /// Directory (inside the checkout) for the generated input files.
    std::string data_dir;
    serve_settings serve;
};

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What a workload run reports back to main.
struct report {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /// Digest of the scores the measured path produced.
    std::string digest;
    std::vector<metric> metrics;
    /// Set when the run's own validity bounds were broken (serve_fleet's
    /// generator lag or backlog); its numbers are then not reported.
    std::string invalid;

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

report run_batch_table(const options& opts);
report run_noisy_table(const options& opts);
report run_stream_push(const options& opts);
report run_serve_fleet(const options& opts);

/// Median of `values` (mean of the middle pair for even counts).
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile, q in (0, 1].
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// FNV-1a over the IEEE-754 bit patterns of a score sequence.
class score_digest {
public:
    void add(std::span<const double> scores);
    [[nodiscard]] std::string hex() const;

private:
    std::uint64_t state_ = 14695981039346656037ull;
};

/// True when both sequences have the same length and every element has
/// the same bit pattern.
[[nodiscard]] bool same_bits(std::span<const double> a,
                             std::span<const double> b);

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb_self();

/// Peak resident set (VmHWM) of process `pid` ("self" for this one), in
/// MB; 0 when unreadable.
[[nodiscard]] double peak_rss_mb_of(const std::string& pid);

/// Rotates the calling thread over CPU placements, one per pass. On a
/// shared virtual machine one vCPU can run at half speed for tens of
/// seconds while another runs at full speed; a run that stays where it
/// started measures that luck, one that rotates meets every vCPU. A
/// placement is `width` consecutive allowed CPUs (wrapping), one starting
/// at each; threads started after next() inherit it. With fewer allowed
/// CPUs than `width`, nothing is pinned.
class cpu_rotation {
public:
    explicit cpu_rotation(std::size_t width);
    ~cpu_rotation(); ///< restores the affinity the thread had before

    cpu_rotation(const cpu_rotation&) = delete;
    cpu_rotation& operator=(const cpu_rotation&) = delete;

    /// Pins the calling thread to the next placement.
    void next();

private:
    std::vector<int> allowed_;
    std::size_t width_;
    std::size_t at_ = 0;
};

/// Writes `d` (with labels) as a CSV that round-trips every double.
void write_table_csv(const std::string& path, const quorum::data::dataset& d);

/// Reads a CSV written by write_table_csv: `features` columns, then the
/// label.
[[nodiscard]] quorum::data::dataset read_table_csv(const std::string& path,
                                                   std::size_t features);

/// Median time to compile one group's level family: core::
/// make_level_program for every compression level of `config`, on its
/// resolved backend, over random ansatz angles.
[[nodiscard]] double
compile_us_per_family(const quorum::core::quorum_config& config);

/// Median time per sample of qml::to_encoded_amplitudes on each row's
/// randomly selected features (the rows are normalised first, as the
/// detector does).
[[nodiscard]] double
encode_ns_per_sample(const std::vector<quorum::data::dataset>& tables,
                     const quorum::core::quorum_config& config,
                     std::uint64_t seed);

/// Length of the union of the child intervals that start inside
/// [from, to), clipped to it. `sorted` is ordered by start. Used for self
/// time: a span minus what its children cover.
[[nodiscard]] std::int64_t covered_ns(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& sorted,
    std::int64_t from, std::int64_t to);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
