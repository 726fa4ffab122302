#include "common.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <stdexcept>

#include <sched.h>

#include "core/ensemble.h"
#include "data/csv.h"
#include "data/feature_select.h"
#include "data/preprocess.h"
#include "exec/registry.h"
#include "qml/angle_encoding.h"
#include "qml/ansatz.h"
#include "util/rng.h"

namespace perfbench {

double median(std::vector<double> values) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

void score_digest::add(std::span<const double> scores) {
    for (const double score : scores) {
        std::uint64_t bits = std::bit_cast<std::uint64_t>(score);
        for (int byte = 0; byte < 8; ++byte) {
            state_ ^= bits & 0xffu;
            state_ *= 1099511628211ull;
            bits >>= 8;
        }
    }
}

std::string score_digest::hex() const {
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(state_));
    return text;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::bit_cast<std::uint64_t>(a[i]) !=
            std::bit_cast<std::uint64_t>(b[i])) {
            return false;
        }
    }
    return true;
}

double peak_rss_mb_self() {
    // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water
    // mark of the image this process replaced at exec (the launcher's).
    return peak_rss_mb_of("self");
}

double peak_rss_mb_of(const std::string& pid) {
    std::ifstream status("/proc/" + pid + "/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(1 << 16, '\n');
    }
    return 0.0;
}

namespace {

void pin_self(const std::vector<int>& cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus) {
        CPU_SET(cpu, &set);
    }
    (void)::sched_setaffinity(0, sizeof(set), &set);
}

} // namespace

cpu_rotation::cpu_rotation(std::size_t width) : width_(width) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set)) {
                allowed_.push_back(cpu);
            }
        }
    }
}

cpu_rotation::~cpu_rotation() {
    if (at_ != 0) {
        pin_self(allowed_);
    }
}

void cpu_rotation::next() {
    if (allowed_.size() < width_ || width_ == 0) {
        return;
    }
    std::vector<int> placement;
    for (std::size_t k = 0; k < width_; ++k) {
        placement.push_back(allowed_[(at_ + k) % allowed_.size()]);
    }
    pin_self(placement);
    ++at_;
}

void write_table_csv(const std::string& path,
                     const quorum::data::dataset& d) {
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("cannot write " + path);
    }
    out << std::setprecision(17);
    quorum::data::write_csv(out, d);
}

quorum::data::dataset read_table_csv(const std::string& path,
                                     std::size_t features) {
    quorum::data::csv_options options;
    options.label_column = static_cast<int>(features);
    return quorum::data::read_csv_file(path, options);
}

double compile_us_per_family(const quorum::core::quorum_config& config) {
    const std::unique_ptr<quorum::exec::executor> engine =
        quorum::exec::make_executor(config.resolved_backend(),
                                    config.to_engine_config());
    quorum::util::rng gen(config.seed);
    const std::vector<std::size_t> levels =
        config.effective_compression_levels();
    std::vector<double> samples;
    for (int rep = 0; rep < 200; ++rep) {
        const quorum::qml::ansatz_params params =
            quorum::qml::random_ansatz_params(config.n_qubits,
                                              config.ansatz_layers, gen);
        const std::int64_t start = now_ns();
        std::vector<quorum::exec::program> family;
        for (const std::size_t level : levels) {
            family.push_back(quorum::core::make_level_program(
                params, level, config, *engine));
        }
        samples.push_back(static_cast<double>(now_ns() - start) / 1e3);
    }
    return median(samples);
}

double encode_ns_per_sample(const std::vector<quorum::data::dataset>& tables,
                            const quorum::core::quorum_config& config,
                            std::uint64_t seed) {
    namespace data = quorum::data;
    const std::size_t features = quorum::qml::encoded_feature_count(
        config.encoding, config.n_qubits);
    std::vector<data::dataset> normalized;
    for (const data::dataset& d : tables) {
        normalized.push_back(data::normalize_for_quorum(d.without_labels()));
    }
    std::vector<double> samples;
    for (int rep = 0; rep < 5; ++rep) {
        quorum::util::rng gen(seed);
        std::int64_t total = 0;
        std::size_t rows = 0;
        for (const data::dataset& d : normalized) {
            const std::vector<std::size_t> subset =
                data::select_features(d.num_features(), features, gen);
            for (std::size_t i = 0; i < d.num_samples(); ++i) {
                const std::vector<double> selected =
                    data::gather_features(d.row(i), subset);
                const std::int64_t start = now_ns();
                const std::vector<double> amplitudes =
                    quorum::qml::to_encoded_amplitudes(
                        config.encoding, selected, config.n_qubits);
                total += now_ns() - start;
                rows += amplitudes.empty() ? 0 : 1;
            }
        }
        samples.push_back(static_cast<double>(total) /
                          static_cast<double>(std::max<std::size_t>(1, rows)));
    }
    return median(samples);
}

std::int64_t covered_ns(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& sorted,
    std::int64_t from, std::int64_t to) {
    std::int64_t covered = 0;
    std::int64_t reach = from;
    auto it = std::lower_bound(sorted.begin(), sorted.end(),
                               std::pair<std::int64_t, std::int64_t>{from, 0});
    for (; it != sorted.end() && it->first < to; ++it) {
        const std::int64_t lo = std::max(it->first, reach);
        const std::int64_t hi = std::min(it->second, to);
        if (hi > lo) {
            covered += hi - lo;
            reach = hi;
        }
    }
    return covered;
}

} // namespace perfbench
