// Shared helpers for the figure/table reproduction benches.
//
// Every bench is deterministic (fixed seeds) and honours QUORUM_BENCH_SCALE:
// a floating-point multiplier on ensemble-group counts (default 1.0). The
// defaults are sized to finish in seconds-to-a-minute on a laptop; set
// QUORUM_BENCH_SCALE=5 (or more) to approach the paper's 1000-group runs —
// results stabilise well before that (see bench_ablation_shots_ensembles).
#ifndef QUORUM_BENCH_COMMON_H
#define QUORUM_BENCH_COMMON_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/parse.h"

namespace quorum::bench {

/// Multiplier from QUORUM_BENCH_SCALE (default 1.0, clamped to [0.05, 100]).
/// A value that is not a positive finite number (util::parse_real) exits
/// 2 naming the variable.
inline double bench_scale() {
    const char* raw = std::getenv("QUORUM_BENCH_SCALE");
    if (raw == nullptr) {
        return 1.0;
    }
    double parsed = 0.0;
    if (!util::parse_real(raw, parsed) || parsed <= 0.0) {
        std::fprintf(stderr, "bad value '%s' for QUORUM_BENCH_SCALE\n", raw);
        std::exit(2);
    }
    return std::clamp(parsed, 0.05, 100.0);
}

/// Scaled ensemble-group count with a floor.
inline std::size_t scaled_groups(std::size_t base) {
    const auto scaled =
        static_cast<std::size_t>(base * bench_scale());
    return std::max<std::size_t>(2, scaled);
}

/// True when the extended (n = 10 / n = 12, related-work sized) bench
/// rows should be registered: QUORUM_BENCH_SCALE >= 2. Default runs (and
/// CI) stay at the fast n <= 7 rows.
inline bool bench_extended_sizes() { return bench_scale() >= 2.0; }

/// The master seed shared by all benches (dataset generation + detector).
inline constexpr std::uint64_t bench_seed = 2025;

/// The argument after `name` on the command line, or nullptr when `name`
/// is absent. `name` with no value after it exits 2.
inline const char* flag_argument(int argc, char** argv, const char* name) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0) {
            if (i + 1 == argc) {
                std::fprintf(stderr, "%s: missing value for %s\n", argv[0],
                             name);
                std::exit(2);
            }
            return argv[i + 1];
        }
    }
    return nullptr;
}

/// The count after `name` (util::parse_count), or `fallback` when `name`
/// is absent. A value that is not a plain non-negative integer exits 2.
inline std::size_t flag_value(int argc, char** argv, const char* name,
                              std::size_t fallback) {
    const char* text = flag_argument(argc, argv, name);
    std::size_t value = fallback;
    if (text != nullptr && !util::parse_count(text, value)) {
        std::fprintf(stderr, "%s: bad value '%s' for %s\n", argv[0], text,
                     name);
        std::exit(2);
    }
    return value;
}

/// The text after `name`, or "" when `name` is absent.
inline std::string flag_text(int argc, char** argv, const char* name) {
    const char* text = flag_argument(argc, argv, name);
    return text == nullptr ? std::string{} : std::string(text);
}

} // namespace quorum::bench

#endif // QUORUM_BENCH_COMMON_H
