// One ensemble group (paper §IV-E): fresh random buckets, a fresh random
// feature subset, fresh random ansatz angles, all compression levels.
// Every sample's SWAP-test P(1) is compared against its bucket's mean and
// standard deviation per (bucket, level) "run"; |z| deviations accumulate
// into the group's score contribution (Fig. 7).
#ifndef QUORUM_CORE_ENSEMBLE_H
#define QUORUM_CORE_ENSEMBLE_H

#include <cstddef>
#include <vector>

#include "core/config.h"
#include "data/dataset.h"
#include "exec/executor.h"
#include "qml/ansatz.h"

namespace quorum::core {

/// Floor for bucket standard deviations: below this the run carries no
/// signal and contributes zero deviation (avoids division blow-ups when a
/// bucket's SWAP results are all identical). Shared by the batch path
/// here and the streaming path (stream/bucket_stats.h) so both skip the
/// same degenerate runs.
inline constexpr double sigma_floor = 1e-9;

/// Rows per executor call: run_ensemble_group evaluates a group's rows in
/// order, this many at a time, so every Table-I group is one call while
/// the per-call scratch stays bounded on very large tables.
inline constexpr std::size_t ensemble_chunk_rows = 4096;

/// Most row ranges one group's rows split into, however many threads a
/// config asks for: beyond this a thread count is a misconfiguration,
/// not a parallelism request.
inline constexpr std::size_t max_row_ranges = 256;

/// The `lanes` quorum_detector::score passes run_ensemble_group: the
/// threads each of `groups` groups gets, floor(threads / groups), within
/// [1, max_row_ranges]; and 1 on an engine that already spreads every
/// batch over lanes of its own (exec::capability::parallel_batches),
/// where each range would only add one fleet dispatch.
[[nodiscard]] std::size_t row_lanes(std::size_t threads, std::size_t groups,
                                    const exec::executor& engine);

/// One compiled SWAP-test program per (group, level): the ansatz + SWAP
/// suffix is shared by every sample, so build/validate/fuse it once and
/// replay it across the group's rows through the executor. The register-A overlap
/// shortcut is used only when both the config and the backend allow it;
/// otherwise the full 2n+1-qubit SWAP-test circuit is compiled.
[[nodiscard]] exec::program
make_level_program(const qml::ansatz_params& params, std::size_t level,
                   const quorum_config& config,
                   const exec::executor& engine);

/// A single ensemble group's contribution to the anomaly scores.
struct group_result {
    /// Sum over (bucket, level) runs of |z_i| per sample.
    std::vector<double> abs_z_sum;
    /// Number of runs that contributed to each sample (for diagnostics).
    std::vector<std::size_t> run_count;
    /// Bucket size used by this group (identical across groups for a
    /// fixed dataset/config; exposed for reporting).
    std::size_t bucket_size = 0;
};

/// Runs ensemble group `group_index` over a dataset that has ALREADY been
/// normalised with data::normalize_for_quorum (values in [0, 1/M]),
/// evaluating its rows through `engine`: one compiled program per
/// compression level (the group's program family), submitted as one
/// fused run_batch_levels call per ensemble_chunk_rows rows — or one
/// run_batch per level and chunk when config.fused_levels is off; scores
/// are identical either way. `lanes` > 1 splits the rows into
/// min(lanes, rows) contiguous ranges evaluated concurrently, each
/// through the same chunk loop; quorum_detector::score sets it to
/// row_lanes(...). Buckets only group the resulting
/// p-values for the per-(bucket, level) z-scores. Backends are
/// thread-safe, so the detector builds one engine per score() call and
/// shares it across all groups and ranges. Deterministic: depends only
/// on (config.seed, group_index, data), never on `lanes`.
[[nodiscard]] group_result run_ensemble_group(const data::dataset& normalized,
                                              const quorum_config& config,
                                              std::size_t group_index,
                                              const exec::executor& engine,
                                              std::size_t lanes = 1);

/// Convenience overload that instantiates config's backend itself (one
/// engine per call — fine for single-group studies and benches).
[[nodiscard]] group_result run_ensemble_group(const data::dataset& normalized,
                                              const quorum_config& config,
                                              std::size_t group_index);

} // namespace quorum::core

#endif // QUORUM_CORE_ENSEMBLE_H
