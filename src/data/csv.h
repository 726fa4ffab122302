// Minimal CSV I/O so users can run Quorum on real datasets (the paper's
// originals, or anything else) instead of the bundled generators.
// Non-numeric cells are hashed to floats via preprocess::hash_category,
// matching the paper's preprocessing.
#ifndef QUORUM_DATA_CSV_H
#define QUORUM_DATA_CSV_H

#include <iosfwd>
#include <string>

#include "data/dataset.h"

namespace quorum::data {

/// CSV parsing options.
struct csv_options {
    bool has_header = true;
    /// Column holding the 0/1 anomaly label; -1 when unlabelled.
    int label_column = -1;
    char delimiter = ',';
};

/// Reads a dataset from a stream. Empty cells read 0, numeric cells read
/// to strtod's bits (an underflow keeps its subnormal or zero; a plain
/// decimal takes the std::from_chars fast path, util::from_chars_finite),
/// and any other text is hashed to [0, 1). Throws util::contract_error
/// naming the 1-based line and column (with its header name) for a
/// numeric cell that is not finite ("inf", "nan", "1e999"); naming the
/// line and both widths for a row, or a header, whose width differs from
/// the first data row's; and naming the line, the column and the width
/// for a label column that is neither -1 nor inside the first data row.
[[nodiscard]] dataset read_csv(std::istream& in, const csv_options& options);

/// Reads a dataset from a file path. Throws std::runtime_error if the file
/// cannot be opened, and read_csv's errors prefixed with the path.
[[nodiscard]] dataset read_csv_file(const std::string& path,
                                    const csv_options& options);

/// Writes the dataset (with a header and, when labelled, a final `label`
/// column) to a stream.
void write_csv(std::ostream& out, const dataset& d, char delimiter = ',');

/// Writes per-sample anomaly scores (and labels when present) to a stream:
/// columns sample_index, score[, label].
void write_scores_csv(std::ostream& out, const dataset& d,
                      const std::vector<double>& scores, char delimiter = ',');

} // namespace quorum::data

#endif // QUORUM_DATA_CSV_H
