#include "data/csv.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "data/preprocess.h"
#include "util/contracts.h"
#include "util/parse.h"

namespace quorum::data {

namespace {

/// The cell without surrounding spaces, tabs and carriage returns.
std::string_view trim(std::string_view cell) {
    const auto first = cell.find_first_not_of(" \t\r");
    if (first == std::string_view::npos) {
        return {};
    }
    const auto last = cell.find_last_not_of(" \t\r");
    return cell.substr(first, last - first + 1);
}

/// Calls fn(column, cell) for each delimiter-separated field of `line`,
/// trimmed, and returns the number of fields.
template <typename Fn>
std::size_t for_each_cell(std::string_view line, char delimiter, Fn&& fn) {
    std::size_t column = 0;
    for (std::size_t begin = 0; begin <= line.size(); ++column) {
        std::size_t end = line.find(delimiter, begin);
        if (end == std::string_view::npos) {
            end = line.size();
        }
        fn(column, trim(line.substr(begin, end - begin)));
        begin = end + 1;
    }
    return column;
}

/// Reads a trimmed cell into `value`: an empty cell is 0, a cell that is
/// entirely a number is strtod's value (a subnormal or a signed zero on
/// underflow), any other text hashes to [0, 1) as a category. Returns
/// false for a number that is not finite ("inf", "nan", or one that
/// overflows). A plain decimal is read in place by
/// util::from_chars_finite, with strtod's bits; only what that declines
/// is copied into `scratch`, the terminated copy strtod needs, so a warm
/// reader allocates nothing per cell.
bool parse_cell(std::string_view cell, std::string& scratch, double& value) {
    if (cell.empty()) {
        value = 0.0;
        return true;
    }
    if (const std::optional<double> fast = util::from_chars_finite(cell)) {
        value = *fast;
        return true;
    }
    scratch.assign(cell);
    char* end = nullptr;
    const double parsed = std::strtod(scratch.c_str(), &end);
    if (end != scratch.c_str() + scratch.size()) {
        value = hash_category(cell);
        return true;
    }
    value = parsed;
    return std::isfinite(parsed);
}

/// "column 3 ('temp')": 1-based, with the header name when there is one.
std::string column_label(std::size_t column,
                         const std::vector<std::string>& header) {
    std::string label = "column " + std::to_string(column + 1);
    if (column < header.size() && !header[column].empty()) {
        label += " ('" + header[column] + "')";
    }
    return label;
}

} // namespace

dataset read_csv(std::istream& in, const csv_options& options) {
    std::vector<double> values; // row-major, label column excluded
    std::vector<int> labels;
    std::vector<std::string> header;
    std::string line;
    std::string scratch;
    bool header_pending = options.has_header;
    std::size_t header_line = 0;
    std::size_t line_number = 0;
    std::size_t width = 0;
    std::size_t rows = 0;

    const auto read_cell = [&](std::size_t column, std::string_view cell) {
        double value = 0.0;
        if (!parse_cell(cell, scratch, value)) {
            throw util::contract_error(
                "CSV line " + std::to_string(line_number) + ", " +
                column_label(column, header) + ": '" + std::string(cell) +
                "' is not a finite number");
        }
        if (static_cast<int>(column) == options.label_column) {
            labels.push_back(value >= 0.5 ? 1 : 0);
        } else {
            values.push_back(value);
        }
    };

    while (std::getline(in, line)) {
        ++line_number;
        if (line.empty()) {
            continue;
        }
        if (header_pending) {
            header_pending = false;
            header_line = line_number;
            for_each_cell(line, options.delimiter,
                          [&](std::size_t, std::string_view cell) {
                              header.emplace_back(cell);
                          });
            continue;
        }
        const std::size_t cell_count =
            for_each_cell(line, options.delimiter, read_cell);
        if (width == 0) {
            width = cell_count;
            if (header_line != 0 && header.size() != width) {
                throw util::contract_error(
                    "CSV header on line " + std::to_string(header_line) +
                    " has " + std::to_string(header.size()) +
                    " columns where the first data row, line " +
                    std::to_string(line_number) + ", has " +
                    std::to_string(width));
            }
            if (options.label_column < -1 ||
                options.label_column >= static_cast<int>(width)) {
                throw util::contract_error(
                    "CSV line " + std::to_string(line_number) +
                    ": label column " +
                    std::to_string(options.label_column) +
                    " is outside the row's " + std::to_string(width) +
                    " columns (a 0-based index, or -1 for none)");
            }
        }
        if (cell_count != width) {
            throw util::contract_error(
                "ragged CSV row: line " + std::to_string(line_number) +
                " has " + std::to_string(cell_count) +
                " cells where the first data row has " +
                std::to_string(width));
        }
        ++rows;
    }
    QUORUM_EXPECTS_MSG(rows != 0, "CSV contained no data rows");

    const std::size_t features = values.size() / rows;
    dataset d(rows, features);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < features; ++j) {
            d.at(i, j) = values[i * features + j];
        }
    }
    if (!labels.empty()) {
        d.set_labels(std::move(labels));
    }
    std::vector<std::string> feature_names;
    for (std::size_t j = 0; j < header.size(); ++j) {
        if (static_cast<int>(j) != options.label_column) {
            feature_names.push_back(std::move(header[j]));
        }
    }
    if (!feature_names.empty()) {
        d.set_feature_names(std::move(feature_names));
    }
    return d;
}

dataset read_csv_file(const std::string& path, const csv_options& options) {
    std::ifstream file(path);
    if (!file) {
        throw std::runtime_error("cannot open CSV file: " + path);
    }
    try {
        dataset d = read_csv(file, options);
        d.set_name(path);
        return d;
    } catch (const util::contract_error& error) {
        throw util::contract_error(path + ": " + error.what());
    }
}

void write_csv(std::ostream& out, const dataset& d, char delimiter) {
    if (!d.feature_names().empty()) {
        for (std::size_t j = 0; j < d.num_features(); ++j) {
            out << (j ? std::string(1, delimiter) : "") << d.feature_names()[j];
        }
    } else {
        for (std::size_t j = 0; j < d.num_features(); ++j) {
            out << (j ? std::string(1, delimiter) : "") << "f" << j;
        }
    }
    if (d.has_labels()) {
        out << delimiter << "label";
    }
    out << '\n';
    for (std::size_t i = 0; i < d.num_samples(); ++i) {
        for (std::size_t j = 0; j < d.num_features(); ++j) {
            out << (j ? std::string(1, delimiter) : "") << d.at(i, j);
        }
        if (d.has_labels()) {
            out << delimiter << d.label(i);
        }
        out << '\n';
    }
}

void write_scores_csv(std::ostream& out, const dataset& d,
                      const std::vector<double>& scores, char delimiter) {
    QUORUM_EXPECTS_MSG(scores.size() == d.num_samples(),
                       "one score per sample required");
    out << "sample" << delimiter << "score";
    if (d.has_labels()) {
        out << delimiter << "label";
    }
    out << '\n';
    for (std::size_t i = 0; i < scores.size(); ++i) {
        out << i << delimiter << scores[i];
        if (d.has_labels()) {
            out << delimiter << d.label(i);
        }
        out << '\n';
    }
}

} // namespace quorum::data
