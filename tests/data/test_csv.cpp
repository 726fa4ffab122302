#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "../number_corpus.h"
#include "util/contracts.h"

#include "data/csv.h"
#include "data/preprocess.h"

namespace {

using namespace quorum::data;

/// A cell as read_csv read it with strtod alone, the reference for its
/// from_chars fast path: trimmed of spaces, tabs and carriage returns;
/// empty is 0, wholly a number is strtod's value, other text hashes.
/// Returns false for a number that is not finite.
bool strtod_cell(std::string_view raw, std::string& cell, double& value) {
    const auto first = raw.find_first_not_of(" \t\r");
    if (first == std::string_view::npos) {
        cell.clear();
        value = 0.0;
        return true;
    }
    const auto last = raw.find_last_not_of(" \t\r");
    cell.assign(raw.substr(first, last - first + 1));
    char* end = nullptr;
    const double parsed = std::strtod(cell.c_str(), &end);
    if (end != cell.c_str() + cell.size()) {
        value = hash_category(cell);
        return true;
    }
    value = parsed;
    return std::isfinite(parsed);
}

TEST(Csv, ReadsNumericDataWithHeader) {
    std::istringstream in("a,b,c\n1.5,2.5,3.5\n4,5,6\n");
    csv_options options;
    const dataset d = read_csv(in, options);
    EXPECT_EQ(d.num_samples(), 2u);
    EXPECT_EQ(d.num_features(), 3u);
    EXPECT_DOUBLE_EQ(d.at(0, 1), 2.5);
    EXPECT_DOUBLE_EQ(d.at(1, 2), 6.0);
    ASSERT_EQ(d.feature_names().size(), 3u);
    EXPECT_EQ(d.feature_names()[0], "a");
    EXPECT_FALSE(d.has_labels());
}

TEST(Csv, ReadsHeaderlessData) {
    std::istringstream in("1,2\n3,4\n");
    csv_options options;
    options.has_header = false;
    const dataset d = read_csv(in, options);
    EXPECT_EQ(d.num_samples(), 2u);
    EXPECT_DOUBLE_EQ(d.at(0, 0), 1.0);
}

TEST(Csv, ExtractsLabelColumn) {
    std::istringstream in("f0,f1,label\n0.1,0.2,0\n0.3,0.4,1\n");
    csv_options options;
    options.label_column = 2;
    const dataset d = read_csv(in, options);
    EXPECT_EQ(d.num_features(), 2u);
    ASSERT_TRUE(d.has_labels());
    EXPECT_EQ(d.label(0), 0);
    EXPECT_EQ(d.label(1), 1);
    EXPECT_EQ(d.feature_names().size(), 2u);
}

TEST(Csv, HashesNonNumericCells) {
    std::istringstream in("cat,value\nvisa,1.0\nmastercard,2.0\n");
    csv_options options;
    const dataset d = read_csv(in, options);
    EXPECT_DOUBLE_EQ(d.at(0, 0), hash_category("visa"));
    EXPECT_DOUBLE_EQ(d.at(1, 0), hash_category("mastercard"));
    EXPECT_DOUBLE_EQ(d.at(1, 1), 2.0);
}

TEST(Csv, EmptyCellsBecomeZero) {
    std::istringstream in("a,b\n,2\n3,\n");
    csv_options options;
    const dataset d = read_csv(in, options);
    EXPECT_DOUBLE_EQ(d.at(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(d.at(1, 1), 0.0);
}

TEST(Csv, RaggedRowsRejected) {
    // The message names the 1-based file line (blank lines count) and
    // both widths.
    std::istringstream in("a,b\n1,2\n\n3\n");
    csv_options options;
    try {
        (void)read_csv(in, options);
        FAIL() << "ragged row accepted";
    } catch (const quorum::util::contract_error& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("line 4 has 1 cells"), std::string::npos) << what;
        EXPECT_NE(what.find("first data row has 2"), std::string::npos)
            << what;
    }
}

TEST(Csv, LabelColumnOutsideTheRowIsRejected) {
    // Read as given, an index past the row would score the labels as a
    // feature, and a negative index other than -1 would mean "no label".
    for (const int column : {3, 7, -2, -5}) {
        std::istringstream in("\na,b,label\n0.1,0.2,0\n0.3,0.4,1\n");
        csv_options options;
        options.label_column = column;
        try {
            (void)read_csv(in, options);
            FAIL() << "label column " << column << " accepted";
        } catch (const quorum::util::contract_error& error) {
            const std::string what = error.what();
            EXPECT_NE(what.find("CSV line 3: label column " +
                                std::to_string(column) +
                                " is outside the row's 3 columns"),
                      std::string::npos)
                << what;
        }
    }
    for (const int column : {-1, 0, 2}) {
        std::istringstream in("a,b,label\n0.1,0.2,0\n0.3,0.4,1\n");
        csv_options options;
        options.label_column = column;
        EXPECT_EQ(read_csv(in, options).num_features(),
                  column == -1 ? 3u : 2u)
            << column;
    }
}

TEST(Csv, HeaderWidthMustMatchTheFirstDataRow) {
    // Either way round, the names could not be matched to the columns:
    // a shifted or truncated file.
    const struct {
        const char* text;
        const char* message;
    } cases[] = {
        {"a,b,c\n1,2\n3,4\n", "CSV header on line 1 has 3 columns where "
                               "the first data row, line 2, has 2"},
        {"\na,b\n\n1,2,3\n4,5,6\n", "CSV header on line 2 has 2 columns "
                                     "where the first data row, line 4, "
                                     "has 3"},
    };
    for (const auto& c : cases) {
        std::istringstream in(c.text);
        try {
            (void)read_csv(in, csv_options{});
            FAIL() << "accepted: " << c.text;
        } catch (const quorum::util::contract_error& error) {
            EXPECT_NE(std::string(error.what()).find(c.message),
                      std::string::npos)
                << error.what();
        }
    }
}

TEST(Csv, UnderflowingNumbersKeepTheirValue) {
    // strtod reports ERANGE for these; they are still numbers, not
    // categories: a subnormal stays a subnormal and a deeper underflow
    // reads as a signed zero.
    std::istringstream in("a,b,c\n1e-310,1e-400,-1e-400\n");
    csv_options options;
    const dataset d = read_csv(in, options);
    EXPECT_EQ(d.at(0, 0), std::strtod("1e-310", nullptr));
    EXPECT_GT(d.at(0, 0), 0.0);
    EXPECT_LT(d.at(0, 0), std::numeric_limits<double>::min());
    EXPECT_EQ(d.at(0, 1), 0.0);
    EXPECT_FALSE(std::signbit(d.at(0, 1)));
    EXPECT_EQ(d.at(0, 2), 0.0);
    EXPECT_TRUE(std::signbit(d.at(0, 2)));
}

TEST(Csv, NonFiniteNumbersNameTheLineAndColumn) {
    struct bad_cell {
        const char* text;
        const char* cell;
    };
    for (const bad_cell bad : {bad_cell{"a,temp\n1,2\n3,1e999\n", "1e999"},
                               bad_cell{"a,temp\n1,2\n3,-1e999\n", "-1e999"},
                               bad_cell{"a,temp\n1,2\n3,inf\n", "inf"},
                               bad_cell{"a,temp\n1,2\n3,nan\n", "nan"},
                               bad_cell{"a,temp\n1,2\n3, NaN \n", "NaN"}}) {
        std::istringstream in(bad.text);
        csv_options options;
        try {
            (void)read_csv(in, options);
            FAIL() << "accepted " << bad.cell;
        } catch (const quorum::util::contract_error& error) {
            const std::string what = error.what();
            EXPECT_NE(what.find("CSV line 3, column 2 ('temp')"),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find(std::string("'") + bad.cell + "'"),
                      std::string::npos)
                << what;
        }
    }
    // Without a header the column is named by its 1-based number; the
    // label column is checked like any other.
    std::istringstream in("1,2,0\n3,4,inf\n");
    csv_options options;
    options.has_header = false;
    options.label_column = 2;
    try {
        (void)read_csv(in, options);
        FAIL() << "accepted an infinite label";
    } catch (const quorum::util::contract_error& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("CSV line 2, column 3:"), std::string::npos)
            << what;
    }
}

TEST(Csv, TextThatIsNotWhollyANumberStillHashes) {
    std::istringstream in("a,b,c\n1e999x,infinityish,nan-ish\n");
    csv_options options;
    const dataset d = read_csv(in, options);
    EXPECT_EQ(d.at(0, 0), hash_category("1e999x"));
    EXPECT_EQ(d.at(0, 1), hash_category("infinityish"));
    EXPECT_EQ(d.at(0, 2), hash_category("nan-ish"));
}

TEST(Csv, CellsKeepStrtodsValuesCategoriesAndErrors) {
    csv_options options;
    options.has_header = false;
    std::string table;
    std::vector<std::string> cells;
    std::vector<double> expected;
    std::string cell;
    for (const std::string& raw : quorum::test::number_corpus(4000)) {
        double value = 0.0;
        if (strtod_cell(raw, cell, value)) {
            table += raw + ",0\n";
            cells.push_back(raw);
            expected.push_back(value);
            continue;
        }
        std::istringstream in(raw + ",0\n");
        try {
            (void)read_csv(in, options);
            ADD_FAILURE() << "accepted '" << raw << "'";
        } catch (const quorum::util::contract_error& error) {
            EXPECT_EQ(std::string(error.what()),
                      "CSV line 1, column 1: '" + cell +
                          "' is not a finite number");
        }
    }
    std::istringstream in(table);
    const dataset d = read_csv(in, options);
    ASSERT_EQ(d.num_samples(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const double actual = d.at(i, 0);
        ASSERT_EQ(std::memcmp(&actual, &expected[i], sizeof(double)), 0)
            << "'" << cells[i] << "' read " << actual << ", not "
            << expected[i];
    }
}

TEST(Csv, FileErrorsNameThePath) {
    const std::string path =
        ::testing::TempDir() + "quorum_csv_non_finite.csv";
    {
        std::ofstream out(path);
        out << "a,b\n1,2\n3,inf\n";
    }
    csv_options options;
    try {
        (void)read_csv_file(path, options);
        FAIL() << "accepted inf";
    } catch (const quorum::util::contract_error& error) {
        const std::string what = error.what();
        EXPECT_EQ(what.rfind(path + ": CSV line 3, column 2 ('b')", 0), 0u)
            << what;
    }
    std::remove(path.c_str());
}

TEST(Csv, EmptyFileRejected) {
    std::istringstream in("header1,header2\n");
    csv_options options;
    EXPECT_THROW(read_csv(in, options), quorum::util::contract_error);
}

TEST(Csv, MissingFileThrowsRuntimeError) {
    csv_options options;
    EXPECT_THROW(read_csv_file("/nonexistent/path/file.csv", options),
                 std::runtime_error);
}

TEST(Csv, RoundTripPreservesValuesAndLabels) {
    dataset original = dataset::from_rows(
        {{0.125, 0.25}, {0.5, 0.75}, {1.0, 0.0}}, {0, 1, 0});
    original.set_feature_names({"alpha", "beta"});
    std::ostringstream out;
    write_csv(out, original);

    std::istringstream in(out.str());
    csv_options options;
    options.label_column = 2;
    const dataset restored = read_csv(in, options);
    EXPECT_EQ(restored.num_samples(), 3u);
    EXPECT_EQ(restored.num_features(), 2u);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 2; ++j) {
            EXPECT_DOUBLE_EQ(restored.at(i, j), original.at(i, j));
        }
        EXPECT_EQ(restored.label(i), original.label(i));
    }
    EXPECT_EQ(restored.feature_names()[0], "alpha");
}

TEST(Csv, WriteScoresIncludesLabels) {
    const dataset d = dataset::from_rows({{1.0}, {2.0}}, {0, 1});
    std::ostringstream out;
    write_scores_csv(out, d, {0.5, 2.5});
    const std::string text = out.str();
    EXPECT_NE(text.find("sample,score,label"), std::string::npos);
    EXPECT_NE(text.find("0,0.5,0"), std::string::npos);
    EXPECT_NE(text.find("1,2.5,1"), std::string::npos);
}

TEST(Csv, WriteScoresValidatesLength) {
    const dataset d = dataset::from_rows({{1.0}, {2.0}});
    std::ostringstream out;
    EXPECT_THROW((write_scores_csv(out, d, {0.5})),
                 quorum::util::contract_error);
}

TEST(Csv, CustomDelimiter) {
    std::istringstream in("a;b\n1;2\n");
    csv_options options;
    options.delimiter = ';';
    const dataset d = read_csv(in, options);
    EXPECT_DOUBLE_EQ(d.at(0, 1), 2.0);
}

} // namespace
