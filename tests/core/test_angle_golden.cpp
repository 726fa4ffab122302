// Golden scores and backend-invariance for the ANGLE encoding — the
// same contract tests/core/test_golden_scores.cpp pins for the paper's
// amplitude configuration, replayed with config.encoding = angle:
//
//   * committed %.17g fixtures for all four exec modes (exact, sampled,
//     per_shot, noisy), diffed bit-for-bit on every run;
//   * 1, 2 and 3 row ranges per group, a remote 2-worker fleet and a
//     single thread all land on IEEE-identical scores in every mode.
//
// Regenerate with:  QUORUM_REGEN_FIXTURES=1 ctest -R AngleGolden
// Platform scope: same as test_golden_scores.cpp (one libm platform).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/quorum.h"
#include "data/generators.h"
#include "util/rng.h"

namespace {

using namespace quorum;

data::dataset angle_dataset(std::size_t samples) {
    util::rng gen(2025);
    data::generator_spec spec;
    spec.samples = samples;
    spec.anomalies = std::max<std::size_t>(1, samples / 16);
    spec.features = 12;
    spec.anomaly_shift = 0.3;
    return data::generate_clustered(spec, gen);
}

core::quorum_config angle_config(core::exec_mode mode, std::size_t groups) {
    core::quorum_config config;
    config.encoding = qml::encoding::angle;
    config.ensemble_groups = groups;
    config.mode = mode;
    // per_shot simulates every repetition; 256 shots keeps the golden
    // run fast while still exercising the full stochastic path.
    config.shots = mode == core::exec_mode::exact ? 4096 : 256;
    config.seed = 2025;
    return config;
}

std::vector<double> score_with(const core::quorum_config& config,
                               const data::dataset& d) {
    const core::quorum_detector detector(config);
    return detector.score(d).scores;
}

std::string format_double(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::string fixture_path(const std::string& name) {
    return std::string(QUORUM_TEST_FIXTURE_DIR) + "/" + name;
}

bool env_flag(const char* name) {
    const char* raw = std::getenv(name);
    return raw != nullptr && raw[0] != '\0' && raw[0] != '0';
}

void write_fixture(const std::string& path,
                   const std::vector<std::string>& columns,
                   const std::vector<std::vector<double>>& series) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << "sample";
    for (const std::string& column : columns) {
        out << "," << column;
    }
    out << "\n";
    for (std::size_t i = 0; i < series[0].size(); ++i) {
        out << i;
        for (const std::vector<double>& values : series) {
            out << "," << format_double(values[i]);
        }
        out << "\n";
    }
}

void compare_fixture(const std::string& path,
                     const std::vector<std::string>& columns,
                     const std::vector<std::vector<double>>& series) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << path << " is missing — regenerate the golden fixtures with "
        << "QUORUM_REGEN_FIXTURES=1 and commit the result";
    std::string line;
    ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
    std::string expected_header = "sample";
    for (const std::string& column : columns) {
        expected_header += "," + column;
    }
    EXPECT_EQ(line, expected_header);
    std::size_t row = 0;
    while (std::getline(in, line)) {
        if (line.empty()) {
            continue;
        }
        ASSERT_LT(row, series[0].size()) << "fixture has extra rows";
        std::stringstream cells(line);
        std::string cell;
        ASSERT_TRUE(static_cast<bool>(std::getline(cells, cell, ',')));
        EXPECT_EQ(std::stoul(cell), row);
        for (std::size_t c = 0; c < series.size(); ++c) {
            ASSERT_TRUE(static_cast<bool>(std::getline(cells, cell, ',')))
                << "row " << row << " is missing column " << columns[c];
            EXPECT_EQ(std::stod(cell), series[c][row])
                << columns[c] << " drifted at sample " << row
                << " (engine change? regenerate fixtures deliberately "
                << "with QUORUM_REGEN_FIXTURES=1)";
        }
        ++row;
    }
    EXPECT_EQ(row, series[0].size()) << "fixture is missing rows";
}

void check_fixture(const std::string& name,
                   const std::vector<std::string>& columns,
                   const std::vector<std::vector<double>>& series) {
    const std::string path = fixture_path(name);
    if (env_flag("QUORUM_REGEN_FIXTURES")) {
        write_fixture(path, columns, series);
    }
    compare_fixture(path, columns, series);
}

TEST(AngleGolden, ExactAndSampledScoresMatchFixture) {
    if (env_flag("QUORUM_SKIP_GOLDEN_FIXTURES")) {
        GTEST_SKIP() << "golden fixtures skipped (non-CI platform)";
    }
    const data::dataset d = angle_dataset(48);
    const std::vector<double> exact =
        score_with(angle_config(core::exec_mode::exact, 6), d);
    const std::vector<double> sampled =
        score_with(angle_config(core::exec_mode::sampled, 6), d);
    check_fixture("angle_scores.csv", {"exact", "sampled"},
                  {exact, sampled});
}

TEST(AngleGolden, PerShotAndNoisyScoresMatchFixture) {
    if (env_flag("QUORUM_SKIP_GOLDEN_FIXTURES")) {
        GTEST_SKIP() << "golden fixtures skipped (non-CI platform)";
    }
    const data::dataset d = angle_dataset(12);
    const std::vector<double> per_shot =
        score_with(angle_config(core::exec_mode::per_shot, 2), d);
    const std::vector<double> noisy =
        score_with(angle_config(core::exec_mode::noisy, 2), d);
    check_fixture("angle_stochastic_scores.csv", {"per_shot", "noisy"},
                  {per_shot, noisy});
}

TEST(AngleGolden, RowRangesReproducePlainScoresBitForBitAllModes) {
    // Row-range invariance under angle encoding, in EVERY exec mode —
    // including noisy, whose density backend lowers the ry_product prep:
    // groups x ranges threads split each group's rows into that many
    // ranges.
    for (const core::exec_mode mode :
         {core::exec_mode::exact, core::exec_mode::sampled,
          core::exec_mode::per_shot, core::exec_mode::noisy}) {
        const bool cheap_mode = mode == core::exec_mode::exact ||
                                mode == core::exec_mode::sampled;
        const data::dataset d = angle_dataset(cheap_mode ? 24 : 12);
        const std::size_t groups = cheap_mode ? 4 : 2;
        core::quorum_config config = angle_config(mode, groups);
        config.threads = 1;
        const std::vector<double> reference = score_with(config, d);
        for (const std::size_t ranges : {1u, 2u, 3u}) {
            config.threads = groups * ranges;
            const std::vector<double> split = score_with(config, d);
            ASSERT_EQ(split.size(), reference.size());
            for (std::size_t i = 0; i < split.size(); ++i) {
                EXPECT_EQ(split[i], reference[i])
                    << core::exec_mode_name(mode) << " ranges=" << ranges
                    << " sample=" << i;
            }
        }
    }
}

#ifdef QUORUM_WORKER_BIN
TEST(AngleGolden, RemoteFleetReproducesPlainScoresBitForBit) {
    // A 2-worker remote fleet recompiles the wire-shipped programs —
    // including the v2 prep-style byte — and must land on the plain
    // backend's scores exactly, in the stochastic and the noisy mode.
    const char* old = std::getenv("QUORUM_WORKER");
    const std::string saved = old == nullptr ? "" : old;
    setenv("QUORUM_WORKER", QUORUM_WORKER_BIN, 1);
    for (const core::exec_mode mode :
         {core::exec_mode::sampled, core::exec_mode::noisy}) {
        const bool cheap_mode = mode == core::exec_mode::sampled;
        const data::dataset d = angle_dataset(cheap_mode ? 24 : 12);
        const std::size_t groups = cheap_mode ? 4 : 2;
        const std::vector<double> reference =
            score_with(angle_config(mode, groups), d);
        core::quorum_config config = angle_config(mode, groups);
        config.backend = "remote";
        config.shards = 2;
        const std::vector<double> remote = score_with(config, d);
        ASSERT_EQ(remote.size(), reference.size());
        for (std::size_t i = 0; i < remote.size(); ++i) {
            EXPECT_EQ(remote[i], reference[i])
                << core::exec_mode_name(mode) << " sample=" << i;
        }
    }
    if (old == nullptr) {
        unsetenv("QUORUM_WORKER");
    } else {
        setenv("QUORUM_WORKER", saved.c_str(), 1);
    }
}
#endif // QUORUM_WORKER_BIN

} // namespace
