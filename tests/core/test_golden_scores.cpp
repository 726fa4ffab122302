// Golden score fixtures: a committed CSV of flagship-workload anomaly
// scores, recomputed and diffed bit-for-bit on every run. Engine work
// (new backends, fusion, row ranges, transpile caches) cannot silently
// drift Quorum's numbers past this test — any intentional change must
// regenerate the fixtures and show up in review as a CSV diff.
//
// Regenerate with:  QUORUM_REGEN_FIXTURES=1 ctest -R GoldenScores
//
// Platform scope: bit-exactness is guaranteed across thread counts,
// worker counts, backends and build types on ONE platform, not across
// libm implementations — gate angles pass through sin/cos, whose
// last-ulp results may differ on non-glibc/x86-64 hosts (the committed
// fixtures come from the CI platform). On such a host, regenerate
// locally or set QUORUM_SKIP_GOLDEN_FIXTURES=1; a failure on the CI
// platform itself is a real engine drift.
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

/// A miniature Fig. 8 flagship workload: clustered data with planted
/// anomalies, scored at the paper's primary configuration (3 qubits,
/// 2 ansatz layers, levels {1,2}) with enough groups to exercise every
/// bucket path but finish in well under a second per mode.
data::dataset flagship_dataset(std::size_t samples) {
    util::rng gen(2025);
    data::generator_spec spec;
    spec.samples = samples;
    spec.anomalies = std::max<std::size_t>(1, samples / 16);
    spec.features = 12;
    spec.anomaly_shift = 0.3;
    return data::generate_clustered(spec, gen);
}

core::quorum_config flagship_config(core::exec_mode mode,
                                    std::size_t groups) {
    core::quorum_config config;
    config.ensemble_groups = groups;
    config.mode = mode;
    config.shots = mode == core::exec_mode::noisy ? 256 : 4096;
    config.seed = 2025;
    return config;
}

std::vector<double> score_with(const core::quorum_config& config,
                               const data::dataset& d) {
    const core::quorum_detector detector(config);
    return detector.score(d).scores;
}

/// 17 significant digits: the shortest decimal form that round-trips
/// every IEEE-754 double exactly, so CSV equality == bit equality.
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

bool regen_requested() { return env_flag("QUORUM_REGEN_FIXTURES"); }

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
            // Bit-identical scores: %.17g round-trips doubles exactly, so
            // strict equality here means equality to the last bit.
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
    if (regen_requested()) {
        write_fixture(path, columns, series);
    }
    compare_fixture(path, columns, series);
}

TEST(GoldenScores, FlagshipExactAndSampledScoresMatchFixture) {
    if (env_flag("QUORUM_SKIP_GOLDEN_FIXTURES")) {
        GTEST_SKIP() << "golden fixtures skipped (non-CI platform)";
    }
    const data::dataset d = flagship_dataset(48);
    const std::vector<double> exact =
        score_with(flagship_config(core::exec_mode::exact, 6), d);
    const std::vector<double> sampled =
        score_with(flagship_config(core::exec_mode::sampled, 6), d);
    check_fixture("flagship_scores.csv", {"exact", "sampled"},
                  {exact, sampled});
}

TEST(GoldenScores, FlagshipNoisyScoresMatchFixture) {
    if (env_flag("QUORUM_SKIP_GOLDEN_FIXTURES")) {
        GTEST_SKIP() << "golden fixtures skipped (non-CI platform)";
    }
    const data::dataset d = flagship_dataset(12);
    const std::vector<double> noisy =
        score_with(flagship_config(core::exec_mode::noisy, 2), d);
    check_fixture("flagship_noisy_scores.csv", {"noisy"}, {noisy});
}

#ifdef QUORUM_WORKER_BIN
TEST(GoldenScores, RemoteDetectorReproducesPlainScoresBitForBit) {
    // End-to-end worker-count invariance: the full detector run through
    // the REMOTE backend — compiled programs, spans and rng snapshots
    // serialised to real quorum_worker processes — lands on the same
    // scores as the plain backend, bit for bit.
    const char* old = std::getenv("QUORUM_WORKER");
    const std::string saved = old == nullptr ? "" : old;
    setenv("QUORUM_WORKER", QUORUM_WORKER_BIN, 1);
    const data::dataset d = flagship_dataset(48);
    const std::vector<double> reference =
        score_with(flagship_config(core::exec_mode::sampled, 4), d);
    core::quorum_config config =
        flagship_config(core::exec_mode::sampled, 4);
    config.backend = "remote:statevector";
    config.shards = 2;
    const std::vector<double> remote = score_with(config, d);
    ASSERT_EQ(remote.size(), reference.size());
    for (std::size_t i = 0; i < remote.size(); ++i) {
        EXPECT_EQ(remote[i], reference[i]) << "sample=" << i;
    }
    if (old == nullptr) {
        unsetenv("QUORUM_WORKER");
    } else {
        setenv("QUORUM_WORKER", saved.c_str(), 1);
    }
}
#endif // QUORUM_WORKER_BIN

TEST(GoldenScores, RowRangesReproducePlainScoresBitForBit) {
    // End-to-end row-range invariance: with more threads than groups the
    // detector splits each group's rows into ranges and lands on the
    // SAME scores as one thread (the ones the fixture above pins), for
    // several range counts.
    const data::dataset d = flagship_dataset(48);
    core::quorum_config config =
        flagship_config(core::exec_mode::sampled, 6);
    config.threads = 1;
    const std::vector<double> reference = score_with(config, d);
    for (const std::size_t ranges : {2u, 3u}) {
        config.threads = 6 * ranges;
        const std::vector<double> split = score_with(config, d);
        ASSERT_EQ(split.size(), reference.size());
        for (std::size_t i = 0; i < split.size(); ++i) {
            EXPECT_EQ(split[i], reference[i])
                << "ranges=" << ranges << " sample=" << i;
        }
    }
}

} // namespace
