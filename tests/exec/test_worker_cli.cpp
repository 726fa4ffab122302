// Tool flag-parsing tests, against the REAL binaries.
//
// The four tools parse their command lines with one flag table
// (tools/flags.h). The ToolCli cases commit each tool's flag list, check
// it against the names --help prints, and drive every row with a missing
// or malformed value: each must be rejected while flags are parsed (exit
// 2, one stderr line naming the tool, the flag and the value), so no case
// ever starts a daemon, a worker or a scoring run. The WorkerCli cases
// are the bug of record: quorum_worker's --retry/--retry-delay-ms went
// through std::atoi, so "--retry banana" silently became 0 retries.
#ifdef QUORUM_WORKER_BIN

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace {

struct tool_run {
    int exit_code = -1; ///< -1: killed, or did not exit normally
    std::string out;
    std::string err;
};

std::string read_all(std::FILE* file) {
    std::string text;
    std::rewind(file);
    char buffer[4096];
    for (std::size_t n = 0;
         (n = std::fread(buffer, 1, sizeof(buffer), file)) > 0;) {
        text.append(buffer, n);
    }
    std::fclose(file);
    return text;
}

/// Runs `binary` with the given arguments and stdin from `stdin_fd` (by
/// default /dev/null), and returns its exit code with what it wrote to
/// stdout and stderr. A case that slips past the flag parser could start
/// a process that never exits, so the child is killed after 60 s.
tool_run run_tool(const char* binary, const std::vector<std::string>& args,
                  int stdin_fd = -1) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary));
    for (const std::string& arg : args) {
        argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    std::FILE* out = std::tmpfile();
    std::FILE* err = std::tmpfile();
    tool_run run;
    if (out == nullptr || err == nullptr) {
        return run;
    }
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::dup2(stdin_fd >= 0 ? stdin_fd : ::open("/dev/null", O_RDONLY),
               STDIN_FILENO);
        ::dup2(::fileno(out), STDOUT_FILENO);
        ::dup2(::fileno(err), STDERR_FILENO);
        ::execv(binary, argv.data());
        ::_exit(127);
    }
    int status = 0;
    for (int waited_ms = 0; pid > 0; waited_ms += 10) {
        const pid_t done = ::waitpid(pid, &status, WNOHANG);
        if (done == pid) {
            if (WIFEXITED(status)) {
                run.exit_code = WEXITSTATUS(status);
            }
            break;
        }
        if (done < 0 || waited_ms >= 60000) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    run.out = read_all(out);
    run.err = read_all(err);
    return run;
}

int run_worker(const std::vector<std::string>& args) {
    return run_tool(QUORUM_WORKER_BIN, args).exit_code;
}

TEST(WorkerCli, VersionAndHelpExitCleanly) {
    EXPECT_EQ(run_worker({"--version"}), 0);
    EXPECT_EQ(run_worker({"--help"}), 0);
}

TEST(WorkerCli, StdioWorkerExitsCleanlyOnAnEmptyStdin) {
    // Neither /dev/null nor a pipe is a socket; both read as a client
    // that closed before its first frame.
    EXPECT_EQ(run_worker({}), 0);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ::close(fds[1]);
    EXPECT_EQ(run_tool(QUORUM_WORKER_BIN, {}, fds[0]).exit_code, 0);
    ::close(fds[0]);
}

TEST(WorkerCli, RejectsGarbageRetryValues) {
    EXPECT_EQ(run_worker({"--retry", "banana"}), 2)
        << "std::atoi would have accepted this as 0 retries";
    EXPECT_EQ(run_worker({"--retry", "3banana"}), 2);
    EXPECT_EQ(run_worker({"--retry-delay-ms", "banana"}), 2);
}

TEST(WorkerCli, RejectsNegativeRetryValues) {
    EXPECT_EQ(run_worker({"--retry", "-1"}), 2);
    EXPECT_EQ(run_worker({"--retry-delay-ms", "-200"}), 2);
}

TEST(WorkerCli, RejectsOverflowingRetryValues) {
    // INT_MAX + 1 and a 20-digit monster: both must be usage errors,
    // not wrapped or saturated values.
    EXPECT_EQ(run_worker({"--retry", "2147483648"}), 2);
    EXPECT_EQ(run_worker({"--retry-delay-ms", "99999999999999999999"}), 2);
}

TEST(WorkerCli, RejectsUnknownOptionsAndConflictingModes) {
    EXPECT_EQ(run_worker({"--frobnicate"}), 2);
    EXPECT_EQ(run_worker({"--listen", "127.0.0.1:0", "--connect",
                          "127.0.0.1:1"}),
              2);
}

#if defined(QUORUM_CLI_BIN) && defined(QUORUM_STREAM_BIN) && \
    defined(QUORUM_SERVE_BIN)

enum class kind { toggle, text, count, integer, real, choice };

/// One row of a tool's flag table: its names, what its value is, and the
/// near misses its parser must reject.
struct flag_row {
    std::vector<std::string> names;
    kind type;
    std::vector<std::string> near_misses = {};
};

using flag_rows = std::vector<flag_row>;

struct tool_flags {
    const char* binary;
    flag_rows rows;
};

flag_rows concat(std::initializer_list<flag_rows> parts) {
    flag_rows rows;
    for (const flag_rows& part : parts) {
        rows.insert(rows.end(), part.begin(), part.end());
    }
    return rows;
}

/// Every flag each tool accepts: adding or losing one fails
/// ToolCli.HelpListsExactlyTheCommittedFlags.
std::vector<tool_flags> all_tools() {
    const flag_row help{{"-h", "--help"}, kind::toggle};
    const flag_rows scoring = {
        {{"--groups"}, kind::count, {"0"}},
        // Every scoring tool defaults to sampled mode, which needs a shot.
        {{"--shots"}, kind::count, {"0"}},
        {{"--qubits"}, kind::count, {"0", "1", "11"}},
        {{"--rate"}, kind::real, {"0", "1", "2"}},
        {{"--bucket-prob"}, kind::real, {"0", "1"}},
        {{"--mode"}, kind::choice, {"Sampled"}},
        {{"--encoding"}, kind::choice, {"Angle"}},
        {{"--schedule"}, kind::choice, {"dynamic:x"}},
        {{"--seed"}, kind::count},
    };
    const flag_rows table = {
        {{"--input"}, kind::text},
        {{"--out", "--output"}, kind::text},
        {{"--label-column"}, kind::integer},
        {{"--no-header"}, kind::toggle},
        {{"--demo"}, kind::toggle},
        {{"--top"}, kind::count},
        {{"--backend"}, kind::text},
        {{"--no-fused"}, kind::toggle},
    };
    const flag_rows cli = {
        help,
        {{"--qasm"}, kind::text},
        {{"--threads"}, kind::count},
        {{"--workers"}, kind::count},
    };
    const flag_rows stream = {
        help,
        {{"--scenario"}, kind::choice, {"Drift"}},
        {{"--samples"}, kind::count, {"0"}},
        {{"--anomalies"}, kind::count},
        {{"--features"}, kind::count, {"0"}},
        {{"--drift"}, kind::real},
        {{"--drift-period"}, kind::real, {"0"}},
        {{"--window"}, kind::count, {"0"}},
        {{"--rebucket"}, kind::count, {"1"}},
    };
    const flag_rows serve = {
        help,
        {{"--port"}, kind::count, {"70000"}},
        {{"--host"}, kind::text},
        {{"--registry-port"}, kind::count, {"70000"}},
        {{"--workers"}, kind::count},
        {{"--connect-worker"}, kind::choice, {"1.2.3:4"}},
        {{"--backend"}, kind::text},
        {{"--threads"}, kind::count},
        {{"--rejoin-attempts"}, kind::count},
        {{"--max-requests"}, kind::count},
    };
    const flag_rows worker = {
        help,
        {{"--version"}, kind::toggle},
        {{"--listen"}, kind::choice, {"1.2.3:4"}},
        {{"--connect"}, kind::choice, {"1.2.3:4"}},
        {{"--retry"}, kind::count},
        {{"--retry-delay-ms"}, kind::count},
    };
    return {
        {QUORUM_CLI_BIN, concat({table, scoring, cli})},
        {QUORUM_STREAM_BIN, concat({table, scoring, stream})},
        {QUORUM_SERVE_BIN, concat({scoring, serve})},
        {QUORUM_WORKER_BIN, worker},
    };
}

std::string tool_name(const char* binary) {
    return std::filesystem::path(binary).filename().string();
}

/// The flag names a --help text lists: the leading dash tokens of each
/// row ("  --out, --output PATH  ...").
std::set<std::string> listed_flags(const std::string& help) {
    std::set<std::string> names;
    std::istringstream lines(help);
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("  -", 0) != 0) {
            continue;
        }
        std::istringstream tokens(line);
        for (std::string token; tokens >> token;) {
            if (token.back() == ',') {
                token.pop_back();
            }
            const bool is_flag = token.size() > 1 && token[0] == '-' &&
                                 (std::isalpha(token[1]) != 0 ||
                                  (token[1] == '-' && token.size() > 2));
            if (!is_flag) {
                break;
            }
            names.insert(token);
        }
    }
    return names;
}

/// Expects `args` to be rejected at flag-parse time with `reason` (a
/// stderr substring naming the flag and the value).
void expect_usage_error(const char* binary,
                        const std::vector<std::string>& args,
                        const std::string& reason) {
    const tool_run run = run_tool(binary, args);
    std::string shown;
    for (const std::string& arg : args) {
        shown += " " + arg;
    }
    EXPECT_EQ(run.exit_code, 2) << tool_name(binary) << shown;
    EXPECT_NE(run.err.find(tool_name(binary) + ": " + reason),
              std::string::npos)
        << tool_name(binary) << shown << " printed: " << run.err;
}

TEST(ToolCli, HelpListsExactlyTheCommittedFlags) {
    for (const tool_flags& tool : all_tools()) {
        std::set<std::string> committed;
        for (const flag_row& row : tool.rows) {
            committed.insert(row.names.begin(), row.names.end());
        }
        for (const char* help : {"--help", "-h"}) {
            const tool_run run = run_tool(tool.binary, {help});
            EXPECT_EQ(run.exit_code, 0) << tool_name(tool.binary) << help;
            EXPECT_EQ(listed_flags(run.out), committed)
                << tool_name(tool.binary) << " " << help << " printed:\n"
                << run.out;
        }
    }
}

TEST(ToolCli, EveryValueFlagWithoutAValueIsAUsageError) {
    for (const tool_flags& tool : all_tools()) {
        for (const flag_row& row : tool.rows) {
            if (row.type == kind::toggle) {
                continue;
            }
            for (const std::string& name : row.names) {
                expect_usage_error(tool.binary, {name},
                                   "missing value for " + name);
            }
        }
    }
}

TEST(ToolCli, EveryValueFlagRejectsMalformedValues) {
    std::map<kind, std::vector<std::string>> bad;
    bad[kind::count] = {"-1", "banana", "99999999999999999999"};
    bad[kind::integer] = {"banana", "2147483648", " 5"};
    // --rate inf and --drift nan used to pass: strtod takes both.
    bad[kind::real] = {"banana", "nan", "inf", "1e999"};
    for (const tool_flags& tool : all_tools()) {
        for (const flag_row& row : tool.rows) {
            std::vector<std::string> values = bad[row.type];
            values.insert(values.end(), row.near_misses.begin(),
                          row.near_misses.end());
            for (const std::string& value : values) {
                const std::string& name = row.names.back();
                expect_usage_error(tool.binary, {name, value},
                                   "bad value '" + value + "' for " + name);
            }
        }
    }
}

TEST(ToolCli, UnknownFlagIsAUsageErrorInEveryTool) {
    for (const tool_flags& tool : all_tools()) {
        expect_usage_error(tool.binary, {"--frobnicate"},
                           "unknown option --frobnicate");
    }
}

TEST(ToolCli, BadScheduleIsAUsageErrorInEveryScoringTool) {
    // quorum_cli and quorum_stream used to accept any --schedule and fail
    // with exit 1 once the detector was built.
    for (const char* tool :
         {QUORUM_CLI_BIN, QUORUM_STREAM_BIN, QUORUM_SERVE_BIN}) {
        expect_usage_error(tool, {"--schedule", "bogus"},
                           "bad value 'bogus' for --schedule");
    }
}

TEST(ToolCli, BadBackendIsAUsageErrorInEveryScoringTool) {
    // A spec naming no registered engine stops the tool while flags are
    // parsed: before any data loads, in one line, with no source path.
    const std::string registered =
        "registered backends: density remote statevector";
    for (const char* spec :
         {"bogus", "sharded", "sharded:statevector", "remote:",
          "remote:remote"}) {
        for (const char* tool :
             {QUORUM_CLI_BIN, QUORUM_STREAM_BIN, QUORUM_SERVE_BIN}) {
            // quorum_serve has no --demo and names only plain engines.
            const bool serve = tool == std::string(QUORUM_SERVE_BIN);
            const std::vector<std::string> args =
                serve ? std::vector<std::string>{"--backend", spec}
                      : std::vector<std::string>{"--demo", "--backend",
                                                 spec};
            expect_usage_error(
                tool, args,
                serve ? "--backend must be a registered plain engine name"
                      : "bad value '" + std::string(spec) +
                            "' for --backend: " + registered);
            const tool_run run = run_tool(tool, args);
            EXPECT_EQ(std::count(run.err.begin(), run.err.end(), '\n'), 1)
                << tool_name(tool) << " " << spec << ": " << run.err;
            EXPECT_EQ(run.err.find("src/"), std::string::npos) << run.err;
        }
    }
    for (const char* tool : {QUORUM_CLI_BIN, QUORUM_STREAM_BIN}) {
        const std::string help = run_tool(tool, {"--help"}).out;
        EXPECT_TRUE(help.ends_with(registered + "\n")) << help;
    }
}

TEST(ToolCli, UnknownModeIsAUsageErrorInEveryTool) {
    for (const char* tool :
         {QUORUM_CLI_BIN, QUORUM_STREAM_BIN, QUORUM_SERVE_BIN}) {
        EXPECT_EQ(run_tool(tool, {"--mode", "bogus"}).exit_code, 2) << tool;
        EXPECT_EQ(run_tool(tool, {"--mode", "Sampled"}).exit_code, 2)
            << tool;
        EXPECT_EQ(run_tool(tool, {"--mode"}).exit_code, 2) << tool;
    }
}

TEST(ToolCli, DemoStreamShapeIsCheckedWhileParsing) {
    // These used to pass the flags and exit 1 from a precondition inside
    // data::generate_drifting_stream that named a source line.
    expect_usage_error(QUORUM_STREAM_BIN, {"--demo", "--samples", "1"},
                       "--anomalies 10 must be below --samples 1");
    expect_usage_error(QUORUM_STREAM_BIN,
                       {"--demo", "--samples", "40", "--anomalies", "40"},
                       "--anomalies 40 must be below --samples 40");
    expect_usage_error(QUORUM_STREAM_BIN,
                       {"--demo", "--scenario", "sensors", "--anomalies",
                        "256"},
                       "--anomalies 256 must be below --samples 256");
    expect_usage_error(QUORUM_STREAM_BIN, {"--demo", "--features", "0"},
                       "bad value '0' for --features");
    expect_usage_error(QUORUM_STREAM_BIN, {"--demo", "--drift-period", "-3"},
                       "bad value '-3' for --drift-period");
    // One error line, nothing on stdout: the demo never started.
    const tool_run run =
        run_tool(QUORUM_STREAM_BIN, {"--demo", "--samples", "1"});
    EXPECT_EQ(std::count(run.err.begin(), run.err.end(), '\n'), 1)
        << run.err;
    EXPECT_EQ(run.out, "");
}

TEST(ToolCli, ServeBackendMustBeAPlainEngineName) {
    // No --workers: were a name accepted, the tool would stop at the
    // missing-worker check instead of starting a fleet.
    for (const char* name : {"sharded", "remote", "fleet", "a:b", ""}) {
        expect_usage_error(QUORUM_SERVE_BIN, {"--backend", name},
                           "--backend must be a registered plain engine "
                           "name");
    }
}

TEST(ToolCli, ServeNoLongerTakesAQueueBound) {
    // The fleet sends spans from the calling thread: no queue is left to
    // bound, so --max-queue is an unknown option.
    EXPECT_EQ(run_tool(QUORUM_SERVE_BIN, {"--max-queue", "4"}).exit_code, 2);
}

TEST(ToolCli, OneRowTableNamesTheRowCount) {
    // The error is the user's, so it names the row count, not a source
    // line of the build tree.
    char pattern[] = "/tmp/quorum_tool_cli_XXXXXX";
    ASSERT_NE(::mkdtemp(pattern), nullptr);
    const std::filesystem::path dir(pattern);
    std::ofstream(dir / "one.csv") << "a,b,c\n0.1,0.2,0.3\n";
    const tool_run run = run_tool(
        QUORUM_CLI_BIN, {"--input", (dir / "one.csv").string(), "--out",
                         (dir / "scores.csv").string()});
    EXPECT_EQ(run.exit_code, 1);
    EXPECT_NE(run.err.find("need at least two samples to compare (got 1)"),
              std::string::npos)
        << run.err;
    EXPECT_EQ(run.err.find(".cpp"), std::string::npos) << run.err;
    std::filesystem::remove_all(dir);
}

TEST(ToolCli, QasmToAnUnwritablePathFails) {
    // The export used to print "wrote example circuit" and exit 0 without
    // writing anything.
    char pattern[] = "/tmp/quorum_tool_cli_XXXXXX";
    ASSERT_NE(::mkdtemp(pattern), nullptr);
    const std::filesystem::path dir(pattern);
    const std::vector<std::string> demo = {
        "--demo", "--groups", "2", "--out", (dir / "scores.csv").string()};

    std::vector<std::string> args = demo;
    args.insert(args.end(), {"--qasm", (dir / "missing" / "x.qasm").string()});
    const tool_run unwritable = run_tool(QUORUM_CLI_BIN, args);
    EXPECT_EQ(unwritable.exit_code, 1);
    EXPECT_NE(unwritable.err.find("--qasm"), std::string::npos)
        << unwritable.err;

    args = demo;
    args.insert(args.end(), {"--qasm", (dir / "x.qasm").string()});
    EXPECT_EQ(run_tool(QUORUM_CLI_BIN, args).exit_code, 0);
    std::ifstream qasm(dir / "x.qasm");
    std::string first_line;
    std::getline(qasm, first_line);
    EXPECT_EQ(first_line, "OPENQASM 2.0;");
    std::filesystem::remove_all(dir);
}

#endif

} // namespace

#endif // QUORUM_WORKER_BIN
