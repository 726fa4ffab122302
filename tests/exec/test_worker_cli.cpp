// Tool flag-parsing regression tests, against the REAL binaries.
// The bug of record: quorum_worker's --retry/--retry-delay-ms went
// through std::atoi, so "--retry banana" silently became 0 retries and
// "--retry -1" slipped past as a negative. Both must now be usage errors
// (exit 2) with a diagnostic naming the flag. The ToolCli cases pin the
// flags quorum_cli, quorum_stream and quorum_serve share (one
// core::parse_exec_mode) and the options they no longer take.
#ifdef QUORUM_WORKER_BIN

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

/// Runs `binary` with the given arguments, stdout/stderr to /dev/null,
/// and returns its exit code (-1 on spawn trouble).
int run_tool(const char* binary, const std::vector<std::string>& args) {
    const pid_t pid = ::fork();
    if (pid == 0) {
        const int null_fd = ::open("/dev/null", O_RDWR);
        if (null_fd >= 0) {
            ::dup2(null_fd, STDIN_FILENO);
            ::dup2(null_fd, STDOUT_FILENO);
            ::dup2(null_fd, STDERR_FILENO);
            ::close(null_fd);
        }
        std::vector<char*> argv;
        argv.push_back(const_cast<char*>(binary));
        for (const std::string& arg : args) {
            argv.push_back(const_cast<char*>(arg.c_str()));
        }
        argv.push_back(nullptr);
        ::execv(binary, argv.data());
        ::_exit(127);
    }
    int status = 0;
    if (pid < 0 || ::waitpid(pid, &status, 0) != pid ||
        !WIFEXITED(status)) {
        return -1;
    }
    return WEXITSTATUS(status);
}

int run_worker(const std::vector<std::string>& args) {
    return run_tool(QUORUM_WORKER_BIN, args);
}

TEST(WorkerCli, VersionAndHelpExitCleanly) {
    EXPECT_EQ(run_worker({"--version"}), 0);
    EXPECT_EQ(run_worker({"--help"}), 0);
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

TEST(ToolCli, UnknownModeIsAUsageErrorInEveryTool) {
    for (const char* tool :
         {QUORUM_CLI_BIN, QUORUM_STREAM_BIN, QUORUM_SERVE_BIN}) {
        EXPECT_EQ(run_tool(tool, {"--mode", "bogus"}), 2) << tool;
        EXPECT_EQ(run_tool(tool, {"--mode", "Sampled"}), 2) << tool;
        EXPECT_EQ(run_tool(tool, {"--mode"}), 2) << tool;
    }
}

TEST(ToolCli, ServeNoLongerTakesAQueueBound) {
    // The fleet sends spans from the calling thread: no queue is left to
    // bound, so --max-queue is an unknown option.
    EXPECT_EQ(run_tool(QUORUM_SERVE_BIN, {"--max-queue", "4"}), 2);
}

#endif

} // namespace

#endif // QUORUM_WORKER_BIN
