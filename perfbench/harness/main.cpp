// perfbench_harness — runs one benchmark workload and prints its metrics.
//
//   perfbench_harness --workload W --seed N --seconds S --trace 0|1
//                     --data-dir DIR [--serve-rate R --serve-p99-limit-ms L
//                     --serve-lag-limit-ms G --serve-backlog-limit B]
//
// Workloads: batch_table, stream_push, serve_fleet, noisy_table (see
// perfbench/README.md). perfbench/run.py builds this binary and drives
// it; the lines it prints are for run.py:
//
//   HOST <key> <value>            host label
//   METRIC <name> <value> <unit>  one per measured metric
//   RESULT <attempted> <failed> <digest>
//   INVALID <reason>              the run broke its own validity bounds
//
// Other lines are progress for humans. Exit status: 0 when every
// operation's output matched its reference, 1 otherwise, 2 on bad flags.
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include <sys/prctl.h>

#include "common.h"
#include "qsim/kernels.h"
#include "util/parse.h"

namespace {

using perfbench::options;

bool parse_flags(int argc, char** argv, options& opts) {
    std::map<std::string, std::string> flags;
    for (int i = 1; i + 1 < argc; i += 2) {
        flags[argv[i]] = argv[i + 1];
    }
    if (argc % 2 != 1) {
        return false;
    }
    const auto text = [&](const char* name) -> const std::string* {
        const auto it = flags.find(name);
        return it == flags.end() ? nullptr : &it->second;
    };
    const auto real = [&](const char* name, double& out) {
        const std::string* value = text(name);
        return value != nullptr &&
               quorum::util::parse_real(value->c_str(), out);
    };
    const auto count = [&](const char* name, std::size_t& out) {
        const std::string* value = text(name);
        return value != nullptr &&
               quorum::util::parse_count(value->c_str(), out);
    };
    std::size_t seed = 0;
    std::size_t trace = 0;
    if (text("--workload") == nullptr || !count("--seed", seed) ||
        !real("--seconds", opts.seconds) || opts.seconds <= 0.0 ||
        !count("--trace", trace) || trace > 1 ||
        text("--data-dir") == nullptr) {
        return false;
    }
    opts.workload = *text("--workload");
    opts.seed = seed;
    opts.trace = trace == 1;
    opts.data_dir = *text("--data-dir");
    if (opts.workload == "serve_fleet") {
        return real("--serve-rate", opts.serve.offered_rate) &&
               real("--serve-p99-limit-ms", opts.serve.p99_limit_ms) &&
               real("--serve-lag-limit-ms", opts.serve.lag_limit_ms) &&
               count("--serve-backlog-limit", opts.serve.backlog_limit);
    }
    return true;
}

std::string cpu_model() {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

void print_host_label() {
    namespace kernels = quorum::qsim::kernels;
    std::printf("HOST nproc %u\n", std::thread::hardware_concurrency());
    std::printf("HOST cpu %s\n", cpu_model().c_str());
    std::printf("HOST avx2_kernels %s\n",
                kernels::active_isa() == kernels::isa::avx2 ? "dispatched"
                                                            : "not-dispatched");
    std::printf("HOST build_type %s\n", PERFBENCH_BUILD_TYPE);
    std::printf("HOST compiler %s\n", PERFBENCH_COMPILER);
}

} // namespace

int main(int argc, char** argv) {
    options opts;
    if (!parse_flags(argc, argv, opts)) {
        std::fprintf(stderr, "perfbench_harness: bad flags (see the header "
                             "of perfbench/harness/main.cpp)\n");
        return 2;
    }
    // Orphaned grandchildren (quorum_serve's workers) are re-parented
    // here, so every process the run starts can be reaped by it.
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);
    print_host_label();

    perfbench::report result;
    try {
        if (opts.workload == "batch_table") {
            result = perfbench::run_batch_table(opts);
        } else if (opts.workload == "stream_push") {
            result = perfbench::run_stream_push(opts);
        } else if (opts.workload == "serve_fleet") {
            result = perfbench::run_serve_fleet(opts);
        } else if (opts.workload == "noisy_table") {
            result = perfbench::run_noisy_table(opts);
        } else {
            std::fprintf(stderr, "perfbench_harness: unknown workload %s\n",
                         opts.workload.c_str());
            return 2;
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench_harness: %s\n", error.what());
        return 1;
    }
    if (!result.invalid.empty()) {
        std::printf("INVALID %s\n", result.invalid.c_str());
        return 1;
    }
    for (const perfbench::metric& m : result.metrics) {
        std::printf("METRIC %s %.17g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("RESULT %zu %zu %s\n", result.attempted, result.failed,
                result.digest.c_str());
    return result.failed == 0 ? 0 : 1;
}
