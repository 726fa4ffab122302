// Tracing from outside the program: an executor decorator, registered
// through exec::register_backend, that records one span per call into
// the execution layer. It forwards every virtual of the wrapped engine —
// both supports() overloads and make_level_session included — so the
// detector and the stream scorer take exactly the code paths they take on
// the plain backend, and scores stay bit-identical.
//
// Spans stay in memory; workloads summarise them when the run ends.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/executor.h"

namespace perfbench::trace {

/// One timed call into the execution layer.
struct span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::size_t samples = 0;
    std::size_t levels = 0;
};

/// Thread-safe in-memory span store.
class span_log {
public:
    void add(const span& s);
    /// Moves out every span recorded so far.
    [[nodiscard]] std::vector<span> take();

private:
    std::mutex mutex_;
    std::vector<span> spans_;
};

/// Totals over a set of execution-layer spans.
struct exec_totals {
    std::size_t calls = 0;
    std::size_t samples = 0;
    std::size_t sample_levels = 0;
    std::int64_t busy_ns = 0; ///< summed over threads
};

[[nodiscard]] exec_totals summarise(const std::vector<span>& spans);

/// The [start, end) intervals of `spans`, sorted by start (for
/// covered_ns).
[[nodiscard]] std::vector<std::pair<std::int64_t, std::int64_t>>
intervals(const std::vector<span>& spans);

/// Registers backend `name`: a traced decorator around a fresh instance
/// of the plain backend `inner`, logging to `log` (which must outlive
/// every engine the registry builds from it).
void register_traced_backend(const std::string& name,
                             const std::string& inner, span_log& log);

} // namespace perfbench::trace

#endif // PERFBENCH_TRACE_H
