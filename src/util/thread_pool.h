// Threads for Quorum's "embarrassingly parallel" ensemble evaluation
// (paper §IV-F). Results stay deterministic because each parallel work
// item owns an index-derived RNG stream and writes its own output slot;
// results are reduced in index order, never in completion order.
#ifndef QUORUM_UTIL_THREAD_POOL_H
#define QUORUM_UTIL_THREAD_POOL_H

#include <cstddef>
#include <functional>

namespace quorum::util {

/// Runs body(i) for every i in [0, count) and returns once all of them
/// ran. The caller and min(lanes, count) - 1 threads started for this
/// call take indices from one shared counter; lanes == 0 runs everything
/// on the caller. The first exception a body throws is rethrown after
/// every other iteration has run. A body may call parallel_for itself:
/// each call starts its own threads, so nested calls cannot deadlock.
/// Safe to call concurrently from several threads.
void parallel_for(std::size_t count, std::size_t lanes,
                  const std::function<void(std::size_t)>& body);

/// Hardware thread count, never less than 1.
[[nodiscard]] std::size_t default_thread_count() noexcept;

} // namespace quorum::util

#endif // QUORUM_UTIL_THREAD_POOL_H
