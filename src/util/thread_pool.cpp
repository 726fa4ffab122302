#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace quorum::util {

void parallel_for(std::size_t count, std::size_t lanes,
                  const std::function<void(std::size_t)>& body) {
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    // Failed iterations record the first exception and the lane keeps
    // claiming, so every other iteration still runs.
    const auto drive = [&]() {
        for (std::size_t i = next++; i < count; i = next++) {
            try {
                body(i);
            } catch (...) {
                const std::scoped_lock lock(error_mutex);
                if (!first_error) {
                    first_error = std::current_exception();
                }
            }
        }
    };
    std::vector<std::thread> helpers;
    const std::size_t total = std::min(lanes, count);
    helpers.reserve(total > 0 ? total - 1 : 0);
    for (std::size_t lane = 1; lane < total; ++lane) {
        try {
            helpers.emplace_back(drive);
        } catch (const std::system_error&) {
            break; // out of threads: the lanes already started do the rest
        }
    }
    drive();
    for (std::thread& helper : helpers) {
        helper.join();
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }
}

std::size_t default_thread_count() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

} // namespace quorum::util
