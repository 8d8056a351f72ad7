// The engine's one fork-join executor: the execution core
// (src/engine/exec_core.hpp) runs every batch and serve window on it, and
// PortfolioSolver runs a raced instance's variant lanes on it. Everything
// below src/engine is single-threaded and deterministic; parallelism lives
// only in the engine.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <system_error>
#include <thread>
#include <vector>

namespace moldable::util {

/// Runs body(i) for every i in [0, n) on up to `threads` threads. The
/// calling thread works as one of them, so the call starts at most
/// threads - 1 more. Indices are claimed in ascending order from one atomic
/// cursor; threads <= 1 runs them inline, in order. An exception from any
/// thread is captured, and the first one (the caller's, then by thread) is
/// rethrown on the calling thread after the join. body must be safe to call
/// concurrently for distinct i (the usual contract).
inline void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                         unsigned threads = std::thread::hardware_concurrency()) {
  threads = static_cast<unsigned>(std::min<std::size_t>(std::max(1u, threads), n));
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  std::vector<std::exception_ptr> errors(threads);
  const auto work = [&](unsigned t) {
    try {
      for (;;) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        body(i);
      }
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) {
    try {
      pool.emplace_back(work, t);
    } catch (const std::system_error&) {
      break;  // no thread to spare: the threads already running drain the cursor
    }
  }
  work(0);
  for (auto& th : pool) th.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace moldable::util
