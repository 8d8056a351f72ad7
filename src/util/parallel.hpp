// Minimal fork-join helper: the execution core (src/engine/exec_core.hpp)
// shards every batch and serve window across threads with it. Everything
// below src/engine is single-threaded and deterministic; parallelism lives
// only in the engine.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace moldable::util {

/// Runs body(i) for i in [0, n) across up to `threads` std::threads with
/// static block partitioning. Exceptions from workers are captured and the
/// first one is rethrown on the calling thread after the join. body must be
/// safe to call concurrently for distinct i (the usual contract).
inline void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                         unsigned threads = std::thread::hardware_concurrency()) {
  if (n == 0) return;
  threads = std::max(1u, std::min<unsigned>(threads, static_cast<unsigned>(n)));
  if (threads == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::vector<std::thread> pool;
  std::vector<std::exception_ptr> errors(threads);
  const std::size_t chunk = (n + threads - 1) / threads;
  for (unsigned t = 0; t < threads; ++t) {
    const std::size_t lo = t * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    if (lo >= hi) break;
    pool.emplace_back([&, lo, hi, t] {
      try {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (auto& th : pool) th.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace moldable::util
