// The engine's one fork-join executor: the execution core
// (src/engine/exec_core.hpp) runs every batch and serve window on it, one
// instance per index. No body calls parallel_for again, so calls never
// nest. Everything below src/engine is single-threaded and deterministic;
// parallelism lives only in the engine.
//
// Its helper threads persist: they start on the first call that needs them,
// serve every later call, and are joined at exit, so a serve loop pays for
// thread starts once rather than once per window.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>

namespace moldable::util {

/// Runs body(i) for every i in [0, n) on up to `threads` threads. The
/// calling thread works as one of them, helped by up to threads - 1 threads
/// of a process-wide pool, which grows to the largest threads - 1 any call
/// asks for (a helper that cannot start leaves the call running with fewer).
/// Indices are claimed in ascending order from one atomic cursor; threads <= 1
/// runs them inline, in order. An exception from any thread is captured,
/// and the first one (the caller's, then by helper) is rethrown on the
/// calling thread once every participant is done. Calls from different
/// threads may overlap; each returns when its own indices are done. body
/// must be safe to call concurrently for distinct i (the usual contract).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  unsigned threads = std::thread::hardware_concurrency());

}  // namespace moldable::util
