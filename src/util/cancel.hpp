// Cooperative cancellation for long-running solver calls.
//
// The engine's portfolio racing (PortfolioConfig::race) needs a
// way to stop a variant whose result provably cannot matter any more — an
// exact branch-and-bound grinding on while a peer already posted a schedule
// at the instance's certified lower bound. Cancellation here is strictly
// cooperative and strictly an *exit* mechanism:
//
//   * a CancelToken is a latch: once cancel() is called it stays cancelled;
//   * solvers observe it either through SolverConfig::cancel (custom
//     variants) or through poll_cancellation() in their long loops (the
//     built-ins — dual-search iterations, knapsack DP rows, branch-and-bound
//     node ticks); a cancelled solve throws cancelled_error;
//   * cancellation never changes a *returned* result — a solve either runs
//     to completion with its usual pure output or unwinds with
//     cancelled_error. This is what keeps the engines' determinism contract
//     intact: the digest-visible world only ever sees completed results.
//
// poll_cancellation() reads a thread-local "active token" installed by
// CancelScope, so the core algorithms stay signature-free: the registry's
// built-in wrappers install the scope from SolverConfig::cancel, and every
// loop below them inherits it. A thread with no scope polls for free
// (null check). The token itself is a single atomic flag — safe to set from
// any thread while the owning solve is mid-loop.
#pragma once

#include <atomic>
#include <stdexcept>

namespace moldable::util {

/// One-shot cancellation latch. Set from any thread; observed by the solve
/// running under it. Not resettable by design — a token belongs to exactly
/// one race lane and dies with it.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void cancel() noexcept { flag_.store(true, std::memory_order_release); }
  bool cancelled() const noexcept { return flag_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> flag_{false};
};

/// Thrown by poll_cancellation() (and by cancel-aware custom solvers) when
/// the active token fires. The engine converts it to a kCancelled attempt;
/// it is never part of a returned result.
class cancelled_error : public std::runtime_error {
 public:
  cancelled_error()
      : std::runtime_error("cancelled: a raced peer already decided this instance") {}
};

/// RAII installer of the calling thread's active cancel token (nullable —
/// installing null makes poll_cancellation() a no-op again). Nests: the
/// destructor restores whatever was active before.
class CancelScope {
 public:
  explicit CancelScope(const CancelToken* token);
  ~CancelScope();
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  const CancelToken* prev_;
};

/// The token installed by the innermost CancelScope on this thread (null
/// when none is active).
const CancelToken* active_cancel_token() noexcept;

/// Throws cancelled_error when the thread's active token has fired; no-op
/// otherwise. Cheap enough for per-DP-row / per-iteration granularity: a
/// thread-local read plus (when a scope is active) one acquire load.
void poll_cancellation();

}  // namespace moldable::util
