// AlgorithmRegistry: the engine's name -> solver map.
//
// The core layer exposes the paper's algorithms through three entry points
// (schedule_moldable + an Algorithm enum, ptas_schedule, exact_schedule).
// The engine and its drivers instead select solvers by *name* at run time
// (CLI flags, service configs), so this registry wraps every variant behind
// one uniform `solve(instance, config)` signature, through one adapter that
// installs the config's cancel scope:
//
//   auto, fptas, mrt, algorithm1, algorithm3, algorithm3-linear  (the enum)
//   lt-2approx                                                   (baseline)
//   ptas                                                         (Section 3.2)
//   exact                                       (tiny refs, memory-aware)
//   mem-greedy                                  (memory-aware list greedy)
//
// Registries are value types; `global()` returns the shared immutable
// instance holding the built-ins. Custom variants (ablations, tuned eps
// schedules) can be added to a copy without touching the core layer.
//
// Capability flags: each entry declares whether it understands the memory
// axis (`SolverCaps::memory_aware`). The paper algorithms predate the axis
// and silently ignore footprints, which would produce memory-overcommitted
// "valid-looking" schedules — so the engine fails closed instead: a
// memory-constrained instance routed to a memory-blind variant yields the
// named capability error (check_capability), never a wrong schedule.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/core/scheduler.hpp"
#include "src/jobs/instance.hpp"
#include "src/util/cancel.hpp"

namespace moldable::engine {

/// Per-call solver parameters. Kept separate from core's positional
/// arguments so new knobs (time limits, seeds) extend one struct instead of
/// every solver signature.
struct SolverConfig {
  double eps = 0.1;  ///< approximation parameter, in (0, 1]
  /// Cooperative cancellation (portfolio racing): when non-null, the caller
  /// may fire this token mid-solve and the solver should unwind with
  /// util::cancelled_error as soon as it notices. The built-in wrappers
  /// install the token as the thread's active CancelScope, so the core
  /// layer's long loops (dual-search iterations, knapsack DP rows, exact
  /// branch-and-bound ticks) observe it through util::poll_cancellation()
  /// without any signature plumbing; custom variants should either check it
  /// directly or install their own scope. Cancellation never alters a
  /// *returned* result — a solve completes pure or it throws.
  const util::CancelToken* cancel = nullptr;
};

/// A registered solver variant: maps (instance, config) to a ScheduleResult,
/// reporting failure by throwing (std::exception derivatives only).
///
/// Contract required by the engine (PortfolioSolver):
///   * pure — the result is a function of the arguments alone (no hidden
///     state, no randomness, no wall-clock dependence); this is what makes
///     the engine's digests stable across thread counts;
///   * thread-compatible — concurrent calls on distinct instances are safe
///     (all built-ins are; custom variants must not share mutable state);
///   * certified — `lower_bound` must be a valid lower bound on OPT and the
///     returned schedule must pass sched::validate (the engine re-checks
///     and demotes violations to per-instance failures).
using SolverFn =
    std::function<core::ScheduleResult(const jobs::Instance&, const SolverConfig&)>;

/// Declared capabilities of a registered variant. Defaults describe the
/// pre-memory-axis contract, so existing custom registrations keep their
/// (fail-closed) behavior without a signature change.
struct SolverCaps {
  /// True when the solver honors the instance's `mem`/`memcap` constraint
  /// (every returned allotment is memory-feasible and the certified lower
  /// bound folds in memory_lower_bound()). Memory-blind variants are never
  /// handed a memory-constrained instance — see check_capability().
  bool memory_aware = false;
};

/// Name -> SolverFn map behind the engine's run-time solver selection.
/// See the file comment for the built-in names. Lookup is O(log n); batch
/// callers resolve once outside their worker loops.
class AlgorithmRegistry {
 public:
  /// Empty registry (for tests / custom variant sets).
  AlgorithmRegistry() = default;

  /// A registry populated with every built-in solver variant.
  static AlgorithmRegistry with_builtins();

  /// Shared immutable registry of the built-ins.
  static const AlgorithmRegistry& global();

  /// Registers `fn` under `name` with the given capabilities (default:
  /// memory-blind). Throws std::invalid_argument when the name is empty or
  /// already taken (silent override would make batch configs ambiguous).
  void add(std::string name, SolverFn fn, SolverCaps caps = {});

  bool contains(const std::string& name) const;

  /// Declared capabilities of `name` (same throwing contract as at()).
  const SolverCaps& caps(const std::string& name) const;
  /// Shorthand: caps(name).memory_aware.
  bool memory_aware(const std::string& name) const;

  /// Fail-closed capability gate: throws std::invalid_argument with a
  /// message starting "capability:" when `instance` is memory-constrained
  /// and `name` is memory-blind. solve() runs it before every call, and
  /// PortfolioSolver reports it for every lane of an instance no capable
  /// variant can serve, so a blind variant can never silently produce a
  /// memory-overcommitted schedule. No-op for memory-free instances and
  /// memory-aware variants.
  void check_capability(const std::string& name, const jobs::Instance& instance) const;

  /// Sorted solver names (stable across runs; used by --help output).
  std::vector<std::string> names() const;

  /// Looks up `name`; throws std::invalid_argument with the known-name list
  /// when it is not registered. The reference stays valid as long as the
  /// registry does (batch callers resolve once, outside their worker loop).
  const SolverFn& at(const std::string& name) const;

  /// Looks up `name`, runs check_capability, and runs it (same throwing
  /// contract as at(); the capability error when a memory-constrained
  /// instance meets a memory-blind variant).
  core::ScheduleResult solve(const std::string& name, const jobs::Instance& instance,
                             const SolverConfig& config) const;

 private:
  struct Entry {
    SolverFn fn;
    SolverCaps caps;
  };
  std::map<std::string, Entry> solvers_;
};

}  // namespace moldable::engine
