// Exact reference solver for tiny instances.
//
// Used by the test suite to measure true approximation ratios (and as the
// stand-in for the Jansen-Thöle PTAS in the small-m branch of Section 3.2's
// composition — docs/ARCHITECTURE.md, "Deviations from the paper"). Two
// nested searches:
//
//   1. enumerate allotments (processor count per job) by DFS with
//      work/max-time lower-bound pruning against the incumbent;
//   2. for each allotment, solve the rigid scheduling problem optimally by
//      branch-and-bound over start decisions: an optimal schedule exists in
//      which every start time is 0 or some completion time, so the search
//      branches on "start job j at the current event" / "advance to the
//      next completion".
//
// Intended for n <= 7 and m <= 8 (a node budget guards larger calls).
#pragma once

#include <optional>

#include "src/jobs/instance.hpp"
#include "src/sched/schedule.hpp"

namespace moldable::core {

struct ExactLimits {
  std::size_t max_jobs = 7;
  procs_t max_machines = 8;
  std::uint64_t node_budget = 20'000'000;
};

struct ExactResult {
  double makespan = 0;
  sched::Schedule schedule;
};

/// Optimal schedule, or nullopt when the limits/budget were exceeded.
/// Memory-aware: on a memory-constrained instance the allotment search
/// ranges over [kmin_j, m] per job, so the optimum is optimal among
/// memory-feasible schedules. Throws std::invalid_argument when the
/// instance exceeds the hard caps or when some job is memory-infeasible
/// (kmin_j > m: no allotment satisfies the footprint).
std::optional<ExactResult> solve_exact(const jobs::Instance& instance,
                                       const ExactLimits& limits = {});

}  // namespace moldable::core
