// Baseline schedulers the paper compares against conceptually:
//
//   * Ludwig-Tiwari / Turek-Wolf-Yu style 2-approximation: the estimator's
//     minimizing allotment handed to Graham list scheduling (Section 3:
//     "the list scheduling algorithm ... produces a schedule of makespan at
//     most 2 omega"), and the library's one memory-aware list scheduler;
//   * a sequential baseline (every job on one processor) — the natural
//     no-moldability straw man;
//   * an equal-share baseline (every job on max(1, m/n) processors) — the
//     naive static partitioning HPC schedulers sometimes use.
#pragma once

#include "src/jobs/instance.hpp"
#include "src/sched/schedule.hpp"

namespace moldable::core {

struct BaselineResult {
  sched::Schedule schedule;
  double lower_bound = 0;  ///< omega from the estimator (0 for straw men)
};

/// Estimator allotment + list scheduling: makespan <= 2 * OPT, lower bound
/// omega. When the memory constraint binds, each allotment is first clamped
/// up to the smallest memory-feasible one, kmin_j, and the lower bound is
/// max(omega, memory_lower_bound), both certified; the clamped schedule has
/// no proven factor. Throws std::invalid_argument when some job is
/// memory-infeasible (kmin_j > m).
BaselineResult ludwig_tiwari_schedule(const jobs::Instance& instance);

/// Every job sequential, list scheduled. No approximation guarantee.
BaselineResult sequential_schedule(const jobs::Instance& instance);

/// Every job on max(1, m/n) processors, list scheduled. No guarantee.
BaselineResult equal_share_schedule(const jobs::Instance& instance);

}  // namespace moldable::core
