// Compression (Lemma 4 and Lemma 16) — the paper's central tool for
// exploiting work monotony: a job running on many processors can give some
// of them up at a bounded cost in processing time.
//
// Lemma 4: if a job uses b >= 1/rho processors, rho in (0, 1/4], then
//   t(floor(b (1 - rho))) <= (1 + 4 rho) t(b),
// i.e. ceil(b rho) processors are freed for a <= 4 rho relative slowdown.
//
// Lemma 16 packages the double application used by Section 4.3: for
// delta in (0, 1], rho = (sqrt(1+delta) - 1)/4 and b = 1/(2 rho - rho^2),
// any job on >= b processors can be compressed with factor 2 rho - rho^2,
// shrinking its processor count by (1-rho)^2 while its time grows by a
// factor < 1 + delta. Algorithm 3 takes rho and b from
// knapsack::BoundedRounding::make.
#pragma once

#include "src/jobs/job.hpp"
#include "src/util/common.hpp"

namespace moldable::core {

struct CompressionResult {
  procs_t new_procs = 0;
  double new_time = 0;
  double inflation = 0;  ///< new_time / old_time (diagnostic)
};

/// Applies Lemma 4 to a job currently allotted `b` processors. Requires
/// rho in (0, 1/4] and b >= 1/rho. The invariant check asserts the lemma's
/// conclusion, which holds for every monotone job.
CompressionResult compress(const jobs::Job& job, procs_t b, double rho);

}  // namespace moldable::core
