// Algorithm 1 (Section 4.2.1 / 4.2.5): the MRT dual with the exact knapsack
// replaced by knapsack-with-compressible-items (Algorithm 2).
//
// With rho_c = eps/6, the wide jobs (gamma_j(d) >= 1/rho_c) are declared
// compressible; Algorithm 2 then finds a shelf-1 candidate set whose profit
// is at least the exact knapsack optimum while its *compressed* size fits
// in m. Scheduling the selected jobs with gamma_j(d') processors at the
// inflated deadline d' = (1 + 4 rho_c) d makes shelf 1 genuinely fit
// (Lemma 4), and Corollary 10 carries the work bound from level d to level
// d', so the dual returns a schedule of makespan (3/2) d' <= (3/2 + eps) d.
//
// Deviation from the paper's constants (docs/ARCHITECTURE.md, "Deviations
// from the paper"): Algorithm 2 guarantees feasibility under
// rho' = 2 sigma - sigma^2 for its input factor sigma, so we call it with
// sigma = 1 - sqrt(1 - rho_c), making (1 - sigma)^2 = 1 - rho_c exactly the
// budget that one Lemma 4 compression at factor rho_c pays back. The
// guarantee and asymptotic running time are the paper's; only the constant
// inside eps changes.
//
// Per-dual-call running time: O(n (log m + n log(eps m))) — Table 1, row 1.
// schedule_moldable(…, Algorithm::kCompressible) is the full algorithm.
#pragma once

#include "src/core/dual_search.hpp"
#include "src/jobs/instance.hpp"

namespace moldable::core {

/// One (3/2 + eps)-dual call at deadline d.
DualOutcome compressible_dual(const jobs::Instance& instance, double d, double eps);

}  // namespace moldable::core
