// Algorithm 3 (Section 4.3) and its linear variant (Section 4.3.3): the
// MRT dual with the knapsack solved through bounded-knapsack item types.
//
// With delta = eps/5 and (rho, b) from Lemma 16, the big jobs are rounded
// (Section 4.3.1) into O(poly(1/delta) * polylog(m)) item types, each type
// expanded into O(log n) binary containers, and the resulting 0/1 instance
// solved by Algorithm 2. Unpacking the chosen containers yields the shelf-1
// set; assembly happens at d' = (1+delta)^2 d, where Lemma 16's compression
// pays for the size rounding and Lemma 19 carries the work bound despite
// the profit rounding.
//
// The linear variant differs only in the transformation policy: category-3
// shelf-1 jobs are organized in O(1/delta) geometric buckets instead of a
// heap, trading an extra delta*d of makespan for the removal of the
// O(n log n) term — exactly the Section 4.3.3 trade.
//
// Constants vs the paper (docs/ARCHITECTURE.md, "Deviations from the
// paper"): the knapsack is called with sigma = 1 - sqrt((1-rho)^2 (1+rho))
// so that its (1-sigma)^2 feasibility budget covers both the geometric size
// rounding (factor 1+rho) and Lemma 16's (1-rho)^2 compression;
// compressibility is keyed at gamma > b.
//
// schedule_moldable(…, Algorithm::kBounded / kBoundedLinear) is the full
// algorithm (Table 1, row 2 / row 3).
#pragma once

#include "src/core/dual_search.hpp"
#include "src/jobs/instance.hpp"

namespace moldable::core {

struct BoundedDualOptions {
  bool linear_variant = false;  ///< Section 4.3.3 bucketed transformation
};

/// One (3/2 + eps)-dual call at deadline d.
DualOutcome bounded_dual(const jobs::Instance& instance, double d, double eps,
                         const BoundedDualOptions& options = {});

}  // namespace moldable::core
