// Reference implementations of the knapsack kernels, for tests only.
//
// solve_dense / exact_pareto / solve_pairlist are the pre-optimization
// forms of the library kernels, kept verbatim as the ground truth the
// optimized kernels are property-tested against: every optimized kernel
// must produce *bitwise identical* output (take bitmaps, Pareto lists,
// chosen index sets) on every input — that equivalence is what lets the
// engines' digests stay stable across the kernel rewrite. solve_bruteforce
// is the exhaustive oracle the exact engines are checked against.
//
// They are compiled without vectorization tricks and allocate with plain
// std::vector, so they are also the fallback mental model when debugging a
// kernel discrepancy. They live with the tests and link only into the test
// binaries that compare against them: the optimized kernels in
// src/knapsack/dense_dp.hpp and pairlist.hpp are strictly faster with the
// same results.
#pragma once

#include <vector>

#include "src/knapsack/item.hpp"
#include "src/knapsack/pairlist.hpp"

namespace moldable::knapsack::reference {

/// Pre-optimization solve_dense: per-item decision-bit vectors, scalar
/// branchy row updates, identical walk-back reconstruction.
Solution solve_dense(const std::vector<Item>& items, procs_t capacity);

/// Pre-optimization exact_pareto: one freshly allocated merge output per
/// item.
std::vector<ParetoPoint> exact_pareto(const std::vector<Item>& items, double capacity);

/// Pre-optimization solve_pairlist: divide-and-conquer reconstruction that
/// copies each item half into new vectors at every level.
Solution solve_pairlist(const std::vector<Item>& items, double capacity);

/// Exhaustive optimum: enumerates all 2^n subsets. Throws
/// std::invalid_argument for n > 24 and on the inputs solve_dense refuses.
Solution solve_bruteforce(const std::vector<Item>& items, procs_t capacity);

}  // namespace moldable::knapsack::reference
