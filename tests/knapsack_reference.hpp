// Scalar reference implementations of the knapsack kernels.
//
// These are the pre-optimization forms of dense_profit_row / solve_dense /
// exact_pareto / solve_pairlist, kept verbatim as the ground truth the
// optimized kernels are property-tested against: every optimized kernel
// must produce *bitwise identical* output (profit rows, take bitmaps,
// Pareto lists, chosen index sets) on every input — that equivalence is
// what lets the engines' digests stay stable across the kernel rewrite.
//
// They are compiled without vectorization tricks and allocate with plain
// std::vector, so they are also the fallback mental model when debugging a
// kernel discrepancy. They live with the tests and link only into
// test_kernel_equivalence: the optimized kernels in src/knapsack/dense_dp.hpp
// and pairlist.hpp are strictly faster with the same results.
#pragma once

#include <vector>

#include "src/knapsack/item.hpp"
#include "src/knapsack/pairlist.hpp"

namespace moldable::knapsack::reference {

/// Pre-optimization dense_profit_row: descending scalar row updates.
std::vector<double> dense_profit_row(const std::vector<Item>& items, procs_t capacity);

/// Pre-optimization solve_dense: per-item decision-bit vectors, scalar
/// branchy row updates, identical walk-back reconstruction.
Solution solve_dense(const std::vector<Item>& items, procs_t capacity);

/// Pre-optimization exact_pareto: one freshly allocated merge output per
/// item.
std::vector<ParetoPoint> exact_pareto(const std::vector<Item>& items, double capacity);

/// Pre-optimization solve_pairlist: divide-and-conquer reconstruction that
/// copies each item half into new vectors at every level.
Solution solve_pairlist(const std::vector<Item>& items, double capacity);

}  // namespace moldable::knapsack::reference
