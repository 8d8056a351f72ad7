// Exact 0/1 knapsack via the classical dense dynamic program over
// capacities: O(n * C) time and O(n * C / 64) bytes of decision bits.
//
// This is the engine the original Mounié-Rapine-Trystram algorithm uses
// (Section 4.1: "Solving the knapsack problem requires time O(nm) with a
// standard dynamic programming approach") and is kept as the baseline the
// paper's compressible/bounded engines are benchmarked against. The size of
// the decision matrix is guarded: this solver is *meant* to be Theta(n*m)
// and refuses inputs where that was clearly not intended.
//
// Implementation: the row update is restructured into descending chunks of
// at most `size` cells — inside a chunk the reads trail the writes by the
// full item size, so the cells are dependence-free and run through SIMD
// kernels (SSE2/AVX2/AVX-512, picked once at run time) while producing
// *bitwise identical* results to the scalar descending loop; decision bits
// live in one flat row-major bitmap, kept with the profit row in buffers
// each thread reuses from solve to solve.
// The scalar original is retained in tests/knapsack_reference.hpp and the
// equivalence is property-tested (test_kernel_equivalence) and gated by the
// pinned benchmarks in bench/bench_knapsack.cpp.
#pragma once

#include <vector>

#include "src/knapsack/item.hpp"

namespace moldable::knapsack {

/// Maximum-profit subset with total size <= capacity. Items with size 0 are
/// always taken when profitable. Throws std::invalid_argument for negative
/// capacity/sizes/profits or when n*(C+1) exceeds ~2^35 decision bits.
Solution solve_dense(const std::vector<Item>& items, procs_t capacity);

}  // namespace moldable::knapsack
