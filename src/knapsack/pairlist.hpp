// Lawler-style pair-list knapsack DP (Section 4.2.3) and its two extensions
// used by Algorithm 2:
//
//  * multi-capacity one-pass solving (Section 4.2.4): one Pareto sweep up to
//    max(B) answers every capacity in B by a lookup;
//  * adaptive normalization (Lemma 12): pair sizes snap down to the
//    NormalizationGrid on creation, keeping the list O(nbar * |A|) long
//    independent of the numeric capacity.
//
// Reconstruction strategies:
//  * exact lists use divide-and-conquer (Hirschberg-style): O(n*C*log n)
//    time, O(C) transient memory, no stored decisions; the recursion works
//    on (lo, hi) index ranges into the original item vector — no per-level
//    half copies — and every transient frontier lives on the thread's
//    ScratchArena (ping-pong merge buffers, rewound per recursion level);
//  * normalized lists use an arena of parent pointers: the sequential
//    snapping semantics of the paper are preserved exactly, at the cost of
//    memory proportional to the number of undominated pairs ever created
//    (small in the regimes where normalization is worthwhile — that is the
//    point of the grid).
//
// The merge kernel and its scratch discipline are perf-gated (pinned shapes
// in bench/bench_knapsack.cpp) and property-tested bitwise-identical to the
// retained scalar reference in tests/knapsack_reference.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "src/knapsack/geom_grid.hpp"
#include "src/knapsack/item.hpp"

namespace moldable::knapsack {

struct ParetoPoint {
  double size = 0;    ///< total (possibly normalized) size
  double profit = 0;  ///< best profit at this size
};

/// Exact Pareto frontier of {(size, profit)} over subsets of `items` with
/// size <= capacity: ascending in size, strictly ascending in profit,
/// starting with (0, 0). O(n * |list|); with integral sizes the list never
/// exceeds capacity + 1 points.
std::vector<ParetoPoint> exact_pareto(const std::vector<Item>& items, double capacity);

/// Best profit at each queried capacity, answered from one Pareto sweep up
/// to max(capacities) (Section 4.2.4).
std::vector<double> profits_for_capacities(const std::vector<Item>& items,
                                           const std::vector<double>& capacities);

/// Exact solve with divide-and-conquer reconstruction. Equivalent profit to
/// solve_dense but O(C) memory.
Solution solve_pairlist(const std::vector<Item>& items, double capacity);

/// Normalized multi-capacity solver (the compressible side of Algorithm 2).
/// Runs the pair-list DP with sizes snapped to `grid` on creation; answers
/// profit queries for any capacity and reconstructs the chosen set by
/// walking parent pointers. The profit for capacity alpha is at least
/// OPT(items, exact, alpha): snapping only under-estimates sizes. The true
/// size of a reconstructed solution exceeds its normalized size by at most
/// (#chosen) * U(alpha) — the slack Lemma 12's compression argument absorbs.
class NormalizedPairList {
 public:
  /// Runs the DP immediately. Throws std::invalid_argument when the arena
  /// exceeds `max_pairs` (symptom: the grid is too fine to be useful —
  /// callers should fall back to the exact engine).
  NormalizedPairList(const std::vector<Item>& items, const NormalizationGrid& grid,
                     std::size_t max_pairs = std::size_t{1} << 26);

  /// Best profit among pairs with normalized size <= capacity.
  double profit_at(double capacity) const;

  /// Chosen item indices achieving profit_at(capacity).
  std::vector<std::size_t> reconstruct(double capacity) const;

  std::size_t arena_size() const { return arena_.size(); }

 private:
  struct Node {
    double size;
    double profit;
    std::int64_t parent;  ///< -1 for the root (empty set)
    std::int32_t item;    ///< item added at this node, -1 for root
  };
  std::vector<Node> arena_;
  std::vector<std::int64_t> frontier_;  ///< final list, ascending size/profit
};

}  // namespace moldable::knapsack
