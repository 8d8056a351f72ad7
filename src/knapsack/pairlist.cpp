#include "src/knapsack/pairlist.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace moldable::knapsack {

namespace {

// The Pareto sweep runs entirely on per-thread scratch: the frontier lives
// in a ping-pong pair of buffers that swap roles every merge step, instead
// of the pre-optimization allocate-and-return std::vector per item. Results
// are copied out to fresh vectors only at the public API boundary, so no
// returned object aliases scratch. Bitwise identity with the retained
// reference (tests/knapsack_reference.cpp) is property-tested: the merge below
// applies the exact same compare/tie rules, only with the running "back of
// the output" carried in registers and the capacity cut hoisted out of the
// per-point push.
//
// One set of three frontier buffers per thread serves every call, because
// every entry point is done with the scratch before it returns or recurses:
// reconstruct_rec reads its split from the two half-frontiers and only then
// recurses, and no kernel here calls another while it holds scratch.

/// A frontier in a reused buffer: the first `len` points are live, the rest
/// of `pts` is stale capacity. Buffers only grow, so a warm thread solves
/// with no heap traffic.
struct Frontier {
  std::vector<ParetoPoint> pts;
  std::size_t len = 0;

  /// Room for `want` points. The contents are not kept: every caller
  /// rewrites the buffer from the start.
  void ensure(std::size_t want) {
    if (want <= pts.size()) return;
    const std::size_t grown = std::max({want, 2 * pts.size(), std::size_t{64}});
    pts.clear();
    pts.resize(grown);
  }
};

struct Scratch {
  Frontier a, b, c;
};

/// This thread's frontier buffers, shared by every call under the
/// invariant above.
Scratch& thread_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// Merges `base` with `base (+) item` under a capacity, pruning dominated
/// points; writes into `out` (sized for 2n+1 by the caller) and returns the
/// new length. Both inputs and the output ascend strictly in size and
/// profit, which the merge exploits three ways the per-point push could
/// not: the capacity cut on the shifted stream is a suffix found once; the
/// dominance checks compare against a register-carried last point instead
/// of re-loading out.back(); and once the shifted stream is exhausted the
/// base tail copies straight through (its first survivor is the only point
/// that still needs the full rules).
std::size_t merge_step(const ParetoPoint* __restrict__ base, std::size_t n,
                       const Item& item, double cap_tol,
                       ParetoPoint* __restrict__ out) {
  const double isz = item.size;
  const double ip = item.profit;
  std::size_t b_end = n;  // shifted points at or past this index exceed cap
  while (b_end > 0 && base[b_end - 1].size + isz > cap_tol) --b_end;

  std::size_t m = 0;
  double last_size = -1.0;    // sentinel: sizes/profits are >= 0
  double last_profit = -1.0;
  std::size_t a = 0, b = 0;
  while (a < n && b < b_end) {
    ParetoPoint p;
    if (base[a].size <= base[b].size + isz) {
      p = base[a];
      ++a;
    } else {
      p = {base[b].size + isz, base[b].profit + ip};
      ++b;
    }
    if (p.profit <= last_profit) continue;  // dominated
    if (p.size == last_size) {
      out[m - 1].profit = p.profit;  // same size, better profit
      last_profit = p.profit;
      continue;
    }
    out[m] = p;
    ++m;
    last_size = p.size;
    last_profit = p.profit;
  }
  for (; b < b_end; ++b) {
    const ParetoPoint p{base[b].size + isz, base[b].profit + ip};
    if (p.profit <= last_profit) continue;
    if (p.size == last_size) {
      out[m - 1].profit = p.profit;
      last_profit = p.profit;
      continue;
    }
    out[m] = p;
    ++m;
    last_size = p.size;
    last_profit = p.profit;
  }
  if (a < n) {
    for (; a < n; ++a) {
      const ParetoPoint p = base[a];
      if (p.profit <= last_profit) continue;
      if (p.size == last_size) {
        out[m - 1].profit = p.profit;
      } else {
        out[m] = p;
        ++m;
      }
      ++a;
      break;
    }
    // Rest of the base tail: strictly ascending in both coordinates and
    // under cap, so no rule can fire again.
    for (; a < n; ++a) {
      out[m] = base[a];
      ++m;
    }
  }
  return m;
}

/// Pareto frontier of items[lo, hi), left in `cur`; `next` is the other
/// half of the ping-pong pair.
void pareto_range(const std::vector<Item>& items, std::size_t lo, std::size_t hi,
                  double capacity, Frontier& cur, Frontier& next) {
  const double cap_tol = capacity * (1 + kRelTol);
  cur.ensure(1);
  cur.pts[0] = {0.0, 0.0};
  cur.len = 1;
  for (std::size_t i = lo; i < hi; ++i) {
    next.ensure(2 * cur.len + 1);
    next.len = merge_step(cur.pts.data(), cur.len, items[i], cap_tol, next.pts.data());
    cur.pts.swap(next.pts);
    std::swap(cur.len, next.len);
  }
}

double lookup(const ParetoPoint* list, std::size_t len, double capacity) {
  // Largest size <= capacity; lists start at (0,0) so a hit always exists
  // for capacity >= 0.
  double best = 0;
  const ParetoPoint* it =
      std::upper_bound(list, list + len, capacity * (1 + kRelTol),
                       [](double c, const ParetoPoint& p) { return c < p.size; });
  if (it != list) best = std::prev(it)->profit;
  return best;
}

}  // namespace

std::vector<ParetoPoint> exact_pareto(const std::vector<Item>& items, double capacity) {
  Scratch& s = thread_scratch();
  pareto_range(items, 0, items.size(), capacity, s.a, s.b);
  return std::vector<ParetoPoint>(s.a.pts.begin(), s.a.pts.begin() + s.a.len);
}

std::vector<double> profits_for_capacities(const std::vector<Item>& items,
                                           const std::vector<double>& capacities) {
  double maxc = 0;
  for (double c : capacities) maxc = std::max(maxc, c);
  Scratch& s = thread_scratch();
  pareto_range(items, 0, items.size(), maxc, s.a, s.b);
  std::vector<double> out;
  out.reserve(capacities.size());
  for (double c : capacities) out.push_back(lookup(s.a.pts.data(), s.a.len, c));
  return out;
}

namespace {

/// Divide-and-conquer reconstruction: find the best split of `capacity`
/// between the two halves from their Pareto lists, then recurse. Profit is
/// identical to the full DP; memory stays O(list length). The halves are
/// (lo, mid, hi) index ranges into the original items — no per-level item
/// copies — and both half-frontiers are read before the recursion reuses
/// their buffers, so the transient footprint is one level, not the tree.
void reconstruct_rec(const std::vector<Item>& items, std::size_t lo, std::size_t hi,
                     double capacity, std::vector<std::size_t>& chosen, Scratch& s) {
  if (lo >= hi || capacity < 0) return;
  if (hi - lo == 1) {
    const Item& it = items[lo];
    if (static_cast<double>(it.size) <= capacity * (1 + kRelTol) && it.profit > 0)
      chosen.push_back(lo);
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  pareto_range(items, lo, mid, capacity, s.a, s.c);
  pareto_range(items, mid, hi, capacity, s.b, s.c);
  const Frontier& l1 = s.a;
  const Frontier& l2 = s.b;

  // Two-pointer sweep: as the left size grows, the best right point can
  // only move left. Both lists are ascending in size and profit.
  double best = -1, best_s1 = 0, best_s2 = 0;
  std::size_t j = l2.len;  // exclusive upper bound into l2
  for (std::size_t i = 0; i < l1.len; ++i) {
    const ParetoPoint& p1 = l1.pts[i];
    const double room = capacity - p1.size;
    while (j > 0 && l2.pts[j - 1].size > room * (1 + kRelTol)) --j;
    if (j == 0) break;
    const double cand = p1.profit + l2.pts[j - 1].profit;
    if (cand > best) {
      best = cand;
      best_s1 = p1.size;
      best_s2 = l2.pts[j - 1].size;
    }
  }
  check_invariant(best >= 0, "pairlist reconstruction: no feasible split");
  reconstruct_rec(items, lo, mid, best_s1, chosen, s);
  reconstruct_rec(items, mid, hi, best_s2, chosen, s);
}

}  // namespace

Solution solve_pairlist(const std::vector<Item>& items, double capacity) {
  if (capacity < 0) throw std::invalid_argument("solve_pairlist: negative capacity");
  Scratch& s = thread_scratch();
  pareto_range(items, 0, items.size(), capacity, s.a, s.b);
  Solution sol;
  sol.profit = s.a.pts[s.a.len - 1].profit;
  reconstruct_rec(items, 0, items.size(), capacity, sol.chosen, s);
  // The recursion re-derives the same optimum; double-check the arithmetic.
  double check = 0;
  for (std::size_t i : sol.chosen) check += items[i].profit;
  check_invariant(check >= sol.profit * (1 - kRelTol) - kRelTol,
                  "pairlist reconstruction lost profit");
  sol.profit = check;
  return sol;
}

// ------------------------------------------------------- normalized arena ---

NormalizedPairList::NormalizedPairList(const std::vector<Item>& items,
                                       const NormalizationGrid& grid,
                                       std::size_t max_pairs) {
  arena_.push_back({0.0, 0.0, -1, -1});  // root: empty set
  frontier_.push_back(0);

  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& it = items[i];
    // Candidate pairs: every frontier node extended by this item, with the
    // new size snapped down to the grid (the paper's "normalized on
    // creation"); overflowing pairs are dropped.
    struct Cand {
      double size, profit;
      std::int64_t parent;
    };
    std::vector<Cand> cands;
    cands.reserve(frontier_.size());
    for (std::int64_t idx : frontier_) {
      const Node& nd = arena_[static_cast<std::size_t>(idx)];
      const auto snapped = grid.normalize(nd.size + static_cast<double>(it.size));
      if (!snapped) continue;
      cands.push_back({*snapped, nd.profit + it.profit, idx});
    }
    // Both sequences ascend in size (frontier is sorted and snapping is
    // monotone), so a linear merge with dominance pruning suffices.
    std::vector<std::int64_t> merged;
    merged.reserve(frontier_.size() + cands.size());
    std::size_t a = 0, b = 0;
    auto push = [&](double size, double profit, std::int64_t parent, std::int32_t item) {
      if (!merged.empty()) {
        const Node& back = arena_[static_cast<std::size_t>(merged.back())];
        if (profit <= back.profit) return;  // dominated
        if (size == back.size) {
          merged.pop_back();  // same size, keep the better profit
        }
      }
      if (item < 0) {
        merged.push_back(parent);  // existing node survives unchanged
      } else {
        arena_.push_back({size, profit, parent, item});
        merged.push_back(static_cast<std::int64_t>(arena_.size()) - 1);
      }
    };
    while (a < frontier_.size() || b < cands.size()) {
      const bool take_old =
          b >= cands.size() ||
          (a < frontier_.size() &&
           arena_[static_cast<std::size_t>(frontier_[a])].size <= cands[b].size);
      if (take_old) {
        const Node& nd = arena_[static_cast<std::size_t>(frontier_[a])];
        push(nd.size, nd.profit, frontier_[a], -1);
        ++a;
      } else {
        push(cands[b].size, cands[b].profit, cands[b].parent,
             static_cast<std::int32_t>(i));
        ++b;
      }
    }
    frontier_ = std::move(merged);
    if (arena_.size() > max_pairs)
      throw std::invalid_argument(
          "NormalizedPairList: arena exceeded max_pairs; the grid is too "
          "fine for this instance — use the exact engine instead");
  }
}

double NormalizedPairList::profit_at(double capacity) const {
  double best = 0;
  for (std::int64_t idx : frontier_) {
    const Node& nd = arena_[static_cast<std::size_t>(idx)];
    if (nd.size > capacity * (1 + kRelTol)) break;
    best = nd.profit;  // profits ascend along the frontier
  }
  return best;
}

std::vector<std::size_t> NormalizedPairList::reconstruct(double capacity) const {
  std::int64_t best = -1;
  for (std::int64_t idx : frontier_) {
    const Node& nd = arena_[static_cast<std::size_t>(idx)];
    if (nd.size > capacity * (1 + kRelTol)) break;
    best = idx;
  }
  std::vector<std::size_t> chosen;
  while (best >= 0) {
    const Node& nd = arena_[static_cast<std::size_t>(best)];
    if (nd.item >= 0) chosen.push_back(static_cast<std::size_t>(nd.item));
    best = nd.parent;
  }
  std::reverse(chosen.begin(), chosen.end());
  return chosen;
}

}  // namespace moldable::knapsack
