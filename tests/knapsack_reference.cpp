#include "tests/knapsack_reference.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace moldable::knapsack::reference {

namespace {

void validate_input(const std::vector<Item>& items, procs_t capacity) {
  if (capacity < 0) throw std::invalid_argument("knapsack: negative capacity");
  for (const Item& it : items) {
    if (it.size < 0) throw std::invalid_argument("knapsack: negative size");
    if (it.profit < 0) throw std::invalid_argument("knapsack: negative profit");
    if (it.size != static_cast<double>(static_cast<procs_t>(it.size)))
      throw std::invalid_argument("dense knapsack: sizes must be integral");
  }
}

procs_t isize(const Item& it) { return static_cast<procs_t>(it.size); }

}  // namespace

std::vector<double> dense_profit_row(const std::vector<Item>& items, procs_t capacity) {
  validate_input(items, capacity);
  std::vector<double> best(static_cast<std::size_t>(capacity) + 1, 0.0);
  for (const Item& it : items) {
    const procs_t sz = isize(it);
    if (sz > capacity) continue;
    if (sz == 0) {
      for (double& b : best) b += it.profit;
      continue;
    }
    for (procs_t c = capacity; c >= sz; --c) {
      const auto uc = static_cast<std::size_t>(c);
      best[uc] = std::max(best[uc], best[uc - static_cast<std::size_t>(sz)] + it.profit);
    }
  }
  return best;
}

Solution solve_dense(const std::vector<Item>& items, procs_t capacity) {
  validate_input(items, capacity);
  const std::size_t n = items.size();
  const auto cells = static_cast<unsigned long long>(n) *
                     (static_cast<unsigned long long>(capacity) + 1);
  if (cells > (1ULL << 35))
    throw std::invalid_argument(
        "solve_dense: decision matrix too large; use the pair-list or "
        "compressible engines for large capacities");

  const std::size_t words = static_cast<std::size_t>(capacity) / 64 + 1;
  std::vector<std::vector<std::uint64_t>> take(n, std::vector<std::uint64_t>(words, 0));
  std::vector<double> best(static_cast<std::size_t>(capacity) + 1, 0.0);

  for (std::size_t i = 0; i < n; ++i) {
    const Item& it = items[i];
    const procs_t sz = isize(it);
    if (sz > capacity) continue;
    if (sz == 0) {
      if (it.profit > 0) {
        for (double& b : best) b += it.profit;
        for (auto& w : take[i]) w = ~std::uint64_t{0};
      }
      continue;
    }
    for (procs_t c = capacity; c >= sz; --c) {
      const auto uc = static_cast<std::size_t>(c);
      const double cand = best[uc - static_cast<std::size_t>(sz)] + it.profit;
      if (cand > best[uc]) {
        best[uc] = cand;
        take[i][uc / 64] |= (std::uint64_t{1} << (uc % 64));
      }
    }
  }

  Solution sol;
  sol.profit = best[static_cast<std::size_t>(capacity)];
  procs_t c = capacity;
  for (std::size_t i = n; i-- > 0;) {
    const auto uc = static_cast<std::size_t>(c);
    if (take[i][uc / 64] >> (uc % 64) & 1) {
      sol.chosen.push_back(i);
      c -= isize(items[i]);
    }
  }
  std::reverse(sol.chosen.begin(), sol.chosen.end());
  return sol;
}

namespace {

std::vector<ParetoPoint> merge_step(const std::vector<ParetoPoint>& base,
                                    const Item& item, double capacity) {
  std::vector<ParetoPoint> out;
  out.reserve(base.size() * 2);
  std::size_t a = 0;
  std::size_t b = 0;
  auto shifted = [&](std::size_t i) {
    return ParetoPoint{base[i].size + static_cast<double>(item.size),
                       base[i].profit + item.profit};
  };
  auto push = [&](const ParetoPoint& p) {
    if (p.size > capacity * (1 + kRelTol)) return;
    if (!out.empty() && p.profit <= out.back().profit) return;  // dominated
    if (!out.empty() && p.size == out.back().size) {
      out.back().profit = p.profit;  // same size, better profit
      return;
    }
    out.push_back(p);
  };
  while (a < base.size() || b < base.size()) {
    const bool take_a = b >= base.size() ||
                        (a < base.size() && base[a].size <= shifted(b).size);
    if (take_a)
      push(base[a++]);
    else
      push(shifted(b++));
  }
  return out;
}

}  // namespace

std::vector<ParetoPoint> exact_pareto(const std::vector<Item>& items, double capacity) {
  std::vector<ParetoPoint> list{{0.0, 0.0}};
  for (const Item& it : items) list = merge_step(list, it, capacity);
  return list;
}

namespace {

void reconstruct_rec(const std::vector<Item>& items, std::size_t lo, std::size_t hi,
                     double capacity, std::vector<std::size_t>& chosen) {
  if (lo >= hi || capacity < 0) return;
  if (hi - lo == 1) {
    const Item& it = items[lo];
    if (static_cast<double>(it.size) <= capacity * (1 + kRelTol) && it.profit > 0)
      chosen.push_back(lo);
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  const std::vector<Item> left(items.begin() + static_cast<std::ptrdiff_t>(lo),
                               items.begin() + static_cast<std::ptrdiff_t>(mid));
  const std::vector<Item> right(items.begin() + static_cast<std::ptrdiff_t>(mid),
                                items.begin() + static_cast<std::ptrdiff_t>(hi));
  const auto l1 = reference::exact_pareto(left, capacity);
  const auto l2 = reference::exact_pareto(right, capacity);

  double best = -1;
  double best_s1 = 0, best_s2 = 0;
  std::size_t j = l2.size();
  for (const ParetoPoint& p1 : l1) {
    const double room = capacity - p1.size;
    while (j > 0 && l2[j - 1].size > room * (1 + kRelTol)) --j;
    if (j == 0) break;
    const double cand = p1.profit + l2[j - 1].profit;
    if (cand > best) {
      best = cand;
      best_s1 = p1.size;
      best_s2 = l2[j - 1].size;
    }
  }
  check_invariant(best >= 0, "pairlist reconstruction: no feasible split");
  reconstruct_rec(items, lo, mid, best_s1, chosen);
  reconstruct_rec(items, mid, hi, best_s2, chosen);
}

}  // namespace

Solution solve_pairlist(const std::vector<Item>& items, double capacity) {
  if (capacity < 0) throw std::invalid_argument("solve_pairlist: negative capacity");
  Solution sol;
  const auto list = reference::exact_pareto(items, capacity);
  sol.profit = list.back().profit;
  reconstruct_rec(items, 0, items.size(), capacity, sol.chosen);
  double check = 0;
  for (std::size_t i : sol.chosen) check += items[i].profit;
  check_invariant(check >= sol.profit * (1 - kRelTol) - kRelTol,
                  "pairlist reconstruction lost profit");
  sol.profit = check;
  return sol;
}

}  // namespace moldable::knapsack::reference
