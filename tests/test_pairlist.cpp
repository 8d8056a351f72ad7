// Tests for the Lawler pair-list engine: Pareto structure, one-pass
// multi-capacity queries (Section 4.2.4), divide-and-conquer
// reconstruction, and the normalized arena DP (Lemma 12).
#include <gtest/gtest.h>

#include "src/knapsack/dense_dp.hpp"
#include "src/knapsack/pairlist.hpp"
#include "src/util/prng.hpp"
#include "tests/knapsack_reference.hpp"

namespace moldable::knapsack {
namespace {

std::vector<Item> random_items(util::Prng& rng, int n, procs_t smax, double pmax) {
  std::vector<Item> items;
  for (int i = 0; i < n; ++i)
    items.push_back({static_cast<double>(rng.uniform_int(1, smax)),
                     rng.uniform_real(0, pmax)});
  return items;
}

TEST(ExactPareto, StrictlyIncreasingSizeAndProfit) {
  util::Prng rng(5);
  const auto items = random_items(rng, 20, 30, 50);
  const auto list = exact_pareto(items, 100);
  ASSERT_FALSE(list.empty());
  EXPECT_DOUBLE_EQ(list.front().size, 0);
  EXPECT_DOUBLE_EQ(list.front().profit, 0);
  for (std::size_t i = 1; i < list.size(); ++i) {
    EXPECT_GT(list[i].size, list[i - 1].size);
    EXPECT_GT(list[i].profit, list[i - 1].profit);
  }
}

TEST(ExactPareto, MatchesDenseProfitRow) {
  util::Prng rng(6);
  for (int rep = 0; rep < 20; ++rep) {
    const auto items = random_items(rng, 12, 20, 30);
    const auto profits = profits_for_capacities(
        items, {0.0, 10.0, 25.0, 33.0, 59.0, 60.0});
    const std::vector<procs_t> caps = {0, 10, 25, 33, 59, 60};
    for (std::size_t i = 0; i < caps.size(); ++i)
      EXPECT_NEAR(profits[i], solve_dense(items, caps[i]).profit, 1e-9)
          << "rep=" << rep << " cap=" << caps[i];
  }
}

TEST(SolvePairlist, MatchesBruteForce) {
  util::Prng rng(7);
  for (int rep = 0; rep < 40; ++rep) {
    const int n = static_cast<int>(rng.uniform_int(1, 13));
    const auto items = random_items(rng, n, 15, 40);
    const double cap = static_cast<double>(rng.uniform_int(0, 50));
    const Solution pl = solve_pairlist(items, cap);
    const Solution bf = reference::solve_bruteforce(items, static_cast<procs_t>(cap));
    EXPECT_NEAR(pl.profit, bf.profit, 1e-9) << "rep=" << rep;
    double s = 0;
    for (std::size_t i : pl.chosen) s += items[i].size;
    EXPECT_LE(s, cap + 1e-9);
  }
}

TEST(SolvePairlist, ReconstructionProfitsSumCorrectly) {
  util::Prng rng(8);
  const auto items = random_items(rng, 64, 25, 100);
  const Solution s = solve_pairlist(items, 120);
  double p = 0;
  for (std::size_t i : s.chosen) p += items[i].profit;
  EXPECT_NEAR(p, s.profit, 1e-9);
}

TEST(MultiCapacity, OnePassEqualsIndividualSolves) {
  util::Prng rng(9);
  const auto items = random_items(rng, 30, 20, 10);
  std::vector<double> caps;
  for (int c = 0; c <= 100; c += 7) caps.push_back(c);
  const auto batch = profits_for_capacities(items, caps);
  for (std::size_t i = 0; i < caps.size(); ++i)
    EXPECT_NEAR(batch[i], solve_pairlist(items, caps[i]).profit, 1e-9);
}

// ------------------------------------------------------ normalized arena ---

NormalizationGrid test_grid(double rho, procs_t nbar, double amin, double cmax) {
  const auto caps = geom_set(amin / (1 - rho), cmax, 1.0 / (1 - rho));
  return NormalizationGrid(caps, amin, rho, nbar);
}

TEST(NormalizedPairList, ProfitAtLeastExactOptimum) {
  // Snapping sizes down only enlarges the feasible set, so the normalized
  // profit must dominate the exact optimum at every capacity in A.
  util::Prng rng(10);
  const double rho = 0.2;
  for (int rep = 0; rep < 10; ++rep) {
    std::vector<Item> items;
    for (int i = 0; i < 12; ++i)
      items.push_back({static_cast<double>(rng.uniform_int(5, 40)),
                       rng.uniform_real(1, 20)});
    const auto grid = test_grid(rho, 12, 5.0, 200.0);
    const NormalizedPairList dp(items, grid);
    for (double cap : {20.0, 50.0, 100.0, 200.0}) {
      const double exact = solve_pairlist(items, cap).profit;
      EXPECT_GE(dp.profit_at(cap), exact - 1e-9) << "rep=" << rep << " cap=" << cap;
    }
  }
}

TEST(NormalizedPairList, TrueSizeWithinCompressionBudget) {
  // The reconstructed set's true size exceeds the capacity by at most the
  // accumulated normalization loss <= nbar * U <= rho/(1-rho) * alpha
  // (Eq. (14)) when at most nbar items are chosen.
  util::Prng rng(11);
  const double rho = 0.15;
  const procs_t nbar = 6;
  std::vector<Item> items;
  for (int i = 0; i < 10; ++i)
    items.push_back({static_cast<double>(rng.uniform_int(10, 30)),
                     rng.uniform_real(1, 10)});
  const auto grid = test_grid(rho, nbar, 10.0, 120.0);
  const NormalizedPairList dp(items, grid);
  for (double cap : {40.0, 80.0, 120.0}) {
    const auto chosen = dp.reconstruct(cap);
    if (static_cast<procs_t>(chosen.size()) > nbar) continue;  // outside premise
    double true_size = 0, profit = 0;
    for (std::size_t i : chosen) {
      true_size += items[i].size;
      profit += items[i].profit;
    }
    EXPECT_NEAR(profit, dp.profit_at(cap), 1e-9);
    EXPECT_LE(true_size, cap / (1 - rho) + 1e-9) << "cap=" << cap;
  }
}

TEST(NormalizedPairList, ArenaGuardThrows) {
  util::Prng rng(12);
  std::vector<Item> items;
  for (int i = 0; i < 40; ++i)
    items.push_back({static_cast<double>(rng.uniform_int(10, 400)),
                     rng.uniform_real(1, 10)});
  const auto grid = test_grid(0.01, 400, 10.0, 4000.0);
  EXPECT_THROW(NormalizedPairList(items, grid, /*max_pairs=*/100), std::invalid_argument);
}

}  // namespace
}  // namespace moldable::knapsack
