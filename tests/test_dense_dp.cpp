// Tests for the dense knapsack DP against brute force, plus guardrails.
#include <gtest/gtest.h>

#include "src/knapsack/dense_dp.hpp"
#include "src/util/prng.hpp"
#include "tests/knapsack_reference.hpp"

namespace moldable::knapsack {
namespace {

double profit_of(const std::vector<Item>& items, const std::vector<std::size_t>& chosen) {
  double p = 0;
  for (std::size_t i : chosen) p += items[i].profit;
  return p;
}

double size_of(const std::vector<Item>& items, const std::vector<std::size_t>& chosen) {
  double s = 0;
  for (std::size_t i : chosen) s += items[i].size;
  return s;
}

TEST(DenseDp, HandCheckedExample) {
  // Classic: capacity 10, items (size, profit).
  const std::vector<Item> items = {{5, 10}, {4, 40}, {6, 30}, {3, 50}};
  const Solution s = solve_dense(items, 10);
  EXPECT_DOUBLE_EQ(s.profit, 90);  // items 1 and 3: sizes 4 + 3 = 7
  EXPECT_DOUBLE_EQ(profit_of(items, s.chosen), 90);
  EXPECT_LE(size_of(items, s.chosen), 10);
}

TEST(DenseDp, EmptyAndZeroCapacity) {
  EXPECT_DOUBLE_EQ(solve_dense({}, 5).profit, 0);
  const std::vector<Item> items = {{1, 5}};
  const Solution s = solve_dense(items, 0);
  EXPECT_DOUBLE_EQ(s.profit, 0);
  EXPECT_TRUE(s.chosen.empty());
}

TEST(DenseDp, ZeroSizeItemsAlwaysTaken) {
  const std::vector<Item> items = {{0, 3}, {2, 4}};
  const Solution s = solve_dense(items, 1);
  EXPECT_DOUBLE_EQ(s.profit, 3);
}

TEST(DenseDp, ValidatesInput) {
  EXPECT_THROW(solve_dense({{-1, 1}}, 5), std::invalid_argument);
  EXPECT_THROW(solve_dense({{1, -1}}, 5), std::invalid_argument);
  EXPECT_THROW(solve_dense({{1.5, 1}}, 5), std::invalid_argument);  // non-integral
  EXPECT_THROW(solve_dense({{1, 1}}, -1), std::invalid_argument);
}

TEST(DenseDp, MatchesBruteForceRandomized) {
  util::Prng rng(2024);
  for (int rep = 0; rep < 50; ++rep) {
    const int n = static_cast<int>(rng.uniform_int(1, 14));
    const procs_t cap = rng.uniform_int(0, 40);
    std::vector<Item> items;
    for (int i = 0; i < n; ++i)
      items.push_back({static_cast<double>(rng.uniform_int(0, 15)),
                       static_cast<double>(rng.uniform_int(0, 100))});
    const Solution dp = solve_dense(items, cap);
    const Solution bf = reference::solve_bruteforce(items, cap);
    EXPECT_NEAR(dp.profit, bf.profit, 1e-9) << "rep=" << rep;
    EXPECT_NEAR(profit_of(items, dp.chosen), dp.profit, 1e-9);
    EXPECT_LE(size_of(items, dp.chosen), static_cast<double>(cap) + 1e-9);
  }
}

TEST(DenseDp, GuardsAgainstHugeMatrices) {
  const std::vector<Item> items(64, Item{1, 1});
  EXPECT_THROW(solve_dense(items, procs_t{1} << 33), std::invalid_argument);
}

TEST(BruteForce, CapsN) {
  const std::vector<Item> items(25, Item{1, 1});
  EXPECT_THROW(reference::solve_bruteforce(items, 5), std::invalid_argument);
}

}  // namespace
}  // namespace moldable::knapsack
