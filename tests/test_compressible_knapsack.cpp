// Tests for Algorithm 2 (Theorem 15): the returned profit dominates the
// exact *uncompressed* optimum while the compressed size fits the capacity.
#include <gtest/gtest.h>

#include "src/knapsack/compressible.hpp"
#include "src/util/prng.hpp"
#include "tests/knapsack_reference.hpp"

namespace moldable::knapsack {
namespace {

CompressibleInput random_input(util::Prng& rng, int n, procs_t cap, double rho,
                               double wide_threshold) {
  CompressibleInput in;
  in.capacity = cap;
  in.rho = rho;
  double min_comp = 1e18;
  for (int i = 0; i < n; ++i) {
    const double size = static_cast<double>(rng.uniform_int(1, cap));
    in.items.push_back({size, rng.uniform_real(0.1, 50)});
    const bool comp = size >= wide_threshold;
    in.compressible.push_back(comp ? 1 : 0);
    if (comp) min_comp = std::min(min_comp, size);
  }
  in.alpha_min = min_comp < 1e18 ? min_comp : wide_threshold;
  in.beta_max = cap;
  in.nbar = static_cast<procs_t>(static_cast<double>(cap) / wide_threshold) + 2;
  return in;
}

TEST(CompressibleKnapsack, Theorem15ProfitAndFeasibility) {
  util::Prng rng(31);
  for (int rep = 0; rep < 30; ++rep) {
    const procs_t cap = rng.uniform_int(20, 120);
    const double rho = rng.uniform_real(0.05, 0.25);
    const double wide = static_cast<double>(cap) / 4;
    auto in = random_input(rng, static_cast<int>(rng.uniform_int(1, 12)), cap, rho, wide);
    const CompressibleSolution sol = solve_compressible(in);

    // Feasibility under rho' = 2 rho - rho^2 (checked internally too).
    EXPECT_NEAR(sol.rho_effective, 2 * in.rho - in.rho * in.rho, 1e-12);
    EXPECT_LE(sol.compressed_size, static_cast<double>(cap) * (1 + 1e-9));

    // Profit >= OPT(I, empty, C, 0): compare against brute force.
    const Solution exact = reference::solve_bruteforce(in.items, cap);
    EXPECT_GE(sol.profit, exact.profit - 1e-6) << "rep=" << rep << " cap=" << cap;
  }
}

TEST(CompressibleKnapsack, NoCompressibleItemsFallsBackToExact) {
  CompressibleInput in;
  in.items = {{5, 10}, {4, 40}, {6, 30}, {3, 50}};
  in.compressible = {0, 0, 0, 0};
  in.capacity = 10;
  in.rho = 0.1;
  in.alpha_min = 1;
  in.beta_max = 10;
  in.nbar = 1;
  const CompressibleSolution sol = solve_compressible(in);
  EXPECT_DOUBLE_EQ(sol.profit, 90);
  EXPECT_LE(sol.compressed_size, 10.0);
}

TEST(CompressibleKnapsack, AllCompressibleItems) {
  CompressibleInput in;
  // Four wide items of size 10 on capacity 25: exact optimum picks two; the
  // compressible solver may squeeze a third via compression headroom.
  for (int i = 0; i < 4; ++i) in.items.push_back({10, 7});
  in.compressible = {1, 1, 1, 1};
  in.capacity = 25;
  in.rho = 0.2;
  in.alpha_min = 10;
  in.beta_max = 25;
  in.nbar = 4;
  const CompressibleSolution sol = solve_compressible(in);
  EXPECT_GE(sol.profit, 14 - 1e-9);
  EXPECT_LE(sol.compressed_size, 25 * (1 + 1e-9));
}

TEST(CompressibleKnapsack, EmptyInstance) {
  CompressibleInput in;
  in.capacity = 10;
  in.rho = 0.1;
  const CompressibleSolution sol = solve_compressible(in);
  EXPECT_DOUBLE_EQ(sol.profit, 0);
  EXPECT_TRUE(sol.chosen.empty());
}

TEST(CompressibleKnapsack, ValidatesInput) {
  CompressibleInput in;
  in.items = {{1, 1}};
  in.compressible = {0};
  in.capacity = 5;
  in.rho = 0.3;  // > 1/4
  EXPECT_THROW(solve_compressible(in), std::invalid_argument);
  in.rho = 0.0;
  EXPECT_THROW(solve_compressible(in), std::invalid_argument);
  in.rho = 0.1;
  in.compressible = {0, 0};  // size mismatch
  EXPECT_THROW(solve_compressible(in), std::invalid_argument);
  in.compressible = {0};
  in.items[0].size = -2;
  EXPECT_THROW(solve_compressible(in), std::invalid_argument);
}

TEST(CompressibleKnapsack, ChosenIndicesAreValidAndUnique) {
  util::Prng rng(77);
  auto in = random_input(rng, 15, 80, 0.15, 20.0);
  const CompressibleSolution sol = solve_compressible(in);
  std::vector<char> seen(in.items.size(), 0);
  double p = 0;
  for (std::size_t i : sol.chosen) {
    ASSERT_LT(i, in.items.size());
    EXPECT_FALSE(seen[i]);
    seen[i] = 1;
    p += in.items[i].profit;
  }
  EXPECT_NEAR(p, sol.profit, 1e-9);
}

TEST(CompressibleKnapsack, LargeCapacityUsesGeometricSplits) {
  // Capacity >> item sizes: A stays O((1/rho) log C) regardless.
  util::Prng rng(42);
  CompressibleInput in;
  in.capacity = 1 << 20;
  in.rho = 0.1;
  for (int i = 0; i < 8; ++i) {
    in.items.push_back({static_cast<double>(rng.uniform_int(1 << 10, 1 << 16)),
                        rng.uniform_real(1, 5)});
    in.compressible.push_back(1);
  }
  in.alpha_min = 1 << 10;
  in.beta_max = in.capacity;
  in.nbar = 64;
  const CompressibleSolution sol = solve_compressible(in);
  // Everything fits easily: all profits collected.
  double total = 0;
  for (const auto& it : in.items) total += it.profit;
  EXPECT_NEAR(sol.profit, total, 1e-9);
}

}  // namespace
}  // namespace moldable::knapsack

namespace moldable::knapsack {
namespace {

TEST(CompressibleKnapsack, NormalizedEngineRegime) {
  // Huge capacity relative to nbar: the grid is much coarser than the
  // integer range, so the normalized arena engine is the one running.
  // Profit must still dominate the exact optimum of a subset check.
  CompressibleInput in;
  in.capacity = 1 << 16;
  in.rho = 0.125;
  util::Prng rng(88);
  for (int i = 0; i < 10; ++i) {
    in.items.push_back({static_cast<double>(rng.uniform_int(1 << 10, 1 << 14)),
                        rng.uniform_real(1, 10)});
    in.compressible.push_back(1);
  }
  in.alpha_min = 1 << 10;
  in.beta_max = in.capacity;
  in.nbar = 8;
  const CompressibleSolution sol = solve_compressible(in);
  const Solution exact = reference::solve_bruteforce(in.items, in.capacity);
  EXPECT_GE(sol.profit, exact.profit - 1e-6);
  EXPECT_LE(sol.compressed_size, static_cast<double>(in.capacity) * (1 + 1e-9));
}

TEST(CompressibleKnapsack, ExactEngineRegime) {
  // Tiny capacity: the grid would be finer than the integers, so the solver
  // falls back to the exact list — result must equal brute force exactly.
  CompressibleInput in;
  in.capacity = 24;
  in.rho = 0.05;  // very fine grid vs capacity 24 -> exact engine
  util::Prng rng(89);
  for (int i = 0; i < 10; ++i) {
    in.items.push_back({static_cast<double>(rng.uniform_int(4, 12)),
                        rng.uniform_real(1, 10)});
    in.compressible.push_back(in.items.back().size >= 8 ? 1 : 0);
  }
  in.alpha_min = 8;
  in.beta_max = 24;
  in.nbar = 3;
  const CompressibleSolution sol = solve_compressible(in);
  const Solution exact = reference::solve_bruteforce(in.items, in.capacity);
  EXPECT_GE(sol.profit, exact.profit - 1e-9);
}

TEST(CompressibleKnapsack, SingleItemLargerThanCapacityViaCompression) {
  // An item of size 21 on capacity 20 with rho = 0.25: compressed size
  // (1-rho_eff)*21 = (0.5625)*21 = 11.8 <= 20 — selectable thanks to the
  // capacity split reaching up to C/(1-rho).
  CompressibleInput in;
  in.items = {{21, 5}};
  in.compressible = {1};
  in.capacity = 20;
  in.rho = 0.25;
  in.alpha_min = 21;
  in.beta_max = 20;
  in.nbar = 2;
  const CompressibleSolution sol = solve_compressible(in);
  EXPECT_NEAR(sol.profit, 5, 1e-9);
  EXPECT_LE(sol.compressed_size, 20 * (1 + 1e-9));
}

}  // namespace
}  // namespace moldable::knapsack
