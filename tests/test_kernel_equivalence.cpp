// Bitwise equivalence of the optimized knapsack kernels against the
// retained scalar reference implementations (tests/knapsack_reference.hpp —
// the verbatim pre-optimization code).
//
// The perf PR's contract is that vectorization, the flat take bitmap, and
// arena scratch change *speed only*: every profit is the same IEEE bit
// pattern, every decision bit and reconstruction identical. That is what
// keeps the engine digests stable, so these tests compare bit for bit
// (memcmp on doubles, exact chosen-index equality) — never with tolerances —
// across hand-picked edge shapes and a randomized fuzz sweep: empty input,
// capacity 0/1/exact-fit, duplicate items, zero-size and over-capacity
// items, and size mixes straddling the SIMD word threshold (sz < 64 scalar
// path vs sz >= 64 word path). A warm-arena repetition guards against stale
// scratch leaking into results, and a portfolio race/sequential digest
// cross-check exercises the arena plumbing end to end.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/engine/portfolio.hpp"
#include "src/jobs/generators.hpp"
#include "src/knapsack/dense_dp.hpp"
#include "src/knapsack/pairlist.hpp"
#include "src/util/arena.hpp"
#include "src/util/prng.hpp"
#include "tests/knapsack_reference.hpp"

namespace moldable::knapsack {
namespace {

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

void expect_rows_identical(const std::vector<double>& ref,
                           const std::vector<double>& opt, const char* what) {
  ASSERT_EQ(ref.size(), opt.size()) << what;
  ASSERT_EQ(std::memcmp(ref.data(), opt.data(), ref.size() * sizeof(double)), 0)
      << what << ": profit row differs bitwise";
}

void expect_solutions_identical(const Solution& ref, const Solution& opt,
                                const char* what) {
  EXPECT_EQ(bits(ref.profit), bits(opt.profit)) << what << ": profit bits";
  EXPECT_EQ(ref.chosen, opt.chosen) << what << ": chosen sets";
}

void expect_pareto_identical(const std::vector<ParetoPoint>& ref,
                             const std::vector<ParetoPoint>& opt, const char* what) {
  ASSERT_EQ(ref.size(), opt.size()) << what << ": frontier length";
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(bits(ref[i].size), bits(opt[i].size)) << what << " point " << i;
    ASSERT_EQ(bits(ref[i].profit), bits(opt[i].profit)) << what << " point " << i;
  }
}

/// Runs every kernel pair on (items, capacity) and asserts bitwise equality.
void check_all(const std::vector<Item>& items, procs_t capacity, const char* what) {
  expect_rows_identical(reference::dense_profit_row(items, capacity),
                        dense_profit_row(items, capacity), what);
  expect_solutions_identical(reference::solve_dense(items, capacity),
                             solve_dense(items, capacity), what);
  const auto cap_d = static_cast<double>(capacity);
  expect_pareto_identical(reference::exact_pareto(items, cap_d),
                          exact_pareto(items, cap_d), what);
  if (!items.empty())  // both pairlist solvers require a non-empty frontier
    expect_solutions_identical(reference::solve_pairlist(items, cap_d),
                               solve_pairlist(items, cap_d), what);
}

TEST(KernelEquivalence, EmptyAndTinyInputs) {
  check_all({}, 0, "n=0 cap=0");
  check_all({}, 100, "n=0 cap=100");
  check_all({{1, 5}}, 0, "cap=0");
  check_all({{1, 5}}, 1, "cap=1 exact fit");
  check_all({{2, 5}}, 1, "cap=1 nothing fits");
}

TEST(KernelEquivalence, DuplicatesAndDegenerateItems) {
  // Duplicate items hit the same-size/better-profit merge rule; zero-size
  // and over-capacity items hit the skip branches in both implementations.
  const std::vector<Item> items = {{3, 7},  {3, 7},  {3, 7},  {0, 2},
                                   {0, 0},  {50, 99}, {5, 7},  {5, 7.0000001},
                                   {1, 0},  {4, 4}};
  for (procs_t cap : {procs_t{0}, procs_t{1}, procs_t{9}, procs_t{10},
                      procs_t{11}, procs_t{16}, procs_t{200}})
    check_all(items, cap, "duplicates/degenerate");
}

TEST(KernelEquivalence, ExactFitCapacity) {
  // Capacity equal to the optimum's total size: the walk-back must land on
  // identical take bits at the boundary cell.
  const std::vector<Item> items = {{64, 10}, {128, 25}, {32, 9}, {64, 11}};
  check_all(items, 64 + 128 + 32 + 64, "exact fit all");
  check_all(items, 128 + 64, "exact fit subset");
}

TEST(KernelEquivalence, SizesStraddlingTheSimdWordThreshold) {
  // sz < 64 takes the scalar take path, sz >= 64 the word kernel; a mix in
  // one instance exercises the partial-word boundaries between them.
  std::vector<Item> items;
  for (procs_t s : {procs_t{1}, procs_t{63}, procs_t{64}, procs_t{65},
                    procs_t{127}, procs_t{128}, procs_t{1000}})
    items.push_back({static_cast<double>(s), static_cast<double>(s) * 1.5});
  for (procs_t cap : {procs_t{63}, procs_t{64}, procs_t{65}, procs_t{191},
                      procs_t{1024}, procs_t{1447}})
    check_all(items, cap, "word-threshold straddle");
}

TEST(KernelEquivalence, RandomizedFuzz) {
  util::Prng rng(20260808);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 40));
    const procs_t cap = rng.uniform_int(0, trial % 3 == 0 ? 64 : 4096);
    std::vector<Item> items;
    for (int i = 0; i < n; ++i) {
      // Mostly feasible sizes, occasionally zero or over-capacity.
      const auto roll = rng.uniform_int(0, 9);
      procs_t s;
      if (roll == 0)
        s = 0;
      else if (roll == 1)
        s = cap + rng.uniform_int(1, 10);
      else
        s = rng.uniform_int(1, cap > 1 ? cap : 1);
      items.push_back({static_cast<double>(s), rng.uniform_real(0, 50)});
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" + std::to_string(n) +
                 " cap=" + std::to_string(cap));
    check_all(items, cap, "fuzz");
  }
}

TEST(KernelEquivalence, WarmArenaRepeatsAreIdentical) {
  // Solve twice on one explicitly installed arena: the second run bumps
  // through memory the first run dirtied, and must still match the fresh
  // reference bit for bit (alloc_zeroed, not chunk freshness, is what the
  // kernels may rely on).
  util::Prng rng(99);
  std::vector<Item> items;
  for (int i = 0; i < 64; ++i)
    items.push_back({static_cast<double>(rng.uniform_int(1, 512)),
                     rng.uniform_real(0.1, 20)});
  const procs_t cap = 1024;

  util::ScratchArena arena;
  util::ArenaScope scope(&arena);
  const Solution ref = reference::solve_dense(items, cap);
  for (int pass = 0; pass < 3; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    expect_solutions_identical(ref, solve_dense(items, cap), "warm dense");
    expect_solutions_identical(reference::solve_pairlist(items, cap),
                               solve_pairlist(items, static_cast<double>(cap)),
                               "warm pairlist");
  }
  EXPECT_GT(arena.capacity_bytes(), 0u);  // the kernels actually used it
}

// Every engine thread — shard loop and race lanes alike — solves on its own
// per-thread arena, so racing must still produce the sequential digest bit
// for bit — arenas recycle memory, never results.
TEST(KernelEquivalence, RaceDigestMatchesSequentialWithArenasEnabled) {
  std::vector<jobs::Instance> family;
  for (std::uint64_t s = 0; s < 12; ++s)
    family.push_back(jobs::make_instance(jobs::all_families()[s % 4], 24,
                                         procs_t{256} << (s % 4), 7700 + s));

  engine::PortfolioConfig config;
  config.variants = {"mrt", "algorithm1", "algorithm3-linear"};
  config.tie_break = engine::TieBreak::kPortfolioOrder;

  config.race = false;
  config.threads = 1;
  const std::uint64_t sequential = engine::PortfolioSolver().solve(family, config).digest();

  config.race = true;
  for (unsigned threads : {1u, 4u}) {
    config.threads = threads;
    EXPECT_EQ(engine::PortfolioSolver().solve(family, config).digest(), sequential)
        << "raced digest diverged at threads=" << threads;
  }
}

}  // namespace
}  // namespace moldable::knapsack
