// Tests for the exact reference solver.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "src/core/baselines.hpp"
#include "src/core/exact.hpp"
#include "src/jobs/generators.hpp"
#include "src/sched/list_scheduler.hpp"
#include "src/sched/validator.hpp"

namespace moldable::core {
namespace {

using jobs::Family;
using jobs::Instance;
using jobs::make_instance;

TEST(Exact, SingleJobPicksBestAllotment) {
  const Instance inst = make_instance(Family::kPowerLaw, 1, 8, 3);
  const auto r = solve_exact(inst);
  ASSERT_TRUE(r.has_value());
  double best = 1e18;
  for (procs_t k = 1; k <= 8; ++k) best = std::min(best, inst.job(0).time(k));
  EXPECT_NEAR(r->makespan, best, 1e-9 * best);
  EXPECT_TRUE(sched::validate(r->schedule, inst).ok);
}

TEST(Exact, PerfectTilingIsTight) {
  const Instance inst = jobs::perfect_tiling_instance(5, 2.0);
  const auto r = solve_exact(inst);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->makespan, 2.0, 1e-9);
}

TEST(Exact, DominatedByLowerBounds) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Instance inst = make_instance(Family::kTable, 4, 5, seed);
    const auto r = solve_exact(inst);
    ASSERT_TRUE(r.has_value());
    EXPECT_GE(r->makespan, inst.trivial_lower_bound() * (1 - 1e-9)) << seed;
    EXPECT_TRUE(sched::validate(r->schedule, inst).ok) << seed;
  }
}

TEST(Exact, BeatsOrMatchesGreedyBaselines) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Instance inst = make_instance(Family::kMixed, 5, 6, seed + 7);
    const auto r = solve_exact(inst);
    ASSERT_TRUE(r.has_value());
    // Exact must not exceed the all-sequential greedy.
    const std::vector<procs_t> ones(inst.size(), 1);
    const double greedy = sched::list_schedule(inst, ones).makespan();
    EXPECT_LE(r->makespan, greedy * (1 + 1e-9)) << seed;
  }
}

TEST(Exact, TwoWideJobsSequence) {
  // Two identical jobs each fastest on all m: OPT stacks them.
  const Instance inst = make_instance(Family::kIdentical, 2, 4, 1);
  const auto r = solve_exact(inst);
  ASSERT_TRUE(r.has_value());
  // Either both run on half the machines in parallel or sequentially on
  // all; exact picks the better of those (and anything else).
  const double par = inst.job(0).time(2);
  const double seq = 2 * inst.job(0).time(4);
  EXPECT_LE(r->makespan, std::min(par, seq) * (1 + 1e-9));
}

TEST(Exact, EnforcesCaps) {
  const Instance big = make_instance(Family::kAmdahl, 20, 4, 3);
  EXPECT_THROW(solve_exact(big), std::invalid_argument);
  const Instance wide = make_instance(Family::kAmdahl, 3, 64, 3);
  EXPECT_THROW(solve_exact(wide), std::invalid_argument);
}

TEST(Exact, BudgetExhaustionReturnsNullopt) {
  const Instance inst = make_instance(Family::kMixed, 6, 8, 3);
  ExactLimits tiny;
  tiny.node_budget = 10;
  EXPECT_FALSE(solve_exact(inst, tiny).has_value());
}

TEST(Exact, MemoryConstraintNarrowsTheSearchSpace) {
  // A footprint forcing kmin = 3 on m = 4: every feasible schedule runs job
  // 0 on >= 3 machines, so the exact optimum can only rise vs the
  // memory-free relaxation — and must still validate under (V6).
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Instance inst = make_instance(Family::kMixed, 5, 4, seed + 3);
    const auto relaxed = solve_exact(inst);
    ASSERT_TRUE(relaxed.has_value());
    inst.set_memory_capacity(2.0);
    inst.set_job_memory({5.0, 1.0, 3.0, 0.5, 2.0});  // kmin = {3, 1, 2, 1, 1}
    const auto r = solve_exact(inst);
    ASSERT_TRUE(r.has_value()) << seed;
    const sched::ValidationResult v = sched::validate(r->schedule, inst);
    ASSERT_TRUE(v.ok) << "seed=" << seed
                      << (v.errors.empty() ? "" : ": " + v.errors.front());
    EXPECT_GE(r->makespan, relaxed->makespan * (1 - 1e-9)) << seed;
    for (const auto& a : r->schedule.assignments())
      EXPECT_GE(a.procs, inst.min_feasible_allotment(a.job)) << seed;
    // Memory-aware optimum beats or matches the memory-aware list scheduler.
    const BaselineResult lt = ludwig_tiwari_schedule(inst);
    EXPECT_LE(r->makespan, lt.schedule.makespan() * (1 + 1e-9)) << seed;
  }
}

TEST(Exact, ThrowsOnMemoryInfeasibleJob) {
  Instance inst = make_instance(Family::kAmdahl, 3, 4, 1);
  inst.set_memory_capacity(1.0);
  inst.set_job_memory({6.0, 0.5, 0.5});  // job 0 needs 6 machines, only 4
  EXPECT_THROW(solve_exact(inst), std::invalid_argument);
}

TEST(Exact, EmptyInstance) {
  const auto r = solve_exact(Instance({}, 4));
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->makespan, 0);
}

}  // namespace
}  // namespace moldable::core
