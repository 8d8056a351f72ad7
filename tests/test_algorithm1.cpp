// Tests for Algorithm 1 (Section 4.2.5): the compressible-knapsack dual.
#include <gtest/gtest.h>

#include "src/core/compressible_sched.hpp"
#include "src/core/estimator.hpp"
#include "src/core/exact.hpp"
#include "src/core/scheduler.hpp"
#include "src/jobs/generators.hpp"
#include "src/sched/validator.hpp"

namespace moldable::core {
namespace {

using jobs::Family;
using jobs::Instance;
using jobs::make_instance;

TEST(Algorithm1Dual, AcceptsAtTwiceOmegaAcrossFamilies) {
  for (Family fam : jobs::all_families()) {
    const procs_t m = fam == Family::kTable ? 128 : 1024;
    const Instance inst = make_instance(fam, 24, m, 3);
    const EstimatorResult est = estimate_makespan(inst);
    const double d = 2 * est.omega;
    const double eps = 0.3;
    const DualOutcome out = compressible_dual(inst, d, eps);
    ASSERT_TRUE(out.accepted) << jobs::family_name(fam);
    const auto v = sched::validate(out.schedule, inst);
    EXPECT_TRUE(v.ok) << jobs::family_name(fam) << ": "
                      << (v.errors.empty() ? "" : v.errors.front());
    EXPECT_LE(v.makespan, (1.5 + eps) * d * (1 + 1e-9)) << jobs::family_name(fam);
  }
}

TEST(Algorithm1Dual, RejectsHopelessDeadline) {
  const Instance inst = make_instance(Family::kPowerLaw, 12, 256, 5);
  EXPECT_FALSE(compressible_dual(inst, inst.min_time_bound() * 0.2, 0.25).accepted);
}

TEST(Algorithm1Dual, ValidatesEps) {
  const Instance inst = make_instance(Family::kAmdahl, 4, 64, 1);
  EXPECT_THROW(compressible_dual(inst, 10.0, 0.0), std::invalid_argument);
  EXPECT_THROW(compressible_dual(inst, 10.0, 1.5), std::invalid_argument);
}

TEST(Algorithm1, RatioAgainstExactOptimum) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Instance inst = make_instance(Family::kTable, 5, 6, seed + 60);
    const auto exact = solve_exact(inst);
    ASSERT_TRUE(exact.has_value());
    const double eps = 0.2;
    const ScheduleResult r = schedule_moldable(inst, eps, Algorithm::kCompressible);
    ASSERT_TRUE(sched::validate(r.schedule, inst).ok);
    EXPECT_LE(r.schedule.makespan(), (1.5 + eps) * exact->makespan * (1 + 1e-9))
        << "seed=" << seed;
  }
}

TEST(Algorithm1, AgreesWithMrtWithinEps) {
  // Both are (3/2+eps)-approximations of the same optimum; their makespans
  // can differ by at most the combined slack.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Instance inst = make_instance(Family::kMixed, 40, 512, seed);
    const double eps = 0.25;
    const ScheduleResult a = schedule_moldable(inst, eps, Algorithm::kMrt);
    const ScheduleResult b = schedule_moldable(inst, eps, Algorithm::kCompressible);
    const double lo = std::max(a.lower_bound, b.lower_bound);
    EXPECT_LE(a.schedule.makespan(), (1.5 + eps) * 2 * lo * (1 + 1e-9));
    EXPECT_LE(b.schedule.makespan(), (1.5 + eps) * 2 * lo * (1 + 1e-9));
  }
}

TEST(Algorithm1, WideJobRegimeExercisesCompression) {
  // Many highly-parallel jobs on few-ish machines: gamma(d) is large, so
  // the compressible path (wide jobs >= 1/rho_c) is actually taken.
  const Instance inst = make_instance(Family::kPowerLaw, 16, 4096, 9);
  const double eps = 0.1;  // rho_c = eps/12 small => wide threshold low
  const ScheduleResult r = schedule_moldable(inst, eps, Algorithm::kCompressible);
  ASSERT_TRUE(sched::validate(r.schedule, inst).ok);
  EXPECT_LE(r.schedule.makespan(), (1.5 + eps) * 2 * r.lower_bound * (1 + 1e-9));
}

TEST(Algorithm1, LargeEpsVersusSmallEps) {
  // Smaller eps cannot yield a worse certified ratio bound.
  const Instance inst = make_instance(Family::kAmdahl, 30, 256, 13);
  const auto loose = schedule_moldable(inst, 0.8, Algorithm::kCompressible);
  const auto tight = schedule_moldable(inst, 0.05, Algorithm::kCompressible);
  ASSERT_TRUE(sched::validate(loose.schedule, inst).ok);
  ASSERT_TRUE(sched::validate(tight.schedule, inst).ok);
  EXPECT_LE(tight.schedule.makespan(),
            loose.schedule.makespan() * (1.55 / 1.5) * (1 + 1e-6) + 1e-9);
}

TEST(Algorithm1, EmptyInstance) {
  EXPECT_TRUE(
      schedule_moldable(Instance({}, 8), 0.5, Algorithm::kCompressible).schedule.empty());
}

}  // namespace
}  // namespace moldable::core

namespace moldable::core {
namespace {

TEST(Algorithm1Dual, AcceptsAtExactOptimum) {
  // Soundness at the boundary: for d = OPT (tiny instances, exact solver),
  // the dual must accept — rejection would falsify its contract.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Instance inst = make_instance(Family::kTable, 5, 6, seed + 300);
    const auto exact = solve_exact(inst);
    ASSERT_TRUE(exact.has_value());
    const DualOutcome out = compressible_dual(inst, exact->makespan, 0.25);
    EXPECT_TRUE(out.accepted) << "seed=" << seed << " opt=" << exact->makespan;
  }
}

}  // namespace
}  // namespace moldable::core
