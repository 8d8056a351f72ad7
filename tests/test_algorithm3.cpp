// Tests for Algorithm 3 (Section 4.3) and the linear variant (4.3.3).
#include <gtest/gtest.h>

#include "src/core/bounded_sched.hpp"
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

/// Algorithm 3 through the core front-end; `linear` picks Table 1's row 3.
ScheduleResult algorithm3(const Instance& inst, double eps, bool linear) {
  return schedule_moldable(inst, eps, linear ? Algorithm::kBoundedLinear : Algorithm::kBounded);
}

struct A3Case {
  Family family;
  bool linear;
};

class Algorithm3Sweep : public ::testing::TestWithParam<A3Case> {};

TEST_P(Algorithm3Sweep, DualAcceptsAtTwiceOmega) {
  const auto [fam, linear] = GetParam();
  const procs_t m = fam == Family::kTable ? 128 : 1024;
  const Instance inst = make_instance(fam, 30, m, 3);
  const EstimatorResult est = estimate_makespan(inst);
  const double d = 2 * est.omega;
  const double eps = 0.3;
  const DualOutcome out = bounded_dual(inst, d, eps, {linear});
  ASSERT_TRUE(out.accepted) << jobs::family_name(fam);
  const auto v = sched::validate(out.schedule, inst);
  EXPECT_TRUE(v.ok) << jobs::family_name(fam) << ": "
                    << (v.errors.empty() ? "" : v.errors.front());
  EXPECT_LE(v.makespan, (1.5 + eps) * d * (1 + 1e-9)) << jobs::family_name(fam);
}

std::vector<A3Case> a3_cases() {
  std::vector<A3Case> cs;
  for (Family f : jobs::all_families())
    for (bool lin : {false, true}) cs.push_back({f, lin});
  return cs;
}

INSTANTIATE_TEST_SUITE_P(Families, Algorithm3Sweep, ::testing::ValuesIn(a3_cases()),
                         [](const auto& info) {
                           return jobs::family_name(info.param.family) +
                                  (info.param.linear ? "_linear" : "_heap");
                         });

TEST(Algorithm3, RatioAgainstExactOptimumBothVariants) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Instance inst = make_instance(Family::kTable, 5, 6, seed + 90);
    const auto exact = solve_exact(inst);
    ASSERT_TRUE(exact.has_value());
    const double eps = 0.2;
    for (bool linear : {false, true}) {
      const ScheduleResult r = algorithm3(inst, eps, linear);
      ASSERT_TRUE(sched::validate(r.schedule, inst).ok);
      EXPECT_LE(r.schedule.makespan(), (1.5 + eps) * exact->makespan * (1 + 1e-9))
          << "seed=" << seed << " linear=" << linear;
    }
  }
}

TEST(Algorithm3, RejectsHopelessDeadline) {
  const Instance inst = make_instance(Family::kCommOverhead, 10, 512, 5);
  EXPECT_FALSE(bounded_dual(inst, inst.min_time_bound() * 0.2, 0.25, {}).accepted);
  EXPECT_FALSE(bounded_dual(inst, 0.0, 0.25, {}).accepted);
}

TEST(Algorithm3, LinearAndHeapVariantsBothWithinGuarantee) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Instance inst = make_instance(Family::kHighVariance, 60, 512, seed);
    const double eps = 0.25;
    const ScheduleResult heap = algorithm3(inst, eps, false);
    const ScheduleResult lin = algorithm3(inst, eps, true);
    ASSERT_TRUE(sched::validate(heap.schedule, inst).ok);
    ASSERT_TRUE(sched::validate(lin.schedule, inst).ok);
    const double lb = std::max(heap.lower_bound, lin.lower_bound);
    EXPECT_LE(heap.schedule.makespan(), (1.5 + eps) * 2 * lb * (1 + 1e-9));
    EXPECT_LE(lin.schedule.makespan(), (1.5 + eps) * 2 * lb * (1 + 1e-9));
  }
}

TEST(Algorithm3, ManyIdenticalJobsCollapseToFewTypes) {
  // The identical family is the best case for type rounding: the dual must
  // handle hundreds of jobs effortlessly and stay in guarantee.
  const Instance inst = make_instance(Family::kIdentical, 400, 2048, 7);
  const double eps = 0.2;
  const ScheduleResult r = algorithm3(inst, eps, true);
  ASSERT_TRUE(sched::validate(r.schedule, inst).ok);
  EXPECT_LE(r.schedule.makespan(), (1.5 + eps) * 2 * r.lower_bound * (1 + 1e-9));
}

TEST(Algorithm3, SmallEpsTightensSchedules) {
  const Instance inst = make_instance(Family::kMixed, 48, 768, 15);
  const auto loose = algorithm3(inst, 1.0, true);
  const auto tight = algorithm3(inst, 0.05, true);
  ASSERT_TRUE(sched::validate(loose.schedule, inst).ok);
  ASSERT_TRUE(sched::validate(tight.schedule, inst).ok);
  // Certified bounds shrink with eps; actual makespans usually do too but
  // need not be monotone — assert only the certified relation.
  EXPECT_LE(tight.schedule.makespan(), (1.55) * 2 * tight.lower_bound * (1 + 1e-9));
}

TEST(Algorithm3, EmptyAndDegenerate) {
  EXPECT_TRUE(algorithm3(Instance({}, 8), 0.5, false).schedule.empty());
  const Instance one = make_instance(Family::kAmdahl, 1, 16, 1);
  const ScheduleResult r = algorithm3(one, 0.5, true);
  EXPECT_TRUE(sched::validate(r.schedule, one).ok);
  EXPECT_THROW(algorithm3(one, 0.0, false), std::invalid_argument);
}

}  // namespace
}  // namespace moldable::core

namespace moldable::core {
namespace {

TEST(Algorithm3Dual, AcceptsAtExactOptimumBothVariants) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Instance inst = make_instance(Family::kTable, 5, 6, seed + 400);
    const auto exact = solve_exact(inst);
    ASSERT_TRUE(exact.has_value());
    for (bool linear : {false, true}) {
      const DualOutcome out = bounded_dual(inst, exact->makespan, 0.25, {linear});
      EXPECT_TRUE(out.accepted) << "seed=" << seed << " linear=" << linear;
    }
  }
}

}  // namespace
}  // namespace moldable::core
