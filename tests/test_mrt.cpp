// Tests for the Section 4.1 MRT (3/2)-dual algorithm, alone and through
// schedule_moldable.
#include <gtest/gtest.h>

#include "src/core/estimator.hpp"
#include "src/core/exact.hpp"
#include "src/core/mrt.hpp"
#include "src/core/scheduler.hpp"
#include "src/jobs/generators.hpp"
#include "src/jobs/reduction.hpp"
#include "src/sched/validator.hpp"

namespace moldable::core {
namespace {

using jobs::Family;
using jobs::Instance;
using jobs::make_instance;

TEST(MrtDual, AcceptsAtTwiceOmegaWithHalfDGuarantee) {
  for (Family fam : jobs::all_families()) {
    const procs_t m = fam == Family::kTable ? 128 : 512;
    const Instance inst = make_instance(fam, 24, m, 5);
    const EstimatorResult est = estimate_makespan(inst);
    const double d = 2 * est.omega;  // >= OPT: the dual must accept
    const DualOutcome out = mrt_dual(inst, d);
    ASSERT_TRUE(out.accepted) << jobs::family_name(fam);
    const auto v = sched::validate(out.schedule, inst);
    EXPECT_TRUE(v.ok) << jobs::family_name(fam) << ": "
                      << (v.errors.empty() ? "" : v.errors.front());
    EXPECT_LE(v.makespan, 1.5 * d * (1 + 1e-9)) << jobs::family_name(fam);
  }
}

TEST(MrtDual, RejectsHopelessDeadline) {
  const Instance inst = make_instance(Family::kAmdahl, 10, 64, 7);
  EXPECT_FALSE(mrt_dual(inst, inst.min_time_bound() * 0.3).accepted);
  EXPECT_FALSE(mrt_dual(inst, 0.0).accepted);
}

TEST(MrtDual, RejectionImpliesInfeasibility) {
  // On tiny instances with exact optimum: reject(d) must imply d < OPT.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Instance inst = make_instance(Family::kTable, 5, 6, seed + 10);
    const auto exact = solve_exact(inst);
    ASSERT_TRUE(exact.has_value());
    for (double f : {1.0, 1.05, 1.3, 1.8}) {
      const double d = exact->makespan * f;
      const DualOutcome out = mrt_dual(inst, d);
      EXPECT_TRUE(out.accepted) << "seed=" << seed << " d=" << d
                                << " opt=" << exact->makespan;
      if (out.accepted) {
        EXPECT_LE(out.schedule.makespan(), 1.5 * d * (1 + 1e-9));
      }
    }
  }
}

TEST(MrtSchedule, ThreeHalvesPlusEpsAgainstExactOptimum) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Instance inst = make_instance(Family::kTable, 5, 6, seed + 30);
    const auto exact = solve_exact(inst);
    ASSERT_TRUE(exact.has_value());
    const double eps = 0.1;
    const ScheduleResult r = schedule_moldable(inst, eps, Algorithm::kMrt);
    ASSERT_TRUE(sched::validate(r.schedule, inst).ok);
    EXPECT_LE(r.schedule.makespan(), (1.5 + eps) * exact->makespan * (1 + 1e-9))
        << "seed=" << seed;
  }
}

TEST(MrtSchedule, GuaranteeAgainstLowerBoundAcrossFamilies) {
  for (Family fam : jobs::all_families()) {
    const procs_t m = fam == Family::kTable ? 64 : 256;
    const Instance inst = make_instance(fam, 32, m, 11);
    const ScheduleResult r = schedule_moldable(inst, 0.25, Algorithm::kMrt);
    ASSERT_TRUE(sched::validate(r.schedule, inst).ok) << jobs::family_name(fam);
    EXPECT_GE(r.schedule.makespan(), r.lower_bound * (1 - 1e-9));
    EXPECT_LE(r.schedule.makespan(), (1.5 + 0.25) * 2 * r.lower_bound * (1 + 1e-9))
        << jobs::family_name(fam);
  }
}

TEST(MrtSchedule, PerfectTilingNearOptimal) {
  // OPT = t; MRT must stay below (3/2 + eps) t.
  const Instance inst = jobs::perfect_tiling_instance(12, 5.0);
  const ScheduleResult r = schedule_moldable(inst, 0.1, Algorithm::kMrt);
  ASSERT_TRUE(sched::validate(r.schedule, inst).ok);
  EXPECT_LE(r.schedule.makespan(), 1.6 * 5.0 * (1 + 1e-9));
  EXPECT_GE(r.schedule.makespan(), 5.0 * (1 - 1e-9));
}

TEST(MrtSchedule, ReductionInstanceRatio) {
  // 4-Partition reduction instances have OPT = n*B exactly; the dual must
  // stay within 3/2 + eps of it.
  const jobs::FourPartitionInstance fp = jobs::make_yes_instance(4, 77);
  const jobs::ReductionOutput red = jobs::reduce_to_scheduling(fp);
  const ScheduleResult r = schedule_moldable(red.instance, 0.2, Algorithm::kMrt);
  ASSERT_TRUE(sched::validate(r.schedule, red.instance).ok);
  EXPECT_LE(r.schedule.makespan(), (1.5 + 0.2) * red.target_makespan * (1 + 1e-9));
  EXPECT_GE(r.schedule.makespan(), red.target_makespan * (1 - 1e-9));  // = OPT
}

TEST(MrtSchedule, SingleJob) {
  const Instance inst = make_instance(Family::kAmdahl, 1, 32, 3);
  const ScheduleResult r = schedule_moldable(inst, 0.5, Algorithm::kMrt);
  ASSERT_TRUE(sched::validate(r.schedule, inst).ok);
}

TEST(MrtSchedule, EmptyInstanceAndBadEps) {
  const Instance inst({}, 4);
  EXPECT_TRUE(schedule_moldable(inst, 0.5, Algorithm::kMrt).schedule.empty());
  const Instance one = make_instance(Family::kAmdahl, 1, 4, 1);
  EXPECT_THROW(schedule_moldable(one, 0.0, Algorithm::kMrt), std::invalid_argument);
  EXPECT_THROW(schedule_moldable(one, 2.0, Algorithm::kMrt), std::invalid_argument);
}

}  // namespace
}  // namespace moldable::core
