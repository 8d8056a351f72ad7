// Tests for the Theorem 2 FPTAS: dual correctness, schedule validity, the
// (1+eps) guarantee against known optima, and the m >= 8n/eps threshold.
#include <gtest/gtest.h>

#include "src/core/estimator.hpp"
#include "src/core/fptas.hpp"
#include "src/core/scheduler.hpp"
#include "src/jobs/generators.hpp"
#include "src/sched/validator.hpp"

namespace moldable::core {
namespace {

using jobs::Family;
using jobs::Instance;
using jobs::make_instance;

TEST(FptasDual, AcceptsGenerousDeadlineRejectsHopeless) {
  const Instance inst = make_instance(Family::kAmdahl, 8, 1 << 12, 3);
  const EstimatorResult est = estimate_makespan(inst);
  const DualOutcome good = fptas_dual(inst, 2 * est.omega, 0.5);
  EXPECT_TRUE(good.accepted);
  EXPECT_TRUE(sched::validate(good.schedule, inst).ok);
  // Below the fastest possible single-job time: must reject.
  const DualOutcome bad = fptas_dual(inst, inst.min_time_bound() * 0.4, 0.5);
  EXPECT_FALSE(bad.accepted);
}

TEST(FptasDual, MakespanWithinFactor) {
  const Instance inst = make_instance(Family::kPowerLaw, 10, 1 << 14, 5);
  const EstimatorResult est = estimate_makespan(inst);
  const double d = 1.7 * est.omega;
  const double eps = 0.25;
  const DualOutcome out = fptas_dual(inst, d, eps);
  if (out.accepted) {
    EXPECT_LE(out.schedule.makespan(), (1 + eps) * d * (1 + 1e-9));
  }
}

TEST(FptasDual, AllJobsStartAtZero) {
  const Instance inst = make_instance(Family::kMixed, 6, 1 << 12, 9);
  const EstimatorResult est = estimate_makespan(inst);
  const DualOutcome out = fptas_dual(inst, 2 * est.omega, 0.5);
  ASSERT_TRUE(out.accepted);
  for (const auto& a : out.schedule.assignments()) EXPECT_DOUBLE_EQ(a.start, 0.0);
}

struct FptasCase {
  Family family;
  std::size_t n;
  double eps;
};

class FptasSweep : public ::testing::TestWithParam<FptasCase> {};

TEST_P(FptasSweep, GuaranteeAgainstLowerBound) {
  const auto [family, n, eps] = GetParam();
  // Pick m comfortably above the threshold (closed-form families only).
  const auto m = static_cast<procs_t>(fptas_machine_threshold(n, eps) * 2);
  const Instance inst = make_instance(family, n, m, 17);
  const ScheduleResult r = schedule_moldable(inst, eps, Algorithm::kFptas);
  ASSERT_TRUE(sched::validate(r.schedule, inst).ok);
  // makespan <= (1+eps) OPT <= (1+eps) * makespan-of-any-schedule; measured
  // against the certified lower bound the ratio can reach (1+eps)*2 but
  // never below 1.
  EXPECT_GE(r.schedule.makespan(), r.lower_bound * (1 - 1e-9));
  EXPECT_LE(r.schedule.makespan(), (1 + eps) * 2 * r.lower_bound * (1 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FptasSweep,
    ::testing::Values(FptasCase{Family::kAmdahl, 20, 0.5},
                      FptasCase{Family::kPowerLaw, 40, 0.25},
                      FptasCase{Family::kCommOverhead, 10, 1.0},
                      FptasCase{Family::kMixed, 30, 0.1},
                      FptasCase{Family::kHighVariance, 15, 0.5},
                      FptasCase{Family::kSequentialOnly, 25, 0.25}),
    [](const auto& info) {
      return jobs::family_name(info.param.family) + "_n" + std::to_string(info.param.n) +
             "_eps" + std::to_string(static_cast<int>(info.param.eps * 100));
    });

TEST(Fptas, NearOptimalOnKnownInstance) {
  // Sequential-only jobs with m >> n: OPT = max t1 (everything in
  // parallel, one processor each suffices and parallelism never helps).
  const Instance inst = make_instance(Family::kSequentialOnly, 10, 1 << 12, 23);
  double opt = 0;
  for (const jobs::Job& j : inst.jobs()) opt = std::max(opt, j.t1());
  const ScheduleResult r = schedule_moldable(inst, 0.5, Algorithm::kFptas);
  EXPECT_NEAR(r.schedule.makespan(), opt, 1e-9 * opt);
}

TEST(Fptas, OneEpsGuaranteeOnPerfectlyParallelJobs) {
  // PowerLaw alpha = 1 jobs have constant work: OPT = total work / m when
  // splittable... use a single job: OPT = min over k of t(k) balanced
  // against nothing else; FPTAS must be within (1+eps) of the true optimum
  // computed by scanning k.
  std::vector<jobs::Job> jv;
  const procs_t m = 1 << 10;
  jv.emplace_back(std::make_shared<jobs::PowerLawTime>(100.0, 0.8), m);
  const Instance inst(std::move(jv), m);
  double opt = 1e18;
  for (procs_t k = 1; k <= m; ++k) opt = std::min(opt, inst.job(0).time(k));
  const double eps = 0.25;
  const ScheduleResult r = schedule_moldable(inst, eps, Algorithm::kFptas);
  EXPECT_LE(r.schedule.makespan(), (1 + eps) * opt * (1 + 1e-9));
}

TEST(Fptas, EnforcesMachineThreshold) {
  const Instance inst = make_instance(Family::kAmdahl, 100, 128, 3);
  EXPECT_THROW(schedule_moldable(inst, 0.25, Algorithm::kFptas), std::invalid_argument);
  EXPECT_THROW(schedule_moldable(inst, 0.0, Algorithm::kFptas), std::invalid_argument);
  EXPECT_THROW(schedule_moldable(inst, 1.5, Algorithm::kFptas), std::invalid_argument);
}

TEST(Fptas, EmptyInstance) {
  const Instance inst({}, 16);
  const ScheduleResult r = schedule_moldable(inst, 0.5, Algorithm::kFptas);
  EXPECT_TRUE(r.schedule.empty());
}

TEST(Fptas, HugeMachineCount) {
  const Instance inst = make_instance(Family::kMixed, 12, procs_t{1} << 40, 31);
  const ScheduleResult r = schedule_moldable(inst, 0.5, Algorithm::kFptas);
  EXPECT_TRUE(sched::validate(r.schedule, inst).ok);
  EXPECT_GT(r.lower_bound, 0);
}

}  // namespace
}  // namespace moldable::core
