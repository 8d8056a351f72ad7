// Tests for the unified front-end: dispatch logic and end-to-end guarantees
// across algorithms, families, sizes and eps (the big parameterized sweep).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/core/estimator.hpp"
#include "src/core/exact.hpp"
#include "src/core/fptas.hpp"
#include "src/core/scheduler.hpp"
#include "src/engine/registry.hpp"
#include "src/jobs/generators.hpp"
#include "src/sched/validator.hpp"

namespace moldable::core {
namespace {

using jobs::Family;
using jobs::Instance;
using jobs::make_instance;

TEST(Scheduler, AutoDispatchesToFptasAboveThreshold) {
  const Instance inst = make_instance(Family::kAmdahl, 8, 1 << 16, 3);
  const ScheduleResult r = schedule_moldable(inst, 0.5);
  EXPECT_EQ(r.used, Algorithm::kFptas);
  EXPECT_DOUBLE_EQ(r.guarantee, 1.5);
}

TEST(Scheduler, AutoDispatchesToBoundedBelowThreshold) {
  const Instance inst = make_instance(Family::kAmdahl, 64, 128, 3);
  const ScheduleResult r = schedule_moldable(inst, 0.25);
  EXPECT_EQ(r.used, Algorithm::kBoundedLinear);
}

TEST(Scheduler, FptasRegimeBoundaryIsSolved) {
  // m exactly at Theorem 2's threshold 24 n / eps: the regime test that
  // sends auto and ptas to the FPTAS is the one the FPTAS applies itself.
  struct Case {
    std::size_t n;
    double eps;
    procs_t m;
  };
  for (const Case c : {Case{3, 0.3, 240}, Case{5, 0.15, 800}, Case{6, 0.6, 240}}) {
    const Instance inst = make_instance(Family::kAmdahl, c.n, c.m, 3);
    const std::string where = "n=" + std::to_string(c.n) + " m=" + std::to_string(c.m);
    for (const ScheduleResult& r :
         {schedule_moldable(inst, c.eps), ptas_schedule(inst, c.eps),
          schedule_moldable(inst, c.eps, Algorithm::kFptas)}) {
      EXPECT_EQ(r.used, Algorithm::kFptas) << where;
      EXPECT_TRUE(sched::validate(r.schedule, inst).ok) << where;
    }
  }
}

/// The registry sweep: every family, n in {1, 6, 40}, m in {8, 256, 16384}
/// (tables only up to 8192) and eps in {0.1, 1.0}. Calls on_instance(inst)
/// once per instance, then visit(inst, eps, name, where) for every row that
/// applies — fptas in Theorem 2's regime, exact within its caps.
template <class OnInstance, class Visit>
void for_each_registry_case(OnInstance on_instance, Visit visit) {
  const engine::AlgorithmRegistry& registry = engine::AlgorithmRegistry::global();
  const ExactLimits limits;
  for (Family fam : jobs::all_families()) {
    for (std::size_t n : {1, 6, 40}) {
      for (procs_t m : {8, 256, 16384}) {
        if (fam == Family::kTable && m > 8192) continue;  // tables are Theta(m) per job
        const Instance inst = make_instance(fam, n, m, 2024);
        const bool exact_ok = n <= limits.max_jobs && m <= limits.max_machines;
        on_instance(inst);
        for (double eps : {0.1, 1.0}) {
          const bool fptas_ok = static_cast<double>(m) >= fptas_machine_threshold(n, eps);
          for (const std::string& name : registry.names()) {
            if ((name == "fptas" && !fptas_ok) || (name == "exact" && !exact_ok)) continue;
            visit(inst, eps, name,
                  name + " " + jobs::family_name(fam) + " n=" + std::to_string(n) +
                      " m=" + std::to_string(m) + " eps=" + std::to_string(eps));
          }
        }
      }
    }
  }
}

TEST(Scheduler, EveryBuiltinCertifiesItsGuarantee) {
  // Each registry row against its own certificate: makespan <= guarantee *
  // lower_bound with omega <= lower_bound <= OPT, and a dual search that
  // stays within its budget (the probe at (1+eps_s) omega, the 2 omega call
  // and the bisection between). The sweep below only checks the looser
  // guarantee * 2 * lower_bound.
  const engine::AlgorithmRegistry& registry = engine::AlgorithmRegistry::global();
  const ExactLimits limits;
  double omega = 0;
  double opt = 0;  // OPT within the exact solver's caps, else +inf
  int checked = 0;
  const auto on_instance = [&](const Instance& inst) {
    ASSERT_FALSE(inst.memory_constrained());
    omega = estimate_makespan(inst).omega;
    opt = std::numeric_limits<double>::infinity();
    if (inst.size() <= limits.max_jobs && inst.machines() <= limits.max_machines) {
      const auto exact = solve_exact(inst, limits);
      ASSERT_TRUE(exact.has_value());
      opt = exact->makespan;
    }
  };
  for_each_registry_case(on_instance, [&](const Instance& inst, double eps,
                                          const std::string& name, const std::string& where) {
    const int max_calls = 2 + static_cast<int>(std::ceil(std::log2(4 / eps)));
    engine::SolverConfig config;
    config.eps = eps;
    const ScheduleResult r = registry.solve(name, inst, config);
    const auto v = sched::validate(r.schedule, inst);
    ASSERT_TRUE(v.ok) << where << ": " << (v.errors.empty() ? "" : v.errors.front());
    EXPECT_LE(r.makespan, r.guarantee * r.lower_bound * (1 + 1e-9)) << where;
    EXPECT_GE(r.lower_bound, omega * (1 - 1e-9)) << where;
    EXPECT_LE(r.lower_bound, opt * (1 + 1e-9)) << where;
    EXPECT_LE(r.dual_calls, max_calls) << where;
    ++checked;
  });
  // 7 rows apply to all 156 (instance, eps) cases; exact adds 36, fptas 75.
  EXPECT_EQ(checked, 1203);
}

TEST(Registry, CarriedOmegaMatchesComputed) {
  // SolverConfig::omega saves the estimator call and changes nothing else:
  // every row, handed estimate_makespan's omega, returns what it computes
  // without it, assignment for assignment.
  const engine::AlgorithmRegistry& registry = engine::AlgorithmRegistry::global();
  double omega = 0;
  int checked = 0;
  const auto on_instance = [&](const Instance& inst) { omega = estimate_makespan(inst).omega; };
  for_each_registry_case(on_instance, [&](const Instance& inst, double eps,
                                          const std::string& name, const std::string& where) {
    engine::SolverConfig plain, carried;
    plain.eps = carried.eps = eps;
    carried.omega = omega;
    const ScheduleResult a = registry.solve(name, inst, plain);
    const ScheduleResult b = registry.solve(name, inst, carried);
    EXPECT_EQ(a.makespan, b.makespan) << where;
    EXPECT_EQ(a.lower_bound, b.lower_bound) << where;
    EXPECT_EQ(a.dual_calls, b.dual_calls) << where;
    EXPECT_EQ(a.guarantee, b.guarantee) << where;
    EXPECT_EQ(a.used, b.used) << where;
    const auto& sa = a.schedule.assignments();
    const auto& sb = b.schedule.assignments();
    ASSERT_EQ(sa.size(), sb.size()) << where;
    for (std::size_t k = 0; k < sa.size(); ++k) {
      EXPECT_EQ(sa[k].job, sb[k].job) << where;
      EXPECT_EQ(sa[k].start, sb[k].start) << where;
      EXPECT_EQ(sa[k].procs, sb[k].procs) << where;
      EXPECT_EQ(sa[k].duration, sb[k].duration) << where;
    }
    ++checked;
  });
  EXPECT_EQ(checked, 1203);
}

TEST(Scheduler, EmptyInstance) {
  const ScheduleResult r = schedule_moldable(Instance({}, 4), 0.5);
  EXPECT_TRUE(r.schedule.empty());
  EXPECT_DOUBLE_EQ(r.makespan, 0);
}

TEST(Scheduler, ValidatesEps) {
  const Instance inst = make_instance(Family::kAmdahl, 2, 8, 1);
  EXPECT_THROW(schedule_moldable(inst, 0.0), std::invalid_argument);
  EXPECT_THROW(schedule_moldable(inst, 1.0001), std::invalid_argument);
}

TEST(Scheduler, AlgorithmNames) {
  EXPECT_EQ(algorithm_name(Algorithm::kFptas), "fptas");
  EXPECT_EQ(algorithm_name(Algorithm::kMrt), "mrt");
  EXPECT_EQ(algorithm_name(Algorithm::kBoundedLinear), "algorithm3-linear");
}

struct SweepCase {
  Algorithm algo;
  Family family;
  std::size_t n;
  procs_t m;
  double eps;
};

class SchedulerSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SchedulerSweep, ValidAndWithinCertifiedBound) {
  const auto p = GetParam();
  const Instance inst = make_instance(p.family, p.n, p.m, 1234);
  const ScheduleResult r = schedule_moldable(inst, p.eps, p.algo);
  const auto v = sched::validate(r.schedule, inst);
  ASSERT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors.front());
  EXPECT_DOUBLE_EQ(r.makespan, v.makespan);
  EXPECT_GE(r.makespan, r.lower_bound * (1 - 1e-9));
  // Certified: makespan <= guarantee * OPT <= guarantee * 2 * lower_bound.
  EXPECT_LE(r.makespan, r.guarantee * 2 * r.lower_bound * (1 + 1e-9))
      << algorithm_name(p.algo) << " " << jobs::family_name(p.family);
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cs;
  for (Algorithm a : {Algorithm::kMrt, Algorithm::kCompressible, Algorithm::kBounded,
                      Algorithm::kBoundedLinear, Algorithm::kLudwigTiwari}) {
    for (Family f : {Family::kAmdahl, Family::kPowerLaw, Family::kCommOverhead,
                     Family::kMixed, Family::kHighVariance, Family::kSequentialOnly}) {
      cs.push_back({a, f, 20, 128, 0.3});
      cs.push_back({a, f, 50, 512, 0.15});
    }
  }
  // FPTAS cases in its regime.
  for (Family f : {Family::kAmdahl, Family::kMixed})
    cs.push_back({Algorithm::kFptas, f, 10, 1 << 14, 0.5});
  return cs;
}

INSTANTIATE_TEST_SUITE_P(BigSweep, SchedulerSweep, ::testing::ValuesIn(sweep_cases()),
                         [](const auto& info) {
                           const auto& p = info.param;
                           std::string name = algorithm_name(p.algo) + "_" +
                                              jobs::family_name(p.family) + "_n" +
                                              std::to_string(p.n) + "_m" +
                                              std::to_string(p.m) + "_e" +
                                              std::to_string(static_cast<int>(p.eps * 100));
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(Scheduler, DeterministicAcrossRuns) {
  const Instance inst = make_instance(Family::kMixed, 30, 256, 5);
  const ScheduleResult a = schedule_moldable(inst, 0.25, Algorithm::kBoundedLinear);
  const ScheduleResult b = schedule_moldable(inst, 0.25, Algorithm::kBoundedLinear);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.dual_calls, b.dual_calls);
}

}  // namespace
}  // namespace moldable::core

namespace moldable::core {
namespace {

TEST(Ptas, FptasBranchAboveThreshold) {
  const jobs::Instance inst = jobs::make_instance(jobs::Family::kAmdahl, 6, 1 << 14, 3);
  const ScheduleResult r = ptas_schedule(inst, 0.5);
  EXPECT_EQ(r.used, Algorithm::kFptas);
  EXPECT_DOUBLE_EQ(r.guarantee, 1.5);
}

TEST(Ptas, ExactBranchForTinyLowM) {
  const jobs::Instance inst = jobs::make_instance(jobs::Family::kTable, 4, 5, 3);
  const ScheduleResult r = ptas_schedule(inst, 0.25);
  EXPECT_DOUBLE_EQ(r.guarantee, 1);
  EXPECT_DOUBLE_EQ(r.ratio_vs_lower, 1);
  const auto v = sched::validate(r.schedule, inst);
  EXPECT_TRUE(v.ok);
}

TEST(Ptas, SubstitutedBranchForMidSize) {
  const jobs::Instance inst = jobs::make_instance(jobs::Family::kMixed, 50, 128, 3);
  const ScheduleResult r = ptas_schedule(inst, 0.25);
  EXPECT_EQ(r.used, Algorithm::kBoundedLinear);
  EXPECT_DOUBLE_EQ(r.guarantee, 1.75);
  EXPECT_TRUE(sched::validate(r.schedule, inst).ok);
}

}  // namespace
}  // namespace moldable::core
