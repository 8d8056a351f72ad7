// Tests for the Ludwig-Tiwari estimator: omega <= OPT <= 2 omega, exactness
// of the breakpoint search against brute force, and probe complexity.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "src/core/estimator.hpp"
#include "src/core/exact.hpp"
#include "src/jobs/generators.hpp"
#include "src/sched/list_scheduler.hpp"
#include "src/sched/validator.hpp"
#include "src/util/prng.hpp"

namespace moldable::core {
namespace {

using jobs::Family;
using jobs::Instance;
using jobs::make_instance;

// Brute-force omega that shares no search with the estimator: every
// breakpoint tau = t_j(k), with each gamma_i(tau) read off job i's time
// table by a linear scan. Work is summed in job order as g * t(g), the
// estimator's arithmetic, so the two minima agree bit for bit.
double omega_brute(const Instance& inst) {
  const procs_t m = inst.machines();
  std::vector<std::vector<double>> times;
  for (const jobs::Job& job : inst.jobs()) {
    times.emplace_back();
    for (procs_t k = 1; k <= m; ++k) times.back().push_back(job.time(k));
  }
  double best = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& row : times) {
    for (const double tau : row) {
      double work = 0, tmax = 0;
      bool ok = true;
      for (const std::vector<double>& other : times) {
        std::size_t i = 0;
        while (i < other.size() && !leq_tol(other[i], tau)) ++i;
        if (i == other.size()) {
          ok = false;
          break;
        }
        work += static_cast<double>(i + 1) * other[i];
        tmax = std::max(tmax, other[i]);
      }
      if (ok) best = std::min(best, std::max(work / static_cast<double>(m), tmax));
    }
  }
  return best;
}

TEST(Estimator, MatchesBruteForceOnTables) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Instance inst = make_instance(Family::kTable, 8, 24, seed);
    const EstimatorResult est = estimate_makespan(inst);
    EXPECT_NEAR(est.omega, omega_brute(inst), 1e-9 * est.omega) << "seed=" << seed;
    EXPECT_NEAR(est.omega, std::max(est.avg_work, est.max_time), 1e-12);
  }
}

TEST(Estimator, MatchesBruteForceOnClosedForms) {
  // The closed forms reach Job's inverse-hinted gamma and last_at_least,
  // which MatchesBruteForceOnTables (inverse NaN) never does.
  util::Prng rng(31337);
  for (int rep = 0; rep < 100; ++rep) {
    const procs_t m = rng.uniform_int(1, 512);
    std::vector<jobs::Job> jobs;
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    for (int j = 0; j < n; ++j) {
      const double t1 = rng.log_uniform(1, 1000);
      jobs::PtfPtr f;
      switch ((rep + j) % 5) {
        case 0: f = std::make_shared<jobs::AmdahlTime>(t1, rng.uniform_real(0.1, 1.0)); break;
        case 1: f = std::make_shared<jobs::PowerLawTime>(t1, rng.uniform_real(0.2, 1.0)); break;
        case 2:
          f = std::make_shared<jobs::CommOverheadTime>(t1, t1 * rng.log_uniform(1e-6, 0.3));
          break;
        case 3: f = std::make_shared<jobs::LogSpeedupTime>(t1); break;
        default:
          f = std::make_shared<jobs::ScaledTime>(
              std::make_shared<jobs::AmdahlTime>(t1, rng.uniform_real(0.1, 1.0)),
              rng.log_uniform(0.1, 10));
      }
      jobs.emplace_back(std::move(f), m);
    }
    const Instance inst(std::move(jobs), m);
    EXPECT_EQ(estimate_makespan(inst).omega, omega_brute(inst)) << "rep=" << rep << " m=" << m;
  }
}

TEST(Estimator, OmegaIsLowerBoundOnExactOptimum) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Instance inst = make_instance(Family::kTable, 5, 6, seed + 50);
    const EstimatorResult est = estimate_makespan(inst);
    const auto exact = solve_exact(inst);
    ASSERT_TRUE(exact.has_value());
    EXPECT_LE(est.omega, exact->makespan * (1 + 1e-9)) << "seed=" << seed;
    // Ratio 2: some schedule within 2 omega exists.
    EXPECT_LE(exact->makespan, 2 * est.omega * (1 + 1e-9)) << "seed=" << seed;
  }
}

TEST(Estimator, TwoApproxViaListScheduling) {
  // The estimator's allotment list-scheduled stays below 2 omega: this is
  // the Section 3 estimation-ratio-2 argument, end to end.
  for (Family fam : jobs::all_families()) {
    const procs_t m = fam == Family::kTable ? 64 : 256;
    const Instance inst = make_instance(fam, 30, m, 7);
    const EstimatorResult est = estimate_makespan(inst);
    const sched::Schedule s = sched::list_schedule(inst, est.allotment);
    ASSERT_TRUE(sched::validate(s, inst).ok);
    EXPECT_LE(s.makespan(), 2 * est.omega * (1 + 1e-9)) << jobs::family_name(fam);
    EXPECT_GE(s.makespan(), est.omega * (1 - 1e-9)) << jobs::family_name(fam);
  }
}

TEST(Estimator, AllotmentAchievesThreshold) {
  const Instance inst = make_instance(Family::kMixed, 40, 1 << 14, 13);
  const EstimatorResult est = estimate_makespan(inst);
  ASSERT_EQ(est.allotment.size(), inst.size());
  procs_t total = 0;
  for (std::size_t j = 0; j < inst.size(); ++j) {
    EXPECT_LE(inst.job(j).time(est.allotment[j]), est.threshold * (1 + 1e-9));
    total += est.allotment[j];
  }
  EXPECT_GT(total, 0);
}

TEST(Estimator, DominatesTrivialLowerBound) {
  const Instance inst = make_instance(Family::kAmdahl, 25, 512, 3);
  const EstimatorResult est = estimate_makespan(inst);
  EXPECT_GE(est.omega, inst.trivial_lower_bound() * (1 - 1e-9));
}

TEST(Estimator, SingleJobIsExact) {
  // One job: OPT = t(m) = omega? Not necessarily: max(A, T) balances work
  // against time. omega <= OPT = min_k max(t(k), w(k)/m) and for a single
  // job the estimator must return exactly that minimum.
  const Instance inst = make_instance(Family::kPowerLaw, 1, 4096, 21);
  const EstimatorResult est = estimate_makespan(inst);
  const jobs::Job& job = inst.job(0);
  double best = std::numeric_limits<double>::infinity();
  for (procs_t k = 1; k <= inst.machines(); ++k)
    best = std::min(best,
                    std::max(job.time(k), job.work(k) / static_cast<double>(inst.machines())));
  EXPECT_NEAR(est.omega, best, 1e-9 * best);
}

TEST(Estimator, HugeMachineCountStaysFast) {
  // m = 2^40 with closed-form oracles: the weighted-median search must
  // converge in O(log(nm)) rounds; evaluations stay small.
  const Instance inst = make_instance(Family::kMixed, 32, procs_t{1} << 40, 9);
  const EstimatorResult est = estimate_makespan(inst);
  EXPECT_GT(est.omega, 0);
  EXPECT_LT(est.evaluations, 400);
}

TEST(Estimator, IdenticalJobsSymmetry) {
  const Instance inst = make_instance(Family::kIdentical, 16, 64, 5);
  const EstimatorResult est = estimate_makespan(inst);
  for (std::size_t j = 1; j < inst.size(); ++j)
    EXPECT_EQ(est.allotment[j], est.allotment[0]);
}

TEST(Estimator, RejectsEmptyInstance) {
  EXPECT_THROW(estimate_makespan(Instance({}, 4)), std::invalid_argument);
}

}  // namespace
}  // namespace moldable::core
