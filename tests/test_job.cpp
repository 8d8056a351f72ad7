// Tests for Job: gamma (canonical allotment) correctness against brute
// force and against the paper's plain binary search on the closed forms
// (whose inverse hint the search uses), caching, and the companion search
// used by the estimator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include "src/jobs/generators.hpp"
#include "src/jobs/job.hpp"
#include "src/util/prng.hpp"

namespace moldable::jobs {
namespace {

Job amdahl_job(double t1, double f, procs_t m) {
  return Job(std::make_shared<AmdahlTime>(t1, f), m);
}

TEST(Job, CachesEndpoints) {
  const Job j = amdahl_job(100.0, 0.8, 64);
  EXPECT_DOUBLE_EQ(j.t1(), 100.0);
  EXPECT_DOUBLE_EQ(j.tmin(), j.time(64));
  EXPECT_EQ(j.machines(), 64);
}

TEST(Job, ValidatesConstructionAndRange) {
  EXPECT_THROW(Job(nullptr, 4), std::invalid_argument);
  EXPECT_THROW(Job(std::make_shared<AmdahlTime>(1.0, 0.5), 0), std::invalid_argument);
  const Job j = amdahl_job(10.0, 0.5, 8);
  EXPECT_THROW(j.time(0), std::invalid_argument);
  EXPECT_THROW(j.time(9), std::invalid_argument);
}

TEST(Job, WorkIsMonotoneForAmdahl) {
  const Job j = amdahl_job(10.0, 0.9, 128);
  for (procs_t k = 1; k < 128; ++k) EXPECT_LE(j.work(k), j.work(k + 1) + 1e-9);
}

// Brute-force gamma for validation.
std::optional<procs_t> gamma_brute(const Job& j, double t) {
  for (procs_t k = 1; k <= j.machines(); ++k)
    if (leq_tol(j.time(k), t)) return k;
  return std::nullopt;
}

TEST(Job, GammaMatchesBruteForceOnTables) {
  util::Prng rng(99);
  for (int rep = 0; rep < 30; ++rep) {
    const procs_t m = rng.uniform_int(1, 80);
    const auto table = random_monotone_table(m, rng.log_uniform(1, 100), rng.next_u64());
    const Job j(std::make_shared<TableTime>(table), m);
    for (int q = 0; q < 40; ++q) {
      // Thresholds spanning below-tmin to above-t1.
      const double t = rng.uniform_real(0.5 * j.tmin(), 1.2 * j.t1());
      EXPECT_EQ(j.gamma(t), gamma_brute(j, t)) << "m=" << m << " t=" << t;
    }
    // Exact hits on table values must return that index (first achieving).
    for (procs_t k = 1; k <= m; ++k) {
      const auto g = j.gamma(j.time(k));
      ASSERT_TRUE(g.has_value());
      EXPECT_LE(*g, k);
      EXPECT_TRUE(leq_tol(j.time(*g), j.time(k)));
    }
  }
}

TEST(Job, GammaUndefinedBelowFastestTime) {
  const Job j = amdahl_job(100.0, 0.5, 16);
  EXPECT_FALSE(j.gamma(j.tmin() * 0.5).has_value());
  EXPECT_EQ(j.gamma(j.tmin()), 16);  // exactly achievable only on all m
}

TEST(Job, GammaOneWhenSequentialSuffices) {
  const Job j = amdahl_job(10.0, 0.9, 1024);
  EXPECT_EQ(j.gamma(10.0), 1);
  EXPECT_EQ(j.gamma(1e9), 1);
}

TEST(Job, GammaHugeMachineCount) {
  // Closed-form oracle with m = 2^40: gamma must stay O(log m) probes and
  // return sensible values (this would OOM with any Theta(m) approach).
  const Job j = amdahl_job(1000.0, 0.999, procs_t{1} << 40);
  const auto g = j.gamma(2.0);
  ASSERT_TRUE(g.has_value());
  EXPECT_TRUE(leq_tol(j.time(*g), 2.0));
  if (*g > 1) {
    EXPECT_GT(j.time(*g - 1), 2.0);
  }
}

TEST(Job, LastAtLeastMatchesBruteForce) {
  util::Prng rng(123);
  for (int rep = 0; rep < 20; ++rep) {
    const procs_t m = rng.uniform_int(1, 60);
    const auto table = random_monotone_table(m, rng.log_uniform(1, 50), rng.next_u64());
    const Job j(std::make_shared<TableTime>(table), m);
    for (int q = 0; q < 30; ++q) {
      const double t = rng.uniform_real(0.5 * j.tmin(), 1.5 * j.t1());
      procs_t expect = 0;
      for (procs_t k = 1; k <= m; ++k)
        if (j.time(k) >= t) expect = k;
      EXPECT_EQ(j.last_at_least(t), expect);
    }
  }
}

TEST(Job, GammaAndLastAtLeastConsistency) {
  const Job j = amdahl_job(64.0, 0.75, 256);
  for (double t : {1.0, 17.0, 20.0, 40.0, 64.0, 100.0}) {
    const auto g = j.gamma(t);
    const procs_t l = j.last_at_least(t);
    if (g && *g > 1) {
      // Everything below gamma is strictly slower than t.
      EXPECT_GT(j.time(*g - 1), t * (1 - 1e-9));
    }
    if (l >= 1 && l < j.machines()) {
      EXPECT_LT(j.time(l + 1), t * (1 + 1e-9));
    }
  }
}

// ------------------------------------- the inverse hint never changes gamma ---

// The paper's search (Section 3): O(log m) probes over [1, m], with no hint.
std::optional<procs_t> gamma_reference(const Job& j, double t) {
  if (!leq_tol(j.tmin(), t)) return std::nullopt;
  if (leq_tol(j.t1(), t)) return 1;
  procs_t lo = 1, hi = j.machines();  // time(lo) > t, time(hi) <= t
  while (hi - lo > 1) {
    const procs_t mid = lo + (hi - lo) / 2;
    if (leq_tol(j.time(mid), t))
      hi = mid;
    else
      lo = mid;
  }
  return hi;
}

procs_t last_at_least_reference(const Job& j, double t) {
  if (j.t1() < t) return 0;
  if (j.tmin() >= t) return j.machines();
  procs_t lo = 1, hi = j.machines();  // time(lo) >= t, time(hi) < t
  while (hi - lo > 1) {
    const procs_t mid = lo + (hi - lo) / 2;
    if (j.time(mid) >= t)
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

constexpr int kClosedFamilies = 5;
const char* const kClosedFamilyNames[kClosedFamilies] = {"amdahl", "powerlaw", "comm",
                                                         "logspeed", "scaled-powerlaw"};

PtfPtr closed_form(int family, util::Prng& rng) {
  const double t1 = rng.log_uniform(1e-3, 1e6);
  switch (family) {
    case 0: return std::make_shared<AmdahlTime>(t1, rng.uniform_real(0.01, 1.0));
    case 1: return std::make_shared<PowerLawTime>(t1, rng.uniform_real(0.05, 1.0));
    case 2: return std::make_shared<CommOverheadTime>(t1, t1 * rng.log_uniform(1e-9, 0.5));
    case 3: return std::make_shared<LogSpeedupTime>(t1);
    default:
      return std::make_shared<ScaledTime>(
          std::make_shared<PowerLawTime>(t1, rng.uniform_real(0.05, 1.0)),
          rng.log_uniform(1e-3, 1e3));
  }
}

// Calls visit(family, job, t) on 10^6 seeded queries per closed family.
// Machine counts spread over every bit width up to 2^62, and every fourth
// power-law job (plain or scaled) has m >= 2^53, where consecutive times
// tie at the ulp level. A third of the thresholds are exact breakpoints
// t(k), a third sit one ulp beside one, and a third fall anywhere from
// tmin/2 to 2 t1.
void for_each_closed_form_query(
    const std::function<void(int, const Job&, double)>& visit) {
  constexpr int kJobsPerFamily = 10000, kQueriesPerJob = 100;
  util::Prng rng(0x5EC7104);
  for (int family = 0; family < kClosedFamilies; ++family) {
    for (int n = 0; n < kJobsPerFamily; ++n) {
      const bool power_law = family == 1 || family == 4;
      const int bits = power_law && n % 4 == 0 ? static_cast<int>(rng.uniform_int(54, 62))
                                               : static_cast<int>(rng.uniform_int(1, 62));
      const procs_t m = rng.uniform_int(procs_t{1} << (bits - 1), procs_t{1} << bits);
      const Job j(closed_form(family, rng), m);
      for (int q = 0; q < kQueriesPerJob; ++q) {
        // k uniform on [1, m] or on [1, 2^b] for a random b: both ends of m.
        const procs_t k_cap = q % 2 ? m : std::min(m, procs_t{1} << rng.uniform_int(0, bits));
        const double tk = j.time(rng.uniform_int(1, k_cap));
        double t = tk;
        if (q % 3 == 1)
          t = std::nextafter(tk, q % 2 ? std::numeric_limits<double>::infinity() : 0.0);
        else if (q % 3 == 2)
          t = rng.log_uniform(0.5 * j.tmin(), 2 * j.t1());
        visit(family, j, t);
      }
    }
  }
}

TEST(Job, GammaMatchesBinarySearchOnClosedForms) {
  std::int64_t mismatches = 0;
  for_each_closed_form_query([&](int family, const Job& j, double t) {
    const auto got = j.gamma(t);
    const auto want = gamma_reference(j, t);
    if (got != want && ++mismatches <= 5)
      ADD_FAILURE() << kClosedFamilyNames[family] << " m=" << j.machines() << " t=" << t
                    << " gamma=" << got.value_or(-1) << " reference=" << want.value_or(-1);
  });
  EXPECT_EQ(mismatches, 0);
}

TEST(Job, LastAtLeastMatchesBinarySearchOnClosedForms) {
  std::int64_t mismatches = 0;
  for_each_closed_form_query([&](int family, const Job& j, double t) {
    const procs_t got = j.last_at_least(t);
    const procs_t want = last_at_least_reference(j, t);
    if (got != want && ++mismatches <= 5)
      ADD_FAILURE() << kClosedFamilyNames[family] << " m=" << j.machines() << " t=" << t
                    << " last_at_least=" << got << " reference=" << want;
  });
  EXPECT_EQ(mismatches, 0);
}

// Amdahl times with a deliberately wrong inverse: the hint may cost probes
// but never an answer.
class WrongInverseTime final : public ProcessingTimeFunction {
 public:
  WrongInverseTime(double t1, double f, int lie) : inner_(t1, f), lie_(lie) {}
  double at(procs_t k) const override { return inner_.at(k); }
  double inverse(double t) const override {
    const double x = inner_.inverse(t);
    switch (lie_) {
      case 0: return x + 1000;
      case 1: return x - 1000;
      case 2: return x + 1;
      case 3: return x - 1;
      case 4: return 0;
      case 5: return -1;
      case 6: return std::numeric_limits<double>::quiet_NaN();
      case 7: return std::numeric_limits<double>::infinity();
      case 8: return -std::numeric_limits<double>::infinity();
      default: return 0x1p70;
    }
  }

 private:
  AmdahlTime inner_;
  int lie_;
};

TEST(Job, WrongInverseNeverChangesGamma) {
  util::Prng rng(4242);
  for (int lie = 0; lie < 10; ++lie) {
    for (int rep = 0; rep < 200; ++rep) {
      const procs_t m = rng.uniform_int(1, procs_t{1} << rng.uniform_int(0, 62));
      const Job j(std::make_shared<WrongInverseTime>(rng.log_uniform(1e-2, 1e4),
                                                     rng.uniform_real(0.01, 1.0), lie),
                  m);
      for (int q = 0; q < 50; ++q) {
        const double t = q % 2 ? j.time(rng.uniform_int(1, m))
                               : rng.log_uniform(0.5 * j.tmin(), 2 * j.t1());
        ASSERT_EQ(j.gamma(t), gamma_reference(j, t)) << "lie=" << lie << " m=" << m << " t=" << t;
        ASSERT_EQ(j.last_at_least(t), last_at_least_reference(j, t))
            << "lie=" << lie << " m=" << m << " t=" << t;
      }
    }
  }
}

}  // namespace
}  // namespace moldable::jobs
