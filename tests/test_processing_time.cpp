// Tests for the processing-time oracle families: values, (P1) non-increasing
// times, and (P2) monotone work — the standing assumptions of the paper.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "src/jobs/io.hpp"
#include "src/jobs/job.hpp"
#include "src/jobs/processing_time.hpp"

namespace moldable::jobs {
namespace {

TEST(AmdahlTime, ValuesMatchFormula) {
  AmdahlTime f(100.0, 0.8);
  EXPECT_DOUBLE_EQ(f.at(1), 100.0);
  EXPECT_DOUBLE_EQ(f.at(2), 100.0 * (0.2 + 0.4));
  EXPECT_DOUBLE_EQ(f.at(4), 100.0 * (0.2 + 0.2));
  // Amdahl asymptote: the serial fraction remains.
  EXPECT_NEAR(f.at(1'000'000'000), 20.0, 1e-3);
}

TEST(AmdahlTime, ZeroFractionIsConstant) {
  AmdahlTime f(5.0, 0.0);
  EXPECT_DOUBLE_EQ(f.at(1), 5.0);
  EXPECT_DOUBLE_EQ(f.at(1 << 20), 5.0);
}

TEST(AmdahlTime, ValidatesArguments) {
  EXPECT_THROW(AmdahlTime(0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(AmdahlTime(-1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(AmdahlTime(1.0, 1.5), std::invalid_argument);
  EXPECT_THROW(AmdahlTime(1.0, -0.1), std::invalid_argument);
  AmdahlTime ok(1.0, 0.5);
  EXPECT_THROW(ok.at(0), std::invalid_argument);
}

TEST(PowerLawTime, ValuesMatchFormula) {
  PowerLawTime f(64.0, 0.5);
  EXPECT_DOUBLE_EQ(f.at(1), 64.0);
  EXPECT_DOUBLE_EQ(f.at(4), 32.0);
  EXPECT_DOUBLE_EQ(f.at(16), 16.0);
}

TEST(PowerLawTime, AlphaOneIsLinearSpeedup) {
  PowerLawTime f(100.0, 1.0);
  EXPECT_DOUBLE_EQ(f.at(10), 10.0);
  // Work is constant with alpha = 1 (the boundary of monotone work).
  EXPECT_NEAR(1.0 * f.at(1), 10.0 * f.at(10), 1e-12);
}

TEST(PowerLawTime, ValidatesArguments) {
  EXPECT_THROW(PowerLawTime(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(PowerLawTime(1.0, 1.1), std::invalid_argument);
  EXPECT_THROW(PowerLawTime(0.0, 0.5), std::invalid_argument);
}

TEST(CommOverheadTime, PlateausAtMinimizer) {
  // t1 = 100, c = 1: raw curve minimized at sqrt(100) = 10.
  CommOverheadTime f(100.0, 1.0);
  EXPECT_EQ(f.plateau(), 10);
  EXPECT_DOUBLE_EQ(f.at(10), 100.0 / 10 + 1.0 * 9);
  // Beyond the plateau the time freezes (keeps P1).
  EXPECT_DOUBLE_EQ(f.at(11), f.at(10));
  EXPECT_DOUBLE_EQ(f.at(1000), f.at(10));
}

TEST(CommOverheadTime, ValidatesArguments) {
  EXPECT_THROW(CommOverheadTime(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(CommOverheadTime(1.0, 0.0), std::invalid_argument);
}

TEST(LinearReductionTime, MatchesReductionFormula) {
  // t(k) = m*a - k + 1 with m = 4, a = 5.
  LinearReductionTime f(4, 5);
  EXPECT_DOUBLE_EQ(f.at(1), 20.0);
  EXPECT_DOUBLE_EQ(f.at(4), 17.0);
  EXPECT_THROW(f.at(5), std::invalid_argument);  // k > m is out of contract
  EXPECT_THROW(LinearReductionTime(4, 1), std::invalid_argument);  // a >= 2
}

TEST(LinearReductionTime, StrictWorkMonotony) {
  // Eq. (1): w(k+1) - w(k) = m*a - 2k > 0 for k < m when a >= 2.
  LinearReductionTime f(8, 3);
  for (procs_t k = 1; k < 8; ++k) {
    const double w0 = static_cast<double>(k) * f.at(k);
    const double w1 = static_cast<double>(k + 1) * f.at(k + 1);
    EXPECT_GT(w1, w0) << "k=" << k;
  }
}

TEST(ProcessingTime, LinredRefusesOverflowingWork) {
  // t(k) = m*a - k + 1 is formed in int64_t, so m*a past INT64_MAX would
  // overflow; the constructor refuses it, and a record naming such a job is
  // refused on its line.
  const std::int64_t big = std::int64_t{1} << 32;
  EXPECT_THROW(LinearReductionTime(big, big), std::invalid_argument);
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(LinearReductionTime(2, max / 2 + 1), std::invalid_argument);
  const LinearReductionTime edge(2, max / 2);  // m*a = INT64_MAX - 1 fits
  EXPECT_DOUBLE_EQ(edge.at(1), static_cast<double>(max - 1));
  try {
    from_text("moldable-instance v1\nmachines 4294967296\njob linred 4294967296 4294967296\n");
    FAIL() << "an overflowing linred job must not parse";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(ProcessingTime, CommPlateauSurvivesHugeRatio) {
  // sqrt(t1/c) = 1e20 is past procs_t's range: the plateau is clamped, not
  // cast out of range, so t keeps falling towards t1/k.
  const CommOverheadTime f(1e30, 1e-10);
  EXPECT_LT(f.at(1000000), f.at(2));
  EXPECT_NEAR(f.at(1000000), 1e24, 1e12);
}

TEST(TableTime, AcceptsValidAndRejectsInvalid) {
  TableTime ok({10.0, 6.0, 5.0});
  EXPECT_DOUBLE_EQ(ok.at(2), 6.0);
  EXPECT_EQ(ok.max_procs(), 3);
  // (P1) violated: increasing time.
  EXPECT_THROW(TableTime({5.0, 6.0}), std::invalid_argument);
  // (P2) violated: w(1) = 10 but w(2) = 8.
  EXPECT_THROW(TableTime({10.0, 4.0}), std::invalid_argument);
  // The same table is fine when work monotony is not demanded.
  TableTime relaxed({10.0, 4.0}, /*require_monotone_work=*/false);
  EXPECT_DOUBLE_EQ(relaxed.at(2), 4.0);
  EXPECT_THROW(TableTime({}), std::invalid_argument);
  EXPECT_THROW(TableTime({0.0}), std::invalid_argument);
}

TEST(TableTime, RangeChecked) {
  TableTime f({3.0, 2.0});
  EXPECT_THROW(f.at(0), std::invalid_argument);
  EXPECT_THROW(f.at(3), std::invalid_argument);
}

TEST(RigidStepTime, StepSemantics) {
  RigidStepTime f(3.0, 4, 1e6);
  EXPECT_DOUBLE_EQ(f.at(3), 1e6);
  EXPECT_DOUBLE_EQ(f.at(4), 3.0);
  EXPECT_DOUBLE_EQ(f.at(100), 3.0);
  EXPECT_THROW(RigidStepTime(3.0, 0, 1e6), std::invalid_argument);
  EXPECT_THROW(RigidStepTime(3.0, 4, 1.0), std::invalid_argument);
}

// ----------------------------------------------------- monotony checking ---

class MonotoneFamilyTest : public ::testing::TestWithParam<int> {};

PtfPtr make_family(int which) {
  switch (which) {
    case 0: return std::make_shared<AmdahlTime>(37.0, 0.73);
    case 1: return std::make_shared<PowerLawTime>(41.0, 0.61);
    case 2: return std::make_shared<CommOverheadTime>(53.0, 0.02);
    case 3: return std::make_shared<LinearReductionTime>(512, 7);
    default: return std::make_shared<AmdahlTime>(5.0, 0.0);
  }
}

TEST_P(MonotoneFamilyTest, SatisfiesP1AndP2Exhaustively) {
  const auto f = make_family(GetParam());
  const MonotonyReport r = check_monotony(*f, 512, /*exhaustive_limit=*/512);
  EXPECT_TRUE(r.time_nonincreasing) << "violation at k=" << r.first_violation;
  EXPECT_TRUE(r.work_nondecreasing) << "violation at k=" << r.first_violation;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, MonotoneFamilyTest, ::testing::Range(0, 5));

TEST(CheckMonotony, SampledLargeM) {
  AmdahlTime f(100.0, 0.9);
  const MonotonyReport r = check_monotony(f, procs_t{1} << 40);
  EXPECT_TRUE(r.time_nonincreasing);
  EXPECT_TRUE(r.work_nondecreasing);
}

TEST(CheckMonotony, DetectsRigidWorkViolation) {
  RigidStepTime f(3.0, 64, 1e6);
  const MonotonyReport r = check_monotony(f, 256, 256);
  EXPECT_TRUE(r.time_nonincreasing);   // (P1) holds for the step function
  EXPECT_FALSE(r.work_nondecreasing);  // (P2) fails below the step
  EXPECT_GT(r.first_violation, 0);
}

TEST(CheckMonotony, SingleMachineTrivial) {
  AmdahlTime f(1.0, 0.5);
  const MonotonyReport r = check_monotony(f, 1);
  EXPECT_TRUE(r.time_nonincreasing);
  EXPECT_TRUE(r.work_nondecreasing);
}

}  // namespace
}  // namespace moldable::jobs

namespace moldable::jobs {
namespace {

TEST(ScaledTime, ScalesUniformly) {
  auto inner = std::make_shared<AmdahlTime>(10.0, 0.5);
  ScaledTime f(inner, 2.5);
  for (procs_t k : {1, 2, 7, 100}) EXPECT_DOUBLE_EQ(f.at(k), 2.5 * inner->at(k));
  EXPECT_DOUBLE_EQ(f.factor(), 2.5);
}

TEST(ScaledTime, PreservesMonotony) {
  auto inner = std::make_shared<PowerLawTime>(20.0, 0.7);
  ScaledTime f(inner, 0.1);
  const MonotonyReport r = check_monotony(f, 512, 512);
  EXPECT_TRUE(r.time_nonincreasing);
  EXPECT_TRUE(r.work_nondecreasing);
}

TEST(ScaledTime, ValidatesArguments) {
  EXPECT_THROW(ScaledTime(nullptr, 2.0), std::invalid_argument);
  EXPECT_THROW(ScaledTime(std::make_shared<AmdahlTime>(1.0, 0.5), 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace moldable::jobs

namespace moldable::jobs {
namespace {

TEST(LogSpeedupTime, ValuesAndMonotony) {
  LogSpeedupTime f(60.0);
  EXPECT_DOUBLE_EQ(f.at(1), 60.0);
  EXPECT_DOUBLE_EQ(f.at(2), 30.0);
  EXPECT_DOUBLE_EQ(f.at(4), 20.0);
  const MonotonyReport r = check_monotony(f, 4096, 4096);
  EXPECT_TRUE(r.time_nonincreasing);
  EXPECT_TRUE(r.work_nondecreasing);
  EXPECT_THROW(LogSpeedupTime(0.0), std::invalid_argument);
  EXPECT_THROW(f.at(0), std::invalid_argument);
}

TEST(ProcessingTime, InverseSolvesTheClosedForm) {
  // inverse(t(k)) recovers k on each closed form's decreasing part, so
  // t(inverse(t(k))) = t(k); comm is sampled below its plateau k* = 2^13.
  const auto power_law = std::make_shared<PowerLawTime>(41.0, 0.61);
  const std::pair<const char*, PtfPtr> families[] = {
      {"amdahl", std::make_shared<AmdahlTime>(37.0, 0.73)},
      {"powerlaw", power_law},
      {"comm", std::make_shared<CommOverheadTime>(53.0, 53.0 / (8192.0 * 8192.0))},
      {"logspeed", std::make_shared<LogSpeedupTime>(60.0)},
      {"scaled", std::make_shared<ScaledTime>(power_law, 3.5)}};
  for (const auto& [name, f] : families) {
    for (procs_t k = 1; k <= 4096; k += 1 + k / 8) {
      const double x = f->inverse(f->at(k));
      EXPECT_NEAR(x, static_cast<double>(k), 1e-9 * static_cast<double>(k))
          << name << " k=" << k;
    }
  }
  // Below comm's minimum the quadratic has no real root.
  EXPECT_FALSE(std::isfinite(CommOverheadTime(53.0, 0.02).inverse(1.0)));
  // No closed form: table, rigid step and the reduction family answer NaN.
  EXPECT_TRUE(std::isnan(TableTime({4.0, 2.0, 1.5}).inverse(2.0)));
  EXPECT_TRUE(std::isnan(RigidStepTime(3.0, 64, 1e6).inverse(3.0)));
  EXPECT_TRUE(std::isnan(LinearReductionTime(512, 7).inverse(3000.0)));
}

TEST(LogSpeedupTime, GammaGrowsExponentiallyInDemandedSpeedup) {
  // Halving the target time requires squaring-ish the processor count.
  const Job j(std::make_shared<LogSpeedupTime>(100.0), procs_t{1} << 40);
  const auto g2 = j.gamma(50.0);   // speedup 2 -> 1+log2 k = 2 -> k = 2
  const auto g4 = j.gamma(25.0);   // speedup 4 -> k = 8
  ASSERT_TRUE(g2 && g4);
  EXPECT_EQ(*g2, 2);
  EXPECT_EQ(*g4, 8);
}

}  // namespace
}  // namespace moldable::jobs
