// Tests for instance generators: determinism, monotony of every produced
// family, and the known-optimum constructions used by quality tests.
#include <gtest/gtest.h>

#include <limits>

#include "src/jobs/generators.hpp"

namespace moldable::jobs {
namespace {

class FamilyTest : public ::testing::TestWithParam<Family> {};

TEST_P(FamilyTest, ProducesRequestedShape) {
  const Family fam = GetParam();
  const procs_t m = (fam == Family::kTable) ? 256 : 4096;
  const Instance inst = make_instance(fam, 24, m, 7);
  EXPECT_EQ(inst.size(), 24u);
  EXPECT_EQ(inst.machines(), m);
  EXPECT_EQ(inst.name(), family_name(fam));
}

TEST_P(FamilyTest, AllJobsMonotone) {
  const Family fam = GetParam();
  const procs_t m = (fam == Family::kTable) ? 128 : 1024;
  const Instance inst = make_instance(fam, 16, m, 11);
  EXPECT_EQ(inst.first_non_monotone(), -1);
}

TEST_P(FamilyTest, DeterministicInSeed) {
  const Family fam = GetParam();
  const procs_t m = (fam == Family::kTable) ? 64 : 512;
  const Instance a = make_instance(fam, 10, m, 1234);
  const Instance b = make_instance(fam, 10, m, 1234);
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_DOUBLE_EQ(a.job(j).t1(), b.job(j).t1());
    EXPECT_DOUBLE_EQ(a.job(j).tmin(), b.job(j).tmin());
    EXPECT_DOUBLE_EQ(a.job(j).time(m / 2), b.job(j).time(m / 2));
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilyTest, ::testing::ValuesIn(all_families()),
                         [](const auto& info) { return family_name(info.param); });

// kIdentical is same-seed-invariant by design, so the seed-variation
// property gets its own suite over the varied families only (keeps default
// ctest runs free of by-design skips).
class VariedFamilyTest : public ::testing::TestWithParam<Family> {};

std::vector<Family> varied_families() {
  std::vector<Family> out;
  for (Family f : all_families())
    if (f != Family::kIdentical) out.push_back(f);
  return out;
}

TEST_P(VariedFamilyTest, SeedsProduceDifferentInstances) {
  const Family fam = GetParam();
  const procs_t m = (fam == Family::kTable) ? 64 : 512;
  const Instance a = make_instance(fam, 10, m, 1);
  const Instance b = make_instance(fam, 10, m, 2);
  bool any_diff = false;
  for (std::size_t j = 0; j < a.size(); ++j)
    if (a.job(j).t1() != b.job(j).t1()) any_diff = true;
  EXPECT_TRUE(any_diff);
}

INSTANTIATE_TEST_SUITE_P(VariedFamilies, VariedFamilyTest,
                         ::testing::ValuesIn(varied_families()),
                         [](const auto& info) { return family_name(info.param); });

TEST(Generators, TableFamilyRefusesHugeM) {
  EXPECT_THROW(make_instance(Family::kTable, 4, procs_t{1} << 20, 3),
               std::invalid_argument);
}

TEST(Generators, ClosedFormFamiliesAcceptHugeM) {
  const Instance inst = make_instance(Family::kMixed, 8, procs_t{1} << 40, 3);
  EXPECT_EQ(inst.machines(), procs_t{1} << 40);
  EXPECT_GT(inst.job(0).time(procs_t{1} << 39), 0.0);
}

TEST(RandomMonotoneTable, SatisfiesBothProperties) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto t = random_monotone_table(100, 50.0, seed);
    ASSERT_EQ(t.size(), 100u);
    EXPECT_DOUBLE_EQ(t[0], 50.0);
    for (std::size_t k = 1; k < t.size(); ++k) {
      EXPECT_LE(t[k], t[k - 1] * (1 + 1e-12)) << "P1 at k=" << k;
      const double w0 = static_cast<double>(k) * t[k - 1];
      const double w1 = static_cast<double>(k + 1) * t[k];
      EXPECT_GE(w1, w0 * (1 - 1e-12)) << "P2 at k=" << k;
    }
  }
}

TEST(PerfectTiling, HasKnownOptimum) {
  const Instance inst = perfect_tiling_instance(16, 3.5);
  EXPECT_EQ(inst.size(), 16u);
  EXPECT_EQ(inst.machines(), 16);
  // Area bound equals the single-job time: OPT = 3.5 exactly.
  EXPECT_DOUBLE_EQ(inst.area_bound(), 3.5);
  EXPECT_DOUBLE_EQ(inst.min_time_bound(), 3.5);
  EXPECT_DOUBLE_EQ(inst.trivial_lower_bound(), 3.5);
}

TEST(Instance, BoundsAndValidation) {
  const Instance inst = make_instance(Family::kAmdahl, 12, 64, 5);
  EXPECT_GT(inst.trivial_lower_bound(), 0);
  EXPECT_GE(inst.trivial_lower_bound(), inst.area_bound());
  EXPECT_GE(inst.trivial_lower_bound(), inst.min_time_bound());
  EXPECT_THROW(Instance({}, 0), std::invalid_argument);
  // Jobs bound to a different m are rejected.
  const Instance other = make_instance(Family::kAmdahl, 1, 32, 5);
  std::vector<Job> mixed = {inst.job(0), other.job(0)};
  EXPECT_THROW(Instance(std::move(mixed), 64), std::invalid_argument);
}

TEST(Instance, HugeFootprintIsInfeasible) {
  // ceil(mem / capacity) past 2^63 (1e300, and inf after an overflowing
  // division) must not reach the integer cast: any count past m is
  // infeasible and reads m + 1.
  for (const double mem : {1e18, 1e19, 1e300}) {
    Instance inst = make_instance(Family::kAmdahl, 1, 4, 5);
    inst.set_memory_capacity(1);
    inst.set_job_memory({mem});
    EXPECT_EQ(inst.min_feasible_allotment(0), inst.machines() + 1) << mem;
    EXPECT_EQ(inst.memory_lower_bound(), std::numeric_limits<double>::infinity()) << mem;
  }
  Instance tiny_capacity = make_instance(Family::kAmdahl, 1, 4, 5);
  tiny_capacity.set_memory_capacity(1e-300);
  tiny_capacity.set_job_memory({1e300});  // the ratio overflows to inf
  EXPECT_EQ(tiny_capacity.min_feasible_allotment(0), tiny_capacity.machines() + 1);
  // At the largest machine count an instance may have, m + 1 still fits.
  Instance widest = make_instance(Family::kAmdahl, 1, kMaxMachines, 5);
  widest.set_memory_capacity(1);
  widest.set_job_memory({1e300});
  EXPECT_EQ(widest.min_feasible_allotment(0), kMaxMachines + 1);
  EXPECT_EQ(widest.memory_lower_bound(), std::numeric_limits<double>::infinity());
}

TEST(Generators, HighVarianceContainsGiantsAndDwarfs) {
  const Instance inst = make_instance(Family::kHighVariance, 200, 1024, 17);
  double lo = 1e18, hi = 0;
  for (const Job& j : inst.jobs()) {
    lo = std::min(lo, j.t1());
    hi = std::max(hi, j.t1());
  }
  EXPECT_GT(hi / lo, 1e3);  // spread of several orders of magnitude
}

TEST(Generators, SequentialOnlyHasConstantTimes) {
  const Instance inst = make_instance(Family::kSequentialOnly, 10, 256, 23);
  for (const Job& j : inst.jobs()) EXPECT_DOUBLE_EQ(j.t1(), j.tmin());
}

}  // namespace
}  // namespace moldable::jobs
