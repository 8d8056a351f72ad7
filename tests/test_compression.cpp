// Tests for the compression lemmas (Lemma 4 / Lemma 16) across oracle
// families and compression factors.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/core/compression.hpp"
#include "src/jobs/generators.hpp"
#include "src/knapsack/bounded.hpp"

namespace moldable::core {
namespace {

using jobs::Family;
using jobs::Instance;
using jobs::make_instance;

struct CompressionCase {
  Family family;
  double rho;
};

class CompressionSweep : public ::testing::TestWithParam<CompressionCase> {};

TEST_P(CompressionSweep, Lemma4BoundHolds) {
  const auto [family, rho] = GetParam();
  const procs_t m = family == Family::kTable ? 2048 : 1 << 16;
  const Instance inst = make_instance(family, 10, m, 99);
  const auto bmin = static_cast<procs_t>(std::ceil(1.0 / rho));
  for (const jobs::Job& job : inst.jobs()) {
    for (procs_t b = bmin; b <= m; b = b * 2 + 1) {
      const CompressionResult r = compress(job, b, rho);
      // Freed processors: at least ceil(b * rho).
      EXPECT_LE(r.new_procs,
                b - static_cast<procs_t>(std::ceil(static_cast<double>(b) * rho)));
      EXPECT_GE(r.new_procs, 1);
      // Lemma 4: time inflation at most 1 + 4 rho (checked inside compress
      // too; re-assert here for the bench-visible quantity).
      EXPECT_LE(r.inflation, 1 + 4 * rho + 1e-9);
      EXPECT_GE(r.inflation, 1 - 1e-9);  // times are non-increasing in procs
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndFactors, CompressionSweep,
    ::testing::Values(CompressionCase{Family::kAmdahl, 0.25},
                      CompressionCase{Family::kAmdahl, 0.05},
                      CompressionCase{Family::kPowerLaw, 0.25},
                      CompressionCase{Family::kPowerLaw, 0.1},
                      CompressionCase{Family::kCommOverhead, 0.2},
                      CompressionCase{Family::kTable, 0.125},
                      CompressionCase{Family::kMixed, 0.0625}),
    [](const auto& info) {
      return jobs::family_name(info.param.family) + "_rho" +
             std::to_string(static_cast<int>(info.param.rho * 1000));
    });

TEST(Compression, ValidatesArguments) {
  const Instance inst = make_instance(Family::kAmdahl, 1, 1024, 1);
  const jobs::Job& job = inst.job(0);
  EXPECT_THROW(compress(job, 100, 0.3), std::invalid_argument);   // rho > 1/4
  EXPECT_THROW(compress(job, 100, 0.0), std::invalid_argument);   // rho <= 0
  EXPECT_THROW(compress(job, 3, 0.25), std::invalid_argument);    // b < 1/rho
  EXPECT_THROW(compress(job, 2048, 0.25), std::invalid_argument); // b > m
}

TEST(Compression, ExactBoundaryCase) {
  // b = 1/rho exactly: frees exactly one processor.
  const Instance inst = make_instance(Family::kPowerLaw, 1, 64, 2);
  const CompressionResult r = compress(inst.job(0), 8, 0.125);
  EXPECT_EQ(r.new_procs, 7);
}

TEST(Lemma16, ParameterIdentities) {
  // The (rho, b) Algorithm 3 runs with: BoundedRounding::make's.
  for (double delta : {0.01, 0.1, 0.5, 1.0}) {
    const auto r = knapsack::BoundedRounding::make(1.0, delta, 1024);
    // (1 + 4 rho)^2 = 1 + delta.
    EXPECT_NEAR((1 + 4 * r.rho) * (1 + 4 * r.rho), 1 + delta, 1e-12);
    // b = 1/(2 rho - rho^2), the inverse of the compression factor.
    EXPECT_NEAR(r.b * (2 * r.rho - r.rho * r.rho), 1.0, 1e-12);
    // Lemma 16's asymptotics: rho = Theta(delta), b = Theta(1/delta).
    EXPECT_GE(r.rho, delta / 12);
    EXPECT_LE(r.rho, delta / 4);
  }
  EXPECT_THROW(knapsack::BoundedRounding::make(1.0, 0.0, 1024), std::invalid_argument);
  EXPECT_THROW(knapsack::BoundedRounding::make(1.0, 1.5, 1024), std::invalid_argument);
}

TEST(Lemma16, DoubleCompressionWithinDelta) {
  // Compressing with factor 1/b = 2 rho - rho^2 inflates time by < 1 + delta.
  const double delta = 0.4;
  const Instance inst = make_instance(Family::kMixed, 8, 1 << 14, 5);
  const auto r = knapsack::BoundedRounding::make(1.0, delta, inst.machines());
  for (const jobs::Job& job : inst.jobs()) {
    const auto b = static_cast<procs_t>(std::ceil(r.b)) * 4;
    const CompressionResult c = compress(job, b, 1 / r.b);
    EXPECT_LT(c.inflation, 1 + delta + 1e-9);
    // Processor shrink factor is at least (1 - rho)^2 - rounding slack.
    EXPECT_LE(static_cast<double>(c.new_procs),
              (1 - r.rho) * (1 - r.rho) * static_cast<double>(b) + 1);
  }
}

}  // namespace
}  // namespace moldable::core
