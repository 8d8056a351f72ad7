// Tests for the Hochbaum-Shmoys dual-approximation search: the probe at
// (1+eps) omega, then bisection over [(1+eps) omega, 2 omega].
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "src/core/dual_search.hpp"

namespace moldable::core {
namespace {

// Synthetic dual: accepts iff d >= opt, returning a one-assignment schedule
// whose makespan is c * d.
DualFn synthetic_dual(double opt, double c, int* calls = nullptr) {
  return [=](double d) {
    if (calls) ++*calls;
    if (d < opt) return DualOutcome::reject();
    sched::Schedule s;
    s.add({0, 0.0, 1, c * d});
    return DualOutcome::accept(std::move(s));
  };
}

TEST(DualSearch, ConvergesToOpt) {
  const double opt = 7.3;
  const DualSearchResult r = dual_search(synthetic_dual(opt, 1.5), opt / 1.9, 0.01);
  EXPECT_LE(r.d_accepted, opt * 1.011);
  EXPECT_GE(r.d_accepted, opt * (1 - 1e-9));
  EXPECT_LE(r.schedule.makespan(), 1.5 * opt * 1.011);
  EXPECT_LE(r.lower_bound, opt);
}

TEST(DualSearch, CallCountLogarithmic) {
  for (double eps : {0.5, 0.1, 0.01, 0.001}) {
    int calls = 0;
    const double opt = 10.0;
    dual_search(synthetic_dual(opt, 1.0, &calls), opt / 2, eps);
    EXPECT_LE(calls, static_cast<int>(std::ceil(std::log2(1.0 / eps))) + 4) << eps;
  }
}

TEST(DualSearch, AcceptsAtTwoOmegaImmediately) {
  // If OPT == 2*omega the probe at (1+eps) omega is rejected, and the
  // second call, at 2 omega, must accept (dual contract).
  const double opt = 4.0, omega = 2.0, eps = 0.25;
  std::vector<std::pair<double, bool>> calls;
  const DualFn inner = synthetic_dual(opt, 1.0);
  const DualFn logged = [&](double d) {
    DualOutcome out = inner(d);
    calls.emplace_back(d, out.accepted);
    return out;
  };
  const DualSearchResult r = dual_search(logged, omega, eps);
  ASSERT_GE(calls.size(), 2u);
  EXPECT_EQ(calls[0], std::make_pair((1 + eps) * omega, false));
  EXPECT_EQ(calls[1], std::make_pair(2 * omega, true));
  EXPECT_GE(r.d_accepted, opt * (1 - 1e-9));
}

TEST(DualSearch, ProbeAcceptsInOneCall) {
  // OPT within (1+eps) omega: the probe accepts and ends the search, with
  // the estimator's omega as the bound.
  const double omega = 2.0, eps = 0.25;
  int calls = 0;
  const DualSearchResult r = dual_search(synthetic_dual(2.3, 1.5, &calls), omega, eps);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(r.dual_calls, 1);
  EXPECT_DOUBLE_EQ(r.d_accepted, (1 + eps) * omega);
  EXPECT_DOUBLE_EQ(r.lower_bound, omega);
  EXPECT_DOUBLE_EQ(r.schedule.makespan(), 1.5 * (1 + eps) * omega);
}

TEST(DualSearch, RejectedProbeFallsBackToBisection) {
  // A stub dual that rejects below 1.7 omega: the rejected probe is a
  // certified bound, and the bisection still meets the contract.
  const double omega = 3.0;
  for (double eps : {0.5, 0.25, 0.1, 0.01}) {
    int calls = 0;
    const DualSearchResult r = dual_search(synthetic_dual(1.7 * omega, 1.0, &calls), omega, eps);
    EXPECT_GE(r.lower_bound, (1 + eps) * omega) << eps;
    EXPECT_LE(r.lower_bound, 1.7 * omega) << eps;
    EXPECT_GE(r.d_accepted, 1.7 * omega * (1 - 1e-12)) << eps;
    EXPECT_LE(r.d_accepted, (1 + eps) * r.lower_bound * (1 + 1e-12)) << eps;
    EXPECT_EQ(r.dual_calls, calls) << eps;
    EXPECT_GE(calls, 2) << eps;
  }
}

TEST(DualSearch, ThrowsWhenDualBroken) {
  // A dual rejecting everything violates its contract at 2*omega.
  const DualFn broken = [](double) { return DualOutcome::reject(); };
  EXPECT_THROW(dual_search(broken, 1.0, 0.1), internal_error);
}

TEST(DualSearch, ValidatesArguments) {
  EXPECT_THROW(dual_search(synthetic_dual(1, 1), 0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(dual_search(synthetic_dual(1, 1), 1.0, 0.0), std::invalid_argument);
}

TEST(DualSearch, LowerBoundRaisedByRejections) {
  const double opt = 1.9;
  const DualSearchResult r = dual_search(synthetic_dual(opt, 1.0), 1.0, 0.001);
  // omega = 1: OPT = 1.9 close to 2*omega: many rejections raise the bound.
  EXPECT_GE(r.lower_bound, opt * 0.99);
  EXPECT_LE(r.lower_bound, opt);
}

}  // namespace
}  // namespace moldable::core
