// Processing-time oracles for moldable jobs (the paper's compact encoding).
//
// The paper assumes "the running times t_j(k) can be accessed via some oracle
// in constant time" (Section 1). This header defines that oracle interface
// and the closed-form families used throughout the tests, examples and
// benchmarks. Every family documents whether it satisfies the two standing
// assumptions of the paper:
//
//   (P1) non-increasing processing time:  t(k+1) <= t(k), and
//   (P2) monotone (non-decreasing) work:  w(k) = k * t(k) <= w(k+1).
//
// All of the paper's algorithms require (P1) and (P2); the rigid step family
// below deliberately violates (P2) — it models the parallel-job reduction
// mentioned in the introduction and is used only to exercise validators.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "src/util/common.hpp"

namespace moldable::jobs {

/// Constant-time oracle for t(k), k >= 1. Implementations must be pure
/// (same k -> same value) and thread-compatible for const access.
class ProcessingTimeFunction {
 public:
  virtual ~ProcessingTimeFunction() = default;

  /// Processing time on k processors; requires k >= 1. Values must be
  /// finite and strictly positive for all k the instance exposes.
  virtual double at(procs_t k) const = 0;

  /// The real x with t(x) = t on the curve's decreasing part, or NaN when
  /// the family has no closed form (the default). Only a hint: `Job` names
  /// its gamma / last_at_least answer from it and certifies that answer
  /// with two `at` probes, so a wrong value (off by any amount, NaN, +-inf)
  /// costs probes but never changes a result. Must not throw.
  virtual double inverse(double /*t*/) const {
    return std::numeric_limits<double>::quiet_NaN();
  }
};

using PtfPtr = std::shared_ptr<const ProcessingTimeFunction>;

// ---------------------------------------------------------------------------
// Closed-form families (compact encoding: O(1) words each, any m up to 2^62).
// ---------------------------------------------------------------------------

/// Amdahl's law: t(k) = t1 * ((1 - f) + f / k), with parallelizable
/// fraction f in [0, 1]. Satisfies (P1) and (P2):
///   w(k) = t1 * ((1 - f) k + f) is non-decreasing in k.
class AmdahlTime final : public ProcessingTimeFunction {
 public:
  AmdahlTime(double t1, double parallel_fraction);
  double at(procs_t k) const override;
  double inverse(double t) const override;  ///< f / (t/t1 - (1 - f))

  double t1() const { return t1_; }
  double parallel_fraction() const { return f_; }

 private:
  double t1_;
  double f_;
};

/// Power-law speedup: t(k) = t1 / k^alpha with alpha in (0, 1].
/// (P1) holds; (P2) holds since w(k) = t1 * k^(1-alpha) is non-decreasing
/// (constant for alpha = 1, the perfectly-parallel edge case).
class PowerLawTime final : public ProcessingTimeFunction {
 public:
  PowerLawTime(double t1, double alpha);
  double at(procs_t k) const override;
  double inverse(double t) const override;  ///< (t1/t)^(1/alpha)

  double t1() const { return t1_; }
  double alpha() const { return alpha_; }

 private:
  double t1_;
  double alpha_;
};

/// Communication-overhead model: raw(k) = t1 / k + c * (k - 1). The raw
/// curve eventually increases; to satisfy (P1) the function plateaus at the
/// minimizing processor count k* = round(sqrt(t1 / c)):
///     t(k) = raw(min(k, k*)).
/// (P2) holds: for k <= k*, w(k) = t1 + c k (k-1) is increasing; beyond the
/// plateau t is constant so w grows linearly.
class CommOverheadTime final : public ProcessingTimeFunction {
 public:
  CommOverheadTime(double t1, double comm_cost);
  double at(procs_t k) const override;
  /// The smaller root of c k^2 - (t + c) k + t1 = 0 (raw's decreasing
  /// branch); NaN when t is below raw's minimum (negative discriminant).
  double inverse(double t) const override;

  procs_t plateau() const { return kstar_; }
  double t1() const { return t1_; }
  double comm_cost() const { return c_; }

 private:
  double t1_;
  double c_;
  procs_t kstar_;
};

/// The NP-hardness reduction family (Section 2, proof of Theorem 1):
/// t(k) = M * a - k + 1 on m = M machines. Strictly decreasing, and by
/// Eq. (1) of the paper strictly monotone in work provided M * a >= 2 M,
/// i.e. a >= 2. Only valid for k <= M (the reduction never evaluates
/// beyond m = M).
class LinearReductionTime final : public ProcessingTimeFunction {
 public:
  LinearReductionTime(std::int64_t machines, std::int64_t a);
  double at(procs_t k) const override;

  std::int64_t a() const { return a_; }
  std::int64_t machines() const { return m_; }

 private:
  std::int64_t m_;
  std::int64_t a_;
};

// ---------------------------------------------------------------------------
// Explicit-table family (the traditional non-compact encoding).
// ---------------------------------------------------------------------------

/// Table of t(1..m) given explicitly; Theta(m) memory by design — this is
/// the encoding most prior work assumes, kept as a baseline and for exact
/// randomized monotone instances in tests. The constructor validates (P1)
/// and, when `require_monotone_work`, (P2).
class TableTime final : public ProcessingTimeFunction {
 public:
  explicit TableTime(std::vector<double> times, bool require_monotone_work = true);
  double at(procs_t k) const override;

  procs_t max_procs() const { return static_cast<procs_t>(times_.size()); }
  const std::vector<double>& values() const { return times_; }

 private:
  std::vector<double> times_;
};

/// Rigid ("parallel job") step function from the introduction's reduction:
/// t(k) = t for k >= size, and a large penalty otherwise. Satisfies (P1)
/// but NOT (P2) (work decreases until k = size). Provided to exercise the
/// monotony validators and as a substrate for rigid-job list scheduling.
class RigidStepTime final : public ProcessingTimeFunction {
 public:
  RigidStepTime(double time, procs_t size, double penalty);
  double at(procs_t k) const override;

  procs_t size() const { return size_; }
  double time() const { return time_; }
  double penalty() const { return penalty_; }

 private:
  double time_;
  procs_t size_;
  double penalty_;
};

/// Logarithmic speedup: t(k) = t1 / (1 + log2 k) — the pathologically
/// badly-scaling end of the moldable spectrum (e.g. pipelines limited by a
/// reduction tree). (P1): log2 k is increasing. (P2): w(k) = t1 * k /
/// (1 + log2 k) is increasing for k >= 1 since k grows faster than any
/// logarithm. Useful to stress the schedulers' narrow-job paths: gamma
/// grows exponentially in the demanded speedup.
class LogSpeedupTime final : public ProcessingTimeFunction {
 public:
  explicit LogSpeedupTime(double t1);
  double at(procs_t k) const override;
  double inverse(double t) const override;  ///< 2^(t1/t - 1)

  double t1() const { return t1_; }

 private:
  double t1_;
};

/// Decorator scaling another oracle's times by a positive constant c.
/// Preserves (P1) and (P2) trivially; used for metamorphic testing and for
/// calibrating synthetic workloads to a target load without regenerating.
class ScaledTime final : public ProcessingTimeFunction {
 public:
  ScaledTime(PtfPtr inner, double factor);
  double at(procs_t k) const override;
  double inverse(double t) const override;  ///< inner's inverse at t / c

  double factor() const { return c_; }
  const PtfPtr& inner() const { return inner_; }

 private:
  PtfPtr inner_;
  double c_;
};

// ---------------------------------------------------------------------------
// Monotony validation helpers.
// ---------------------------------------------------------------------------

/// Checks (P1)/(P2) for all k in [1, m] when m <= exhaustive_limit; for
/// larger m probes a deterministic sample (powers of two, boundaries, and
/// `samples` pseudo-random points derived from `seed`). Returns true when
/// no violation was observed. A sampled "true" is evidence, not proof —
/// closed-form families are proven in their class comments instead.
struct MonotonyReport {
  bool time_nonincreasing = true;
  bool work_nondecreasing = true;
  procs_t first_violation = 0;  // 0 when none observed
};

MonotonyReport check_monotony(const ProcessingTimeFunction& f, procs_t m,
                              procs_t exhaustive_limit = 4096, int samples = 512,
                              std::uint64_t seed = 0xC0FFEE);

}  // namespace moldable::jobs
