#include "src/jobs/job.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace moldable::jobs {

Job::Job(PtfPtr f, procs_t m, std::string name)
    : f_(std::move(f)), m_(m), name_(std::move(name)) {
  if (!f_) throw std::invalid_argument("Job: null processing-time oracle");
  if (m_ < 1) throw std::invalid_argument("Job: machine count must be >= 1");
  t1_ = f_->at(1);
  tm_ = f_->at(m_);
}

double Job::time(procs_t k) const {
  if (k < 1 || k > m_) throw std::invalid_argument("Job::time: k out of [1, m]");
  if (k == 1) return t1_;
  if (k == m_) return tm_;
  return f_->at(k);
}

std::optional<procs_t> Job::gamma(double t) const {
  // leq_tol: deadlines are derived from sums/products of doubles; a job
  // whose time equals the deadline up to rounding must count as feasible,
  // otherwise dual algorithms would reject makespans that are achievable.
  if (!leq_tol(tm_, t)) return std::nullopt;
  if (leq_tol(t1_, t)) return 1;
  // Least k in (1, m] with time(k) <= t. Invariant: time(lo) > t and
  // time(hi) <= t (both up to leq_tol), so the answer lies in (lo, hi].
  procs_t lo = 1, hi = m_;
  const auto probe = [&](procs_t k) {  // k outside (lo, hi) is known: skip it
    if (k <= lo || k >= hi) return;
    if (leq_tol(time(k), t))
      hi = k;
    else
      lo = k;
  };
  // The oracle's inverse x names the answer: g = ceil(x), or g - 1 when x
  // came back rounded up past an integer (a breakpoint t = t(k) can invert
  // to k + ulp). Probing g - 1, then g or g - 2, certifies either one with
  // time(k) <= t < time(k - 1) in two probes. A failed certificate has
  // still narrowed the bracket, and the binary search finishes it. NaN and
  // +-inf fail the range test; x < m + 1 keeps ceil(x) castable for any m.
  const double x = f_->inverse(t);
  if (x > 1 && x < static_cast<double>(m_) + 1) {
    const procs_t g = static_cast<procs_t>(std::ceil(x));
    probe(g - 1);
    probe(lo == g - 1 ? g : g - 2);
  }
  while (hi - lo > 1) probe(lo + (hi - lo) / 2);
  return hi;
}

procs_t Job::last_at_least(double t) const {
  // Largest k with time(k) >= t (no tolerance: this is a search aid, not a
  // feasibility decision; estimator correctness only needs consistency).
  if (t1_ < t) return 0;
  if (tm_ >= t) return m_;
  procs_t lo = 1, hi = m_;  // time(lo) >= t, time(hi) < t
  const auto probe = [&](procs_t k) {
    if (k <= lo || k >= hi) return;
    if (time(k) >= t)
      lo = k;
    else
      hi = k;
  };
  // As in gamma, from the other side: the answer is g = floor(x), or g + 1
  // when x came back rounded down; probing g + 1, then g + 2 or g,
  // certifies either one with time(k) >= t > time(k + 1).
  const double x = f_->inverse(t);
  if (x >= 0 && x < static_cast<double>(m_)) {
    const procs_t g = static_cast<procs_t>(std::floor(x));
    probe(g + 1);
    probe(hi == g + 1 ? g : g + 2);
  }
  while (hi - lo > 1) probe(lo + (hi - lo) / 2);
  return lo;
}

}  // namespace moldable::jobs
