#include "src/jobs/processing_time.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/util/prng.hpp"

namespace moldable::jobs {

// ---------------------------------------------------------------- Amdahl ---

AmdahlTime::AmdahlTime(double t1, double parallel_fraction)
    : t1_(t1), f_(parallel_fraction) {
  if (!(t1 > 0)) throw std::invalid_argument("AmdahlTime: t1 must be positive");
  if (f_ < 0 || f_ > 1) throw std::invalid_argument("AmdahlTime: fraction must be in [0,1]");
}

double AmdahlTime::at(procs_t k) const {
  if (k < 1) throw std::invalid_argument("AmdahlTime::at: k must be >= 1");
  return t1_ * ((1.0 - f_) + f_ / static_cast<double>(k));
}

double AmdahlTime::inverse(double t) const { return f_ / (t / t1_ - (1.0 - f_)); }

// ------------------------------------------------------------- power law ---

PowerLawTime::PowerLawTime(double t1, double alpha) : t1_(t1), alpha_(alpha) {
  if (!(t1 > 0)) throw std::invalid_argument("PowerLawTime: t1 must be positive");
  if (!(alpha > 0) || alpha > 1)
    throw std::invalid_argument("PowerLawTime: alpha must be in (0,1]");
}

double PowerLawTime::at(procs_t k) const {
  if (k < 1) throw std::invalid_argument("PowerLawTime::at: k must be >= 1");
  return t1_ * std::pow(static_cast<double>(k), -alpha_);
}

double PowerLawTime::inverse(double t) const { return std::pow(t1_ / t, 1.0 / alpha_); }

// ---------------------------------------------------- communication model ---

CommOverheadTime::CommOverheadTime(double t1, double comm_cost)
    : t1_(t1), c_(comm_cost) {
  if (!(t1 > 0)) throw std::invalid_argument("CommOverheadTime: t1 must be positive");
  if (!(comm_cost > 0)) throw std::invalid_argument("CommOverheadTime: comm_cost must be positive");
  // raw(k) = t1/k + c(k-1) is minimized over the reals at k = sqrt(t1/c);
  // pick the better of the two neighbouring integers so the plateau starts
  // exactly at the discrete minimizer. The minimizer is clamped to 2^62
  // before the cast, which is undefined past procs_t's range: a plateau
  // beyond m never binds, so only m > 2^62 sees the clamp, and t stays
  // monotone there too.
  const double kreal = std::fmin(std::sqrt(t1 / comm_cost), 0x1p62);
  procs_t lo = std::max<procs_t>(1, static_cast<procs_t>(std::floor(kreal)));
  auto raw = [&](procs_t k) {
    return t1_ / static_cast<double>(k) + c_ * static_cast<double>(k - 1);
  };
  kstar_ = (raw(lo + 1) < raw(lo)) ? lo + 1 : lo;
}

double CommOverheadTime::at(procs_t k) const {
  if (k < 1) throw std::invalid_argument("CommOverheadTime::at: k must be >= 1");
  const procs_t kk = std::min(k, kstar_);
  return t1_ / static_cast<double>(kk) + c_ * static_cast<double>(kk - 1);
}

double CommOverheadTime::inverse(double t) const {
  // Smaller root in the cancellation-free form 2 t1 / (b + sqrt(b^2 - 4 c t1)).
  const double b = t + c_;
  const double disc = b * b - 4.0 * c_ * t1_;
  if (!(disc >= 0)) return std::numeric_limits<double>::quiet_NaN();
  return 2.0 * t1_ / (b + std::sqrt(disc));
}

// ------------------------------------------------------ linear reduction ---

LinearReductionTime::LinearReductionTime(std::int64_t machines, std::int64_t a)
    : m_(machines), a_(a) {
  if (machines < 1) throw std::invalid_argument("LinearReductionTime: machines must be >= 1");
  if (a < 2)
    throw std::invalid_argument(
        "LinearReductionTime: a must be >= 2 (the reduction scales numbers so "
        "that strict work monotony, Eq. (1), holds)");
  if (a > std::numeric_limits<std::int64_t>::max() / machines)
    throw std::invalid_argument("LinearReductionTime: machines * a overflows a 64-bit integer");
}

double LinearReductionTime::at(procs_t k) const {
  if (k < 1 || k > m_)
    throw std::invalid_argument("LinearReductionTime::at: k out of [1, m]");
  return static_cast<double>(m_ * a_ - k + 1);
}

// ------------------------------------------------------------------ table ---

TableTime::TableTime(std::vector<double> times, bool require_monotone_work)
    : times_(std::move(times)) {
  if (times_.empty()) throw std::invalid_argument("TableTime: empty table");
  for (std::size_t i = 0; i < times_.size(); ++i) {
    if (!(times_[i] > 0) || !std::isfinite(times_[i]))
      throw std::invalid_argument("TableTime: times must be finite and positive");
    if (i > 0 && times_[i] > times_[i - 1] * (1 + kRelTol))
      throw std::invalid_argument("TableTime: times must be non-increasing (P1)");
    if (require_monotone_work && i > 0) {
      const double w_prev = static_cast<double>(i) * times_[i - 1];
      const double w_cur = static_cast<double>(i + 1) * times_[i];
      if (w_cur < w_prev * (1 - kRelTol))
        throw std::invalid_argument("TableTime: work must be non-decreasing (P2)");
    }
  }
}

double TableTime::at(procs_t k) const {
  if (k < 1 || k > max_procs())
    throw std::invalid_argument("TableTime::at: k out of range");
  return times_[static_cast<std::size_t>(k - 1)];
}

// ------------------------------------------------------------ rigid step ---

RigidStepTime::RigidStepTime(double time, procs_t size, double penalty)
    : time_(time), size_(size), penalty_(penalty) {
  if (!(time > 0)) throw std::invalid_argument("RigidStepTime: time must be positive");
  if (size < 1) throw std::invalid_argument("RigidStepTime: size must be >= 1");
  if (!(penalty >= time)) throw std::invalid_argument("RigidStepTime: penalty must be >= time");
}

double RigidStepTime::at(procs_t k) const {
  if (k < 1) throw std::invalid_argument("RigidStepTime::at: k must be >= 1");
  return k >= size_ ? time_ : penalty_;
}

// ----------------------------------------------------------- log speedup ---

LogSpeedupTime::LogSpeedupTime(double t1) : t1_(t1) {
  if (!(t1 > 0)) throw std::invalid_argument("LogSpeedupTime: t1 must be positive");
}

double LogSpeedupTime::at(procs_t k) const {
  if (k < 1) throw std::invalid_argument("LogSpeedupTime::at: k must be >= 1");
  return t1_ / (1.0 + std::log2(static_cast<double>(k)));
}

double LogSpeedupTime::inverse(double t) const { return std::exp2(t1_ / t - 1.0); }

// ------------------------------------------------------------ scaled time ---

ScaledTime::ScaledTime(PtfPtr inner, double factor)
    : inner_(std::move(inner)), c_(factor) {
  if (!inner_) throw std::invalid_argument("ScaledTime: null inner oracle");
  if (!(factor > 0)) throw std::invalid_argument("ScaledTime: factor must be positive");
}

double ScaledTime::at(procs_t k) const { return c_ * inner_->at(k); }

double ScaledTime::inverse(double t) const { return inner_->inverse(t / c_); }

// ---------------------------------------------------- monotony validation ---

MonotonyReport check_monotony(const ProcessingTimeFunction& f, procs_t m,
                              procs_t exhaustive_limit, int samples,
                              std::uint64_t seed) {
  MonotonyReport report;
  auto probe_pair = [&](procs_t k) {
    // Checks the transition k -> k+1.
    const double t0 = f.at(k);
    const double t1 = f.at(k + 1);
    if (t1 > t0 * (1 + kRelTol)) {
      report.time_nonincreasing = false;
      if (report.first_violation == 0) report.first_violation = k;
    }
    const double w0 = static_cast<double>(k) * t0;
    const double w1 = static_cast<double>(k + 1) * t1;
    if (w1 < w0 * (1 - kRelTol)) {
      report.work_nondecreasing = false;
      if (report.first_violation == 0) report.first_violation = k;
    }
  };

  if (m <= 1) return report;
  if (m <= exhaustive_limit) {
    for (procs_t k = 1; k < m; ++k) probe_pair(k);
    return report;
  }
  // Large m: powers of two, boundaries, and pseudo-random probes.
  for (procs_t k = 1; k < m; k *= 2) probe_pair(std::min(k, m - 1));
  probe_pair(m - 1);
  util::Prng rng(seed);
  for (int i = 0; i < samples; ++i) probe_pair(rng.uniform_int(1, m - 1));
  return report;
}

}  // namespace moldable::jobs
