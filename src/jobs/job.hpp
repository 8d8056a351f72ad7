// Job: a moldable job bound to a machine count m, with the derived
// quantities the paper's algorithms use everywhere:
//
//   time(k)   = t_j(k)                        (oracle access)
//   work(k)   = k * t_j(k)                    (the monotone quantity)
//   gamma(t)  = min{ p in [m] : t_j(p) <= t } (canonical allotment;
//                Section 3, also Mounié-Rapine-Trystram)
//
// The paper finds gamma by binary search over [1, m] in O(log m) oracle
// probes ("Note that gamma_j(t) can be found in time O(log m) by binary
// search"). Here the oracle's closed-form inverse (ProcessingTimeFunction::
// inverse) names the answer first, and two probes certify it; the paper's
// binary search is the fallback and finishes whatever bracket the probes
// leave, and oracles without an inverse (tables) run it alone.
// Both rely on property (P1) (non-increasing times): when the probed
// predicate is monotone in k, which the binary search already assumes, the
// certified answer is the one the binary search returns. Behaviour is
// unspecified for oracles violating (P1).
#pragma once

#include <optional>
#include <string>

#include "src/jobs/processing_time.hpp"
#include "src/util/common.hpp"

namespace moldable::jobs {

class Job {
 public:
  /// Binds the oracle to the machine count `m` (> 0). t(1) and t(m) are
  /// cached eagerly: nearly every algorithm begins by classifying jobs by
  /// t_j(1) (small vs big) and t_j(m) (feasibility of a deadline).
  Job(PtfPtr f, procs_t m, std::string name = {});

  /// t_j(k); requires 1 <= k <= m.
  double time(procs_t k) const;

  /// w_j(k) = k * t_j(k).
  double work(procs_t k) const { return static_cast<double>(k) * time(k); }

  /// gamma_j(t): least processor count whose time is <= t, or nullopt when
  /// even m processors are too slow (t < t_j(m)). Two oracle probes when
  /// the oracle's inverse names the answer, O(log m) otherwise.
  std::optional<procs_t> gamma(double t) const;

  /// Largest k with t_j(k) >= t, or 0 when t > t_j(1). Companion search
  /// used by the estimator's breakpoint narrowing; probes as gamma does.
  procs_t last_at_least(double t) const;

  procs_t machines() const { return m_; }
  double t1() const { return t1_; }       ///< cached t_j(1)
  double tmin() const { return tm_; }     ///< cached t_j(m), the fastest time
  const std::string& name() const { return name_; }
  const ProcessingTimeFunction& oracle() const { return *f_; }

 private:
  PtfPtr f_;
  procs_t m_;
  double t1_;
  double tm_;
  std::string name_;
};

}  // namespace moldable::jobs
