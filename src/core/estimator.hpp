// The Ludwig-Tiwari estimation algorithm (Section 3 / [18]).
//
// For an allotment a let A(a) = (1/m) sum_j w_j(a_j) (average work) and
// T(a) = max_j t_j(a_j). Both are lower bounds on the makespan of any
// schedule with allotment a, so
//     omega = min_a max(A(a), T(a)) <= OPT,
// and conversely Graham-style list scheduling of the minimizing allotment
// has makespan <= 2 max(A, T), giving OPT <= 2 omega: an estimation ratio
// of 2. (Eq. (2) of the paper prints "min" of the two quantities; the
// quantity that makes the estimator work — and what [18] computes — is the
// max, which is what we implement.)
//
// For monotone jobs the minimizing allotment can be restricted to the
// canonical family a_j = gamma_j(tau): fixing the time threshold tau, the
// work-minimal allotment meeting it is gamma_j(tau). A(tau) is then
// non-increasing and T(tau) non-decreasing in tau, so the optimum sits at a
// breakpoint tau in {t_j(k)}. We locate it by parametric search over the n
// per-job candidate ranges using weighted-median pivots: O(log(nm)) rounds,
// each computing gamma_j(tau) once per job (the narrowing reuses those
// values) and last_at_least once per job on the way down. With gamma's
// O(log m) binary search that is O(n log m log(nm)) oracle work, matching
// the O(n log^2 m) budget the paper allots to this step; on the
// closed-form oracles, whose inverse lets Job certify gamma in two probes,
// it is O(n log(nm)).
#pragma once

#include <vector>

#include "src/jobs/instance.hpp"
#include "src/util/common.hpp"

namespace moldable::core {

struct EstimatorResult {
  double omega = 0;      ///< min over breakpoints of max(A, T); omega <= OPT <= 2 omega
  double threshold = 0;  ///< the minimizing tau
  double avg_work = 0;   ///< A at the optimum
  double max_time = 0;   ///< T at the optimum
  std::vector<procs_t> allotment;  ///< gamma_j(threshold)
  int evaluations = 0;   ///< number of threshold evaluations (diagnostics)
};

/// Runs the estimator. Requires a non-empty instance with monotone jobs.
EstimatorResult estimate_makespan(const jobs::Instance& instance);

}  // namespace moldable::core
