// The dual-approximation framework of Hochbaum & Shmoys [8] (Section 3):
// a c-dual algorithm — given deadline d it either returns a schedule of
// makespan <= c*d or correctly reports that no schedule of makespan d
// exists — combined with a 2-estimator yields a c(1+eps)-approximation with
// O(log 1/eps) dual calls. The search probes d = (1+eps) omega first: an
// accepted probe already meets the guarantee, in one call. A rejected probe
// certifies OPT > (1+eps) omega, and the search then bisects d over
// [(1+eps) omega, 2 omega].
#pragma once

#include <functional>
#include <optional>

#include "src/sched/schedule.hpp"

namespace moldable::core {

struct DualOutcome {
  bool accepted = false;
  sched::Schedule schedule;  ///< valid iff accepted

  static DualOutcome reject() { return {}; }
  static DualOutcome accept(sched::Schedule s) { return {true, std::move(s)}; }
};

/// A dual algorithm: may reject only when no schedule of makespan d exists.
using DualFn = std::function<DualOutcome(double d)>;

struct DualSearchResult {
  sched::Schedule schedule;  ///< the dual's schedule at d_accepted
  double d_accepted = 0;     ///< an accepted d <= (1+eps_search) lower_bound
  double lower_bound = 0;    ///< omega, raised by each rejection; <= OPT
  int dual_calls = 0;
};

/// Calls the dual at d = (1+eps_search) omega and returns if it accepts;
/// otherwise that d becomes the lower bound, and the search calls the dual
/// at 2 omega and bisects until the bracket is within a factor
/// (1+eps_search). Returns the schedule of an accepted d <= (1+eps_search)
/// lower_bound, with lower_bound <= OPT, so a c-dual's schedule has
/// makespan <= c (1+eps_search) lower_bound <= c (1+eps_search) OPT — the
/// claim Scheduler.EveryBuiltinCertifiesItsGuarantee enforces. The probe
/// costs one extra call when it is rejected.
/// Requires omega > 0 (use an empty schedule directly for empty instances).
DualSearchResult dual_search(const DualFn& dual, double omega, double eps_search);

}  // namespace moldable::core
