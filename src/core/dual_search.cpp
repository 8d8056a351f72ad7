#include "src/core/dual_search.hpp"

#include <stdexcept>

#include "src/util/common.hpp"

namespace moldable::core {

DualSearchResult dual_search(const DualFn& dual, double omega, double eps_search) {
  if (!(omega > 0)) throw std::invalid_argument("dual_search: omega must be positive");
  if (!(eps_search > 0)) throw std::invalid_argument("dual_search: eps must be positive");

  DualSearchResult res;
  res.lower_bound = omega;
  double lo = omega;  // OPT >= omega always; raised on every rejection

  // Probe first: an accepted d <= (1 + eps_search) omega already meets the
  // contract. When the probe reaches 2 omega the bracket is that narrow
  // already, and the 2 omega call below is the whole search.
  const double probe = (1 + eps_search) * omega;
  if (probe < 2 * omega) {
    DualOutcome out = dual(probe);
    ++res.dual_calls;
    if (out.accepted) {
      res.schedule = std::move(out.schedule);
      res.d_accepted = probe;
      return res;
    }
    lo = probe;  // rejection certifies OPT > probe
    res.lower_bound = probe;
  }

  // The estimator guarantees OPT <= 2 omega, so a correct dual must accept
  // d = 2 omega. Retry with small head-room to absorb floating-point edge
  // cases before declaring the dual broken.
  double hi = 2 * omega;
  DualOutcome top;
  int attempts = 0;
  for (;;) {
    top = dual(hi);
    ++res.dual_calls;
    if (top.accepted) break;
    if (++attempts > 8)
      throw internal_error("dual_search: dual rejected 2*omega repeatedly");
    hi *= 1.01;
  }
  res.schedule = std::move(top.schedule);
  res.d_accepted = hi;

  while (hi > lo * (1 + eps_search)) {
    const double mid = 0.5 * (lo + hi);
    DualOutcome out = dual(mid);
    ++res.dual_calls;
    if (out.accepted) {
      hi = mid;
      res.schedule = std::move(out.schedule);
      res.d_accepted = mid;
    } else {
      lo = mid;  // rejection certifies OPT > mid
      res.lower_bound = mid;
    }
  }
  return res;
}

}  // namespace moldable::core
