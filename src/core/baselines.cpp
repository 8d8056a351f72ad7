#include "src/core/baselines.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/core/estimator.hpp"
#include "src/sched/list_scheduler.hpp"

namespace moldable::core {

BaselineResult ludwig_tiwari_schedule(const jobs::Instance& instance) {
  BaselineResult out;
  if (instance.size() == 0) return out;
  EstimatorResult est = estimate_makespan(instance);
  out.lower_bound = est.omega;
  if (instance.memory_constrained()) {
    const procs_t m = instance.machines();
    for (std::size_t j = 0; j < instance.size(); ++j) {
      const procs_t kmin = instance.min_feasible_allotment(j);
      if (kmin > m)
        throw std::invalid_argument(
            "ludwig_tiwari_schedule: job " + std::to_string(j) +
            " is memory-infeasible: needs more than the " + std::to_string(m) +
            " machines that exist");
      if (est.allotment[j] < kmin) est.allotment[j] = kmin;
    }
    out.lower_bound = std::max(est.omega, instance.memory_lower_bound());
  }
  out.schedule = sched::list_schedule(instance, est.allotment);
  return out;
}

BaselineResult sequential_schedule(const jobs::Instance& instance) {
  BaselineResult out;
  if (instance.size() == 0) return out;
  const std::vector<procs_t> allotment(instance.size(), 1);
  out.schedule = sched::list_schedule(instance, allotment);
  out.lower_bound = instance.trivial_lower_bound();
  return out;
}

BaselineResult equal_share_schedule(const jobs::Instance& instance) {
  BaselineResult out;
  if (instance.size() == 0) return out;
  const procs_t share =
      std::max<procs_t>(1, instance.machines() / static_cast<procs_t>(instance.size()));
  const std::vector<procs_t> allotment(instance.size(), share);
  out.schedule = sched::list_schedule(instance, allotment);
  out.lower_bound = instance.trivial_lower_bound();
  return out;
}

}  // namespace moldable::core
