#include "src/core/scheduler.hpp"

#include <stdexcept>

#include "src/core/baselines.hpp"
#include "src/core/bounded_sched.hpp"
#include "src/core/compressible_sched.hpp"
#include "src/core/estimator.hpp"
#include "src/core/exact.hpp"
#include "src/core/fptas.hpp"
#include "src/core/mrt.hpp"

namespace moldable::core {

namespace {

/// Theorem 2's regime: the FPTAS's rejections are sound.
bool fptas_regime(const jobs::Instance& instance, double eps) {
  return static_cast<double>(instance.machines()) >=
         fptas_machine_threshold(instance.size(), eps);
}

/// What a dual algorithm brings to Section 3's composition: its c-dual, the
/// share eps_search of eps left to the dual search, and c (1 + eps_search).
struct DualAlgorithm {
  DualFn dual;
  double eps_search;
  double guarantee;
};

DualAlgorithm dual_algorithm(const jobs::Instance& instance, double eps, Algorithm algo) {
  // The (3/2 + eps_d)-duals: (3/2 + eps_d)(1 + eps_s) <= 3/2 + eps.
  const double eps_d = eps / 2;
  const double eps_s = (eps / 2) / (1.5 + eps_d);
  switch (algo) {
    case Algorithm::kFptas:
      if (!fptas_regime(instance, eps))
        throw std::invalid_argument(
            "fptas: requires m >= 24 n / eps (Theorem 2 regime); use the "
            "(3/2+eps) algorithms below the threshold");
      // Dual and search at eps/3 each: (1 + eps/3)^2 <= 1 + eps on (0, 1].
      return {[&instance, eps](double d) { return fptas_dual(instance, d, eps / 3); }, eps / 3,
              1 + eps};
    case Algorithm::kMrt:
      // (3/2)(1 + eps_s) <= 3/2 + eps  <=>  eps_s = (2/3) eps.
      return {[&instance](double d) { return mrt_dual(instance, d); }, (2.0 / 3.0) * eps,
              1.5 + eps};
    case Algorithm::kCompressible:
      return {[&instance, eps_d](double d) { return compressible_dual(instance, d, eps_d); },
              eps_s, 1.5 + eps};
    case Algorithm::kBounded:
    case Algorithm::kBoundedLinear: {
      const BoundedDualOptions opts{algo == Algorithm::kBoundedLinear};
      return {[&instance, eps_d, opts](double d) { return bounded_dual(instance, d, eps_d, opts); },
              eps_s, 1.5 + eps};
    }
    case Algorithm::kAuto:
    case Algorithm::kLudwigTiwari:
      break;
  }
  throw internal_error("schedule_moldable: " + algorithm_name(algo) + " has no dual");
}

}  // namespace

std::string algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kAuto: return "auto";
    case Algorithm::kFptas: return "fptas";
    case Algorithm::kMrt: return "mrt";
    case Algorithm::kCompressible: return "algorithm1";
    case Algorithm::kBounded: return "algorithm3";
    case Algorithm::kBoundedLinear: return "algorithm3-linear";
    case Algorithm::kLudwigTiwari: return "lt-2approx";
  }
  return "unknown";
}

ScheduleResult schedule_moldable(const jobs::Instance& instance, double eps, Algorithm algo,
                                 double omega) {
  if (!(eps > 0) || eps > 1)
    throw std::invalid_argument("schedule_moldable: eps must be in (0, 1]");

  ScheduleResult out;
  if (instance.size() == 0) {
    out.used = algo;
    out.ratio_vs_lower = 1;
    out.guarantee = 1;
    return out;
  }

  if (algo == Algorithm::kAuto)
    algo = fptas_regime(instance, eps) ? Algorithm::kFptas : Algorithm::kBoundedLinear;
  out.used = algo;

  if (algo == Algorithm::kLudwigTiwari) {
    BaselineResult r = ludwig_tiwari_schedule(instance);
    out.schedule = std::move(r.schedule);
    out.lower_bound = r.lower_bound;
    // The 2 omega bound is the memory-free one; a schedule clamped up to
    // the memory-feasible allotments has no proven factor.
    out.guarantee = instance.memory_constrained() ? 0 : 2;
  } else {
    // Section 3: the estimator brackets OPT in [omega, 2 omega], and the
    // dual search narrows it to within (1 + eps_search).
    const DualAlgorithm a = dual_algorithm(instance, eps, algo);
    if (!(omega > 0)) omega = estimate_makespan(instance).omega;
    DualSearchResult sr = dual_search(a.dual, omega, a.eps_search);
    out.schedule = std::move(sr.schedule);
    out.lower_bound = sr.lower_bound;
    out.dual_calls = sr.dual_calls;
    out.guarantee = a.guarantee;
  }

  out.makespan = out.schedule.makespan();
  out.ratio_vs_lower = out.lower_bound > 0 ? out.makespan / out.lower_bound : 1;
  return out;
}

std::optional<ScheduleResult> exact_schedule(const jobs::Instance& instance) {
  auto exact = solve_exact(instance);
  if (!exact) return std::nullopt;
  ScheduleResult out;
  out.schedule = std::move(exact->schedule);
  out.lower_bound = exact->makespan;
  out.makespan = exact->makespan;
  out.ratio_vs_lower = 1;
  out.guarantee = 1;
  return out;
}

ScheduleResult ptas_schedule(const jobs::Instance& instance, double eps, double omega) {
  if (!(eps > 0) || eps > 1)
    throw std::invalid_argument("ptas_schedule: eps must be in (0, 1]");
  if (fptas_regime(instance, eps))
    return schedule_moldable(instance, eps, Algorithm::kFptas, omega);

  // Substituted [14] branch: exact for tiny instances, (3/2+eps) otherwise.
  const ExactLimits limits;
  if (instance.size() <= limits.max_jobs && instance.machines() <= limits.max_machines)
    if (auto exact = exact_schedule(instance)) return std::move(*exact);
  return schedule_moldable(instance, eps, Algorithm::kBoundedLinear, omega);
}

}  // namespace moldable::core
