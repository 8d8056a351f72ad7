#include "src/core/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace moldable::core {

namespace {

struct Evaluation {
  bool feasible = false;  ///< gamma defined for every job
  double avg_work = 0;
  double max_time = 0;
  std::size_t known = 0;  ///< gammas[0, known) hold gamma_j(tau), 0 = undefined
  double omega() const { return std::max(avg_work, max_time); }
};

/// Evaluates threshold tau and leaves gamma_j(tau) in gammas[j]. Stops at
/// the first job that cannot meet tau even on m processors.
Evaluation evaluate(const jobs::Instance& inst, double tau, std::vector<procs_t>& gammas) {
  Evaluation ev;
  double work = 0;
  double tmax = 0;
  for (const jobs::Job& job : inst.jobs()) {
    const auto g = job.gamma(tau);
    gammas[ev.known++] = g.value_or(0);
    if (!g) return ev;  // infeasible: some job cannot meet tau even on m
    const double t = job.time(*g);
    work += static_cast<double>(*g) * t;  // job.work(*g), bit for bit
    tmax = std::max(tmax, t);
  }
  ev.feasible = true;
  ev.avg_work = work / static_cast<double>(inst.machines());
  ev.max_time = tmax;
  return ev;
}

}  // namespace

EstimatorResult estimate_makespan(const jobs::Instance& inst) {
  if (inst.size() == 0)
    throw std::invalid_argument("estimate_makespan: empty instance");
  const std::size_t n = inst.size();
  const procs_t m = inst.machines();

  EstimatorResult best;
  best.omega = std::numeric_limits<double>::infinity();
  int evals = 0;

  std::vector<procs_t> gammas(n);  // gamma_j at the last evaluated threshold
  auto consider = [&](double tau) {
    const Evaluation ev = evaluate(inst, tau, gammas);
    ++evals;
    if (ev.feasible && ev.omega() < best.omega) {
      best.omega = ev.omega();
      best.threshold = tau;
      best.avg_work = ev.avg_work;
      best.max_time = ev.max_time;
      best.allotment = gammas;
    }
    return ev;
  };

  // tau_min = max_j t_j(m) is always feasible and seeds the incumbent.
  double tau_min = 0;
  for (const jobs::Job& job : inst.jobs()) tau_min = std::max(tau_min, job.tmin());
  consider(tau_min);

  // Per-job candidate ranges [lo_j, hi_j] over processor counts; candidate
  // thresholds are t_j(k). Weighted-median pivoting discards >= 1/4 of the
  // remaining candidates per round (ties included: both narrowing rules
  // remove candidates equal to the pivot, which has just been evaluated).
  std::vector<procs_t> lo(n, 1), hi(n, m);

  struct Weighted {
    double value;
    double weight;
  };
  std::vector<Weighted> medians;
  for (int round = 0; round < 200; ++round) {
    medians.clear();
    double total = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (lo[j] > hi[j]) continue;
      const double w = static_cast<double>(hi[j] - lo[j] + 1);
      const procs_t mid = lo[j] + (hi[j] - lo[j]) / 2;
      medians.push_back({inst.job(j).time(mid), w});
      total += w;
    }
    if (medians.empty()) break;
    // Weighted median of the per-job medians.
    std::sort(medians.begin(), medians.end(),
              [](const Weighted& a, const Weighted& b) { return a.value < b.value; });
    double acc = 0;
    double tau = medians.back().value;
    for (const Weighted& wv : medians) {
      acc += wv.weight;
      if (acc * 2 >= total) {
        tau = wv.value;
        break;
      }
    }

    const Evaluation ev = consider(tau);
    const bool go_up = !ev.feasible || ev.avg_work > ev.max_time;
    for (std::size_t j = 0; j < n; ++j) {
      if (lo[j] > hi[j]) continue;
      const jobs::Job& job = inst.job(j);
      if (go_up) {
        // Every tau' <= tau has omega(tau') >= A(tau') >= A(tau) = omega(tau)
        // (or is infeasible): drop candidates with value <= tau, i.e. keep
        // k < gamma_j(tau). evaluate() left gamma_j(tau) for every job up
        // to an infeasible early return.
        const procs_t g = j < ev.known ? gammas[j] : job.gamma(tau).value_or(0);
        if (g > 0) hi[j] = std::min(hi[j], g - 1);
      } else {
        // Every tau' >= tau has omega(tau') >= T(tau') >= T(tau) = omega(tau):
        // drop candidates with value >= tau, i.e. keep k > last_at_least(tau).
        lo[j] = std::max(lo[j], job.last_at_least(tau) + 1);
      }
    }
  }

  check_invariant(std::isfinite(best.omega), "estimator: no feasible threshold found");
  best.evaluations = evals;
  return best;
}

}  // namespace moldable::core
