#include "src/core/exact.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/sched/list_scheduler.hpp"

namespace moldable::core {

namespace {

struct BudgetExceeded {};

struct Budget {
  std::uint64_t left;
  void tick() { if (left-- == 0) throw BudgetExceeded{}; }
};

/// Branch-and-bound for rigid jobs (fixed allotment). Returns the optimal
/// makespan below `upper` (and fills starts) or infinity when none beats it.
class RigidSolver {
 public:
  RigidSolver(const std::vector<double>& times, const std::vector<procs_t>& procs,
              procs_t m, Budget& budget)
      : times_(times), procs_(procs), m_(m), budget_(budget), n_(times.size()) {
    starts_.assign(n_, 0);
    best_starts_.assign(n_, 0);
  }

  double solve(double upper) {
    best_ = upper;
    found_ = false;
    std::vector<Running> running;
    dfs(0.0, m_, running, (1u << n_) - 1, 0);
    return found_ ? best_ : std::numeric_limits<double>::infinity();
  }

  const std::vector<double>& best_starts() const { return best_starts_; }

 private:
  struct Running {
    double end;
    procs_t procs;
  };

  void dfs(double now, procs_t free, std::vector<Running>& running, unsigned remaining,
           std::size_t min_idx) {
    budget_.tick();
    // Bounds: running tail, the longest remaining job, and the area bound
    // over residual + remaining work.
    double run_tail = now;
    double resid = 0;
    for (const Running& r : running) {
      run_tail = std::max(run_tail, r.end);
      resid += (r.end - now) * static_cast<double>(r.procs);
    }
    double rem_work = 0;
    double rem_tmax = 0;
    for (std::size_t j = 0; j < n_; ++j)
      if (remaining >> j & 1) {
        rem_work += times_[j] * static_cast<double>(procs_[j]);
        rem_tmax = std::max(rem_tmax, times_[j]);
      }
    const double lb = std::max({run_tail, now + rem_tmax,
                                now + (resid + rem_work) / static_cast<double>(m_)});
    if (lb >= best_ * (1 - kRelTol)) return;

    if (remaining == 0) {
      if (run_tail < best_) {
        best_ = run_tail;
        best_starts_ = starts_;
        found_ = true;
      }
      return;
    }

    // Branch A: start a remaining job now (symmetry-broken: ascending job
    // index among same-instant starts).
    for (std::size_t j = min_idx; j < n_; ++j) {
      if (!(remaining >> j & 1) || procs_[j] > free) continue;
      starts_[j] = now;
      running.push_back({now + times_[j], procs_[j]});
      dfs(now, free - procs_[j], running, remaining & ~(1u << j), j + 1);
      running.pop_back();
    }

    // Branch B: advance to the earliest completion (only meaningful while
    // something is running).
    if (!running.empty()) {
      double next = std::numeric_limits<double>::infinity();
      for (const Running& r : running) next = std::min(next, r.end);
      std::vector<Running> kept;
      procs_t freed = 0;
      for (const Running& r : running) {
        if (r.end <= next * (1 + kRelTol)) {
          freed += r.procs;
        } else {
          kept.push_back(r);
        }
      }
      dfs(next, free + freed, kept, remaining, 0);
    }
  }

  const std::vector<double>& times_;
  const std::vector<procs_t>& procs_;
  procs_t m_;
  Budget& budget_;
  std::size_t n_;
  double best_ = 0;
  bool found_ = false;
  std::vector<double> starts_;
  std::vector<double> best_starts_;
};

}  // namespace

std::optional<ExactResult> solve_exact(const jobs::Instance& instance,
                                       const ExactLimits& limits) {
  const std::size_t n = instance.size();
  const procs_t m = instance.machines();
  if (n > limits.max_jobs || m > limits.max_machines)
    throw std::invalid_argument("solve_exact: instance exceeds the exact-solver caps");
  if (n == 0) return ExactResult{};

  // Memory axis: every allotment decision for job j ranges over
  // [kmin_j, m] where kmin_j is the smallest memory-feasible allotment
  // (1 when the constraint does not bind, so the memory-free search is
  // unchanged). kmin_j > m means no allotment is feasible at all.
  std::vector<procs_t> kmin(n, 1);
  for (std::size_t j = 0; j < n; ++j) {
    kmin[j] = instance.min_feasible_allotment(j);
    if (kmin[j] > m)
      throw std::invalid_argument(
          "solve_exact: job " + std::to_string(j) +
          " is memory-infeasible: needs more than the " + std::to_string(m) +
          " machines that exist");
  }

  // Incumbent from the cheapest feasible allotment (all-ones when the
  // memory axis is off).
  sched::Schedule incumbent_sched = sched::list_schedule(instance, kmin);
  double best = incumbent_sched.makespan();
  std::vector<procs_t> best_alloc = kmin;
  std::vector<double> best_starts;
  {
    best_starts.assign(n, 0);
    for (const auto& a : incumbent_sched.assignments()) best_starts[a.job] = a.start;
  }

  Budget budget{limits.node_budget};
  std::vector<procs_t> alloc = kmin;

  // DFS over allotments with area/time pruning, solving the rigid problem
  // at each leaf.
  auto rec = [&](auto&& self, std::size_t j, double partial_min_work) -> void {
    budget.tick();
    if (j == n) {
      std::vector<double> times(n);
      for (std::size_t i = 0; i < n; ++i) times[i] = instance.job(i).time(alloc[i]);
      RigidSolver rigid(times, alloc, m, budget);
      const double ms = rigid.solve(best);
      if (ms < best) {
        best = ms;
        best_alloc = alloc;
        best_starts = rigid.best_starts();
      }
      return;
    }
    // Remaining jobs contribute at least their minimal feasible work
    // w(kmin) = kmin * t(kmin) (work is monotone in k).
    double rest_min_work = 0;
    for (std::size_t i = j + 1; i < n; ++i)
      rest_min_work +=
          static_cast<double>(kmin[i]) * instance.job(i).time(kmin[i]);
    for (procs_t k = kmin[j]; k <= m; ++k) {
      const double t = instance.job(j).time(k);
      if (t >= best * (1 - kRelTol)) {
        // Times are non-increasing in k: smaller k only gets worse, but we
        // iterate ascending, so skip this k and keep looking at larger k.
        continue;
      }
      const double w = static_cast<double>(k) * t;
      if ((partial_min_work + w + rest_min_work) / static_cast<double>(m) >=
          best * (1 - kRelTol))
        continue;
      alloc[j] = k;
      self(self, j + 1, partial_min_work + w);
    }
    alloc[j] = kmin[j];
  };

  try {
    rec(rec, 0, 0.0);
  } catch (const BudgetExceeded&) {
    return std::nullopt;
  }

  ExactResult out;
  out.makespan = best;
  for (std::size_t i = 0; i < n; ++i)
    out.schedule.add({i, best_starts[i], best_alloc[i], instance.job(i).time(best_alloc[i])});
  return out;
}

}  // namespace moldable::core
