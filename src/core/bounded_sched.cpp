#include "src/core/bounded_sched.hpp"

#include <cmath>
#include <stdexcept>

#include "src/core/pipeline.hpp"
#include "src/knapsack/bounded.hpp"
#include "src/knapsack/compressible.hpp"

namespace moldable::core {

DualOutcome bounded_dual(const jobs::Instance& instance, double d, double eps,
                         const BoundedDualOptions& options) {
  if (!(eps > 0) || eps > 1)
    throw std::invalid_argument("bounded_dual: eps must be in (0, 1]");
  auto split = shelf_one_split(instance, d);
  if (!split) return DualOutcome::reject();

  const procs_t capacity = split->capacity;
  const double delta = eps / 5;
  const knapsack::BoundedRounding R =
      knapsack::BoundedRounding::make(d, delta, instance.machines());
  const double d_prime = (1 + delta) * (1 + delta) * d;

  std::vector<std::size_t>& s1_jobs = split->forced;
  if (!split->candidates.empty()) {
    // Round jobs into types and expand into binary containers (Sec. 4.3.1).
    std::vector<knapsack::RoundedBigJob> rounded;
    rounded.reserve(split->candidates.size());
    for (std::size_t j : split->candidates)
      rounded.push_back(knapsack::round_big_job(instance, j, R));
    const knapsack::BoundedInstance bk(rounded);

    // sigma: (1-sigma)^2 = (1-rho)^2 (1+rho) pays for size rounding plus
    // Lemma 16 compression (header comment).
    const double sigma = 1 - std::sqrt((1 - R.rho) * (1 - R.rho) * (1 + R.rho));
    check_invariant(sigma > 0 && sigma <= 0.25, "bounded_dual: sigma out of range");

    knapsack::CompressibleInput in;
    in.items = bk.items();
    in.compressible = bk.compressible();
    in.capacity = capacity;
    in.rho = sigma;
    const double amin = bk.min_compressible_size();
    in.alpha_min = amin > 0 ? amin : R.b;
    in.beta_max = capacity;
    in.nbar = static_cast<procs_t>(std::floor(static_cast<double>(capacity) / R.b /
                                              (1 - sigma))) +
              2;
    const knapsack::CompressibleSolution sol = knapsack::solve_compressible(in);
    for (std::size_t j : bk.unpack(sol.chosen)) s1_jobs.push_back(j);
  }

  const auto policy = options.linear_variant ? sched::TransformPolicy::kBucketed
                                             : sched::TransformPolicy::kExactHeap;
  auto schedule = assemble_schedule(instance, d_prime, s1_jobs, policy, delta);
  if (!schedule) return DualOutcome::reject();
  return DualOutcome::accept(std::move(*schedule));
}

}  // namespace moldable::core
