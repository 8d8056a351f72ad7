#include "src/core/compressible_sched.hpp"

#include <cmath>
#include <stdexcept>

#include "src/core/pipeline.hpp"
#include "src/knapsack/compressible.hpp"

namespace moldable::core {

DualOutcome compressible_dual(const jobs::Instance& instance, double d, double eps) {
  if (!(eps > 0) || eps > 1)
    throw std::invalid_argument("compressible_dual: eps must be in (0, 1]");
  auto split = shelf_one_split(instance, d);
  if (!split) return DualOutcome::reject();

  const procs_t capacity = split->capacity;
  const double rho_c = eps / 6;                      // compression factor
  const double sigma = 1 - std::sqrt(1 - rho_c);     // Algorithm 2 input
  const double d_prime = (1 + 4 * rho_c) * d;        // inflated level

  // Knapsack with compressible items over the unforced big jobs.
  knapsack::CompressibleInput in;
  in.items = shelf_one_items(instance, *split, d);
  in.capacity = capacity;
  in.rho = sigma;
  const double wide_threshold = 1.0 / rho_c;  // J^C = {gamma_j(d) >= 1/rho_c}
  for (const knapsack::Item& item : in.items)
    in.compressible.push_back(item.size >= wide_threshold ? 1 : 0);
  in.alpha_min = wide_threshold;
  in.beta_max = capacity;
  in.nbar = static_cast<procs_t>(std::floor(static_cast<double>(capacity) * rho_c /
                                            (1 - sigma))) +
            2;
  const knapsack::CompressibleSolution sol = knapsack::solve_compressible(in);
  std::vector<std::size_t>& s1_jobs = split->forced;
  for (std::size_t i : sol.chosen) s1_jobs.push_back(split->candidates[i]);

  // Assemble at the inflated level: gamma_j(d') allotments shrink the
  // selected wide jobs by at least the compression the knapsack assumed
  // (Lemma 4), so shelf 1 fits in m; Corollary 10 carries the work bound.
  auto schedule = assemble_schedule(instance, d_prime, s1_jobs,
                                    sched::TransformPolicy::kExactHeap, 0.2);
  if (!schedule) return DualOutcome::reject();
  return DualOutcome::accept(std::move(*schedule));
}

}  // namespace moldable::core
