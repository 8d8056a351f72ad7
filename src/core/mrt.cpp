#include "src/core/mrt.hpp"

#include "src/core/pipeline.hpp"
#include "src/knapsack/dense_dp.hpp"

namespace moldable::core {

DualOutcome mrt_dual(const jobs::Instance& instance, double d) {
  auto split = shelf_one_split(instance, d);
  if (!split) return DualOutcome::reject();

  const knapsack::Solution sol =
      knapsack::solve_dense(shelf_one_items(instance, *split, d), split->capacity);
  std::vector<std::size_t>& s1_jobs = split->forced;
  for (std::size_t i : sol.chosen) s1_jobs.push_back(split->candidates[i]);

  auto schedule = assemble_schedule(instance, d, s1_jobs,
                                    sched::TransformPolicy::kExactHeap, 0.2);
  if (!schedule) return DualOutcome::reject();
  return DualOutcome::accept(std::move(*schedule));
}

}  // namespace moldable::core
