#include "src/core/pipeline.hpp"

#include <algorithm>

#include "src/sched/shelves.hpp"
#include "src/sched/small_jobs.hpp"

namespace moldable::core {

BigSmallSplit split_small_big(const jobs::Instance& instance, double d) {
  BigSmallSplit out;
  for (std::size_t j = 0; j < instance.size(); ++j) {
    const jobs::Job& job = instance.job(j);
    if (leq_tol(job.t1(), d / 2)) {
      out.small.push_back(j);
      out.small_work += job.t1();
    } else {
      out.big.push_back(j);
    }
  }
  return out;
}

bool deadline_infeasible(const jobs::Instance& instance, double d) {
  for (const jobs::Job& job : instance.jobs())
    if (!leq_tol(job.tmin(), d)) return true;
  return false;
}

std::optional<ShelfOneSplit> shelf_one_split(const jobs::Instance& instance, double d) {
  if (!(d > 0) || deadline_infeasible(instance, d)) return std::nullopt;
  ShelfOneSplit out;
  out.capacity = instance.machines();
  for (std::size_t j : split_small_big(instance, d).big) {
    const jobs::Job& job = instance.job(j);
    const auto g1 = job.gamma(d);
    check_invariant(g1.has_value(), "shelf_one_split: gamma(d) undefined after feasibility test");
    if (!leq_tol(job.tmin(), d / 2)) {
      out.forced.push_back(j);
      out.capacity -= *g1;
    } else {
      out.candidates.push_back(j);
    }
  }
  if (out.capacity < 0) return std::nullopt;
  return out;
}

std::vector<knapsack::Item> shelf_one_items(const jobs::Instance& instance,
                                            const ShelfOneSplit& split, double d) {
  std::vector<knapsack::Item> items;
  items.reserve(split.candidates.size());
  for (std::size_t j : split.candidates) {
    const jobs::Job& job = instance.job(j);
    const procs_t g1 = *job.gamma(d);
    const procs_t g2 = *job.gamma(d / 2);
    items.push_back({static_cast<double>(g1), std::max(0.0, job.work(g2) - job.work(g1))});
  }
  return items;
}

std::optional<sched::Schedule> assemble_schedule(const jobs::Instance& instance,
                                                 double d_level,
                                                 const std::vector<std::size_t>& s1_jobs,
                                                 sched::TransformPolicy policy, double delta,
                                                 AssemblyStats* stats) {
  const procs_t m = instance.machines();
  const BigSmallSplit split = split_small_big(instance, d_level);

  // Shelf membership: J'' = s1_jobs ∩ big(d_level). Jobs of s1_jobs that
  // are small at this level rejoin the small set automatically (they are in
  // split.small), which is exactly the Corollary 10 argument.
  std::vector<char> s1_mark(instance.size(), 0);
  for (std::size_t j : s1_jobs) s1_mark[j] = 1;
  std::vector<char> in_shelf1(split.big.size(), 0);
  for (std::size_t i = 0; i < split.big.size(); ++i) {
    const std::size_t j = split.big[i];
    const jobs::Job& job = instance.job(j);
    const bool forced = !leq_tol(job.tmin(), d_level / 2);  // gamma(d/2) undefined
    if (forced && !s1_mark[j]) return std::nullopt;  // caller broke the contract
    in_shelf1[i] = (s1_mark[j] || forced) ? 1 : 0;
  }

  const sched::TwoShelfSchedule two = sched::build_two_shelf(instance, split.big, in_shelf1,
                                                             d_level);
  const double work = two.work();
  const double bound = static_cast<double>(m) * d_level - split.small_work;
  if (stats) {
    stats->work = work;
    stats->work_bound = bound;
    stats->shelf1_procs = two.procs_s1();
    stats->shelf2_procs = two.procs_s2();
  }
  if (two.procs_s1() > m) return std::nullopt;  // shelf 1 must fit as-is
  if (!leq_tol(work, bound)) return std::nullopt;  // Lemma 6 rejection

  sched::ThreeShelfSchedule three;
  try {
    three = sched::apply_transformation_rules(instance, two, policy, delta);
  } catch (const internal_error&) {
    // Lemma 7 guarantees success under the work bound, so this path is
    // unreachable for correct inputs; treat defensively as a rejection
    // (sound: rejecting more often never violates dual correctness for
    // d < OPT, and for d >= OPT the lemma applies).
    return std::nullopt;
  }

  if (stats) {
    stats->p0 = three.p0;
    stats->p1 = three.p1;
    stats->p2 = three.p2;
  }

  sched::Schedule schedule = std::move(three.big_jobs);
  std::vector<sched::SmallJobRef> smalls;
  smalls.reserve(split.small.size());
  for (std::size_t j : split.small) smalls.push_back({j, instance.job(j).t1()});
  try {
    sched::insert_small_jobs(schedule, three.groups, three.horizon, smalls);
  } catch (const internal_error&) {
    return std::nullopt;  // Lemma 9: unreachable under the work bound
  }
  return schedule;
}

}  // namespace moldable::core
