// Shared back-end of the three (3/2 + eps)-dual algorithms (Sections 4.1,
// 4.2.5, 4.3): small/big splitting, the forced/candidate shelf-1 split, the
// work-bound test of Lemma 6 / Corollary 10, the Lemma 7 transformation,
// and Lemma 9 small-job insertion. Each dual differs only in how it selects
// shelf 1 from the candidates (exact knapsack, compressible knapsack,
// bounded knapsack) and at which deadline level d' it assembles.
#pragma once

#include <optional>
#include <vector>

#include "src/jobs/instance.hpp"
#include "src/knapsack/item.hpp"
#include "src/sched/schedule.hpp"
#include "src/sched/transform.hpp"

namespace moldable::core {

/// Small/big split at deadline d (Section 4.1: small means t_j(1) <= d/2).
struct BigSmallSplit {
  std::vector<std::size_t> big;
  std::vector<std::size_t> small;
  double small_work = 0;  ///< W_S(d) = sum of t_j(1) over small jobs
};

BigSmallSplit split_small_big(const jobs::Instance& instance, double d);

/// The big jobs at deadline d, split for the shelf-1 knapsack (Section
/// 4.1): a big job with t_j(m) > d/2 has no gamma_j(d/2), so it is forced
/// into shelf 1; every other big job is a candidate item.
struct ShelfOneSplit {
  std::vector<std::size_t> forced;
  std::vector<std::size_t> candidates;
  procs_t capacity = 0;  ///< m minus the forced jobs' gamma_j(d)
};

/// The split every (3/2)-dual starts from, or nullopt when d is hopeless:
/// d <= 0, some job misses d on m machines, or the forced jobs overflow m.
std::optional<ShelfOneSplit> shelf_one_split(const jobs::Instance& instance, double d);

/// KP(J_B(d), m, d) of Eq. (6), one item per candidate: size gamma_j(d) and
/// profit v_j(d) = w_j(gamma_j(d/2)) - w_j(gamma_j(d)), clamped at 0.
std::vector<knapsack::Item> shelf_one_items(const jobs::Instance& instance,
                                            const ShelfOneSplit& split, double d);

/// Statistics of one assembly, for the pipeline tests.
struct AssemblyStats {
  double work = 0;          ///< W(J', d) of the two-shelf schedule
  double work_bound = 0;    ///< m d - W_S(d)
  procs_t shelf1_procs = 0;
  procs_t shelf2_procs = 0;  ///< may exceed m (Fig. 2)
  procs_t p0 = 0, p1 = 0, p2 = 0;  ///< after the transformation (Fig. 3)
};

/// Assembles the final schedule at deadline level `d_level`:
///   1. splits small/big at d_level; shelf 1 = s1_jobs ∩ big(d_level)
///      (Corollary 10's J''), shelf 2 = the other big jobs;
///   2. rejects (nullopt) if shelf 1 overflows m processors or the work
///      bound W > m*d_level - W_S(d_level) fails;
///   3. applies the Lemma 7 transformation (policy/delta as given) and
///      inserts the small jobs next-fit.
/// `s1_jobs` must contain every job with t_j(m) > d_level/2 (forced jobs).
/// A transformation fixpoint that violates Lemma 8 also yields nullopt; by
/// Lemma 7 that cannot happen when the work bound holds.
std::optional<sched::Schedule> assemble_schedule(const jobs::Instance& instance,
                                                 double d_level,
                                                 const std::vector<std::size_t>& s1_jobs,
                                                 sched::TransformPolicy policy,
                                                 double delta,
                                                 AssemblyStats* stats = nullptr);

/// Front-end deadline test shared by all duals: a deadline d is hopeless
/// when some job cannot finish by d even on all m machines.
bool deadline_infeasible(const jobs::Instance& instance, double d);

}  // namespace moldable::core
