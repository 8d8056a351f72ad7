// Schedule representation.
//
// A schedule assigns every job a start time and a processor count. Processor
// *identities* are not part of the representation: for non-preemptive jobs
// on interchangeable processors, a start/count assignment is realizable on m
// machines iff at every instant the counts of running jobs sum to at most m
// (free processors are fungible, so whenever a job starts and the capacity
// profile is respected, enough concrete processors are available). The
// validator checks exactly that; `assign_processors` is the constructive
// side of the argument: it produces such a concrete processor numbering.
#pragma once

#include <cstddef>
#include <vector>

#include "src/util/common.hpp"

namespace moldable::sched {

struct Assignment {
  std::size_t job = 0;    ///< index into Instance::jobs()
  double start = 0;       ///< start time (>= 0)
  procs_t procs = 0;      ///< allotted processors (in [1, m])
  double duration = 0;    ///< t_j(procs); stored for O(1) event sweeps
};

class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(std::vector<Assignment> assignments)
      : assignments_(std::move(assignments)) {}

  void add(Assignment a) { assignments_.push_back(a); }

  const std::vector<Assignment>& assignments() const { return assignments_; }
  bool empty() const { return assignments_.empty(); }
  std::size_t size() const { return assignments_.size(); }

  /// Completion time of the last job (0 for an empty schedule).
  double makespan() const;

  /// sum_j procs_j * duration_j.
  double total_work() const;

  /// Peak number of simultaneously-busy processors.
  procs_t peak_procs() const;

 private:
  std::vector<Assignment> assignments_;
};

/// Concrete processor numbering: for each assignment, the first processor
/// index of a set of `procs` indices reserved for its whole duration. The
/// assignment is greedy over a free-list at event points; it succeeds for
/// every capacity-feasible schedule when allowed to use non-contiguous sets,
/// which is what this returns (a list of processor indices per assignment).
/// Throws internal_error if the schedule is capacity-infeasible for m.
std::vector<std::vector<procs_t>> assign_processors(const Schedule& s, procs_t m);

}  // namespace moldable::sched
