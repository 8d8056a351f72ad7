// Instance: a set of moldable jobs plus the machine count m — the problem
// input of the paper. Also provides the instance-level lower bounds that the
// tests and the quality benchmarks measure approximation ratios against.
#pragma once

#include <string>
#include <vector>

#include "src/jobs/job.hpp"
#include "src/util/common.hpp"

namespace moldable::jobs {

/// The largest machine count an instance may have, 2^62: the range the
/// closed-form families are built for (processing_time.hpp), with headroom
/// for m + 1 (min_feasible_allotment's "infeasible") and sums of counts.
inline constexpr procs_t kMaxMachines = procs_t{1} << 62;

class Instance {
 public:
  /// Throws std::invalid_argument unless 1 <= m <= kMaxMachines and every
  /// job is bound to m.
  Instance(std::vector<Job> jobs, procs_t m, std::string name = {});

  const std::vector<Job>& jobs() const { return jobs_; }
  const Job& job(std::size_t j) const { return jobs_.at(j); }
  std::size_t size() const { return jobs_.size(); }
  procs_t machines() const { return m_; }
  const std::string& name() const { return name_; }

  /// Optional serving metadata (the io `arrival`/`class` directives). The
  /// algorithms ignore both — they only steer the stream layer's window
  /// ordering and per-SLA-class latency reporting.
  /// Arrival time in arbitrary units; 0 = "arrived with the stream" (the
  /// default, which preserves plain stream order under the stable
  /// arrival sort). Must be finite and >= 0.
  double arrival() const { return arrival_; }
  void set_arrival(double arrival);
  /// SLA class label; empty = the default class. A single token (no
  /// whitespace, no line breaks) so it survives the text format and stays a
  /// sane stats-table key. An explicit "default" canonicalizes to empty —
  /// it names the same class the stats report unlabelled instances under.
  const std::string& sla_class() const { return sla_class_; }
  void set_sla_class(std::string sla_class);

  /// Optional second resource axis (the io `mem`/`memcap` directives):
  /// each job carries a memory footprint and every machine has capacity
  /// `memory_capacity()`. A job running on k machines spreads its
  /// footprint, so allotment k is memory-feasible iff
  /// `mem_j <= k * capacity` — the distributed-footprint model. Both
  /// fields default off (no footprints, capacity 0 = uncapped) and the
  /// scheduling algorithms that predate the axis ignore them; the
  /// registry refuses to route a memory-constrained instance to such a
  /// memory-blind variant.
  /// Per-machine memory capacity in arbitrary units; 0 = uncapped (the
  /// default). Must be finite and >= 0.
  double memory_capacity() const { return memory_capacity_; }
  void set_memory_capacity(double capacity);
  /// Per-job memory footprints; size must equal size() (or empty to
  /// clear). Every entry must be finite and >= 0.
  void set_job_memory(std::vector<double> memory);
  bool has_job_memory() const { return !job_memory_.empty(); }
  /// Footprint of job j; 0 when no footprints are set.
  double job_memory(std::size_t j) const {
    return job_memory_.empty() ? 0.0 : job_memory_.at(j);
  }
  /// True when the memory constraint actually binds: a positive capacity
  /// AND per-job footprints are both present.
  bool memory_constrained() const {
    return memory_capacity_ > 0 && !job_memory_.empty();
  }
  /// Smallest memory-feasible allotment of job j: ceil(mem_j / capacity),
  /// at least 1. Past machines() it saturates at machines() + 1 — then NO
  /// allotment is feasible and the instance is provably unschedulable
  /// (memory_lower_bound() returns +inf). Returns 1 when the constraint
  /// does not bind.
  procs_t min_feasible_allotment(std::size_t j) const;

  /// max_j t_j(m): every job needs at least this long even fully parallel.
  /// A valid makespan lower bound.
  double min_time_bound() const;

  /// (1/m) * sum_j w_j(gamma_j(t_ref)) maximized into a proper bound:
  /// the *area* lower bound sum_j w_j(m) / m is always valid because work is
  /// monotone, so w_j(m) >= w_j(k) is NOT true — work grows with k; the
  /// minimal work of job j over all allotments is w_j(1) = t_j(1).
  /// Hence sum_j t_j(1) / m is the valid area bound.
  double area_bound() const;

  /// Memory-aware area bound: sum_j w_j(kmin_j) / m where kmin_j is the
  /// smallest memory-feasible allotment (work is monotone in k, so every
  /// feasible schedule does at least this much work). Returns +inf when
  /// some job's kmin exceeds m — no feasible schedule exists at all, which
  /// is what makes `--shed` certificates on memory-tight instances proofs.
  /// Returns 0 when the constraint does not bind.
  double memory_lower_bound() const;

  /// max(min_time_bound, area_bound, memory_lower_bound): cheap O(n)
  /// certified lower bound on the optimal makespan. (The Ludwig-Tiwari
  /// estimator in core/ gives the stronger bound omega >= the first two;
  /// the memory bound is max-combined on top by memory-aware callers.)
  double trivial_lower_bound() const;

  /// Runs the sampled monotony validator on every job; returns the index of
  /// the first offending job or -1 when all jobs pass.
  std::int64_t first_non_monotone(procs_t exhaustive_limit = 2048) const;

 private:
  std::vector<Job> jobs_;
  procs_t m_;
  std::string name_;
  double arrival_ = 0;
  std::string sla_class_;
  std::vector<double> job_memory_;  ///< empty = no footprints
  double memory_capacity_ = 0;      ///< 0 = uncapped
};

}  // namespace moldable::jobs
