#include "src/jobs/instance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace moldable::jobs {

Instance::Instance(std::vector<Job> jobs, procs_t m, std::string name)
    : jobs_(std::move(jobs)), m_(m), name_(std::move(name)) {
  if (m_ < 1) throw std::invalid_argument("Instance: machine count must be >= 1");
  if (m_ > kMaxMachines)
    throw std::invalid_argument("Instance: machine count must be <= 2^62");
  for (const Job& j : jobs_)
    if (j.machines() != m_)
      throw std::invalid_argument("Instance: job bound to a different machine count");
}

void Instance::set_arrival(double arrival) {
  // NaN fails both comparisons' complement: written as a double-negative so
  // the guard rejects it too.
  if (!(arrival >= 0) || !std::isfinite(arrival))
    throw std::invalid_argument("Instance: arrival must be finite and >= 0");
  arrival_ = arrival;
}

void Instance::set_sla_class(std::string sla_class) {
  if (sla_class.find_first_of(" \t\r\n") != std::string::npos)
    throw std::invalid_argument("Instance: SLA class must be a single token");
  // An explicit "default" is the unlabelled class, not a sibling of it —
  // otherwise the stream stats would show two indistinguishable "default"
  // rows. Canonicalized here so the io round trip has one fixed point
  // (`class default` parses to unlabelled, which writes no directive).
  if (sla_class == "default") sla_class.clear();
  sla_class_ = std::move(sla_class);
}

void Instance::set_memory_capacity(double capacity) {
  // NaN fails the comparison's complement, same idiom as set_arrival.
  if (!(capacity >= 0) || !std::isfinite(capacity))
    throw std::invalid_argument("Instance: memory capacity must be finite and >= 0");
  memory_capacity_ = capacity;
}

void Instance::set_job_memory(std::vector<double> memory) {
  if (!memory.empty() && memory.size() != jobs_.size())
    throw std::invalid_argument("Instance: job memory list must have one entry per job");
  for (const double mem : memory)
    if (!(mem >= 0) || !std::isfinite(mem))
      throw std::invalid_argument("Instance: job memory must be finite and >= 0");
  job_memory_ = std::move(memory);
}

procs_t Instance::min_feasible_allotment(std::size_t j) const {
  if (!memory_constrained()) return 1;
  const double mem = job_memory_.at(j);
  if (mem <= memory_capacity_) return 1;
  // ceil(mem / capacity) without floating-point ceil edge cases at exact
  // multiples: k is feasible iff k * capacity >= mem (within tolerance).
  const double k = std::ceil(mem / memory_capacity_ - kRelTol);
  // Saturate before the cast, which is undefined past 2^63 (inf included):
  // any count past m is infeasible, reported as m + 1. m <= 2^62 is exact
  // as a double, so the comparison is too, and m + 1 cannot overflow.
  if (!(k <= static_cast<double>(m_))) return m_ + 1;
  return std::max<procs_t>(1, static_cast<procs_t>(k));
}

double Instance::memory_lower_bound() const {
  if (!memory_constrained()) return 0;
  double w = 0;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const procs_t k = min_feasible_allotment(j);
    if (k > m_) return std::numeric_limits<double>::infinity();
    // Work k * t_j(k) is monotone nondecreasing in k, so the work at the
    // smallest feasible allotment bounds job j's work in ANY feasible
    // schedule from below.
    w += static_cast<double>(k) * jobs_[j].time(k);
  }
  return w / static_cast<double>(m_);
}

double Instance::min_time_bound() const {
  double b = 0;
  for (const Job& j : jobs_) b = std::max(b, j.tmin());
  return b;
}

double Instance::area_bound() const {
  // Monotone work means w_j(1) = t_j(1) is the least possible work of job j
  // over all allotments, so sum_j t_j(1) is a lower bound on the total work
  // of any schedule, and dividing by m bounds the makespan.
  double w = 0;
  for (const Job& j : jobs_) w += j.t1();
  return w / static_cast<double>(m_);
}

double Instance::trivial_lower_bound() const {
  return std::max({min_time_bound(), area_bound(), memory_lower_bound()});
}

std::int64_t Instance::first_non_monotone(procs_t exhaustive_limit) const {
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const MonotonyReport r = check_monotony(jobs_[j].oracle(), m_, exhaustive_limit);
    if (!r.time_nonincreasing || !r.work_nondecreasing)
      return static_cast<std::int64_t>(j);
  }
  return -1;
}

}  // namespace moldable::jobs
