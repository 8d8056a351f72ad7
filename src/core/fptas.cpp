#include "src/core/fptas.hpp"

namespace moldable::core {

DualOutcome fptas_dual(const jobs::Instance& instance, double d, double eps_d) {
  const double deadline = (1 + eps_d) * d;
  procs_t used = 0;
  sched::Schedule s;
  for (std::size_t j = 0; j < instance.size(); ++j) {
    const jobs::Job& job = instance.job(j);
    const auto g = job.gamma(deadline);
    if (!g) return DualOutcome::reject();  // t_j(m) > (1+eps)d >= d: no d-schedule
    used += *g;
    if (used > instance.machines()) return DualOutcome::reject();
    s.add({j, 0.0, *g, job.time(*g)});
  }
  return DualOutcome::accept(std::move(s));
}

double fptas_machine_threshold(std::size_t n, double eps) {
  return 24.0 * static_cast<double>(n) / eps;
}

}  // namespace moldable::core
