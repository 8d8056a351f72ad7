#include "src/engine/registry.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/core/baselines.hpp"

namespace moldable::engine {

namespace {

/// The one adapter every built-in is registered through: the scope makes
/// config.cancel visible to every hot loop below this frame
/// (util::poll_cancellation) — no core signature changes.
template <class Solve>
SolverFn scoped(Solve solve) {
  return [solve](const jobs::Instance& instance, const SolverConfig& config) {
    util::CancelScope scope(config.cancel);
    return solve(instance, config.eps);
  };
}

core::ScheduleResult exact_row(const jobs::Instance& instance, double /*eps*/) {
  auto exact = core::exact_schedule(instance);  // throws over the hard caps
  if (!exact)
    throw std::runtime_error("exact: node budget exceeded for instance '" +
                             instance.name() + "'");
  return std::move(*exact);
}

core::ScheduleResult memory_greedy_row(const jobs::Instance& instance, double /*eps*/) {
  const core::BaselineResult b = core::memory_greedy_schedule(instance);
  core::ScheduleResult out;
  out.schedule = b.schedule;
  out.lower_bound = b.lower_bound;
  out.makespan = out.schedule.makespan();
  out.ratio_vs_lower = out.lower_bound > 0 ? out.makespan / out.lower_bound : 1;
  // On memory-free instances this IS lt-2approx (kmin == 1 everywhere), so
  // the 2 omega bound holds; the clamped schedule under a binding memory
  // constraint has no proven factor.
  out.guarantee = instance.memory_constrained() ? 0 : 2;
  return out;
}

}  // namespace

AlgorithmRegistry AlgorithmRegistry::with_builtins() {
  AlgorithmRegistry r;
  for (core::Algorithm a :
       {core::Algorithm::kAuto, core::Algorithm::kFptas, core::Algorithm::kMrt,
        core::Algorithm::kCompressible, core::Algorithm::kBounded,
        core::Algorithm::kBoundedLinear, core::Algorithm::kLudwigTiwari})
    r.add(core::algorithm_name(a), scoped([a](const jobs::Instance& instance, double eps) {
            return core::schedule_moldable(instance, eps, a);
          }));
  r.add("ptas", scoped(core::ptas_schedule));
  // The memory-aware pair. solve_exact narrows every allotment search to
  // the memory-feasible range [kmin_j, m], so its optimum (and the bound it
  // certifies) already honors the constraint.
  r.add("exact", scoped(exact_row), SolverCaps{/*memory_aware=*/true});
  r.add("mem-greedy", scoped(memory_greedy_row), SolverCaps{/*memory_aware=*/true});
  return r;
}

const AlgorithmRegistry& AlgorithmRegistry::global() {
  static const AlgorithmRegistry instance = with_builtins();
  return instance;
}

void AlgorithmRegistry::add(std::string name, SolverFn fn, SolverCaps caps) {
  if (name.empty()) throw std::invalid_argument("registry: empty solver name");
  if (!fn) throw std::invalid_argument("registry: null solver for '" + name + "'");
  if (!solvers_.emplace(std::move(name), Entry{std::move(fn), caps}).second)
    throw std::invalid_argument("registry: duplicate solver name");
}

bool AlgorithmRegistry::contains(const std::string& name) const {
  return solvers_.count(name) != 0;
}

const SolverCaps& AlgorithmRegistry::caps(const std::string& name) const {
  at(name);  // uniform unknown-name diagnostic
  return solvers_.find(name)->second.caps;
}

bool AlgorithmRegistry::memory_aware(const std::string& name) const {
  return caps(name).memory_aware;
}

void AlgorithmRegistry::check_capability(const std::string& name,
                                         const jobs::Instance& instance) const {
  if (!instance.memory_constrained()) return;
  if (memory_aware(name)) return;
  throw std::invalid_argument("capability: variant '" + name +
                              "' is memory-blind but instance '" + instance.name() +
                              "' is memory-constrained (mem/memcap set)");
}

std::vector<std::string> AlgorithmRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(solvers_.size());
  for (const auto& [name, entry] : solvers_) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

const SolverFn& AlgorithmRegistry::at(const std::string& name) const {
  const auto it = solvers_.find(name);
  if (it == solvers_.end()) {
    std::ostringstream msg;
    msg << "registry: unknown algorithm '" << name << "'; known:";
    for (const auto& n : names()) msg << ' ' << n;
    throw std::invalid_argument(msg.str());
  }
  return it->second.fn;
}

core::ScheduleResult AlgorithmRegistry::solve(const std::string& name,
                                              const jobs::Instance& instance,
                                              const SolverConfig& config) const {
  const SolverFn& fn = at(name);
  check_capability(name, instance);
  return fn(instance, config);
}

}  // namespace moldable::engine
