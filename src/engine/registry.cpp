#include "src/engine/registry.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

namespace moldable::engine {

namespace {

core::ScheduleResult exact_row(const jobs::Instance& instance, const SolverConfig& /*config*/) {
  auto exact = core::exact_schedule(instance);  // throws over the hard caps
  if (!exact)
    throw std::runtime_error("exact: node budget exceeded for instance '" +
                             instance.name() + "'");
  return std::move(*exact);
}

}  // namespace

AlgorithmRegistry AlgorithmRegistry::with_builtins() {
  AlgorithmRegistry r;
  // The memory-aware rows: lt-2approx clamps its allotments up to kmin_j
  // when memory binds (core::ludwig_tiwari_schedule), and solve_exact
  // narrows every allotment search to the memory-feasible range [kmin_j, m],
  // so its optimum (and the bound it certifies) already honors the
  // constraint.
  for (core::Algorithm a :
       {core::Algorithm::kAuto, core::Algorithm::kFptas, core::Algorithm::kMrt,
        core::Algorithm::kCompressible, core::Algorithm::kBounded,
        core::Algorithm::kBoundedLinear, core::Algorithm::kLudwigTiwari})
    r.add(core::algorithm_name(a),
          [a](const jobs::Instance& instance, const SolverConfig& config) {
            return core::schedule_moldable(instance, config.eps, a, config.omega);
          },
          SolverCaps{/*memory_aware=*/a == core::Algorithm::kLudwigTiwari});
  r.add("ptas", [](const jobs::Instance& instance, const SolverConfig& config) {
    return core::ptas_schedule(instance, config.eps, config.omega);
  });
  r.add("exact", exact_row, SolverCaps{/*memory_aware=*/true});
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
