#include "src/engine/exec_core.hpp"

#include <thread>

namespace moldable::engine::exec {

unsigned resolve_threads(unsigned configured) {
  if (configured != 0) return configured;
  return std::max(1u, std::thread::hardware_concurrency());
}

Percentiles percentiles_of(std::vector<double>& samples) {
  Percentiles p;
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  p.p50 = detail::percentile_sorted(samples, 50);
  p.p90 = detail::percentile_sorted(samples, 90);
  p.p99 = detail::percentile_sorted(samples, 99);
  p.max = samples.back();
  return p;
}

}  // namespace moldable::engine::exec
