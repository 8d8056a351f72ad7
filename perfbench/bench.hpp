// Shared pieces of the serve-level benchmark: the workloads, storm
// generation, the clock, and small statistics helpers.
//
// Every workload is a pure function of (name, seed, smoke): the storm bytes,
// the serve configuration and the loopback session schedule. The program
// under test only ever sees the generated records.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/stream_solver.hpp"
#include "src/traffic/traffic_gen.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

struct Workload {
  std::string name;
  std::uint64_t seed = 1;
  moldable::traffic::TrafficConfig storm;
  /// The serve configuration, in process and (as `batch_service` flags) for
  /// the loopback server.
  moldable::engine::StreamConfig serve;
};

/// Throws std::invalid_argument for an unknown workload name.
Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke);

/// Storm bytes in the serve-mode record format, from src/traffic.
struct Storm {
  std::string text;
  std::size_t arrivals = 0;
  double generate_s = 0;  ///< wall time inside TrafficGenerator::write
};
Storm generate_storm(const moldable::traffic::TrafficConfig& config);

/// Peak resident set of this process in MiB (VmHWM), and a reset of that
/// peak so the next read covers only what follows.
double peak_rss_mb();
void reset_peak_rss();

}  // namespace perfbench
