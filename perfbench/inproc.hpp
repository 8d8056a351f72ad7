// In-process serve passes: the exact `--serve` path minus CLI printing.
//
// One pass generates the workload's storm with src/traffic, wraps the bytes
// in an engine::IstreamSource, and serves them through a fresh
// engine::StreamSolver (so a fresh memo store) to exhaustion. The benchmark
// observes the engine only from outside, at public interfaces:
//
//   * a wrapping InstanceSource stamps every record when next() yields it
//     and tags it with its ordinal (StreamRecord::tag is opaque to the
//     engine and handed back by on_served / on_shed);
//   * the on_served / on_shed / on_window hooks;
//   * in traced passes, a registry rebuilt from AlgorithmRegistry::global()
//     whose every SolverFn is wrapped in a timer (capabilities copied).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "src/engine/registry.hpp"
#include "src/jobs/instance.hpp"
#include "src/sched/schedule.hpp"

namespace perfbench {

/// One schedule a wrapped solver returned, kept by capture passes.
struct CapturedSolve {
  moldable::jobs::Instance instance;
  moldable::sched::Schedule schedule;
  double makespan = 0;
};

/// Per-variant call count and time, from the wrapped registry.
struct VariantTime {
  std::size_t calls = 0;
  double seconds = 0;
};

/// Spans the wrapped registry kept during one pass.
struct SolveSpans {
  std::vector<double> call_us;  ///< one per SolverFn call
  std::map<std::string, VariantTime> variants;
  std::vector<CapturedSolve> captured;  ///< capture passes only
};

/// A registry rebuilt from AlgorithmRegistry::global() with every SolverFn
/// wrapped in a timer. Calls may come from any worker thread.
class TracedRegistry {
 public:
  TracedRegistry();
  TracedRegistry(const TracedRegistry&) = delete;
  TracedRegistry& operator=(const TracedRegistry&) = delete;

  const moldable::engine::AlgorithmRegistry& registry() const { return registry_; }

  /// Starts a pass; `capture` also keeps every returned schedule.
  void begin(bool capture);
  /// Ends a pass and hands over what it recorded.
  SolveSpans drain();

 private:
  struct Sink;
  std::shared_ptr<Sink> sink_;
  moldable::engine::AlgorithmRegistry registry_;
};

struct PassOptions {
  unsigned threads = 1;
  bool traced = false;   ///< time next() and every SolverFn call
  bool capture = false;  ///< traced, and keep every returned schedule
};

struct InprocPass {
  unsigned threads = 1;
  double generate_s = 0;     ///< storm generation (src/traffic)
  double setup_s = 0;        ///< generation + serve side up to its first next()
  double wall_s = 0;         ///< first next() to run() returning
  std::size_t arrivals = 0;  ///< records the storm holds
  std::size_t yielded = 0;   ///< records the source yielded
  std::size_t answered = 0;  ///< distinct records answered (served or shed)
  std::size_t answered_twice = 0;
  double peak_rss_mb = 0;  ///< process peak while the storm was served
  moldable::engine::StreamResult result;
  std::vector<double> latency_ms;      ///< yield -> on_served / on_shed
  std::vector<double> interactive_ms;  ///< the same, interactive class only
  // Traced passes only.
  double next_s = 0;    ///< time inside the wrapped next()
  double window_s = 0;  ///< sum of WindowStats::wall_seconds
  std::vector<double> window_ms;
  std::vector<double> buffer_wait_ms;  ///< sojourn - (queue + compute)
  std::vector<double> queue_ms;
  std::vector<std::uint64_t> shed_tags;  ///< records answered by on_shed
  SolveSpans spans;

  double rate() const { return wall_s > 0 ? double(answered) / wall_s : 0; }
};

/// Generates the workload's storm and serves it once at options.threads.
/// `traced` supplies the wrapped registry; it may be null when
/// options.traced is false.
InprocPass run_inproc_pass(const Workload& workload, const PassOptions& options,
                           TracedRegistry* traced);

}  // namespace perfbench
