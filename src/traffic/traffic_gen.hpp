// TrafficGenerator: storms in the serve-mode io format.
//
// Composes the three stochastic layers of a realistic workload, all driven
// from one manifest seed:
//
//   * WHEN — inhomogeneous-Poisson arrival times from a RateCurve via
//     thinning (arrival_process.hpp): bursty, diurnal, or flash-crowd;
//   * WHO  — a weighted SLA class mix per arrival (the `class` directive the
//     stream layer's deadline machinery keys on);
//   * WHAT — a moldable instance from the existing jobs::generators
//     families, its job count drawn Pareto(alpha, jobs_min) and clamped to
//     jobs_cap: many tiny instances, a heavy tail of big ones — the size
//     law measured on real HPC/serving traces, and exactly the shape that
//     stresses the portfolio and deadline windows.
//
// Determinism contract: the emitted stream is a pure function of the
// config — byte for byte. All randomness flows through seeds derived from
// config.seed with jobs::derive_seed (arrival thinning, assignment draws,
// and each instance's generator seed live in separate derived streams), so
// the manifest header (curve spec + seed + knobs) is sufficient to
// regenerate the identical storm anywhere.
//
// Output: a `# traffic-manifest v1` comment block (ignored by every reader,
// surfaced by the stream layer as the preamble), then one io-format record
// per arrival with `arrival`/`class` directives, then a trailer comment
// with the arrival count and the FNV-1a digest of the record bytes. The
// stream pipes straight into `batch_service --serve`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/jobs/generators.hpp"
#include "src/jobs/instance.hpp"
#include "src/traffic/rate_curve.hpp"

namespace moldable::traffic {

/// One SLA class and its share of the arrival mix. An empty name (or
/// "default") is the unlabelled class — no `class` directive is emitted.
struct ClassShare {
  std::string name;
  double weight = 1;
};

struct TrafficConfig {
  std::string curve = "flash";  ///< parse_curve_spec input
  std::uint64_t seed = 1;
  double horizon = 120;          ///< generate arrivals in [0, horizon]
  std::size_t max_arrivals = 0;  ///< stop after N arrivals; 0 = horizon only
  /// Weighted SLA class mix (weights need not sum to 1; all >= 0, sum > 0).
  std::vector<ClassShare> classes = {{"interactive", 0.5}, {"batch", 0.3}, {"", 0.2}};
  double pareto_alpha = 1.5;  ///< job-count tail index (> 0; smaller = heavier)
  std::size_t jobs_min = 1;   ///< Pareto scale: the minimum job count (>= 1)
  std::size_t jobs_cap = 64;  ///< hard cap on the job count (>= jobs_min)
  procs_t machines = 32;      ///< machine count of every emitted instance
  /// Families the WHAT layer draws from, uniformly per arrival.
  std::vector<jobs::Family> families = {jobs::Family::kAmdahl, jobs::Family::kPowerLaw,
                                        jobs::Family::kCommOverhead,
                                        jobs::Family::kMixed};
  /// Every Kth arrival re-emits one fixed instance (same bytes every time,
  /// arrival stamp aside) — the duplicate path that keeps serve-mode
  /// memoization exercised; 0 = no duplicates.
  std::size_t duplicate_every = 0;
  /// Memory axis (off by default): when memory_capacity > 0 every emitted
  /// record — the fixed duplicate included — carries a `memcap` directive
  /// and per-job `mem` footprints drawn log-uniformly from
  /// [mem_min, mem_max] (GeneratorConfig pass-through), so storms exercise
  /// the capability gate and memory-tight shedding end to end.
  double memory_capacity = 0;  ///< per-machine capacity; 0 = memory-free storm
  double mem_min = 1.0;        ///< smallest job footprint (log-uniform)
  double mem_max = 1.0;        ///< largest job footprint
};

/// What a generation run produced (also written as the trailer comment).
struct TrafficSummary {
  std::size_t arrivals = 0;
  std::uint64_t stream_digest = 0;  ///< FNV-1a over the record bytes (no comments)
};

class TrafficGenerator {
 public:
  /// Validates the config and parses the curve spec; throws
  /// std::invalid_argument on any bad knob.
  explicit TrafficGenerator(TrafficConfig config);

  /// Streams the manifest header, every record, and the trailer to `os`
  /// without materializing the storm (bounded memory at any arrival count).
  TrafficSummary write(std::ostream& os) const;

  /// Materializes the storm as instances (tests and in-process callers).
  std::vector<jobs::Instance> generate() const;

  const RateCurve& curve() const { return *curve_; }
  const TrafficConfig& config() const { return config_; }

 private:
  TrafficConfig config_;
  std::unique_ptr<RateCurve> curve_;
  double total_weight_ = 0;
};

/// Parses "name=weight,name=weight" (name "default" or "" = unlabelled).
/// Throws std::invalid_argument on malformed entries, a negative weight, or
/// an all-zero mix.
std::vector<ClassShare> parse_class_mix(const std::string& spec);

}  // namespace moldable::traffic
