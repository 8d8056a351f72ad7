// Traffic-generation benchmark: arrivals/second of the thinning sampler
// per curve family, and full storm emission (arrivals + class mix + Pareto
// sizing + io serialization) — the producer-side cost of the serve-mode
// pipeline. Emits BENCH_traffic.json next to the binary in the shared
// pinned schema (bench/pinned_harness.hpp): per-curve sample/emit kernels
// as best-of-R `"pinned"` entries gated by bench/check_regression against
// bench/baselines/, with the per-curve throughput table kept as extra
// members. Shapes are pinned: changing a curve spec or the seed
// invalidates the committed baseline, so re-record it in the same PR.
//
// Thinning efficiency is the interesting knob: candidates are proposed at
// the analytic envelope λ*, so a peaky curve (flash crowd: λ* = 20x the
// baseline) rejects most candidates off-peak while a flat one accepts
// nearly all — the per-curve arrivals/sec spread below is that acceptance
// ratio made visible. Determinism is cross-checked on every run: two
// generations of every storm must agree byte for byte, or the bench aborts.
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/pinned_harness.hpp"
#include "src/traffic/arrival_process.hpp"
#include "src/traffic/rate_curve.hpp"
#include "src/traffic/traffic_gen.hpp"
#include "src/util/timer.hpp"

namespace {

using namespace moldable;
using traffic::ArrivalProcess;
using traffic::TrafficConfig;
using traffic::TrafficGenerator;
using traffic::TrafficSummary;

struct CurveCase {
  const char* name;
  const char* spec;
  double horizon;
};

// Comparable expected arrival counts (~25k each) so the per-curve numbers
// isolate acceptance ratio, not storm size.
const std::vector<CurveCase> kCurves = {
    {"const", "const:rate=25", 1000},
    {"steps", "steps:0=10,300=60,600=25", 800},
    {"diurnal", "diurnal:base=15,amp=25,period=40", 800},
    {"flash", "flash:base=20,peak=400,t0=20,ramp=5,hold=15,decay=20", 120},
};

struct CurveReport {
  std::string name;
  std::size_t arrivals = 0;
  double arrivals_per_sec = 0;  ///< sampler-only throughput
  double emit_per_sec = 0;      ///< full storm emission throughput
};

/// Times one curve's sampler and full emission as pinned best-of-R kernels
/// (appended to `pinned`) and returns the human-readable throughput row.
CurveReport measure(const CurveCase& c,
                    std::vector<moldable::bench::PinnedResult>& pinned) {
  constexpr int kReps = 5;
  CurveReport report;
  report.name = c.name;
  const auto curve = traffic::parse_curve_spec(c.spec);

  std::vector<double> times;
  const double sample_ms = moldable::bench::best_of_ms(kReps, [&] {
    times = ArrivalProcess::generate(*curve, c.horizon, 7);
  });
  report.arrivals = times.size();
  report.arrivals_per_sec =
      sample_ms > 0 ? static_cast<double>(times.size()) / (sample_ms / 1e3) : 0;
  pinned.push_back({std::string("sample_") + c.name, sample_ms});

  TrafficConfig config;
  config.curve = c.spec;
  config.seed = 7;
  config.horizon = c.horizon;
  config.duplicate_every = 11;
  TrafficSummary summary;
  std::string storm_bytes;
  const double emit_ms = moldable::bench::best_of_ms(kReps, [&] {
    std::ostringstream storm;
    summary = TrafficGenerator(config).write(storm);
    storm_bytes = storm.str();
  });
  report.emit_per_sec =
      emit_ms > 0 ? static_cast<double>(summary.arrivals) / (emit_ms / 1e3) : 0;
  pinned.push_back({std::string("emit_") + c.name, emit_ms});

  // Determinism cross-check: the same config must produce the same bytes.
  std::ostringstream again;
  const TrafficSummary re = TrafficGenerator(config).write(again);
  if (re.stream_digest != summary.stream_digest || again.str() != storm_bytes) {
    std::fprintf(stderr,
                 "bench_traffic: DETERMINISM VIOLATION: %s regenerated "
                 "differently from the same config\n",
                 c.name);
    std::exit(1);
  }
  return report;
}

}  // namespace

int main() {
  // Per-curve throughput + determinism cross-check, emitted as
  // BENCH_traffic.json (pinned schema).
  std::vector<moldable::bench::PinnedResult> pinned;
  std::vector<CurveReport> reports;
  for (const CurveCase& c : kCurves) reports.push_back(measure(c, pinned));

  // The throughput table rides along as extra top-level members so the
  // trajectory stays human-readable next to the gated "pinned" array.
  std::string extra = "  \"seed\": 7,\n  \"curves\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CurveReport& r = reports[i];
    char row[256];
    std::snprintf(row, sizeof row,
                  "    {\"name\": \"%s\", \"arrivals\": %zu, "
                  "\"sample_arrivals_per_sec\": %.0f, "
                  "\"emit_arrivals_per_sec\": %.0f}%s\n",
                  r.name.c_str(), r.arrivals, r.arrivals_per_sec, r.emit_per_sec,
                  i + 1 < reports.size() ? "," : "");
    extra += row;
  }
  extra += "  ],\n";
  const bool wrote =
      moldable::bench::write_pinned_json("BENCH_traffic.json", "traffic", extra, pinned);

  for (const CurveReport& r : reports)
    std::printf("%-8s %8zu arrivals   sample %12.0f /s   emit %12.0f /s\n",
                r.name.c_str(), r.arrivals, r.arrivals_per_sec, r.emit_per_sec);
  std::printf("determinism: OK (regeneration is byte-identical)%s\n",
              wrote ? "; wrote BENCH_traffic.json" : "");
  return 0;
}
