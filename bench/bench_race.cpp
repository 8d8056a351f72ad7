// Portfolio racing benchmark: sequential vs raced variant execution on a
// heavy-tailed instance family, reported as per-instance latency
// percentiles (the serving-tail metric racing exists to cut). Emits
// BENCH_race.json next to the binary so the numbers seed the perf
// trajectory across PRs.
//
// Two effects are measured, matching the engine's racing contract:
//   * overlap — a raced instance costs max(variant walls) instead of the
//     sequential sum, which compresses the tail wherever several variants
//     have comparable cost (mrt vs the Algorithm 1/3 duals here);
//   * early-cancel — on instances where a completion hits the certified
//     lower bound (the single-job deciders below), the remaining lanes are
//     cancelled/skipped; the JSON reports the deterministic cancel tally.
//
// Determinism is cross-checked on every run: all execution modes must agree
// on the result digest bit for bit, or the bench aborts.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/engine/portfolio.hpp"
#include "src/jobs/generators.hpp"
#include "src/util/timer.hpp"

namespace {

using namespace moldable;
using engine::PortfolioConfig;
using engine::PortfolioResult;
using engine::PortfolioSolver;
using engine::TieBreak;

const std::vector<std::string> kVariants = {"mrt", "algorithm1", "algorithm3-linear"};

/// Heavy-tailed family: mixed mid-size instances whose machine counts span
/// 256..4096 (mrt's O(nm) dual calls make the large-m ones the tail), plus
/// single-job deciders where the early-cancel rule provably fires.
std::vector<jobs::Instance> make_family() {
  std::vector<jobs::Instance> family;
  const auto families = jobs::all_families();
  for (std::size_t i = 0; i < 32; ++i) {
    const procs_t m = procs_t{256} << (i % 5);  // 256..4096
    family.push_back(
        jobs::make_instance(families[i % families.size()], 48, m, 9000 + i));
  }
  for (std::uint64_t s = 0; s < 8; ++s)
    family.push_back(jobs::make_instance(jobs::Family::kAmdahl, 1, 64, 9100 + s));
  return family;
}

PortfolioConfig make_config(bool race, unsigned width) {
  PortfolioConfig config;
  config.variants = kVariants;
  config.tie_break = TieBreak::kPortfolioOrder;
  config.threads = 1;  // isolate the racing effect from batch sharding
  config.race = race;
  config.race_width = width;
  return config;
}

struct ModeReport {
  std::string name;
  double p50_ms = 0, p99_ms = 0, max_ms = 0, total_s = 0;
  std::size_t cancelled = 0;
  std::uint64_t digest = 0;
};

/// Solves every instance as its own single-instance batch and reports the
/// per-instance latency distribution — the tail a serving deployment sees.
ModeReport run_mode(const std::vector<jobs::Instance>& family, const std::string& name,
                    bool race, unsigned width) {
  const PortfolioSolver solver;
  const PortfolioConfig config = make_config(race, width);
  ModeReport report;
  report.name = name;
  std::vector<double> latencies;
  latencies.reserve(family.size());
  std::uint64_t digest = 1469598103934665603ull;  // FNV offset basis
  for (const jobs::Instance& inst : family) {
    util::Timer timer;
    const PortfolioResult r = solver.solve({inst}, config);
    latencies.push_back(timer.seconds());
    report.total_s += latencies.back();
    report.cancelled += r.cancelled_attempts;
    digest ^= r.digest();  // order-insensitive fold is enough for a cross-check
  }
  const engine::exec::Percentiles p = engine::exec::percentiles_of(latencies);
  report.p50_ms = p.p50 * 1e3;
  report.p99_ms = p.p99 * 1e3;
  report.max_ms = p.max * 1e3;
  report.digest = digest;
  return report;
}

}  // namespace

int main() {
  // Head-to-head latency-tail comparison + determinism cross-check, emitted
  // as BENCH_race.json. Each mode runs kReps times: the best (minimum-total)
  // run is reported and doubles as the pinned shape for the perf-regression
  // gate, and every repetition's digest is cross-checked — a racing engine
  // whose digest wobbles across reps is a determinism bug, caught here
  // before it reaches the serving gates.
  constexpr int kReps = 5;
  const auto family = make_family();
  std::vector<ModeReport> reports;
  for (const auto& [name, race, width] :
       {std::tuple<const char*, bool, unsigned>{"sequential", false, 0},
        {"race-w2", true, 2},
        {"race-full", true, 0}}) {
    ModeReport best;
    for (int rep = 0; rep < kReps; ++rep) {
      ModeReport r = run_mode(family, name, race, width);
      if (rep > 0 && r.digest != best.digest) {
        std::fprintf(stderr,
                     "bench_race: DETERMINISM VIOLATION: %s digest differs "
                     "across repetitions\n",
                     name);
        return 1;
      }
      if (rep == 0 || r.total_s < best.total_s) best = std::move(r);
    }
    reports.push_back(std::move(best));
  }

  for (const ModeReport& r : reports) {
    if (r.digest != reports.front().digest) {
      std::fprintf(stderr,
                   "bench_race: DETERMINISM VIOLATION: %s digest differs from "
                   "sequential\n",
                   r.name.c_str());
      return 1;
    }
  }

  std::FILE* json = std::fopen("BENCH_race.json", "w");
  if (json) {
    std::fprintf(json,
                 "{\n  \"bench\": \"race\",\n  \"portfolio\": "
                 "\"mrt,algorithm1,algorithm3-linear\",\n  \"instances\": %zu,\n"
                 "  \"modes\": [\n",
                 family.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const ModeReport& r = reports[i];
      std::fprintf(json,
                   "    {\"name\": \"%s\", \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
                   "\"max_ms\": %.4f, \"total_s\": %.4f, \"cancelled\": %zu}%s\n",
                   r.name.c_str(), r.p50_ms, r.p99_ms, r.max_ms, r.total_s,
                   r.cancelled, i + 1 < reports.size() ? "," : "");
    }
    // Pinned shapes for bench/check_regression: the best-of-reps mode
    // totals, in the same {"name", "ms"} schema as the other benches.
    std::fprintf(json, "  ],\n  \"pinned\": [\n");
    for (std::size_t i = 0; i < reports.size(); ++i)
      std::fprintf(json, "    {\"name\": \"%s_total_40inst\", \"ms\": %.4f}%s\n",
                   reports[i].name.c_str(), reports[i].total_s * 1e3,
                   i + 1 < reports.size() ? "," : "");
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
  }
  for (const ModeReport& r : reports)
    std::printf("%-11s p50 %8.3f ms  p99 %8.3f ms  max %8.3f ms  total %7.3f s  "
                "cancelled %zu\n",
                r.name.c_str(), r.p50_ms, r.p99_ms, r.max_ms, r.total_s, r.cancelled);
  std::printf("determinism: OK (all modes agree); wrote BENCH_race.json\n");
  return 0;
}
