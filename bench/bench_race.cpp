// Portfolio latency benchmark: the sequential early-cancel portfolio on a
// heavy-tailed instance family, reported as per-instance latency
// percentiles (the serving-tail metric). Emits BENCH_race.json next to the
// binary so the numbers seed the perf trajectory across PRs.
//
// Each instance runs the variants one after another in portfolio order; on
// instances where a completion hits the certified lower bound (the
// single-job deciders below) the remaining variants are skipped, and the
// JSON reports the deterministic cancel tally.
//
// Determinism is cross-checked on every run: every repetition must agree
// on the result digest bit for bit, or the bench aborts.
//
// A second pinned shape times the certified lower bound alone (the
// Ludwig-Tiwari estimate omega every portfolio solve starts from) over the
// same family, so the gate sees the estimator and its gamma searches
// separately from the dual calls.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/pinned_harness.hpp"
#include "src/engine/policy.hpp"
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

struct Report {
  double p50_ms = 0, p99_ms = 0, max_ms = 0, total_s = 0;
  std::size_t cancelled = 0;
  std::uint64_t digest = 0;
};

/// Solves every instance as its own single-instance batch and reports the
/// per-instance latency distribution — the tail a serving deployment sees.
Report run_once(const std::vector<jobs::Instance>& family) {
  const PortfolioSolver solver;
  PortfolioConfig config;
  config.variants = kVariants;
  config.tie_break = TieBreak::kPortfolioOrder;
  config.threads = 1;  // isolate the per-instance cost from batch sharding
  Report report;
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
  // The family runs kReps times: the best (minimum-total) run is reported
  // and doubles as the pinned shape for the perf-regression gate, and every
  // repetition's digest is cross-checked — a digest that wobbles across
  // reps is a determinism bug, caught here before it reaches the serving
  // gates.
  constexpr int kReps = 5;
  const auto family = make_family();
  Report best;
  for (int rep = 0; rep < kReps; ++rep) {
    Report r = run_once(family);
    if (rep > 0 && r.digest != best.digest) {
      std::fprintf(stderr,
                   "bench_race: DETERMINISM VIOLATION: digest differs across "
                   "repetitions\n");
      return 1;
    }
    if (rep == 0 || r.total_s < best.total_s) best = std::move(r);
  }

  volatile double sink = 0;
  const double omega_ms = bench::best_of_ms(kReps, [&] {
    for (const jobs::Instance& inst : family) sink = engine::certified_lower_bound(inst);
  });
  (void)sink;

  std::FILE* json = std::fopen("BENCH_race.json", "w");
  if (json) {
    std::fprintf(json,
                 "{\n  \"bench\": \"race\",\n  \"portfolio\": "
                 "\"mrt,algorithm1,algorithm3-linear\",\n  \"instances\": %zu,\n"
                 "  \"modes\": [\n"
                 "    {\"name\": \"sequential\", \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
                 "\"max_ms\": %.4f, \"total_s\": %.4f, \"cancelled\": %zu}\n",
                 family.size(), best.p50_ms, best.p99_ms, best.max_ms, best.total_s,
                 best.cancelled);
    // Pinned shape for bench/check_regression: the best-of-reps total, in
    // the same {"name", "ms"} schema as the other benches.
    std::fprintf(json,
                 "  ],\n  \"pinned\": [\n"
                 "    {\"name\": \"sequential_total_40inst\", \"ms\": %.4f},\n"
                 "    {\"name\": \"omega_total_40inst\", \"ms\": %.4f}\n  ]\n}\n",
                 best.total_s * 1e3, omega_ms);
    std::fclose(json);
  }
  std::printf("sequential  p50 %8.3f ms  p99 %8.3f ms  max %8.3f ms  total %7.3f s  "
              "cancelled %zu\n",
              best.p50_ms, best.p99_ms, best.max_ms, best.total_s, best.cancelled);
  std::printf("omega       total %7.3f ms (certified lower bound alone)\n", omega_ms);
  std::printf("determinism: OK (every repetition agrees); wrote BENCH_race.json\n");
  return 0;
}
