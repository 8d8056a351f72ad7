// Theorem 2 reproduction: the FPTAS for m >= 8n/eps runs in
// O(n log^2 m (log m + log 1/eps)) — polylogarithmic in the machine count —
// and returns schedules within (1+eps) of optimal.
//
// Shapes to observe: wall time grows ~log^2..log^3 in m while m spans 26
// binary orders of magnitude; the quality column (makespan vs the certified
// lower bound) stays below 1+eps against OPT, i.e. below 2(1+eps) against
// the bound, and is typically near 1.
#include <cstdio>
#include <cstring>
#include <iostream>

#include "bench/pinned_harness.hpp"
#include "src/core/fptas.hpp"
#include "src/core/scheduler.hpp"
#include "src/jobs/generators.hpp"
#include "src/sched/validator.hpp"
#include "src/util/table.hpp"
#include "src/util/timer.hpp"

namespace {

/// The pinned shapes behind BENCH_fptas.json (perf-regression gate): one
/// huge-m solve and one wide-n solve, both past the Theorem 2 threshold.
std::vector<moldable::bench::PinnedResult> run_pinned() {
  using namespace moldable;
  using core::Algorithm;
  constexpr int kReps = 7;
  std::vector<moldable::bench::PinnedResult> pinned;
  volatile double sink = 0;
  {
    const jobs::Instance inst =
        jobs::make_instance(jobs::Family::kMixed, 64, procs_t{1} << 30, 11);
    pinned.push_back({"fptas_mixed_n64_m2pow30", moldable::bench::best_of_ms(kReps, [&] {
                        sink = core::schedule_moldable(inst, 0.25, Algorithm::kFptas)
                                   .lower_bound;
                      })});
  }
  {
    const auto m = static_cast<procs_t>(core::fptas_machine_threshold(256, 0.25) * 2);
    const jobs::Instance inst = jobs::make_instance(jobs::Family::kAmdahl, 256, m, 9);
    pinned.push_back({"fptas_amdahl_n256_2xthresh",
                      moldable::bench::best_of_ms(kReps, [&] {
                        sink = core::schedule_moldable(inst, 0.25, Algorithm::kFptas)
                                   .lower_bound;
                      })});
  }
  (void)sink;
  return pinned;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace moldable;
  using core::Algorithm;

  const auto pinned = run_pinned();
  for (const auto& p : pinned) std::printf("%-28s %10.4f ms\n", p.name.c_str(), p.ms);
  if (moldable::bench::write_pinned_json("BENCH_fptas.json", "fptas", "", pinned))
    std::printf("wrote BENCH_fptas.json\n\n");
  // The perf gate only needs the pinned JSON; the sweeps below are the
  // human-facing shape reproduction.
  if (argc > 1 && std::strcmp(argv[1], "--pinned-only") == 0) return 0;

  std::cout << "=== Theorem 2 reproduction: FPTAS for large machine counts ===\n\n";

  {
    std::cout << "--- sweep m (n = 64, eps = 0.25; threshold m >= 24n/eps = 6144) ---\n";
    util::Table t({"m", "time ms", "dual calls", "makespan/lb"});
    for (int p = 14; p <= 40; p += 2) {
      const procs_t m = procs_t{1} << p;
      const jobs::Instance inst = jobs::make_instance(jobs::Family::kMixed, 64, m, 7);
      util::Timer timer;
      const core::ScheduleResult r = core::schedule_moldable(inst, 0.25, Algorithm::kFptas);
      const double t_ms = timer.millis();
      sched::validate_or_throw(r.schedule, inst);
      t.add_row({"2^" + std::to_string(p), util::fmt(t_ms, 4),
                 std::to_string(r.dual_calls),
                 util::fmt(r.schedule.makespan() / r.lower_bound, 4)});
    }
    t.print(std::cout);
    std::cout << "shape check: time roughly polylog in m across 26 doublings.\n\n";
  }

  {
    std::cout << "--- sweep n (m = 24n/eps * 2, eps = 0.25) ---\n";
    util::Table t({"n", "m", "time ms", "time/n us"});
    for (std::size_t n : {16, 32, 64, 128, 256, 512, 1024}) {
      const auto m = static_cast<procs_t>(core::fptas_machine_threshold(n, 0.25) * 2);
      const jobs::Instance inst = jobs::make_instance(jobs::Family::kAmdahl, n, m, 9);
      util::Timer timer;
      const core::ScheduleResult r = core::schedule_moldable(inst, 0.25, Algorithm::kFptas);
      const double t_ms = timer.millis();
      sched::validate_or_throw(r.schedule, inst);
      t.add_row({std::to_string(n), std::to_string(m), util::fmt(t_ms, 4),
                 util::fmt(t_ms * 1000 / static_cast<double>(n), 3)});
    }
    t.print(std::cout);
    std::cout << "shape check: time/n ~flat => linear in n.\n\n";
  }

  {
    std::cout << "--- sweep eps (n = 64, m = 2^30) ---\n";
    util::Table t({"eps", "time ms", "dual calls", "makespan/lb"});
    const jobs::Instance inst =
        jobs::make_instance(jobs::Family::kMixed, 64, procs_t{1} << 30, 11);
    for (double eps : {1.0, 0.5, 0.25, 0.1, 0.05, 0.01}) {
      util::Timer timer;
      const core::ScheduleResult r = core::schedule_moldable(inst, eps, Algorithm::kFptas);
      const double t_ms = timer.millis();
      t.add_row({util::fmt(eps, 3), util::fmt(t_ms, 4), std::to_string(r.dual_calls),
                 util::fmt(r.schedule.makespan() / r.lower_bound, 4)});
    }
    t.print(std::cout);
    std::cout << "shape check: dual calls grow ~log(1/eps); ratio tightens.\n";
  }
  return 0;
}
