// Knapsack hot-path kernels (Sections 4.1-4.3) on pinned shapes: the dense
// DP row update, dense solve with reconstruction, Pareto merge, pair-list
// solve, the compressible solver (Algorithm 2) and the bounded pipeline.
// Each is timed on fixed sizes/seeds and emitted to BENCH_knapsack.json for
// the perf-regression gate (bench/check_regression against
// bench/baselines/BENCH_knapsack.json). Shapes are pinned: changing them
// invalidates the committed baseline, so re-record it in the same PR.
#include <algorithm>
#include <cstdio>

#include "bench/pinned_harness.hpp"
#include "src/jobs/generators.hpp"
#include "src/knapsack/bounded.hpp"
#include "src/knapsack/compressible.hpp"
#include "src/knapsack/dense_dp.hpp"
#include "src/knapsack/pairlist.hpp"
#include "src/util/prng.hpp"

namespace {

using namespace moldable;
using knapsack::CompressibleInput;
using knapsack::Item;

std::vector<Item> make_items(int n, procs_t cap, std::uint64_t seed) {
  util::Prng rng(seed);
  std::vector<Item> items;
  for (int i = 0; i < n; ++i)
    items.push_back({static_cast<double>(rng.uniform_int(1, cap / 2)),
                     rng.uniform_real(0.1, 100)});
  return items;
}

/// The pinned shapes behind BENCH_knapsack.json. Volatile sinks keep the
/// kernels from being optimized away without perturbing their code.
std::vector<moldable::bench::PinnedResult> run_pinned() {
  constexpr int kReps = 7;
  std::vector<moldable::bench::PinnedResult> pinned;
  volatile double sink = 0;

  {
    const procs_t cap = 1 << 16;
    const auto items = make_items(256, cap, 3);
    pinned.push_back({"dense_row_n256_c65536", moldable::bench::best_of_ms(kReps, [&] {
                        sink = knapsack::dense_profit_row(items, cap).back();
                      })});
    pinned.push_back({"dense_dp_n256_c65536", moldable::bench::best_of_ms(kReps, [&] {
                        sink = knapsack::solve_dense(items, cap).profit;
                      })});
  }
  {
    const procs_t cap = 1 << 12;
    const auto items = make_items(256, cap, 3);
    pinned.push_back({"pareto_merge_n256_c4096", moldable::bench::best_of_ms(kReps, [&] {
                        sink = knapsack::exact_pareto(items, static_cast<double>(cap))
                                   .back()
                                   .profit;
                      })});
    pinned.push_back({"pairlist_solve_n256_c4096",
                      moldable::bench::best_of_ms(kReps, [&] {
                        sink = knapsack::solve_pairlist(items, static_cast<double>(cap))
                                   .profit;
                      })});
  }
  {
    // The Algorithm 2 engine at cap 2^16, items at least cap/16 wide
    // compressible — the compressed-item path.
    const procs_t cap = 1 << 16;
    CompressibleInput in;
    in.items = make_items(256, cap, 3);
    in.capacity = cap;
    in.rho = 0.1;
    const double wide = static_cast<double>(cap) / 16;
    double amin = static_cast<double>(cap);
    for (const Item& it : in.items) {
      const bool comp = it.size >= wide;
      in.compressible.push_back(comp ? 1 : 0);
      if (comp) amin = std::min(amin, it.size);
    }
    in.alpha_min = amin;
    in.beta_max = cap;
    in.nbar = 32;
    pinned.push_back({"compressible_n256_c65536",
                      moldable::bench::best_of_ms(kReps, [&] {
                        sink = knapsack::solve_compressible(in).profit;
                      })});
  }
  {
    // The Section 4.3 bounded pipeline: round the big unforced jobs, group
    // into types, expand binary containers, and solve the resulting 0/1
    // instance — the per-deadline-probe cost inside Algorithm 3.
    const jobs::Instance inst = jobs::make_instance(jobs::Family::kMixed, 300, 4096, 11);
    const double d = 1.4 * inst.trivial_lower_bound();
    const auto r = knapsack::BoundedRounding::make(d, 0.25, inst.machines());
    std::vector<std::size_t> big;
    for (std::size_t j = 0; j < inst.size(); ++j) {
      const jobs::Job& job = inst.job(j);
      if (job.t1() > d / 2 && leq_tol(job.tmin(), d / 2)) big.push_back(j);
    }
    pinned.push_back({"bounded_round_pack_n300_m4096",
                      moldable::bench::best_of_ms(kReps, [&] {
                        std::vector<knapsack::RoundedBigJob> rounded;
                        rounded.reserve(big.size());
                        for (std::size_t j : big)
                          rounded.push_back(knapsack::round_big_job(inst, j, r));
                        const knapsack::BoundedInstance bk(rounded);
                        sink = knapsack::solve_pairlist(
                                   bk.items(), static_cast<double>(inst.machines()))
                                   .profit;
                      })});
  }
  (void)sink;
  return pinned;
}

}  // namespace

int main() {
  const auto pinned = run_pinned();
  for (const auto& p : pinned) std::printf("%-28s %10.4f ms\n", p.name.c_str(), p.ms);
  if (moldable::bench::write_pinned_json("BENCH_knapsack.json", "knapsack", "", pinned))
    std::printf("wrote BENCH_knapsack.json\n");
  return 0;
}
