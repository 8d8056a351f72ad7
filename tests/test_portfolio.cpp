// Portfolio-engine tests: spec parsing, the combined-certificate semantics
// (min makespan / max lower bound), winner selection determinism across
// thread counts, all-variants-fail isolation, the per-variant stats table,
// memoization, the early-cancel rule on mock solvers (suite EarlyCancel),
// and single-solver mode (suite SingleSolver) — a one-variant portfolio is
// exactly a direct registry call.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "src/core/scheduler.hpp"
#include "src/engine/portfolio.hpp"
#include "src/engine/registry.hpp"
#include "src/jobs/generators.hpp"

namespace moldable::engine {
namespace {

using jobs::Family;
using jobs::Instance;
using jobs::make_instance;

std::vector<Instance> small_batch(std::size_t count, procs_t m = 64) {
  std::vector<Instance> batch;
  const auto families = jobs::all_families();
  for (std::size_t i = 0; i < count; ++i)
    batch.push_back(make_instance(families[i % families.size()], 16, m, 100 + i));
  return batch;
}

/// A single solver is the one-variant portfolio {name}.
PortfolioConfig single(const std::string& name) {
  PortfolioConfig config;
  config.variants = {name};
  return config;
}

Instance memory_capped(std::uint64_t seed) {
  Instance inst = make_instance(Family::kAmdahl, 4, 8, seed);
  inst.set_memory_capacity(4.0);
  inst.set_job_memory({10.0, 1.0, 6.0, 3.0});  // kmin = {3, 1, 2, 1}
  return inst;
}

/// A valid schedule running every job back to back on `procs` processors:
/// trivially capacity-feasible, deterministic, and its makespan shrinks as
/// `procs` grows (per-job times are non-increasing). The mocks below use it
/// to emit better/worse results without real solving.
core::ScheduleResult stacked_result(const Instance& inst, procs_t procs) {
  core::ScheduleResult out;
  double now = 0;
  for (std::size_t j = 0; j < inst.size(); ++j) {
    const double t = inst.job(j).time(procs);
    out.schedule.add({j, now, procs, t});
    now += t;
  }
  out.makespan = now;
  out.lower_bound = inst.size() == 0 ? 0 : inst.trivial_lower_bound();
  out.ratio_vs_lower = out.lower_bound > 0 ? out.makespan / out.lower_bound : 1;
  out.guarantee = 2;
  return out;
}

/// One moldable job with strictly-decreasing times, so a single-job
/// instance's estimator bound omega equals t(m) exactly — the regime where
/// a full-width completion is provably optimal and *decides* the instance.
Instance single_job_instance(procs_t m, std::uint64_t seed) {
  return make_instance(Family::kAmdahl, 1, m, seed);
}

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::microseconds(static_cast<long>(ms * 1000)));
}

/// A registry of hand-built variants for the early-cancel tests. All mocks
/// return deterministic results; only their timing differs.
struct MockRegistry {
  AlgorithmRegistry registry;

  /// Completes with the full-machine stacked schedule after `delay_ms` — on
  /// a single-job instance its makespan equals omega, so it decides.
  void add_optimal(const std::string& name, double delay_ms = 0) {
    registry.add(name, [delay_ms](const Instance& i, const SolverConfig&) {
      sleep_ms(delay_ms);
      return stacked_result(i, i.machines());
    });
  }

  /// Completes with the worst (1-processor) stacked schedule after
  /// `delay_ms`, counting its runs in `runs` when given.
  void add_weak(const std::string& name, double delay_ms = 0,
                std::atomic<int>* runs = nullptr) {
    registry.add(name, [delay_ms, runs](const Instance& i, const SolverConfig&) {
      if (runs) runs->fetch_add(1, std::memory_order_relaxed);
      sleep_ms(delay_ms);
      return stacked_result(i, 1);
    });
  }
};

TEST(PortfolioSpec, ParsesAndTrims) {
  EXPECT_EQ(parse_portfolio_spec("fptas,mrt"),
            (std::vector<std::string>{"fptas", "mrt"}));
  EXPECT_EQ(parse_portfolio_spec(" fptas ,\tmrt , lt-2approx"),
            (std::vector<std::string>{"fptas", "mrt", "lt-2approx"}));
  EXPECT_EQ(parse_portfolio_spec("auto"), (std::vector<std::string>{"auto"}));
}

TEST(PortfolioSpec, RejectsEmptyAndDuplicates) {
  EXPECT_THROW(parse_portfolio_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_portfolio_spec("fptas,,mrt"), std::invalid_argument);
  EXPECT_THROW(parse_portfolio_spec("fptas,"), std::invalid_argument);
  EXPECT_THROW(parse_portfolio_spec("mrt,mrt"), std::invalid_argument);
  // Duplicates must be caught after trimming (the canonical name is what
  // would run twice), and the diagnostic must name the offender clearly.
  EXPECT_THROW(parse_portfolio_spec("fptas, fptas"), std::invalid_argument);
  EXPECT_THROW(parse_portfolio_spec("fptas,mrt,exact,mrt"), std::invalid_argument);
  try {
    parse_portfolio_spec("fptas,fptas");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate"), std::string::npos) << what;
    EXPECT_NE(what.find("'fptas'"), std::string::npos) << what;
  }
}

TEST(PortfolioSolver, InvalidConfigThrowsUpFront) {
  const auto batch = small_batch(2);
  PortfolioConfig empty;
  EXPECT_THROW(PortfolioSolver().solve(batch, empty), std::invalid_argument);

  PortfolioConfig unknown;
  unknown.variants = {"mrt", "no-such-solver"};
  try {
    PortfolioSolver().solve(batch, unknown);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("known:"), std::string::npos);
  }

  PortfolioConfig duplicate;
  duplicate.variants = {"mrt", "mrt"};
  EXPECT_THROW(PortfolioSolver().solve(batch, duplicate), std::invalid_argument);

  PortfolioConfig bad_eps;
  bad_eps.variants = {"mrt"};
  bad_eps.eps = 0;
  EXPECT_THROW(PortfolioSolver().solve(batch, bad_eps), std::invalid_argument);
}

TEST(PortfolioSolver, SingleVariantEqualsDirectRegistryCall) {
  // Single-solver mode is the one-variant portfolio: for every builtin, each
  // outcome must carry exactly what a direct registry call returns — or
  // fail with exactly its error — with no estimator or early-cancel
  // bookkeeping on top.
  const std::vector<Instance> batch = {
      make_instance(Family::kMixed, 4, 8, 7),     // exact-solvable
      make_instance(Family::kAmdahl, 4, 512, 7),  // FPTAS regime, over exact's caps
      memory_capped(41),                          // memory-aware variants only
  };
  SolverConfig direct_config;
  direct_config.eps = 0.5;
  for (const std::string& name : AlgorithmRegistry::global().names()) {
    PortfolioConfig pc = single(name);
    pc.eps = direct_config.eps;
    const PortfolioResult r = PortfolioSolver().solve(batch, pc);
    ASSERT_EQ(r.outcomes.size(), batch.size()) << name;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const PortfolioOutcome& o = r.outcomes[i];
      ASSERT_EQ(o.attempts.size(), 1u) << name << " " << i;
      const VariantAttempt& a = o.attempts[0];
      EXPECT_EQ(a.algorithm, name);
      try {
        const core::ScheduleResult direct =
            AlgorithmRegistry::global().solve(name, batch[i], direct_config);
        ASSERT_TRUE(o.ok) << name << " " << i << ": " << a.error;
        EXPECT_EQ(o.winner, name);
        EXPECT_EQ(o.makespan, direct.makespan) << name << " " << i;
        EXPECT_EQ(o.lower_bound, direct.lower_bound) << name << " " << i;
        EXPECT_EQ(o.ratio, direct.ratio_vs_lower) << name << " " << i;
        EXPECT_EQ(o.guarantee, direct.guarantee) << name << " " << i;
        EXPECT_EQ(a.dual_calls, direct.dual_calls) << name << " " << i;
        EXPECT_EQ(a.used, direct.used) << name << " " << i;
      } catch (const std::exception& e) {
        EXPECT_FALSE(o.ok) << name << " " << i;
        EXPECT_EQ(a.error, e.what()) << name << " " << i;
      }
    }
    ASSERT_EQ(r.per_variant.size(), 1u);
    EXPECT_EQ(r.per_variant[0].wins, r.solved) << name;
    EXPECT_EQ(r.per_variant[0].solved, r.solved) << name;
    EXPECT_EQ(r.per_variant[0].cancelled, 0u) << name;
    EXPECT_DOUBLE_EQ(r.per_variant[0].gap_max, 0.0) << name;
  }
}

TEST(PortfolioSolver, CombinedCertificateIsAtLeastAsTightAsEveryVariant) {
  const auto batch = small_batch(18);
  PortfolioConfig pc;
  pc.variants = {"mrt", "algorithm1", "lt-2approx"};
  pc.eps = 0.3;
  const PortfolioResult r = PortfolioSolver().solve(batch, pc);
  EXPECT_EQ(r.solved, batch.size());

  for (const PortfolioOutcome& o : r.outcomes) {
    ASSERT_TRUE(o.ok) << o.index;
    ASSERT_EQ(o.attempts.size(), 3u);
    bool winner_attains_best = false;
    for (const VariantAttempt& a : o.attempts) {
      if (!a.ok) continue;
      EXPECT_LE(o.makespan, a.makespan) << o.index << " " << a.algorithm;
      EXPECT_GE(o.lower_bound, a.lower_bound) << o.index << " " << a.algorithm;
      EXPECT_LE(o.ratio, a.ratio + 1e-12) << o.index << " " << a.algorithm;
      if (a.algorithm == o.winner) {
        winner_attains_best = a.makespan == o.makespan;
        EXPECT_GE(o.guarantee, 0);
        EXPECT_LE(o.guarantee, a.guarantee);
      }
    }
    EXPECT_TRUE(winner_attains_best) << o.index;
    EXPECT_GE(o.ratio, 1.0 - 1e-9) << o.index;
  }
}

TEST(PortfolioSolver, DeterministicAcrossThreadCounts) {
  const auto batch = small_batch(24);
  PortfolioConfig serial;
  serial.variants = {"mrt", "algorithm3-linear", "lt-2approx"};
  serial.threads = 1;
  PortfolioConfig parallel = serial;
  parallel.threads = 5;

  const PortfolioResult a = PortfolioSolver().solve(batch, serial);
  const PortfolioResult b = PortfolioSolver().solve(batch, parallel);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.digest(), PortfolioSolver().solve(batch, serial).digest());

  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const PortfolioOutcome& x = a.outcomes[i];
    const PortfolioOutcome& y = b.outcomes[i];
    EXPECT_EQ(x.ok, y.ok);
    EXPECT_DOUBLE_EQ(x.makespan, y.makespan);
    EXPECT_DOUBLE_EQ(x.lower_bound, y.lower_bound);
    EXPECT_DOUBLE_EQ(x.ratio, y.ratio);
    EXPECT_DOUBLE_EQ(x.guarantee, y.guarantee);
    // Winner identity is deterministic whenever the best makespan is
    // attained by exactly one variant (wall time only breaks exact ties).
    std::size_t best_count = 0;
    for (const VariantAttempt& att : x.attempts)
      if (att.ok && att.makespan == x.makespan) ++best_count;
    if (best_count == 1) {
      EXPECT_EQ(x.winner, y.winner) << i;
    }
    ASSERT_EQ(x.attempts.size(), y.attempts.size());
    for (std::size_t v = 0; v < x.attempts.size(); ++v) {
      EXPECT_EQ(x.attempts[v].ok, y.attempts[v].ok);
      EXPECT_DOUBLE_EQ(x.attempts[v].makespan, y.attempts[v].makespan);
      EXPECT_DOUBLE_EQ(x.attempts[v].lower_bound, y.attempts[v].lower_bound);
    }
  }
}

TEST(PortfolioSolver, AllVariantsFailIsIsolatedToTheOffendingInstance) {
  // `exact` hard-caps at tiny instances and `fptas` requires a large machine
  // count relative to n: the middle instance violates both, so every variant
  // fails on it, while its neighbours solve via `exact`.
  std::vector<Instance> batch;
  batch.push_back(make_instance(Family::kMixed, 4, 8, 21));
  batch.push_back(make_instance(Family::kMixed, 40, 64, 22));  // over both caps
  batch.push_back(make_instance(Family::kMixed, 4, 8, 23));
  PortfolioConfig pc;
  pc.variants = {"exact", "fptas"};
  pc.eps = 0.5;
  pc.threads = 2;
  const PortfolioResult r = PortfolioSolver().solve(batch, pc);
  EXPECT_EQ(r.solved, 2u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_TRUE(r.outcomes[0].ok);
  EXPECT_FALSE(r.outcomes[1].ok);
  EXPECT_TRUE(r.outcomes[1].winner.empty());
  for (const VariantAttempt& a : r.outcomes[1].attempts) {
    EXPECT_FALSE(a.ok);
    EXPECT_FALSE(a.error.empty()) << a.algorithm;
  }
  EXPECT_TRUE(r.outcomes[2].ok);
  EXPECT_EQ(r.outcomes[0].winner, "exact");
  // fptas never solves anything here. On the tiny outer instances `exact`
  // completes at the certified lower bound (omega == OPT for these), so the
  // early-cancel rule excludes fptas there — only the middle instance, where
  // exact itself fails, records an fptas *failure*.
  ASSERT_EQ(r.per_variant.size(), 2u);
  EXPECT_EQ(r.per_variant[1].algorithm, "fptas");
  EXPECT_EQ(r.per_variant[1].solved, 0u);
  EXPECT_EQ(r.per_variant[1].failed, 1u);
  EXPECT_EQ(r.per_variant[1].cancelled, 2u);
  EXPECT_EQ(r.outcomes[0].attempts[1].outcome, AttemptOutcome::kCancelled);
  EXPECT_EQ(r.outcomes[1].attempts[1].outcome, AttemptOutcome::kFailed);
  EXPECT_EQ(r.outcomes[2].attempts[1].outcome, AttemptOutcome::kCancelled);
  EXPECT_EQ(r.cancelled_attempts, 2u);
  EXPECT_GT(r.per_variant[1].wall_total, 0);
}

TEST(PortfolioSolver, MemoryBlindVariantsAreDroppedFromCappedInstances) {
  // A mixed portfolio degrades gracefully: the memory-constrained middle
  // instance runs only the memory-aware lane, its neighbours run both.
  std::vector<Instance> batch;
  batch.push_back(make_instance(Family::kAmdahl, 4, 8, 31));
  batch.push_back(memory_capped(32));
  batch.push_back(make_instance(Family::kAmdahl, 4, 8, 33));
  PortfolioConfig pc;
  pc.variants = {"mrt", "lt-2approx"};
  pc.eps = 0.5;
  const PortfolioResult r = PortfolioSolver().solve(batch, pc);
  EXPECT_EQ(r.solved, 3u);
  EXPECT_EQ(r.failed, 0u);
  ASSERT_EQ(r.outcomes[1].attempts.size(), 1u);  // blind lane dropped, not failed
  EXPECT_EQ(r.outcomes[1].attempts[0].algorithm, "lt-2approx");
  EXPECT_EQ(r.outcomes[1].winner, "lt-2approx");
  EXPECT_EQ(r.outcomes[0].attempts.size(), 2u);
  EXPECT_EQ(r.outcomes[2].attempts.size(), 2u);

  // The filter is part of the deterministic plan: digests match across
  // thread counts.
  PortfolioConfig serial = pc;
  serial.threads = 1;
  PortfolioConfig parallel = pc;
  parallel.threads = 4;
  EXPECT_EQ(PortfolioSolver().solve(batch, serial).digest(),
            PortfolioSolver().solve(batch, parallel).digest());
}

TEST(PortfolioSolver, AllBlindPortfolioFailsClosedOnCappedInstance) {
  std::vector<Instance> batch;
  batch.push_back(memory_capped(41));
  PortfolioConfig pc;
  pc.variants = {"mrt", "algorithm1"};
  pc.eps = 0.5;
  const PortfolioResult r = PortfolioSolver().solve(batch, pc);
  EXPECT_EQ(r.solved, 0u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_FALSE(r.outcomes[0].ok);
  ASSERT_EQ(r.outcomes[0].attempts.size(), 2u);
  for (const VariantAttempt& a : r.outcomes[0].attempts) {
    EXPECT_FALSE(a.ok);
    EXPECT_NE(a.error.find("capability:"), std::string::npos) << a.error;
    EXPECT_NE(a.error.find(a.algorithm), std::string::npos) << a.error;
  }
}

TEST(PortfolioSolver, WinCountsAndLatencySplitAreConsistent) {
  const auto batch = small_batch(20);
  PortfolioConfig pc;
  pc.variants = {"algorithm1", "lt-2approx"};
  pc.threads = 3;
  const PortfolioResult r = PortfolioSolver().solve(batch, pc);
  ASSERT_EQ(r.per_variant.size(), 2u);

  std::size_t wins = 0;
  for (const VariantStats& s : r.per_variant) {
    wins += s.wins;
    EXPECT_LE(s.wall_p50, s.wall_p99);
    EXPECT_LE(s.wall_p99, s.wall_max);
    EXPECT_GE(s.gap_mean, 0);
    EXPECT_LE(s.gap_mean, s.gap_max + 1e-12);
  }
  EXPECT_EQ(wins, r.solved);  // exactly one winner per solved instance
  EXPECT_LE(r.queue_p50, r.queue_p99);
  EXPECT_LE(r.queue_p99, r.queue_max);

  for (const PortfolioOutcome& o : r.outcomes) {
    EXPECT_GE(o.queue_seconds, 0);
    double attempt_sum = 0;
    for (const VariantAttempt& a : o.attempts) attempt_sum += a.wall_seconds;
    EXPECT_DOUBLE_EQ(o.compute_seconds, attempt_sum);
  }
}

TEST(PortfolioSolver, OrderTieBreakIsDeterministicUnderExactTies) {
  // Two names bound to the same solver tie on every instance. Under
  // kPortfolioOrder the first-listed name must win everywhere, run after
  // run; the combined certificate is unaffected either way.
  AlgorithmRegistry registry;
  const SolverFn same = [](const Instance& i, const SolverConfig& c) {
    return core::schedule_moldable(i, c.eps);
  };
  registry.add("first", same);
  registry.add("second", same);

  const auto batch = small_batch(10);
  PortfolioConfig pc;
  pc.variants = {"second", "first"};  // deliberately not alphabetical
  pc.tie_break = TieBreak::kPortfolioOrder;
  pc.threads = 3;

  for (int run = 0; run < 3; ++run) {
    const PortfolioResult r = PortfolioSolver(registry).solve(batch, pc);
    EXPECT_EQ(r.solved, batch.size());
    for (const PortfolioOutcome& o : r.outcomes) EXPECT_EQ(o.winner, "second") << o.index;
    ASSERT_EQ(r.per_variant.size(), 2u);
    EXPECT_EQ(r.per_variant[0].wins, batch.size());  // "second" is listed first
    EXPECT_EQ(r.per_variant[1].wins, 0u);
  }

  // The tie-break changes only the label: digests match the wall-time mode.
  PortfolioConfig wall = pc;
  wall.tie_break = TieBreak::kWallTime;
  EXPECT_EQ(PortfolioSolver(registry).solve(batch, pc).digest(),
            PortfolioSolver(registry).solve(batch, wall).digest());
}

TEST(PortfolioSolver, WallPercentileLadderIncludesP90) {
  const auto batch = small_batch(30);
  PortfolioConfig pc;
  pc.variants = {"algorithm1", "lt-2approx"};
  pc.threads = 2;
  const PortfolioResult r = PortfolioSolver().solve(batch, pc);
  for (const VariantStats& s : r.per_variant) {
    EXPECT_LE(s.wall_p50, s.wall_p90) << s.algorithm;
    EXPECT_LE(s.wall_p90, s.wall_p99) << s.algorithm;
    EXPECT_LE(s.wall_p99, s.wall_max) << s.algorithm;
    EXPECT_GT(s.wall_p90, 0) << s.algorithm;  // 30 attempts: p90 is a real sample
  }
}

TEST(PortfolioSolver, MemoServesDuplicatesWithUnchangedDigest) {
  auto batch = small_batch(6);
  batch.push_back(batch[2]);  // intra-batch duplicate
  PortfolioConfig pc;
  pc.variants = {"mrt", "lt-2approx"};
  pc.threads = 3;

  const PortfolioResult plain = PortfolioSolver().solve(batch, pc);
  exec::MemoStore<PortfolioOutcome> store;
  const PortfolioResult memo = PortfolioSolver().solve(batch, pc, &store);
  EXPECT_EQ(plain.memo_hits, 0u);
  EXPECT_EQ(memo.memo_hits, 1u);
  EXPECT_EQ(memo.memo_misses, 6u);
  EXPECT_EQ(memo.digest(), plain.digest());
  // The served slot reports zero compute cost but the full outcome.
  const PortfolioOutcome& served = memo.outcomes.back();
  EXPECT_TRUE(served.ok);
  EXPECT_EQ(served.winner, memo.outcomes[2].winner);
  EXPECT_DOUBLE_EQ(served.compute_seconds, 0.0);

  // A second batch against the same store hits on every stored instance.
  const PortfolioResult replay = PortfolioSolver().solve(batch, pc, &store);
  EXPECT_EQ(replay.memo_hits, batch.size());
  EXPECT_EQ(replay.memo_misses, 0u);
  EXPECT_EQ(replay.digest(), plain.digest());
}

TEST(PortfolioSolver, ZeroJobInstanceMatchesCoreRatioConvention) {
  // A zero-job instance has lower bound 0; the portfolio must report the
  // core convention (ratio 1), or the single-variant equivalence breaks.
  const std::vector<Instance> batch{Instance({}, 4, "empty")};
  const PortfolioResult p = PortfolioSolver().solve(batch, single("lt-2approx"));
  const core::ScheduleResult direct =
      AlgorithmRegistry::global().solve("lt-2approx", batch[0], {});
  ASSERT_TRUE(p.outcomes[0].ok) << p.outcomes[0].attempts[0].error;
  EXPECT_DOUBLE_EQ(p.outcomes[0].ratio, 1.0);
  EXPECT_DOUBLE_EQ(p.outcomes[0].ratio, direct.ratio_vs_lower);
  EXPECT_DOUBLE_EQ(p.outcomes[0].makespan, direct.makespan);
}

TEST(PortfolioSolver, EmptyBatch) {
  PortfolioConfig pc;
  pc.variants = {"mrt"};
  const PortfolioResult r = PortfolioSolver().solve({}, pc);
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_EQ(r.solved, 0u);
  EXPECT_EQ(r.failed, 0u);
  ASSERT_EQ(r.per_variant.size(), 1u);
  EXPECT_EQ(r.per_variant[0].wins, 0u);
  EXPECT_EQ(r.digest(), PortfolioSolver().solve({}, pc).digest());
}

// ---------------------------------------------------------------------------
// Single-solver mode (`--algorithm X` is the one-variant portfolio {X}).

// ------------------------------------------------- early-cancel (mocks) --

TEST(EarlyCancel, SequentialModeSkipsDecidedWorkEntirely) {
  // After the decider completes at the certified bound, the later variant
  // must never even start: early-cancel skips the rest of the portfolio.
  MockRegistry mocks;
  std::atomic<int> later_runs{0};
  mocks.add_optimal("decider");
  mocks.add_weak("later", 0, &later_runs);

  const std::vector<Instance> batch{single_job_instance(8, 17),
                                    single_job_instance(8, 19)};
  PortfolioConfig pc;
  pc.variants = {"decider", "later"};
  const PortfolioResult r = PortfolioSolver(mocks.registry).solve(batch, pc);

  EXPECT_EQ(later_runs.load(), 0);
  for (const PortfolioOutcome& o : r.outcomes) {
    EXPECT_EQ(o.attempts[1].outcome, AttemptOutcome::kCancelled);
    EXPECT_DOUBLE_EQ(o.attempts[1].wall_seconds, 0.0);  // never ran
  }
  EXPECT_EQ(r.cancelled_attempts, 2u);
}

TEST(EarlyCancel, AllCancelledButOne) {
  MockRegistry mocks;
  std::atomic<int> later_runs{0};
  mocks.add_optimal("decider");  // lane 0 completes at the certified bound
  mocks.add_weak("later-a", 0, &later_runs);
  mocks.add_weak("later-b", 0, &later_runs);

  const std::vector<Instance> batch{single_job_instance(8, 11)};
  PortfolioConfig pc;
  pc.variants = {"decider", "later-a", "later-b"};
  const PortfolioResult r = PortfolioSolver(mocks.registry).solve(batch, pc);

  ASSERT_EQ(r.solved, 1u);
  EXPECT_EQ(later_runs.load(), 0);
  const PortfolioOutcome& o = r.outcomes[0];
  EXPECT_EQ(o.winner, "decider");
  EXPECT_EQ(o.attempts[0].outcome, AttemptOutcome::kCompleted);
  EXPECT_EQ(o.attempts[1].outcome, AttemptOutcome::kCancelled);
  EXPECT_EQ(o.attempts[2].outcome, AttemptOutcome::kCancelled);
  // Cancelled attempts are canonical stubs: no certificate fields at all.
  for (std::size_t lane = 1; lane < 3; ++lane) {
    EXPECT_EQ(o.attempts[lane].algorithm, pc.variants[lane]);
    EXPECT_FALSE(o.attempts[lane].ok);
    EXPECT_DOUBLE_EQ(o.attempts[lane].makespan, 0.0);
    EXPECT_DOUBLE_EQ(o.attempts[lane].lower_bound, 0.0);
    EXPECT_DOUBLE_EQ(o.attempts[lane].ratio, 0.0);
    EXPECT_DOUBLE_EQ(o.attempts[lane].guarantee, 0.0);
    EXPECT_EQ(o.attempts[lane].dual_calls, 0);
  }
  EXPECT_EQ(r.cancelled_attempts, 2u);
  ASSERT_EQ(r.per_variant.size(), 3u);
  EXPECT_EQ(r.per_variant[1].cancelled, 1u);
  EXPECT_EQ(r.per_variant[2].cancelled, 1u);
  EXPECT_EQ(r.per_variant[1].failed, 0u);  // cancelled != failed in the table
  EXPECT_EQ(r.per_variant[2].failed, 0u);
}

TEST(EarlyCancel, SlowWinnerBeatsFastLoser) {
  MockRegistry mocks;
  mocks.add_weak("fast-loser");            // instant, worst schedule
  mocks.add_optimal("slow-winner", 5);     // 5 ms, optimal schedule

  const std::vector<Instance> batch{single_job_instance(8, 7),
                                    single_job_instance(16, 8)};
  PortfolioConfig pc;
  pc.variants = {"fast-loser", "slow-winner"};
  pc.tie_break = TieBreak::kPortfolioOrder;
  const PortfolioResult r = PortfolioSolver(mocks.registry).solve(batch, pc);

  ASSERT_EQ(r.solved, batch.size());
  for (const PortfolioOutcome& o : r.outcomes) {
    // The fast completion must NOT decide the instance: its makespan is
    // above the certified bound, so the slow optimal run still runs and wins.
    EXPECT_EQ(o.winner, "slow-winner") << o.index;
    EXPECT_EQ(o.attempts[0].outcome, AttemptOutcome::kCompleted);
    EXPECT_EQ(o.attempts[1].outcome, AttemptOutcome::kCompleted);
    EXPECT_LT(o.attempts[1].makespan, o.attempts[0].makespan);
    EXPECT_DOUBLE_EQ(o.makespan, o.attempts[1].makespan);
  }
  EXPECT_EQ(r.cancelled_attempts, 0u);
  ASSERT_EQ(r.per_variant.size(), 2u);
  EXPECT_EQ(r.per_variant[1].wins, batch.size());
  EXPECT_GT(r.per_variant[0].gap_max, 0);  // the loser's quality gap is real
}

TEST(EarlyCancel, DecisionProofTightensTheCombinedCertificate) {
  // The decider's self-reported bound is deliberately loose. Its peer (who
  // might have certified tighter) is skipped — but the decision itself is
  // a proof of optimality (makespan <= omega <= OPT), so the combined
  // certificate folds omega in instead of regressing to the loose bound.
  MockRegistry mocks;
  mocks.registry.add("loose-optimal", [](const Instance& i, const SolverConfig&) {
    core::ScheduleResult r = stacked_result(i, i.machines());
    r.lower_bound = r.makespan / 10;  // certified, but needlessly weak
    r.ratio_vs_lower = 10;
    return r;
  });
  mocks.add_weak("later");

  const std::vector<Instance> batch{single_job_instance(8, 29)};
  PortfolioConfig pc;
  pc.variants = {"loose-optimal", "later"};
  const PortfolioResult r = PortfolioSolver(mocks.registry).solve(batch, pc);
  ASSERT_EQ(r.solved, 1u);
  EXPECT_EQ(r.outcomes[0].attempts[1].outcome, AttemptOutcome::kCancelled);
  EXPECT_DOUBLE_EQ(r.outcomes[0].lower_bound, r.outcomes[0].makespan);
  EXPECT_DOUBLE_EQ(r.outcomes[0].ratio, 1.0);
}

TEST(EarlyCancel, NonDecidingPortfolioKeepsEveryAttempt) {
  // No variant reaches the certified bound: nothing may be cancelled, and
  // the combined certificate must cover every completed attempt.
  MockRegistry mocks;
  mocks.add_weak("weak-a");
  mocks.add_weak("weak-b", 5);

  const std::vector<Instance> batch{make_instance(Family::kMixed, 6, 32, 23)};
  PortfolioConfig pc;
  pc.variants = {"weak-a", "weak-b"};
  const PortfolioResult r = PortfolioSolver(mocks.registry).solve(batch, pc);
  EXPECT_EQ(r.cancelled_attempts, 0u);
  EXPECT_EQ(r.outcomes[0].attempts[0].outcome, AttemptOutcome::kCompleted);
  EXPECT_EQ(r.outcomes[0].attempts[1].outcome, AttemptOutcome::kCompleted);
}

TEST(EarlyCancel, DigestIsThreadCountIndependent) {
  // A mixed batch exercising both regimes: tiny single-job instances where
  // `exact` completes at the certified bound and cancels its peers, and
  // larger instances where every variant runs to completion (exact fails
  // fast over its caps).
  std::vector<Instance> batch;
  for (std::uint64_t s = 0; s < 6; ++s) batch.push_back(single_job_instance(8, 40 + s));
  const auto families = jobs::all_families();
  for (std::size_t i = 0; i < 12; ++i)
    batch.push_back(make_instance(families[i % families.size()], 16, 64, 200 + i));

  PortfolioConfig pc;
  pc.variants = {"exact", "algorithm3-linear", "lt-2approx"};
  pc.tie_break = TieBreak::kPortfolioOrder;
  pc.threads = 1;
  const PortfolioResult reference = PortfolioSolver().solve(batch, pc);
  EXPECT_GT(reference.cancelled_attempts, 0u);  // the rule actually fires

  pc.threads = 8;
  const PortfolioResult wide = PortfolioSolver().solve(batch, pc);
  ASSERT_EQ(wide.digest(), reference.digest());
  EXPECT_EQ(wide.cancelled_attempts, reference.cancelled_attempts);
  ASSERT_EQ(wide.outcomes.size(), reference.outcomes.size());
  for (std::size_t i = 0; i < wide.outcomes.size(); ++i) {
    const PortfolioOutcome& x = reference.outcomes[i];
    const PortfolioOutcome& y = wide.outcomes[i];
    EXPECT_EQ(x.ok, y.ok) << i;
    EXPECT_EQ(x.winner, y.winner) << i;  // order tie-break: label too
    EXPECT_DOUBLE_EQ(x.makespan, y.makespan) << i;
    EXPECT_DOUBLE_EQ(x.lower_bound, y.lower_bound) << i;
    ASSERT_EQ(x.attempts.size(), y.attempts.size()) << i;
    for (std::size_t v = 0; v < x.attempts.size(); ++v) {
      EXPECT_EQ(x.attempts[v].outcome, y.attempts[v].outcome) << i << "/" << v;
      EXPECT_DOUBLE_EQ(x.attempts[v].makespan, y.attempts[v].makespan) << i << "/" << v;
    }
  }
}

TEST(SingleSolver, EmptyBatch) {
  const PortfolioResult r = PortfolioSolver().solve({}, single("auto"));
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_EQ(r.solved, 0u);
  EXPECT_EQ(r.failed, 0u);
  ASSERT_EQ(r.per_variant.size(), 1u);
  EXPECT_EQ(r.per_variant[0].solved, 0u);
  EXPECT_EQ(r.per_variant[0].failed, 0u);
  EXPECT_TRUE(r.per_variant[0].resolved.empty());
  EXPECT_EQ(r.digest(), PortfolioSolver().solve({}, single("auto")).digest());
}

TEST(SingleSolver, SingleInstanceMatchesDirectSolve) {
  const Instance inst = make_instance(Family::kPowerLaw, 24, 128, 11);
  PortfolioConfig config = single("algorithm3-linear");
  config.eps = 0.25;
  const PortfolioResult r = PortfolioSolver().solve({inst}, config);
  ASSERT_EQ(r.outcomes.size(), 1u);
  ASSERT_TRUE(r.outcomes[0].ok) << r.outcomes[0].attempts[0].error;

  const core::ScheduleResult direct =
      core::schedule_moldable(inst, 0.25, core::Algorithm::kBoundedLinear);
  EXPECT_DOUBLE_EQ(r.outcomes[0].makespan, direct.makespan);
  EXPECT_DOUBLE_EQ(r.outcomes[0].lower_bound, direct.lower_bound);
  EXPECT_EQ(r.outcomes[0].winner, "algorithm3-linear");
  EXPECT_EQ(r.solved, 1u);
  ASSERT_EQ(r.per_variant.size(), 1u);
  EXPECT_EQ(r.per_variant[0].solved, 1u);
  EXPECT_DOUBLE_EQ(r.per_variant[0].ratio_p50, r.outcomes[0].ratio);
  EXPECT_DOUBLE_EQ(r.per_variant[0].ratio_max, r.outcomes[0].ratio);
}

TEST(SingleSolver, DeterministicAcrossThreadCounts) {
  const auto batch = small_batch(24);
  for (const char* algorithm : {"auto", "algorithm1", "lt-2approx"}) {
    PortfolioConfig serial = single(algorithm);
    serial.threads = 1;
    PortfolioConfig parallel = serial;
    parallel.threads = 5;

    const PortfolioResult a = PortfolioSolver().solve(batch, serial);
    const PortfolioResult b = PortfolioSolver().solve(batch, parallel);
    EXPECT_EQ(a.digest(), b.digest()) << algorithm;
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
      EXPECT_EQ(a.outcomes[i].ok, b.outcomes[i].ok);
      EXPECT_EQ(a.outcomes[i].attempts[0].used, b.outcomes[i].attempts[0].used);
      EXPECT_DOUBLE_EQ(a.outcomes[i].makespan, b.outcomes[i].makespan);
      EXPECT_DOUBLE_EQ(a.outcomes[i].ratio, b.outcomes[i].ratio);
    }
  }
}

TEST(SingleSolver, AutoResolvesPerInstanceAndAggregatesByResolvedName) {
  // n=4 on m=512 is deep in the FPTAS regime; n=64 on m=64 is not. Under
  // "auto" the two must resolve to different solvers, recorded per attempt
  // and aggregated under their resolved names.
  std::vector<Instance> batch;
  batch.push_back(make_instance(Family::kAmdahl, 4, 512, 3));
  batch.push_back(make_instance(Family::kAmdahl, 64, 64, 3));
  PortfolioConfig config = single("auto");
  config.eps = 0.5;
  const PortfolioResult r = PortfolioSolver().solve(batch, config);
  ASSERT_EQ(r.solved, 2u);
  EXPECT_EQ(core::algorithm_name(r.outcomes[0].attempts[0].used), "fptas");
  EXPECT_EQ(core::algorithm_name(r.outcomes[1].attempts[0].used), "algorithm3-linear");
  ASSERT_EQ(r.per_variant.size(), 1u);
  const std::vector<std::pair<std::string, std::size_t>> resolved = {
      {"algorithm3-linear", 1}, {"fptas", 1}};
  EXPECT_EQ(r.per_variant[0].resolved, resolved);
  // A variant that always runs itself dispatches to nothing else.
  EXPECT_TRUE(PortfolioSolver().solve(batch, single("mrt")).per_variant[0].resolved.empty());
}

TEST(SingleSolver, FailureIsIsolatedToTheOffendingInstance) {
  // `exact` hard-caps at n <= 7, m <= 8: the middle instance violates the
  // cap and must fail alone while its neighbours solve.
  std::vector<Instance> batch;
  batch.push_back(make_instance(Family::kMixed, 4, 8, 21));
  batch.push_back(make_instance(Family::kMixed, 40, 64, 22));  // over the caps
  batch.push_back(make_instance(Family::kMixed, 4, 8, 23));
  PortfolioConfig config = single("exact");
  config.threads = 2;
  const PortfolioResult r = PortfolioSolver().solve(batch, config);
  EXPECT_EQ(r.solved, 2u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_TRUE(r.outcomes[0].ok);
  EXPECT_FALSE(r.outcomes[1].ok);
  EXPECT_FALSE(r.outcomes[1].attempts[0].error.empty());
  EXPECT_TRUE(r.outcomes[2].ok);
  ASSERT_EQ(r.per_variant.size(), 1u);
  EXPECT_EQ(r.per_variant[0].solved, 2u);
  EXPECT_EQ(r.per_variant[0].failed, 1u);
}

TEST(SingleSolver, InvalidConfigThrowsUpFront) {
  const auto batch = small_batch(2);
  EXPECT_THROW(PortfolioSolver().solve(batch, single("no-such-solver")),
               std::invalid_argument);
  PortfolioConfig bad_eps = single("auto");
  bad_eps.eps = 0;
  EXPECT_THROW(PortfolioSolver().solve(batch, bad_eps), std::invalid_argument);
  bad_eps.eps = 1.5;
  EXPECT_THROW(PortfolioSolver().solve(batch, bad_eps), std::invalid_argument);
}

TEST(SingleSolver, CapabilityErrorIsIsolatedPerInstance) {
  // A memory-capped instance routed to a blind single solver yields the
  // named capability error on that slot alone — the batch never aborts.
  std::vector<Instance> batch = small_batch(2, 8);
  batch.insert(batch.begin() + 1, memory_capped(5));
  const PortfolioResult r = PortfolioSolver().solve(batch, single("mrt"));
  EXPECT_EQ(r.solved, 2u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_TRUE(r.outcomes[0].ok);
  ASSERT_FALSE(r.outcomes[1].ok);
  const std::string& error = r.outcomes[1].attempts[0].error;
  EXPECT_NE(error.find("capability:"), std::string::npos) << error;
  EXPECT_TRUE(r.outcomes[2].ok);
}

TEST(SingleSolver, MemoryAwareBatchIsDeterministicAcrossThreadCounts) {
  std::vector<Instance> batch;
  for (std::size_t i = 0; i < 12; ++i) batch.push_back(memory_capped(50 + i));
  for (const char* algorithm : {"lt-2approx", "exact"}) {
    PortfolioConfig serial = single(algorithm);
    serial.eps = 0.5;
    serial.threads = 1;
    PortfolioConfig parallel = serial;
    parallel.threads = 4;
    const PortfolioResult a = PortfolioSolver().solve(batch, serial);
    const PortfolioResult b = PortfolioSolver().solve(batch, parallel);
    EXPECT_EQ(a.failed, 0u) << algorithm;
    EXPECT_EQ(a.digest(), b.digest()) << algorithm;
  }
}

TEST(SingleSolver, PercentilesAreOrdered) {
  const auto batch = small_batch(40);
  PortfolioConfig config = single("lt-2approx");
  config.threads = 3;
  const PortfolioResult r = PortfolioSolver().solve(batch, config);
  ASSERT_EQ(r.per_variant.size(), 1u);
  const VariantStats& s = r.per_variant[0];
  EXPECT_EQ(s.solved, 40u);
  EXPECT_LE(s.ratio_p50, s.ratio_p90);
  EXPECT_LE(s.ratio_p90, s.ratio_p99);
  EXPECT_LE(s.ratio_p99, s.ratio_max);
  EXPECT_LE(s.ratio_mean, s.ratio_max);
  EXPECT_GE(s.ratio_p50, 1.0 - 1e-9);
  EXPECT_LE(s.ratio_max, 2.0 + 1e-9);  // Ludwig-Tiwari guarantee
  EXPECT_LE(s.wall_p50, s.wall_max);
}

TEST(SingleSolver, MemoServesDuplicatesWithUnchangedDigest) {
  auto batch = small_batch(5);
  batch.push_back(batch[1]);  // two intra-batch duplicates
  batch.push_back(batch[3]);
  PortfolioConfig config = single("lt-2approx");
  config.threads = 3;

  const PortfolioResult plain = PortfolioSolver().solve(batch, config);
  EXPECT_EQ(plain.memo_hits, 0u);  // no store, no tally

  exec::MemoStore<PortfolioOutcome> store;
  const PortfolioResult memo = PortfolioSolver().solve(batch, config, &store);
  EXPECT_EQ(memo.memo_hits, 2u);
  EXPECT_EQ(memo.memo_misses, 5u);
  EXPECT_EQ(store.size(), 5u);
  // Memoization must not move any algorithmic output: identical digest,
  // identical per-outcome fields, fresh index stamps on the served slots.
  EXPECT_EQ(memo.digest(), plain.digest());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(memo.outcomes[i].index, i);
    EXPECT_DOUBLE_EQ(memo.outcomes[i].makespan, plain.outcomes[i].makespan);
  }
  // Served slots did not solve: zero compute, and the originals kept theirs.
  EXPECT_DOUBLE_EQ(memo.outcomes[5].compute_seconds, 0.0);
  EXPECT_DOUBLE_EQ(memo.outcomes[6].compute_seconds, 0.0);
  EXPECT_GT(memo.outcomes[1].compute_seconds, 0.0);

  // Cross-batch reuse: a replay against the same store is all hits, and the
  // hit/miss tallies are thread-count independent (the plan is serial).
  PortfolioConfig serial = config;
  serial.threads = 1;
  exec::MemoStore<PortfolioOutcome> store2;
  const PortfolioResult serial_memo = PortfolioSolver().solve(batch, serial, &store2);
  EXPECT_EQ(serial_memo.memo_hits, memo.memo_hits);
  const PortfolioResult replay = PortfolioSolver().solve(batch, config, &store);
  EXPECT_EQ(replay.memo_hits, batch.size());
  EXPECT_EQ(replay.memo_misses, 0u);
  EXPECT_EQ(replay.digest(), plain.digest());
}

TEST(SingleSolver, MemoKeyDistinguishesConfigs) {
  // The same instance under a different variant list, eps, or tie-break
  // must not alias in the store: the config is part of every memo identity.
  const auto batch = small_batch(2);
  exec::MemoStore<PortfolioOutcome> store;
  const PortfolioConfig a = single("lt-2approx");
  EXPECT_EQ(PortfolioSolver().solve(batch, a, &store).memo_hits, 0u);

  PortfolioConfig other_eps = a;
  other_eps.eps = 0.5;
  PortfolioConfig other_tie = a;
  other_tie.tie_break = TieBreak::kPortfolioOrder;
  PortfolioConfig wider = a;
  wider.variants = {"lt-2approx", "mrt"};
  for (const PortfolioConfig& other : {other_eps, other_tie, wider, single("mrt")})
    EXPECT_EQ(PortfolioSolver().solve(batch, other, &store).memo_hits, 0u);

  EXPECT_EQ(PortfolioSolver().solve(batch, a, &store).memo_hits, batch.size());
}

TEST(SingleSolver, MemoizedFailuresAreServedToo) {
  // A failing instance (exact over its caps) is cached like any other
  // outcome — replaying it must not re-run the doomed solve or change
  // counts.
  std::vector<Instance> batch;
  batch.push_back(make_instance(Family::kMixed, 40, 64, 22));  // over the caps
  batch.push_back(make_instance(Family::kMixed, 40, 64, 22));  // duplicate
  exec::MemoStore<PortfolioOutcome> store;
  const PortfolioResult r = PortfolioSolver().solve(batch, single("exact"), &store);
  EXPECT_EQ(r.failed, 2u);
  EXPECT_EQ(r.memo_hits, 1u);
  EXPECT_FALSE(r.outcomes[1].ok);
  EXPECT_EQ(r.outcomes[1].attempts[0].error, r.outcomes[0].attempts[0].error);
}

TEST(SingleSolver, QueueAndComputeLatenciesAreSplit) {
  const auto batch = small_batch(30);
  PortfolioConfig config = single("lt-2approx");
  config.threads = 2;
  const PortfolioResult r = PortfolioSolver().solve(batch, config);

  for (const PortfolioOutcome& o : r.outcomes) {
    EXPECT_GE(o.queue_seconds, 0) << o.index;
    EXPECT_GE(o.compute_seconds, 0) << o.index;
    // Pickup cannot come after the whole-batch wall clock ended.
    EXPECT_LE(o.queue_seconds, r.wall_seconds + 1e-6) << o.index;
  }
  EXPECT_LE(r.queue_p50, r.queue_p99);
  EXPECT_LE(r.queue_p99, r.queue_max);
  // On 2 threads over 30 instances some instance queues behind its shard.
  EXPECT_GT(r.queue_max, 0);

  // The latency fields must not leak into the digest: same batch + config
  // re-solved gives the same digest even though timings differ.
  EXPECT_EQ(r.digest(), PortfolioSolver().solve(batch, config).digest());
}

}  // namespace
}  // namespace moldable::engine
