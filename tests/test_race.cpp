// Racing test pyramid: the cancellation primitive (CancelToken/CancelScope),
// the race's winner protocol on mock solvers (slow-winner vs fast-loser,
// all-cancelled-but-one, a decisive lane cancelling only later lanes, the
// lower-bound early-cancel rule, cancel observation within a time bound),
// and the top-level determinism contract — `race` mode is bitwise
// digest-identical to sequential portfolio mode at every thread count and
// race width, batch and stream alike.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "src/core/scheduler.hpp"
#include "src/engine/portfolio.hpp"
#include "src/engine/stream_solver.hpp"
#include "src/jobs/generators.hpp"
#include "src/jobs/io.hpp"
#include "src/util/cancel.hpp"

namespace moldable::engine {
namespace {

using jobs::Family;
using jobs::Instance;
using jobs::make_instance;
using util::CancelScope;
using util::CancelToken;
using util::cancelled_error;

// ------------------------------------------------------------ mock helpers --

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

/// A registry of hand-built variants for protocol tests. All mocks return
/// deterministic results; only their *timing* differs.
struct MockRegistry {
  AlgorithmRegistry registry;

  /// Completes immediately with the full-machine stacked schedule — on a
  /// single-job instance its makespan equals omega, so it decides.
  void add_optimal(const std::string& name) {
    registry.add(name, [](const Instance& i, const SolverConfig&) {
      return stacked_result(i, i.machines());
    });
  }

  /// Completes immediately with the worst (1-processor) stacked schedule.
  void add_weak(const std::string& name, double delay_ms = 0) {
    registry.add(name, [delay_ms](const Instance& i, const SolverConfig&) {
      if (delay_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<long>(delay_ms * 1000)));
      return stacked_result(i, 1);
    });
  }

  /// Sleeps, then completes with the full-machine schedule: the slow winner.
  void add_slow_optimal(const std::string& name, double delay_ms) {
    registry.add(name, [delay_ms](const Instance& i, const SolverConfig&) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<long>(delay_ms * 1000)));
      return stacked_result(i, i.machines());
    });
  }

  /// Spins watching SolverConfig::cancel (the custom-solver observation
  /// path) for up to `bound_ms`, then falls back to the weak schedule. In a
  /// race against a decisive peer it must be cancelled long before the
  /// bound; sequentially after a decision it must never run at all.
  void add_spinner(const std::string& name, double bound_ms,
                   std::atomic<int>* started = nullptr) {
    registry.add(name, [bound_ms, started](const Instance& i, const SolverConfig& c) {
      if (started) started->fetch_add(1, std::memory_order_relaxed);
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(static_cast<long>(bound_ms * 1000));
      while (std::chrono::steady_clock::now() < deadline) {
        if (c.cancel && c.cancel->cancelled()) throw cancelled_error();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      return stacked_result(i, 1);
    });
  }
};

// --------------------------------------------------------- CancelToken unit --

TEST(CancelToken, LatchesAndIsObservedThroughTheThreadScope) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(util::active_cancel_token(), nullptr);
  util::poll_cancellation();  // no scope: free no-op

  {
    CancelScope scope(&token);
    EXPECT_EQ(util::active_cancel_token(), &token);
    util::poll_cancellation();  // installed but not fired: still a no-op
    token.cancel();
    EXPECT_TRUE(token.cancelled());
    EXPECT_THROW(util::poll_cancellation(), cancelled_error);
    {
      CancelScope inner(nullptr);  // nested null scope masks the outer token
      EXPECT_EQ(util::active_cancel_token(), nullptr);
      util::poll_cancellation();
    }
    EXPECT_THROW(util::poll_cancellation(), cancelled_error);  // restored
  }
  EXPECT_EQ(util::active_cancel_token(), nullptr);
  util::poll_cancellation();
  EXPECT_TRUE(token.cancelled());  // a latch: stays cancelled
}

TEST(CancelToken, CrossThreadCancelIsObserved) {
  CancelToken token;
  std::atomic<bool> observed{false};
  std::thread watcher([&] {
    CancelScope scope(&token);
    while (!observed.load()) {
      try {
        util::poll_cancellation();
      } catch (const cancelled_error&) {
        observed.store(true);
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  token.cancel();
  watcher.join();
  EXPECT_TRUE(observed.load());
}

// ------------------------------------------- race lanes on a narrower pool --

TEST(RaceArena, NonDecisivePostsCancelNobody) {
  // Three lanes claimed by two threads: lane 1 is still running when lane
  // 0 completes, and lane 2 starts after that. Every lane watches its token
  // and completes weak, so none decides and no token may fire. A cancelled
  // lane would be re-run by the repair path, so each lane starting exactly
  // once shows that nobody was cancelled.
  MockRegistry mocks;
  std::atomic<int> runs{0};
  mocks.add_spinner("weak-a", 2, &runs);
  mocks.add_spinner("weak-b", 30, &runs);
  mocks.add_spinner("weak-c", 2, &runs);

  const std::vector<Instance> batch{single_job_instance(8, 37)};
  PortfolioConfig pc;
  pc.variants = {"weak-a", "weak-b", "weak-c"};
  pc.tie_break = TieBreak::kPortfolioOrder;
  pc.threads = 1;
  pc.race = true;
  pc.race_width = 2;
  const PortfolioResult r = PortfolioSolver(mocks.registry).solve(batch, pc);

  ASSERT_EQ(r.solved, 1u);
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(r.cancelled_attempts, 0u);
  for (std::size_t lane = 0; lane < 3; ++lane)
    EXPECT_EQ(r.outcomes[0].attempts[lane].outcome, AttemptOutcome::kCompleted) << lane;
}

// ---------------------------------------------------- winner protocol (mock) --

TEST(RaceProtocol, SlowWinnerBeatsFastLoser) {
  MockRegistry mocks;
  mocks.add_weak("fast-loser");             // instant, worst schedule
  mocks.add_slow_optimal("slow-winner", 20);  // 20 ms, optimal schedule

  const std::vector<Instance> batch{single_job_instance(8, 7),
                                    single_job_instance(16, 8)};
  PortfolioConfig pc;
  pc.variants = {"fast-loser", "slow-winner"};
  pc.tie_break = TieBreak::kPortfolioOrder;
  pc.race = true;
  pc.race_width = 2;
  const PortfolioResult r = PortfolioSolver(mocks.registry).solve(batch, pc);

  ASSERT_EQ(r.solved, batch.size());
  for (const PortfolioOutcome& o : r.outcomes) {
    // The fast completion must NOT have decided the race: its makespan is
    // above the certified bound, so the slow optimal run is kept and wins.
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

TEST(RaceProtocol, AllCancelledButOne) {
  MockRegistry mocks;
  mocks.add_optimal("decider");  // lane 0 completes at the certified bound
  mocks.add_spinner("spin-a", 5000);
  mocks.add_spinner("spin-b", 5000);

  const std::vector<Instance> batch{single_job_instance(8, 11)};
  PortfolioConfig pc;
  pc.variants = {"decider", "spin-a", "spin-b"};
  pc.race = true;
  pc.race_width = 3;
  const PortfolioResult r = PortfolioSolver(mocks.registry).solve(batch, pc);

  ASSERT_EQ(r.solved, 1u);
  const PortfolioOutcome& o = r.outcomes[0];
  EXPECT_EQ(o.winner, "decider");
  EXPECT_EQ(o.attempts[0].outcome, AttemptOutcome::kCompleted);
  EXPECT_EQ(o.attempts[1].outcome, AttemptOutcome::kCancelled);
  EXPECT_EQ(o.attempts[2].outcome, AttemptOutcome::kCancelled);
  // Cancelled attempts are canonical stubs: no certificate fields at all.
  EXPECT_DOUBLE_EQ(o.attempts[1].makespan, 0.0);
  EXPECT_DOUBLE_EQ(o.attempts[2].lower_bound, 0.0);
  EXPECT_EQ(r.cancelled_attempts, 2u);
  ASSERT_EQ(r.per_variant.size(), 3u);
  EXPECT_EQ(r.per_variant[1].cancelled, 1u);
  EXPECT_EQ(r.per_variant[2].cancelled, 1u);
  EXPECT_EQ(r.per_variant[1].failed, 0u);  // cancelled != failed in the table
}

TEST(RaceProtocol, DecisiveLaneCancelsOnlyLaterLanes) {
  // All three lanes start together. Lane 0 watches its token while it
  // sleeps 20 ms and then completes weak, lane 1 decides at once, and lane
  // 2 would spin for 5 s. The decision must stop lane 2 and leave lane 0
  // alone: had lane 0 been cancelled, the repair path would run it twice.
  MockRegistry mocks;
  std::atomic<int> weak_runs{0};
  mocks.add_spinner("weak-slow", 20, &weak_runs);
  mocks.add_optimal("decider");
  mocks.add_spinner("spinner", 5000);

  const std::vector<Instance> batch{single_job_instance(8, 31)};
  PortfolioConfig pc;
  pc.variants = {"weak-slow", "decider", "spinner"};
  pc.tie_break = TieBreak::kPortfolioOrder;
  pc.threads = 1;
  pc.race = true;
  pc.race_width = 3;
  const auto start = std::chrono::steady_clock::now();
  const PortfolioResult r = PortfolioSolver(mocks.registry).solve(batch, pc);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  ASSERT_EQ(r.solved, 1u);
  const PortfolioOutcome& o = r.outcomes[0];
  EXPECT_EQ(o.attempts[0].outcome, AttemptOutcome::kCompleted);
  EXPECT_EQ(weak_runs.load(), 1);
  EXPECT_EQ(o.attempts[1].outcome, AttemptOutcome::kCompleted);
  EXPECT_EQ(o.winner, "decider");
  EXPECT_EQ(o.attempts[2].outcome, AttemptOutcome::kCancelled);
  EXPECT_EQ(r.cancelled_attempts, 1u);
  EXPECT_LT(elapsed, 2.5) << "the later lane was not cancelled";
}

TEST(RaceProtocol, CancelTokenIsObservedWellWithinItsBound) {
  // The spinner would run 10 s if nobody cancelled it. A decisive lane-0
  // completion must reach it through the token far sooner — the whole race,
  // spin-down included, stays under a generous fraction of the bound.
  MockRegistry mocks;
  mocks.add_optimal("decider");
  mocks.add_spinner("spinner", 10000);

  const std::vector<Instance> batch{single_job_instance(8, 13)};
  PortfolioConfig pc;
  pc.variants = {"decider", "spinner"};
  pc.race = true;
  pc.race_width = 2;
  const auto start = std::chrono::steady_clock::now();
  const PortfolioResult r = PortfolioSolver(mocks.registry).solve(batch, pc);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  EXPECT_EQ(r.outcomes[0].attempts[1].outcome, AttemptOutcome::kCancelled);
  EXPECT_LT(elapsed, 5.0) << "cancel was not observed within its bound";
}

TEST(RaceProtocol, SequentialModeSkipsDecidedWorkEntirely) {
  // Same setup without --race: after the decider completes, the spinner
  // must never even start — early-cancel cuts the sequential tail too.
  MockRegistry mocks;
  std::atomic<int> spinner_started{0};
  mocks.add_optimal("decider");
  mocks.add_spinner("spinner", 10000, &spinner_started);

  const std::vector<Instance> batch{single_job_instance(8, 17),
                                    single_job_instance(8, 19)};
  PortfolioConfig pc;
  pc.variants = {"decider", "spinner"};
  pc.race = false;
  const PortfolioResult r = PortfolioSolver(mocks.registry).solve(batch, pc);

  EXPECT_EQ(spinner_started.load(), 0);
  for (const PortfolioOutcome& o : r.outcomes) {
    EXPECT_EQ(o.attempts[1].outcome, AttemptOutcome::kCancelled);
    EXPECT_DOUBLE_EQ(o.attempts[1].wall_seconds, 0.0);  // never ran
  }
  EXPECT_EQ(r.cancelled_attempts, 2u);
}

TEST(RaceProtocol, DecisionProofTightensTheCombinedCertificate) {
  // The decider's self-reported bound is deliberately loose. Its peer (who
  // might have certified tighter) is cancelled — but the decision itself is
  // a proof of optimality (makespan <= omega <= OPT), so the combined
  // certificate folds omega in instead of regressing to the loose bound.
  MockRegistry mocks;
  mocks.registry.add("loose-optimal", [](const Instance& i, const SolverConfig&) {
    core::ScheduleResult r = stacked_result(i, i.machines());
    r.lower_bound = r.makespan / 10;  // certified, but needlessly weak
    r.ratio_vs_lower = 10;
    return r;
  });
  mocks.add_spinner("spinner", 5000);

  const std::vector<Instance> batch{single_job_instance(8, 29)};
  PortfolioConfig pc;
  pc.variants = {"loose-optimal", "spinner"};
  for (const bool race : {false, true}) {
    PortfolioConfig config = pc;
    config.race = race;
    const PortfolioResult r = PortfolioSolver(mocks.registry).solve(batch, config);
    ASSERT_EQ(r.solved, 1u) << "race=" << race;
    EXPECT_EQ(r.outcomes[0].attempts[1].outcome, AttemptOutcome::kCancelled);
    EXPECT_DOUBLE_EQ(r.outcomes[0].lower_bound, r.outcomes[0].makespan)
        << "race=" << race;
    EXPECT_DOUBLE_EQ(r.outcomes[0].ratio, 1.0) << "race=" << race;
  }
}

TEST(RaceProtocol, NonDecidingRaceKeepsEveryAttempt) {
  // No variant reaches the certified bound: nothing may be cancelled, and
  // the combined certificate must cover every completed attempt.
  MockRegistry mocks;
  mocks.add_weak("weak-a");
  mocks.add_weak("weak-b", 5);

  const std::vector<Instance> batch{make_instance(Family::kMixed, 6, 32, 23)};
  PortfolioConfig pc;
  pc.variants = {"weak-a", "weak-b"};
  pc.race = true;
  const PortfolioResult r = PortfolioSolver(mocks.registry).solve(batch, pc);
  EXPECT_EQ(r.cancelled_attempts, 0u);
  EXPECT_EQ(r.outcomes[0].attempts[0].outcome, AttemptOutcome::kCompleted);
  EXPECT_EQ(r.outcomes[0].attempts[1].outcome, AttemptOutcome::kCompleted);
}

// ------------------------------------------------------ determinism contract --

/// A mixed batch exercising both regimes: tiny single-job instances where
/// `exact` completes at the certified bound and cancels its peers, and
/// larger instances where every variant runs to completion (exact fails
/// fast over its caps).
std::vector<Instance> racing_batch() {
  std::vector<Instance> batch;
  for (std::uint64_t s = 0; s < 6; ++s) batch.push_back(single_job_instance(8, 40 + s));
  const auto families = jobs::all_families();
  for (std::size_t i = 0; i < 12; ++i)
    batch.push_back(make_instance(families[i % families.size()], 16, 64, 200 + i));
  return batch;
}

TEST(RaceDeterminism, RaceDigestEqualsSequentialAtEveryWidthAndThreadCount) {
  const auto batch = racing_batch();
  PortfolioConfig sequential;
  sequential.variants = {"exact", "algorithm3-linear", "lt-2approx"};
  sequential.tie_break = TieBreak::kPortfolioOrder;
  sequential.threads = 1;
  const PortfolioResult reference = PortfolioSolver().solve(batch, sequential);
  EXPECT_GT(reference.cancelled_attempts, 0u);  // the rule actually fires

  for (const unsigned threads : {1u, 8u}) {
    for (const unsigned width : {1u, 2u, 4u}) {
      PortfolioConfig rc = sequential;
      rc.threads = threads;
      rc.race = true;
      rc.race_width = width;
      const PortfolioResult raced = PortfolioSolver().solve(batch, rc);
      ASSERT_EQ(raced.digest(), reference.digest())
          << "threads=" << threads << " width=" << width;
      EXPECT_EQ(raced.cancelled_attempts, reference.cancelled_attempts);
      ASSERT_EQ(raced.outcomes.size(), reference.outcomes.size());
      for (std::size_t i = 0; i < raced.outcomes.size(); ++i) {
        const PortfolioOutcome& x = reference.outcomes[i];
        const PortfolioOutcome& y = raced.outcomes[i];
        EXPECT_EQ(x.ok, y.ok) << i;
        EXPECT_EQ(x.winner, y.winner) << i;  // order tie-break: label too
        EXPECT_DOUBLE_EQ(x.makespan, y.makespan) << i;
        EXPECT_DOUBLE_EQ(x.lower_bound, y.lower_bound) << i;
        ASSERT_EQ(x.attempts.size(), y.attempts.size()) << i;
        for (std::size_t v = 0; v < x.attempts.size(); ++v) {
          EXPECT_EQ(x.attempts[v].outcome, y.attempts[v].outcome) << i << "/" << v;
          EXPECT_DOUBLE_EQ(x.attempts[v].makespan, y.attempts[v].makespan)
              << i << "/" << v;
        }
      }
    }
  }
}

TEST(RaceDeterminism, MemoEntriesAreInterchangeableBetweenModes) {
  const auto batch = racing_batch();
  PortfolioConfig pc;
  pc.variants = {"exact", "lt-2approx"};
  pc.tie_break = TieBreak::kPortfolioOrder;
  pc.threads = 2;

  exec::MemoStore<PortfolioOutcome> sequential_store;
  const PortfolioResult seq =
      PortfolioSolver().solve(batch, pc, &sequential_store);

  // A raced run against the sequentially-filled store must hit on every
  // instance and reproduce the digest: race mode shares the memo key space.
  PortfolioConfig rc = pc;
  rc.race = true;
  rc.race_width = 2;
  const PortfolioResult replay =
      PortfolioSolver().solve(batch, rc, &sequential_store);
  EXPECT_EQ(replay.memo_hits, batch.size());
  EXPECT_EQ(replay.memo_misses, 0u);
  EXPECT_EQ(replay.digest(), seq.digest());

  // And a race-filled store replays identically too.
  exec::MemoStore<PortfolioOutcome> raced_store;
  const PortfolioResult raced = PortfolioSolver().solve(batch, rc, &raced_store);
  EXPECT_EQ(raced.digest(), seq.digest());
  EXPECT_EQ(raced.memo_hits, seq.memo_hits);
  EXPECT_EQ(raced.memo_misses, seq.memo_misses);
}

TEST(RaceDeterminism, StreamServeRacingMatchesSequentialRollingDigest) {
  // Racing inside serve windows: same stream, same windowing, race on/off
  // and different race widths must agree on the rolling digest and on the
  // deterministic cancel tally.
  // Only the io-catalogue families serialize (to_text throws for custom
  // oracles), so the stream mixes amdahl/powerlaw records with the
  // single-job deciders instead of reusing racing_batch() verbatim.
  std::ostringstream stream_text;
  for (std::uint64_t s = 0; s < 4; ++s)
    stream_text << jobs::to_text(single_job_instance(8, 60 + s)) << "\n";
  for (std::size_t i = 0; i < 10; ++i)
    stream_text << jobs::to_text(make_instance(
                       i % 2 == 0 ? Family::kAmdahl : Family::kPowerLaw, 12, 48,
                       300 + i))
                << "\n";

  StreamConfig sc;
  sc.window = 5;
  sc.max_inflight = 2;
  sc.variants = {"exact", "algorithm3-linear", "lt-2approx"};
  sc.tie_break = TieBreak::kPortfolioOrder;
  sc.threads = 2;
  std::istringstream sequential_in(stream_text.str());
  const StreamResult reference = StreamSolver().run(sequential_in, sc);
  EXPECT_GT(reference.cancelled_attempts, 0u);

  for (const unsigned width : {1u, 4u}) {
    StreamConfig rc = sc;
    rc.race = true;
    rc.race_width = width;
    std::istringstream in(stream_text.str());
    const StreamResult raced = StreamSolver().run(in, rc);
    EXPECT_EQ(raced.rolling_digest, reference.rolling_digest) << "width=" << width;
    EXPECT_EQ(raced.cancelled_attempts, reference.cancelled_attempts);
    EXPECT_EQ(raced.instances, reference.instances);
  }
}

TEST(RaceDeterminism, RaceWithoutPortfolioIsRejectedByTheStreamLayer) {
  StreamConfig sc;
  sc.race = true;  // single-solver mode: nothing to race
  std::istringstream empty;
  EXPECT_THROW(StreamSolver().run(empty, sc), std::invalid_argument);
}

}  // namespace
}  // namespace moldable::engine
