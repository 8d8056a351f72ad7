// Admission-policy tests: the shed certificate's validity (omega really
// lower-bounds every achievable makespan), the never-shed edge cases, the
// prior table's win/cancel/decay arithmetic and ordering rules, the
// down-shift rule's slack inequality, plan-aware memoization (a planned
// solve must never alias a plan-free one), and the stream-level contract —
// the shed set, down-shift count, and prior-table state are thread-count
// independent, digest-covered, gap-free across the served/shed index split,
// and reproduced bit-exact by record/replay; and `adapt` changes the digest,
// deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/policy.hpp"
#include "src/engine/portfolio.hpp"
#include "src/engine/stream_solver.hpp"
#include "src/jobs/generators.hpp"
#include "src/jobs/io.hpp"
#include "src/traffic/replay.hpp"
#include "src/traffic/traffic_gen.hpp"

namespace moldable::engine {
namespace {

using jobs::Family;
using jobs::Instance;
using jobs::make_instance;

/// Small instances on few machines — the regime where `exact` is cheap and
/// omega spreads over a usable range for deadline calibration.
std::vector<Instance> policy_batch(std::size_t count, procs_t machines = 4) {
  std::vector<Instance> batch;
  const auto families = jobs::all_families();
  for (std::size_t i = 0; i < count; ++i)
    batch.push_back(make_instance(families[i % families.size()], 1 + i % 6,
                                  machines, 900 + i));
  return batch;
}

std::string to_stream(const std::vector<Instance>& instances) {
  std::string text;
  for (const Instance& inst : instances) text += jobs::to_text(inst);
  return text;
}

StreamResult run_stream(const std::string& text, const StreamConfig& config) {
  std::istringstream input(text);
  return StreamSolver().run(input, config);
}

// ---------------------------------------------------------------------------
// The certificate itself.

TEST(AdmissionPolicy, CertificateLowerBoundsEveryAchievableMakespan) {
  // The whole shed rule rests on omega <= OPT: solve each instance for real
  // and check the bound held. A violation here would mean shedding could
  // refuse an instance that a solver COULD have served in time.
  const auto batch = policy_batch(12);
  PortfolioConfig config;
  config.variants = {"auto"};
  config.threads = 2;
  const PortfolioResult result = PortfolioSolver().solve(batch, config);
  ASSERT_EQ(result.solved, batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const double omega = certified_lower_bound(batch[i]);
    EXPECT_GT(omega, 0.0) << i;
    EXPECT_LE(omega, result.outcomes[i].makespan)
        << "certificate exceeded a real makespan for instance " << i;
  }
}

TEST(AdmissionPolicy, ShedsExactlyTheProvablyLateInstances) {
  AdmissionPolicy::Config pc;
  pc.shed = true;
  const Instance inst = [] {
    Instance i = make_instance(Family::kAmdahl, 4, 4, 1);
    i.set_sla_class("rt");
    return i;
  }();
  const double omega = certified_lower_bound(inst);
  ASSERT_GT(omega, 0.0);

  // Budget strictly below omega: the certificate proves the deadline
  // unmeetable and the decision carries the evidence verbatim.
  {
    const AdmissionPolicy policy(pc, {{"rt", omega * 0.5}});
    const ShedDecision d = policy.admission_check(inst);
    EXPECT_TRUE(d.shed);
    EXPECT_DOUBLE_EQ(d.omega, omega);
    EXPECT_DOUBLE_EQ(d.budget, omega * 0.5);
  }
  // Budget at or above omega: a solver may still make it — never shed.
  {
    const AdmissionPolicy policy(pc, {{"rt", omega}});
    EXPECT_FALSE(policy.admission_check(inst).shed);
  }
  // A class without a deadline has no budget to certify against.
  {
    const AdmissionPolicy policy(pc, {{"other", omega * 0.01}});
    EXPECT_FALSE(policy.admission_check(inst).shed);
  }
  // Shedding disabled: the probe may still measure, but never refuses.
  {
    pc.shed = false;
    const AdmissionPolicy policy(pc, {{"rt", omega * 0.5}});
    EXPECT_FALSE(policy.admission_check(inst).shed);
  }
}

TEST(AdmissionPolicy, VirtualClockIsMaxArrivalOverAdmittedRecords) {
  AdmissionPolicy policy({}, {});
  EXPECT_DOUBLE_EQ(policy.virtual_now(), 0.0);
  policy.observe_arrival(5.0);
  policy.observe_arrival(3.0);  // out-of-order arrivals never rewind time
  EXPECT_DOUBLE_EQ(policy.virtual_now(), 5.0);
  policy.observe_arrival(7.5);
  EXPECT_DOUBLE_EQ(policy.virtual_now(), 7.5);
}

TEST(AdmissionPolicy, DownshiftFiresOnlyWhenSlackIsGone) {
  AdmissionPolicy::Config pc;
  pc.shed = true;
  pc.n_variants = 3;
  Instance inst = make_instance(Family::kAmdahl, 4, 4, 1);
  inst.set_sla_class("rt");
  const double omega = certified_lower_bound(inst);
  const double budget = omega * 4;  // comfortably admitted
  AdmissionPolicy policy(pc, {{"rt", budget}});

  ASSERT_FALSE(policy.admission_check(inst).shed);
  // Fresh stream: arrival 0, virtual time 0 — full slack, identity plan.
  {
    const VariantPlan plan = policy.plan_for(inst, omega);
    EXPECT_FALSE(plan.downshift);
    EXPECT_TRUE(plan.order.empty());
  }
  // Queueing ate the slack: virtual_now + omega > arrival + budget. Its
  // deadline is already lost, so it gets one lane — the class's prior
  // leader (no history yet: config variant 0).
  policy.observe_arrival(budget + omega);
  {
    const VariantPlan plan = policy.plan_for(inst, omega);
    EXPECT_TRUE(plan.downshift);
    ASSERT_EQ(plan.order.size(), 1u);
    EXPECT_EQ(plan.order[0], 0);
  }
  // A deadline-free instance never down-shifts no matter the clock.
  Instance relaxed = make_instance(Family::kAmdahl, 4, 4, 2);
  {
    const VariantPlan plan = policy.plan_for(relaxed, 0.0);
    EXPECT_FALSE(plan.downshift);
    EXPECT_TRUE(plan.order.empty());
  }
}

// ---------------------------------------------------------------------------
// The prior table.

TEST(VariantPrior, UnknownClassKeepsConfigOrder) {
  const VariantPriorTable priors(4);
  EXPECT_EQ(priors.order("unseen"), (std::vector<std::uint16_t>{0, 1, 2, 3}));
  EXPECT_EQ(priors.leader("unseen"), 0);
  EXPECT_TRUE(priors.snapshot().empty());
}

TEST(VariantPrior, WinsPromoteAndTiesKeepConfigOrder) {
  VariantPriorTable priors(3);
  priors.observe_win("rt", 2);
  EXPECT_EQ(priors.order("rt"), (std::vector<std::uint16_t>{2, 0, 1}));
  EXPECT_EQ(priors.leader("rt"), 2);
  // Another class is untouched — priors are per SLA class.
  EXPECT_EQ(priors.order("batch"), (std::vector<std::uint16_t>{0, 1, 2}));
}

TEST(VariantPrior, CancelPenaltyDemotesBelowUntouchedVariants) {
  VariantPriorTable priors(2);
  priors.observe_cancel("rt", 0);  // skipped on a decided instance: mild debit
  EXPECT_EQ(priors.order("rt"), (std::vector<std::uint16_t>{1, 0}));
  EXPECT_EQ(priors.leader("rt"), 1);
  // Four cancels are outweighed by one win (the debit is 1/4 of a credit).
  for (int i = 0; i < 4; ++i) priors.observe_cancel("rt", 1);
  priors.observe_win("rt", 1);
  EXPECT_EQ(priors.leader("rt"), 1);
}

TEST(VariantPrior, DecayFadesHistoryDeterministically) {
  VariantPriorTable priors(2, 0.5);
  priors.observe_win("rt", 1);
  priors.end_window();
  priors.end_window();
  const auto snap = priors.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].sla_class, "rt");
  ASSERT_EQ(snap[0].ranked.size(), 2u);
  EXPECT_EQ(snap[0].ranked[0].first, 1);
  EXPECT_DOUBLE_EQ(snap[0].ranked[0].second, 0.25);  // 1.0 * 0.5 * 0.5
  // Decayed history loses to fresh evidence: variant 0's new win outranks
  // variant 1's faded one.
  priors.observe_win("rt", 0);
  EXPECT_EQ(priors.leader("rt"), 0);
}

TEST(VariantPrior, SnapshotListsClassesInDeterministicKeyOrder) {
  VariantPriorTable priors(2);
  priors.observe_win("zeta", 0);
  priors.observe_win("alpha", 1);
  priors.observe_win("", 0);  // unlabelled
  const auto snap = priors.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].sla_class, "");
  EXPECT_EQ(snap[1].sla_class, "alpha");
  EXPECT_EQ(snap[2].sla_class, "zeta");
}

// ---------------------------------------------------------------------------
// Plan-aware memoization: a planned solve must never be served a plan-free
// outcome (or vice versa) just because the instance bytes match.

TEST(StreamPolicy, MemoIdentityKeepsPlansApart) {
  const Instance x = make_instance(Family::kAmdahl, 4, 4, 7);
  const std::vector<Instance> batch{x, x};

  PortfolioConfig config;
  config.variants = {"exact", "fptas"};
  config.threads = 1;

  // Same instance twice, but slot 1 races only variant 0: were the plan's
  // lanes not part of the memo identity, the second solve would hit slot
  // 0's full-portfolio entry and return an outcome with the wrong attempt
  // set.
  const std::vector<std::vector<std::uint16_t>> mixed{{}, {0}};
  config.variant_plans = &mixed;
  exec::MemoStore<PortfolioOutcome> store;
  const PortfolioResult r = PortfolioSolver().solve(batch, config, &store);
  EXPECT_EQ(r.memo_hits, 0u);
  ASSERT_EQ(r.outcomes.size(), 2u);
  EXPECT_EQ(r.outcomes[0].attempts.size(), 2u);
  EXPECT_EQ(r.outcomes[1].attempts.size(), 1u);
  EXPECT_EQ(r.outcomes[1].winner, "exact");

  // Identical non-identity plans DO share an entry — the identity covers
  // the plan's lanes, not the slot.
  const std::vector<std::vector<std::uint16_t>> same{{0}, {0}};
  config.variant_plans = &same;
  exec::MemoStore<PortfolioOutcome> store2;
  const PortfolioResult r2 = PortfolioSolver().solve(batch, config, &store2);
  EXPECT_EQ(r2.memo_hits, 1u);

  // An explicit identity permutation is canonicalized to the plan-free
  // form: it has no lanes in its identity and shares entries with an
  // unplanned slot.
  const std::vector<std::vector<std::uint16_t>> identity{{}, {0, 1}};
  config.variant_plans = &identity;
  exec::MemoStore<PortfolioOutcome> store3;
  const PortfolioResult r3 = PortfolioSolver().solve(batch, config, &store3);
  EXPECT_EQ(r3.memo_hits, 1u);

  // Plan validation: out-of-range and duplicate indices are config errors.
  const std::vector<std::vector<std::uint16_t>> bad_range{{2}};
  config.variant_plans = &bad_range;
  EXPECT_THROW(PortfolioSolver().solve(batch, config), std::invalid_argument);
  const std::vector<std::vector<std::uint16_t>> bad_dup{{0, 0}};
  config.variant_plans = &bad_dup;
  EXPECT_THROW(PortfolioSolver().solve(batch, config), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Stream-level behavior.

/// A stream crafted to exercise all three policy behaviors at once. Every
/// instance is in deadline class "rt"; the budget is the MEDIAN certified
/// lower bound over the batch, so instances above it provably shed and the
/// rest are admitted. Arrivals ramp by one full budget per record: by the
/// time any window cuts, the virtual clock (max arrival read) has already
/// overrun the earlier arrivals' budgets, so admitted instances outside the
/// final drain window down-shift deterministically.
struct ShedScenario {
  std::vector<Instance> batch;
  double budget = 0;
};

ShedScenario shed_scenario(std::size_t count) {
  ShedScenario scenario;
  scenario.batch = policy_batch(count);
  std::vector<double> omegas;
  for (const Instance& inst : scenario.batch)
    omegas.push_back(certified_lower_bound(inst));
  std::sort(omegas.begin(), omegas.end());
  scenario.budget = omegas[omegas.size() / 2];
  for (std::size_t i = 0; i < scenario.batch.size(); ++i) {
    scenario.batch[i].set_sla_class("rt");
    scenario.batch[i].set_arrival(static_cast<double>(i) * scenario.budget);
  }
  return scenario;
}

StreamConfig shed_config(double budget, unsigned threads) {
  StreamConfig config;
  config.window = 8;
  config.max_inflight = 2;
  config.variants = {"exact", "fptas", "mrt"};
  config.threads = threads;
  config.shed = true;
  config.adapt = true;
  config.class_deadlines["rt"] = budget;
  return config;
}

TEST(StreamPolicy, ShedSetAndPriorsAreThreadCountIndependent) {
  const auto [batch, budget] = shed_scenario(24);
  const std::string text = to_stream(batch);

  const StreamResult one = run_stream(text, shed_config(budget, 1));
  const StreamResult eight = run_stream(text, shed_config(budget, 8));

  // The scenario must exercise all three behaviors, or it certifies
  // nothing: some shed, some served, some down-shifted.
  ASSERT_GT(one.shed, 0u);
  ASSERT_GT(one.instances, 0u);
  ASSERT_GT(one.downshifted, 0u);
  EXPECT_EQ(one.instances + one.shed, batch.size());

  EXPECT_EQ(eight.rolling_digest, one.rolling_digest);
  EXPECT_EQ(eight.shed, one.shed);
  EXPECT_EQ(eight.downshifted, one.downshifted);
  EXPECT_EQ(eight.instances, one.instances);

  // The learned prior table is digest-grade state: identical snapshots.
  ASSERT_EQ(eight.priors.size(), one.priors.size());
  for (std::size_t c = 0; c < one.priors.size(); ++c) {
    EXPECT_EQ(eight.priors[c].sla_class, one.priors[c].sla_class);
    ASSERT_EQ(eight.priors[c].ranked.size(), one.priors[c].ranked.size());
    for (std::size_t v = 0; v < one.priors[c].ranked.size(); ++v) {
      EXPECT_EQ(eight.priors[c].ranked[v].first, one.priors[c].ranked[v].first);
      EXPECT_DOUBLE_EQ(eight.priors[c].ranked[v].second,
                       one.priors[c].ranked[v].second);
    }
  }

  // Per-class accounting: every shed landed in its class bucket.
  std::size_t class_shed = 0;
  for (const auto& c : one.per_class) class_shed += c.shed;
  EXPECT_EQ(class_shed, one.shed);

  // Shedding is digest-covered: the same stream served without the policy
  // must NOT produce the same digest (the shed set is part of the output).
  StreamConfig off = shed_config(budget, 1);
  off.shed = false;
  off.adapt = false;
  const StreamResult plain = run_stream(text, off);
  EXPECT_EQ(plain.shed, 0u);
  EXPECT_NE(plain.rolling_digest, one.rolling_digest);

  // One variant has no order to learn: it sheds the same set (the
  // certificate ignores the variants) but keeps no priors.
  StreamConfig lone_config = shed_config(budget, 1);
  lone_config.variants = {"exact"};
  const StreamResult lone = run_stream(text, lone_config);
  EXPECT_EQ(lone.shed, one.shed);
  EXPECT_FALSE(one.priors.empty());
  EXPECT_TRUE(lone.priors.empty());
}

TEST(StreamPolicy, ServedAndShedIndicesPartitionTheStreamGapFree) {
  const auto [batch, budget] = shed_scenario(16);
  StreamConfig config = shed_config(budget, 4);

  std::mutex mutex;
  std::set<std::size_t> served, shed;
  config.on_served = [&](std::size_t index, std::uint64_t, bool, double, double) {
    const std::lock_guard<std::mutex> lock(mutex);
    EXPECT_TRUE(served.insert(index).second) << "duplicate served index " << index;
  };
  config.on_shed = [&](std::size_t index, std::uint64_t, const ShedOutcome& outcome) {
    // on_shed fires from the serial fill loop; the mutex only pairs it with
    // the worker-side on_served inserts.
    const std::lock_guard<std::mutex> lock(mutex);
    EXPECT_TRUE(shed.insert(index).second) << "duplicate shed index " << index;
    EXPECT_EQ(outcome.sla_class, "rt");
    EXPECT_GT(outcome.omega, outcome.budget);  // the certificate, verbatim
    EXPECT_DOUBLE_EQ(outcome.budget, budget);
  };

  const StreamResult result = run_stream(to_stream(batch), config);
  ASSERT_GT(result.shed, 0u);
  EXPECT_EQ(served.size(), result.instances);
  EXPECT_EQ(shed.size(), result.shed);

  // The two hooks together cover exactly [0, N): no gaps, no overlap.
  std::set<std::size_t> all = served;
  all.insert(shed.begin(), shed.end());
  EXPECT_EQ(all.size(), served.size() + shed.size());
  ASSERT_EQ(all.size(), batch.size());
  EXPECT_EQ(*all.begin(), 0u);
  EXPECT_EQ(*all.rbegin(), batch.size() - 1);
}

TEST(StreamPolicy, RecordedShedSessionReplaysBitExact) {
  const auto [batch, budget] = shed_scenario(20);
  const std::string text = to_stream(batch);
  const StreamConfig config = shed_config(budget, 4);

  std::ostringstream file;
  traffic::StreamRecorder recorder(file, config);
  std::istringstream input(text);
  const StreamResult live = StreamSolver().run(input, recorder.instrument(config));
  recorder.finalize(live);
  ASSERT_GT(live.shed, 0u);
  ASSERT_GT(live.downshifted, 0u);

  std::istringstream record(file.str());
  const traffic::ReplayFile loaded = traffic::load_record(record);
  EXPECT_TRUE(loaded.config.shed);
  EXPECT_TRUE(loaded.config.adapt);
  EXPECT_EQ(loaded.counters.shed, live.shed);
  EXPECT_EQ(loaded.counters.downshifted, live.downshifted);
  // The latency table covers every stream-global index — shed rows carry
  // zero placeholders but must be present (the gap-free contract).
  EXPECT_EQ(loaded.latencies.size(), live.instances + live.shed);

  // The gate: a single-threaded replay re-derives the same shed set, the
  // same down-shifts, and the same digest — or fails loudly.
  const traffic::ReplayReport report = traffic::replay(loaded, 1);
  EXPECT_TRUE(report.ok) << (report.mismatches.empty() ? "?" : report.mismatches[0]);
  EXPECT_EQ(report.result.rolling_digest, live.rolling_digest);
  EXPECT_EQ(report.result.shed, live.shed);
  EXPECT_EQ(report.result.downshifted, live.downshifted);
}

TEST(StreamPolicy, HugeFootprintRecordIsShedWithACertificate) {
  // A footprint 1e19 times the per-machine capacity needs more machines
  // than exist, so memory_lower_bound() is +inf and the record is refused
  // with that certificate instead of reaching the solver.
  const std::string text =
      "moldable-instance v1\nmemcap 1\nmem 1 1e19\nmachines 4\njob amdahl 10 0.5\n";
  StreamConfig config;
  config.algorithm = "lt-2approx";
  config.shed = true;
  config.class_deadlines["default"] = 100;
  std::vector<ShedOutcome> sheds;
  config.on_shed = [&](std::size_t, std::uint64_t, const ShedOutcome& outcome) {
    sheds.push_back(outcome);
  };
  const StreamResult result = run_stream(text, config);
  EXPECT_EQ(result.shed, 1u);
  EXPECT_EQ(result.instances, 0u);
  ASSERT_EQ(sheds.size(), 1u);
  EXPECT_EQ(sheds[0].omega, std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(sheds[0].budget, 100);
}

TEST(StreamPolicy, AdaptReorderChangesTheDigestDeterministically) {
  // The learned order is each instance's canonical attempt order, so it
  // changes which attempts early-cancel skips: `adapt` moves the digest,
  // but to the same value at every thread count.
  traffic::TrafficConfig storm;
  storm.curve = "flash:base=30,peak=300,t0=2,ramp=1,hold=2,decay=2";
  storm.seed = 7;
  storm.horizon = 8;
  storm.jobs_cap = 6;
  storm.machines = 4;
  storm.duplicate_every = 11;
  std::ostringstream text;
  traffic::TrafficGenerator(storm).write(text);

  StreamConfig config;
  config.variants = {"mrt", "fptas", "exact"};
  config.class_deadlines["interactive"] = 8;
  config.threads = 1;
  const StreamResult fixed = run_stream(text.str(), config);
  config.adapt = true;
  const StreamResult one = run_stream(text.str(), config);
  config.threads = 4;
  const StreamResult four = run_stream(text.str(), config);

  ASSERT_GT(one.instances, 100u);
  EXPECT_NE(one.rolling_digest, fixed.rolling_digest);
  EXPECT_EQ(four.rolling_digest, one.rolling_digest);
  EXPECT_EQ(four.cancelled_attempts, one.cancelled_attempts);
}

TEST(StreamPolicy, ShedRequiresADeadlineAndAdaptRequiresAPortfolio) {
  StreamConfig config;
  config.shed = true;  // nothing to certify against
  EXPECT_THROW(run_stream("", config), std::invalid_argument);

  StreamConfig adapt_only;
  adapt_only.adapt = true;  // no variants to reorder
  EXPECT_THROW(run_stream("", adapt_only), std::invalid_argument);
}

TEST(StreamPolicy, SolversReuseOneEstimatePerInstance) {
  // Recording rows log the SolverConfig::omega each attempt was handed,
  // then fail, so no lane decides and every lane runs.
  std::mutex mu;
  std::vector<std::pair<std::size_t, double>> seen;  // (job count, omega)
  AlgorithmRegistry registry;
  for (const char* name : {"rec-a", "rec-b"})
    registry.add(
        name,
        [&](const Instance& inst, const SolverConfig& config) -> core::ScheduleResult {
          const std::lock_guard<std::mutex> lock(mu);
          seen.emplace_back(inst.size(), config.omega);
          throw std::runtime_error("recorded");
        },
        SolverCaps{/*memory_aware=*/true});
  const auto take = [&] { return std::exchange(seen, {}); };

  const Instance free_inst = make_instance(Family::kAmdahl, 5, 64, 71);
  Instance capped = make_instance(Family::kAmdahl, 4, 8, 72);
  capped.set_memory_capacity(4.0);
  capped.set_job_memory({10.0, 1.0, 6.0, 3.0});
  const double omega = certified_lower_bound(free_inst);
  ASSERT_GT(omega, 0);
  ASSERT_GT(certified_lower_bound(capped), 0);
  using Seen = std::vector<std::pair<std::size_t, double>>;

  // Every lane of a memory-free multi-lane instance gets the one estimate,
  // computed here or carried by the caller; a memory-constrained instance's
  // bound folds in the memory bound, so its lanes get 0.
  PortfolioConfig pc;
  pc.variants = {"rec-a", "rec-b"};
  pc.threads = 1;
  const PortfolioSolver solver(registry);
  solver.solve({free_inst, capped}, pc);
  EXPECT_EQ(take(), (Seen{{5, omega}, {5, omega}, {4, 0.0}, {4, 0.0}}));
  const std::vector<double> carried = {omega, certified_lower_bound(capped)};
  pc.omegas = &carried;
  solver.solve({free_inst, capped}, pc);
  EXPECT_EQ(take(), (Seen{{5, omega}, {5, omega}, {4, 0.0}, {4, 0.0}}));

  // A lone lane computes nothing for a decision it never makes.
  solver.solve({free_inst}, PortfolioConfig{{"rec-a"}});
  EXPECT_EQ(take(), (Seen{{5, 0.0}}));

  // Served, the lone lane of an admitted deadline record gets the admission
  // probe's estimate; a record of a class without a deadline gets 0.
  Instance deadline = free_inst;
  deadline.set_sla_class("rt");
  Instance bulk = free_inst;
  bulk.set_sla_class("bulk");
  StreamConfig config;
  config.algorithm = "rec-a";
  config.threads = 1;
  config.shed = true;
  config.class_deadlines["rt"] = 1e9;
  std::istringstream input(to_stream({deadline, bulk}));
  const StreamResult result = StreamSolver(registry).run(input, config);
  EXPECT_EQ(result.shed, 0u);
  EXPECT_EQ(take(), (Seen{{5, omega}, {5, 0.0}}));
}

}  // namespace
}  // namespace moldable::engine
