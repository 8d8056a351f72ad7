// Engine-core tests: AlgorithmRegistry name lookup and capability flags,
// the memo identity's coverage of every io directive, config field and
// plan lane, and the MemoStore LRU contract as PortfolioSolver drives it.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "src/core/scheduler.hpp"
#include "src/engine/exec_core.hpp"
#include "src/engine/portfolio.hpp"
#include "src/engine/registry.hpp"
#include "src/jobs/generators.hpp"
#include "src/jobs/io.hpp"

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

TEST(Registry, ListsEveryBuiltinVariant) {
  const auto names = AlgorithmRegistry::global().names();
  for (const char* expected :
       {"auto", "fptas", "mrt", "algorithm1", "algorithm3", "algorithm3-linear",
        "lt-2approx", "ptas", "exact"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing builtin: " << expected;
  }
  EXPECT_EQ(names.size(), 9u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, CapabilityFlagsMarkTheMemoryAwareVariants) {
  const AlgorithmRegistry& r = AlgorithmRegistry::global();
  EXPECT_TRUE(r.memory_aware("lt-2approx"));
  EXPECT_TRUE(r.memory_aware("exact"));
  for (const char* blind :
       {"auto", "fptas", "mrt", "algorithm1", "algorithm3", "algorithm3-linear", "ptas"})
    EXPECT_FALSE(r.memory_aware(blind)) << blind;
  EXPECT_THROW(r.caps("no-such-solver"), std::invalid_argument);
}

Instance memory_capped_instance(std::uint64_t seed = 5, double capacity = 4.0) {
  Instance inst = make_instance(Family::kAmdahl, 4, 8, seed);
  inst.set_memory_capacity(capacity);
  inst.set_job_memory({10.0, 1.0, 6.0, 3.0});  // kmin = {3, 1, 2, 1}
  return inst;
}

TEST(Registry, MemoryBlindVariantsFailClosedOnMemoryCappedInstances) {
  const Instance capped = memory_capped_instance();
  // Every memory-blind builtin refuses with the named capability error …
  try {
    AlgorithmRegistry::global().solve("mrt", capped, {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("capability:"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("mrt"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(AlgorithmRegistry::global().solve("auto", capped, {}),
               std::invalid_argument);
  // … while the memory-aware variants solve it, and every builtin still
  // solves the same instance with the memory axis stripped.
  SolverConfig config;
  config.eps = 0.5;
  for (const char* aware : {"lt-2approx", "exact"}) {
    const core::ScheduleResult r =
        AlgorithmRegistry::global().solve(aware, capped, config);
    EXPECT_GT(r.makespan, 0) << aware;
  }
  const Instance plain = make_instance(Family::kAmdahl, 4, 8, 5);
  EXPECT_NO_THROW(AlgorithmRegistry::global().solve("mrt", plain, config));
}

TEST(Registry, SolvesUnderEveryBuiltinName) {
  const Instance tiny = make_instance(Family::kMixed, 4, 8, 7);        // exact-solvable
  const Instance wide = make_instance(Family::kAmdahl, 4, 512, 7);     // FPTAS regime
  SolverConfig config;
  config.eps = 0.5;
  for (const auto& name : AlgorithmRegistry::global().names()) {
    const Instance& inst = name == "fptas" ? wide : tiny;
    const core::ScheduleResult r = AlgorithmRegistry::global().solve(name, inst, config);
    EXPECT_GT(r.makespan, 0) << name;
    EXPECT_GE(r.makespan, r.lower_bound * (1 - 1e-9)) << name;
  }
}

TEST(Registry, UnknownNameThrowsWithKnownList) {
  const Instance inst = make_instance(Family::kAmdahl, 4, 8, 1);
  try {
    AlgorithmRegistry::global().solve("no-such-solver", inst, {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("algorithm3-linear"), std::string::npos);
  }
}

TEST(Registry, RejectsDuplicateAndEmptyNames) {
  AlgorithmRegistry r;
  r.add("x", [](const Instance& i, const SolverConfig& c) {
    return core::schedule_moldable(i, c.eps);
  });
  EXPECT_TRUE(r.contains("x"));
  EXPECT_THROW(r.add("x", [](const Instance& i, const SolverConfig& c) {
    return core::schedule_moldable(i, c.eps);
  }),
               std::invalid_argument);
  EXPECT_THROW(r.add("", [](const Instance& i, const SolverConfig& c) {
    return core::schedule_moldable(i, c.eps);
  }),
               std::invalid_argument);
  EXPECT_THROW(r.add("y", SolverFn{}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The memo identity must cover every io directive, config field and plan
// lane that can change an outcome: two slots that differ in any of them
// must never share a cache entry, and two that differ in none must.

/// One record using every io directive and every job kind.
constexpr char kKeyBase[] = R"(moldable-instance v1
name base
arrival 2
class interactive
memcap 4
mem 7 1 2 3 4 5 6 7
machines 4
job amdahl 10 0.5 a
job powerlaw 6 0.7 b
job comm 4 0.2 c
job table 4 8 5 4 3 d
job linred 4 2 e
job rigid 5 2 7.5 f
job logspeed 3 g
)";

/// The plan-free identity of `text` under a two-variant config.
std::string identity_of(const std::string& text) {
  PortfolioConfig config;
  config.variants = {"lt-2approx", "mrt"};
  std::string identity = memo_identity(config, nullptr, jobs::from_text(text));
  EXPECT_FALSE(identity.empty()) << text;
  return identity;
}

/// `text` with the line `from` replaced by `to` (which may be empty).
std::string with_line(std::string text, const std::string& from, const std::string& to) {
  const std::size_t pos = text.find(from + "\n");
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos == std::string::npos) return text;
  return text.replace(pos, from.size() + 1, to.empty() ? "" : to + "\n");
}

TEST(MemoIdentity, EveryIoDirectiveChangesTheIdentity) {
  const std::string base = identity_of(kKeyBase);
  const struct {
    const char* directive;
    const char* from;
    const char* to;
  } mutations[] = {
      {"arrival", "arrival 2", "arrival 3"},
      {"class", "class interactive", "class batch"},
      {"memcap", "memcap 4", "memcap 5"},
      {"mem", "mem 7 1 2 3 4 5 6 7", "mem 7 1 2 3 4 5 6 8"},
      {"job kind", "job comm 4 0.2 c", "job powerlaw 4 0.2 c"},
      {"job name", "job amdahl 10 0.5 a", "job amdahl 10 0.5 z"},
      {"amdahl t1", "job amdahl 10 0.5 a", "job amdahl 11 0.5 a"},
      {"amdahl fraction", "job amdahl 10 0.5 a", "job amdahl 10 0.6 a"},
      {"powerlaw t1", "job powerlaw 6 0.7 b", "job powerlaw 7 0.7 b"},
      {"powerlaw alpha", "job powerlaw 6 0.7 b", "job powerlaw 6 0.8 b"},
      {"comm t1", "job comm 4 0.2 c", "job comm 5 0.2 c"},
      {"comm cost", "job comm 4 0.2 c", "job comm 4 0.3 c"},
      {"table values", "job table 4 8 5 4 3 d", "job table 4 8 5 4 3.5 d"},
      {"linred a", "job linred 4 2 e", "job linred 4 3 e"},
      {"rigid time", "job rigid 5 2 7.5 f", "job rigid 6 2 7.5 f"},
      {"rigid size", "job rigid 5 2 7.5 f", "job rigid 5 3 7.5 f"},
      {"rigid penalty", "job rigid 5 2 7.5 f", "job rigid 5 2 8 f"},
      {"logspeed t1", "job logspeed 3 g", "job logspeed 4 g"},
  };
  for (const auto& m : mutations)
    EXPECT_NE(identity_of(with_line(kKeyBase, m.from, m.to)), base) << m.directive;

  // The machine count is bound into table/linred jobs, so it gets a record
  // of its own.
  const std::string small = "moldable-instance v1\nmachines 4\njob amdahl 10 0.5\n";
  EXPECT_NE(identity_of(with_line(small, "machines 4", "machines 5")), identity_of(small));
}

TEST(MemoIdentity, InstanceNameDoesNotChangeTheIdentity) {
  // Loaders invent names for unnamed input; an identity covering them
  // would make every unnamed duplicate unique.
  const std::string base = identity_of(kKeyBase);
  EXPECT_EQ(identity_of(with_line(kKeyBase, "name base", "name renamed")), base);
  EXPECT_EQ(identity_of(with_line(kKeyBase, "name base", "")), base);
}

TEST(MemoIdentity, EveryConfigFieldAndPlanLaneChangesTheIdentity) {
  const Instance inst = jobs::from_text(kKeyBase);
  PortfolioConfig base;
  base.variants = {"ab", "c", "mrt"};
  const std::string identity = memo_identity(base, nullptr, inst);

  // The reverse direction: equal fields, built apart, give equal bytes.
  PortfolioConfig copy;
  copy.variants = {"ab", "c", "mrt"};
  copy.threads = 7;  // not an outcome field
  EXPECT_EQ(memo_identity(copy, nullptr, jobs::from_text(kKeyBase)), identity);

  PortfolioConfig fewer = base;
  fewer.variants.pop_back();
  PortfolioConfig regrouped = base;  // the same characters, other names
  regrouped.variants = {"a", "bc", "mrt"};
  PortfolioConfig reordered = base;
  reordered.variants = {"c", "ab", "mrt"};
  PortfolioConfig other_eps = base;
  other_eps.eps = 0.5;
  PortfolioConfig other_tie = base;
  other_tie.tie_break = TieBreak::kPortfolioOrder;
  for (const PortfolioConfig* other : {&fewer, &regrouped, &reordered, &other_eps, &other_tie})
    EXPECT_NE(memo_identity(*other, nullptr, inst), identity);

  // Every lane of a plan counts, and so does its length; an explicit
  // identity permutation and an empty plan are the plan-free identity.
  const std::vector<std::uint16_t> plan{2, 0, 1};
  const std::string planned = memo_identity(base, &plan, inst);
  EXPECT_NE(planned, identity);
  const std::vector<std::vector<std::uint16_t>> other_plans{
      {1, 0, 2}, {2, 1, 0}, {2, 0}, {2}, {0, 2, 1}};
  for (const std::vector<std::uint16_t>& other : other_plans)
    EXPECT_NE(memo_identity(base, &other, inst), planned) << other.size();
  EXPECT_EQ(memo_identity(base, &plan, inst), planned);
  const std::vector<std::uint16_t> explicit_identity{0, 1, 2};
  const std::vector<std::uint16_t> empty;
  EXPECT_EQ(memo_identity(base, &explicit_identity, inst), identity);
  EXPECT_EQ(memo_identity(base, &empty, inst), identity);
}

/// An oracle outside the io catalogue: t(k) = 1 on every k.
class UncataloguedTime final : public jobs::ProcessingTimeFunction {
 public:
  double at(procs_t) const override { return 1.0; }
};

TEST(MemoIdentity, UncataloguedOracleIsNeverMemoized) {
  std::vector<jobs::Job> jobs;
  jobs.emplace_back(std::make_shared<UncataloguedTime>(), 4);
  const Instance inst(std::move(jobs), 4);
  const PortfolioConfig config = single("lt-2approx");
  EXPECT_TRUE(memo_identity(config, nullptr, inst).empty());

  // Its duplicate computes too, and the store stays empty.
  exec::MemoStore<PortfolioOutcome> store;
  const PortfolioResult r = PortfolioSolver().solve({inst, inst}, config, &store);
  EXPECT_EQ(r.solved, 2u);
  EXPECT_EQ(r.memo_hits, 0u);
  EXPECT_EQ(r.memo_misses, 2u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(MemoStoreLru, EvictsLeastRecentlyUsedAtCapacity) {
  exec::MemoStore<int> store(2);
  EXPECT_EQ(store.capacity(), 2u);
  store.insert("a", 10);
  store.insert("b", 20);
  ASSERT_NE(store.find("a"), nullptr);  // touch: "a" is now most recent
  store.insert("c", 30);                // evicts "b", the LRU entry
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.find("b"), nullptr);
  ASSERT_NE(store.find("c"), nullptr);
  ASSERT_NE(store.find("a"), nullptr);  // order, oldest first: c, a
  // Re-inserting an existing identity refreshes recency without growing.
  store.insert("c", 99);
  EXPECT_EQ(*store.find("c"), 30);  // first insertion still wins
  store.insert("d", 40);            // now "a" is the LRU entry
  EXPECT_EQ(store.find("a"), nullptr);
  EXPECT_EQ(store.evictions(), 2u);
}

TEST(MemoStoreLru, ZeroCapacityIsUnbounded) {
  exec::MemoStore<int> store;
  for (int k = 0; k < 1000; ++k) store.insert("instance-" + std::to_string(k), k);
  EXPECT_EQ(store.size(), 1000u);
  EXPECT_EQ(store.evictions(), 0u);
}

TEST(MemoStoreLru, AnswersOnlyTheIdentityItHolds) {
  // Other bytes are another identity — a prefix or an extension of the
  // bytes too — and a lookup that misses leaves recency alone.
  exec::MemoStore<int> store(2);
  store.insert("A", 1);
  store.insert("C", 3);  // "A" is now the least recently used entry
  for (const std::string_view other : {"B", "", "AA", "a"})
    EXPECT_EQ(store.find(other), nullptr) << other;
  store.insert("AA", 2);  // a fresh identity: evicts "A", not "C"
  EXPECT_EQ(store.find("A"), nullptr);
  ASSERT_NE(store.find("C"), nullptr);
  EXPECT_EQ(*store.find("C"), 3);
  EXPECT_EQ(*store.find("AA"), 2);
  EXPECT_EQ(store.evictions(), 1u);
}

TEST(MemoStoreLru, PlanServesStoreHitsThenEarlierSlots) {
  // The store holds "y" and, more recently, "z". Slot order: x, y, x, w, y,
  // and an unmemoized slot. The plan copies the store's outcome into every
  // slot it holds, chains the second x to slot 0, and computes the rest.
  exec::MemoStore<int> store(2);
  store.insert("y", 7);
  store.insert("z", 8);
  std::vector<int> slots(6, 0);
  const exec::MemoPlan plan = exec::plan_memo<int>({"x", "y", "x", "w", "y", ""}, store, slots);
  EXPECT_TRUE(plan.computes(0));
  EXPECT_EQ(plan.source[1], exec::MemoPlan::kFromStore);
  EXPECT_EQ(plan.source[2], 0u);
  EXPECT_TRUE(plan.computes(3));
  EXPECT_EQ(plan.source[4], exec::MemoPlan::kFromStore);
  EXPECT_TRUE(plan.computes(5));
  EXPECT_EQ(slots[1], 7);
  EXPECT_EQ(slots[4], 7);
  EXPECT_EQ(slots[0], 0);
  EXPECT_EQ(plan.hits, 3u);
  EXPECT_EQ(plan.misses, 3u);
  // The plan's reads touched "y", so "z" is now the least recently used
  // entry, and the finalize's first insert evicts it.
  store.insert("x", 1);
  EXPECT_EQ(store.find("z"), nullptr);
  EXPECT_NE(store.find("y"), nullptr);
}

TEST(MemoStoreLru, CapacityOneThrashIsDeterministic) {
  // The degenerate bound: every fresh insertion evicts the previous entry.
  // Within one batch [A, B, A, B] the duplicates still hit (the serial plan
  // chains them to their earlier in-batch slot), and across a replay the
  // thrash pattern repeats exactly.
  auto batch = small_batch(2);
  batch.push_back(batch[0]);
  batch.push_back(batch[1]);
  const PortfolioConfig config = single("lt-2approx");

  const std::uint64_t plain_digest = PortfolioSolver().solve(batch, config).digest();
  exec::MemoStore<PortfolioOutcome> store(1);
  const PortfolioResult first = PortfolioSolver().solve(batch, config, &store);
  EXPECT_EQ(first.memo_hits, 2u);
  EXPECT_EQ(first.memo_misses, 2u);
  EXPECT_EQ(store.evictions(), 1u);  // B's insert evicted A
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(first.digest(), plain_digest);

  // Replay: the store holds only B. A misses (recompute), B hits from the
  // store, the duplicates hit in-batch or from the store — and A's fresh
  // insert evicts B again.
  const PortfolioResult replay = PortfolioSolver().solve(batch, config, &store);
  EXPECT_EQ(replay.memo_hits, 3u);
  EXPECT_EQ(replay.memo_misses, 1u);
  EXPECT_EQ(store.evictions(), 2u);
  EXPECT_EQ(replay.digest(), plain_digest);
}

TEST(MemoStoreLru, PromisedHitsSurviveEvictionByFreshInserts) {
  // The plan promises the last slot a store-served outcome, but the five
  // fresh inserts before it would evict that entry from a capacity-1 store
  // if reads and writes interleaved in slot order. plan_memo copies every
  // store hit into its slot before the finalize's first insert.
  auto fresh = small_batch(6);
  std::vector<Instance> seed = {fresh[0]};
  std::vector<Instance> batch(fresh.begin() + 1, fresh.end());
  batch.push_back(fresh[0]);  // promised from the store, at the end

  const PortfolioConfig config = single("lt-2approx");
  exec::MemoStore<PortfolioOutcome> store(1);
  PortfolioSolver().solve(seed, config, &store);  // store = {A}

  const PortfolioResult r = PortfolioSolver().solve(batch, config, &store);
  EXPECT_EQ(r.memo_hits, 1u);
  EXPECT_EQ(r.memo_misses, 5u);
  EXPECT_EQ(r.solved, 6u);
  EXPECT_EQ(r.digest(), PortfolioSolver().solve(batch, config).digest());
}

TEST(MemoStoreLru, EvictionCountsAreThreadCountIndependent) {
  // A batch with duplicates over a small store, solved at 1 and 8 threads
  // with fresh stores: the hit/miss/eviction tallies and the digest must
  // match exactly — the LRU sequence lives in the serial plan/finalize
  // phases, never inside the shard loop.
  auto batch = small_batch(24);
  for (std::size_t i = 0; i < 8; ++i) batch.push_back(batch[i * 2]);

  PortfolioConfig serial = single("lt-2approx");
  serial.threads = 1;
  PortfolioConfig parallel = serial;
  parallel.threads = 8;

  exec::MemoStore<PortfolioOutcome> store1(4);
  exec::MemoStore<PortfolioOutcome> store8(4);
  const PortfolioResult a = PortfolioSolver().solve(batch, serial, &store1);
  const PortfolioResult b = PortfolioSolver().solve(batch, parallel, &store8);
  EXPECT_EQ(a.memo_hits, b.memo_hits);
  EXPECT_EQ(a.memo_misses, b.memo_misses);
  EXPECT_EQ(store1.evictions(), store8.evictions());
  EXPECT_GT(store1.evictions(), 0u);  // 24 distinct keys through capacity 4
  EXPECT_EQ(store1.size(), 4u);
  EXPECT_EQ(a.digest(), b.digest());
}

}  // namespace
}  // namespace moldable::engine
