// Stream-engine tests: window cutting (window=1, window>input, drain),
// malformed-record isolation mid-stream, the rolling digest's equality with
// a one-shot batch digest over the concatenated windows, arrival-ordered
// grouping inside the bounded reorder horizon, the memo hit path (bounded
// and unbounded), capped window-history retention, deadline-class buffer
// jumping with miss counters, and the per-SLA-class latency aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "src/engine/portfolio.hpp"
#include "src/engine/registry.hpp"
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

std::vector<Instance> small_batch(std::size_t count, procs_t m = 64) {
  std::vector<Instance> batch;
  const auto families = jobs::all_families();
  for (std::size_t i = 0; i < count; ++i)
    batch.push_back(make_instance(families[i % families.size()], 16, m, 100 + i));
  return batch;
}

/// Serializes instances into a serve-mode stream (concatenated records).
std::string to_stream(const std::vector<Instance>& instances) {
  std::string text;
  for (const Instance& inst : instances) text += jobs::to_text(inst);
  return text;
}

StreamResult run_stream(const std::string& text, const StreamConfig& config) {
  std::istringstream input(text);
  return StreamSolver().run(input, config);
}

/// One-shot digest of `batch` under a single solver — what a serve of the
/// same instances in the same order must reproduce.
std::uint64_t one_shot_digest(const std::vector<Instance>& batch,
                              const std::string& algorithm = "auto") {
  PortfolioConfig config;
  config.variants = {algorithm};
  return PortfolioSolver().solve(batch, config).digest();
}

TEST(StreamSolver, WindowBoundaries) {
  const auto batch = small_batch(5);
  const std::string text = to_stream(batch);

  StreamConfig config;
  config.threads = 2;

  config.window = 2;  // 5 instances -> windows of 2, 2, 1
  StreamResult r = run_stream(text, config);
  EXPECT_EQ(r.windows, 3u);
  ASSERT_EQ(r.window_stats.size(), 3u);
  EXPECT_EQ(r.window_stats[0].instances, 2u);
  EXPECT_EQ(r.window_stats[1].instances, 2u);
  EXPECT_EQ(r.window_stats[2].instances, 1u);  // end-of-input drain
  EXPECT_EQ(r.instances, 5u);
  EXPECT_EQ(r.solved, 5u);

  config.window = 1;  // degenerate: one instance per window
  r = run_stream(text, config);
  EXPECT_EQ(r.windows, 5u);
  for (const WindowStats& w : r.window_stats) EXPECT_EQ(w.instances, 1u);

  config.window = 100;  // window larger than the whole input: one shot
  r = run_stream(text, config);
  EXPECT_EQ(r.windows, 1u);
  EXPECT_EQ(r.window_stats[0].instances, 5u);
}

TEST(StreamSolver, EmptyStreamMatchesEmptyBatch) {
  StreamConfig config;
  const StreamResult r = run_stream("", config);
  EXPECT_EQ(r.windows, 0u);
  EXPECT_EQ(r.instances, 0u);
  EXPECT_EQ(r.malformed, 0u);
  EXPECT_EQ(r.rolling_digest, one_shot_digest({}));
}

TEST(StreamSolver, RollingDigestEqualsOneShotBatchDigest) {
  // No arrival metadata -> the stable sort preserves stream order, so the
  // concatenated windows are exactly the input batch, and the rolling
  // digest must equal the one-shot digest over it — the window cuts must
  // leave no trace.
  const auto batch = small_batch(11);
  const std::string text = to_stream(batch);
  const std::uint64_t expected = one_shot_digest(batch);

  for (const std::size_t window : {1ul, 3ul, 4ul, 11ul, 64ul}) {
    StreamConfig config;
    config.window = window;
    config.threads = 3;
    const StreamResult r = run_stream(text, config);
    EXPECT_EQ(r.rolling_digest, expected) << "window=" << window;
    EXPECT_EQ(r.solved, batch.size()) << "window=" << window;
  }
}

TEST(StreamSolver, RollingDigestIsThreadCountIndependent) {
  const std::string text = to_stream(small_batch(10));
  StreamConfig serial;
  serial.window = 3;
  serial.threads = 1;
  StreamConfig parallel = serial;
  parallel.threads = 5;
  const StreamResult a = run_stream(text, serial);
  const StreamResult b = run_stream(text, parallel);
  EXPECT_EQ(a.rolling_digest, b.rolling_digest);
  ASSERT_EQ(a.window_stats.size(), b.window_stats.size());
  for (std::size_t w = 0; w < a.window_stats.size(); ++w) {
    EXPECT_EQ(a.window_stats[w].digest, b.window_stats[w].digest) << w;
    EXPECT_EQ(a.window_stats[w].rolling_digest, b.window_stats[w].rolling_digest) << w;
  }
}

TEST(StreamSolver, MalformedRecordIsIsolatedMidStream) {
  const auto good = small_batch(2);
  std::string text = jobs::to_text(good[0]);
  const std::size_t bad_record_line = 1 + std::count(text.begin(), text.end(), '\n');
  text += "moldable-instance v1\nmachines 4\njob bogus 1 2\n";  // malformed body
  text += jobs::to_text(good[1]);

  StreamConfig config;
  config.window = 10;
  const StreamResult r = run_stream(text, config);
  EXPECT_EQ(r.malformed, 1u);
  EXPECT_EQ(r.instances, 2u);
  EXPECT_EQ(r.solved, 2u);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_EQ(r.errors[0].ordinal, 1u);
  EXPECT_EQ(r.errors[0].line, bad_record_line);
  EXPECT_NE(r.errors[0].message.find("unknown job kind"), std::string::npos)
      << r.errors[0].message;

  // The skipped record must leave no trace in the digest: the stream result
  // equals a one-shot batch over just the two good instances.
  EXPECT_EQ(r.rolling_digest, one_shot_digest(good));
}

TEST(StreamSolver, StrayTextOutsideRecordsIsReportedNotSilentlySkipped) {
  std::string text = "not a record\n";
  text += to_stream(small_batch(1));
  StreamConfig config;
  const StreamResult r = run_stream(text, config);
  EXPECT_EQ(r.malformed, 1u);
  EXPECT_EQ(r.solved, 1u);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_NE(r.errors[0].message.find("header"), std::string::npos);
}

TEST(StreamSolver, ArrivalOrdersWindowsInsideTheHorizon) {
  // Four instances stamped in reverse arrival order, all inside one reorder
  // horizon (window 2 x max_inflight 2): the stream layer must serve them
  // arrival-sorted, so the rolling digest equals a one-shot batch over the
  // arrival-sorted vector — and differs from stream order.
  auto batch = small_batch(4);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch[i].set_arrival(static_cast<double>(batch.size() - i));
  const std::string text = to_stream(batch);

  std::vector<Instance> by_arrival(batch.rbegin(), batch.rend());
  const std::uint64_t sorted_digest = one_shot_digest(by_arrival);
  const std::uint64_t stream_order_digest = one_shot_digest(batch);
  ASSERT_NE(sorted_digest, stream_order_digest);  // distinct instances: orders differ

  StreamConfig config;
  config.window = 2;
  config.max_inflight = 2;
  const StreamResult r = run_stream(text, config);
  EXPECT_EQ(r.rolling_digest, sorted_digest);
}

TEST(StreamSolver, ReorderHorizonIsBounded) {
  // Same reversed arrivals, but a horizon of one single-instance window:
  // nothing can be reordered, so the stream stays in stream order — the
  // arrival sort must not see beyond the buffered horizon.
  auto batch = small_batch(4);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch[i].set_arrival(static_cast<double>(batch.size() - i));
  StreamConfig config;
  config.window = 1;
  config.max_inflight = 1;
  const StreamResult r = run_stream(to_stream(batch), config);
  EXPECT_EQ(r.rolling_digest, one_shot_digest(batch));
}

TEST(StreamSolver, SingleAlgorithmIsTheOneVariantPortfolioForEveryBuiltin) {
  // `--algorithm X` and `--portfolio X` are one configuration: for every
  // builtin, serving with `algorithm = X` and with `variants = {X}` gives
  // one rolling digest, and both equal the one-shot batch digest. Failures
  // (exact over its caps, fptas below its machine threshold) included.
  const std::vector<Instance> batch = {
      make_instance(Family::kMixed, 4, 8, 7),
      make_instance(Family::kAmdahl, 4, 512, 7),
      make_instance(Family::kPowerLaw, 6, 64, 9),
  };
  const std::string text = to_stream(batch);
  for (const std::string& name : AlgorithmRegistry::global().names()) {
    StreamConfig by_algorithm;
    by_algorithm.algorithm = name;
    by_algorithm.eps = 0.5;
    by_algorithm.window = 2;
    StreamConfig by_portfolio = by_algorithm;
    by_portfolio.variants = {name};
    const std::uint64_t serve = run_stream(text, by_algorithm).rolling_digest;
    EXPECT_EQ(run_stream(text, by_portfolio).rolling_digest, serve) << name;
    PortfolioConfig one_shot;
    one_shot.variants = {name};
    one_shot.eps = 0.5;
    EXPECT_EQ(PortfolioSolver().solve(batch, one_shot).digest(), serve) << name;
  }
}

TEST(StreamSolver, MemoKeepsTheMemoryConstrainedTwinApart) {
  // Identical jobs, but the second record is memory-constrained, so only
  // lt-2approx may serve it, while the first runs both lanes. A memo key
  // blind to memcap/mem would hand it the first record's two-lane outcome:
  // memo on must give the memo-off digest, with no hit.
  const std::string jobs_text =
      "machines 4\njob amdahl 10 0.5 a\njob amdahl 8 0.8 b\n"
      "job powerlaw 6 0.7 c\njob comm 4 0.2 d\njob amdahl 2 0.9 e\n";
  const std::string twins = "moldable-instance v1\n" + jobs_text +
                            "moldable-instance v1\nmemcap 1\nmem 5 4 4 4 0 0\n" +
                            jobs_text;
  StreamConfig config;
  config.variants = {"mrt", "lt-2approx"};
  config.tie_break = TieBreak::kPortfolioOrder;
  config.window = 1;
  const StreamResult plain = run_stream(twins, config);
  ASSERT_EQ(plain.solved, 2u);
  config.memo = true;
  const StreamResult memo = run_stream(twins, config);
  EXPECT_EQ(memo.memo_hits, 0u);
  EXPECT_EQ(memo.rolling_digest, plain.rolling_digest);
}

TEST(StreamSolver, MemoServesDuplicatesWithUnchangedDigest) {
  auto batch = small_batch(3);
  batch.push_back(batch[0]);  // duplicate in a later window
  batch.push_back(batch[1]);
  const std::string text = to_stream(batch);

  StreamConfig config;
  config.window = 3;
  StreamConfig memoized = config;
  memoized.memo = true;

  const StreamResult plain = run_stream(text, config);
  const StreamResult memo = run_stream(text, memoized);
  EXPECT_EQ(plain.memo_hits, 0u);
  EXPECT_EQ(plain.memo_misses, 0u);
  EXPECT_EQ(memo.memo_hits, 2u);  // both duplicates served from the store
  EXPECT_EQ(memo.memo_misses, 3u);
  ASSERT_EQ(memo.window_stats.size(), 2u);
  EXPECT_EQ(memo.window_stats[1].memo_hits, 2u);
  // Memoization must be invisible to every algorithmic output.
  EXPECT_EQ(memo.rolling_digest, plain.rolling_digest);
  EXPECT_EQ(memo.solved, plain.solved);
}

TEST(StreamSolver, MemoDeduplicatesUnnamedRecords) {
  // Unnamed records get distinct auto-names ("stream-<ordinal>"), which
  // must not defeat memoization: the memo key covers content, not the name.
  const std::string record =
      "moldable-instance v1\nmachines 32\njob amdahl 6 0.4\njob powerlaw 4 0.5\n";
  StreamConfig config;
  config.window = 1;
  config.memo = true;
  const StreamResult r = run_stream(record + record + record, config);
  EXPECT_EQ(r.solved, 3u);
  EXPECT_EQ(r.memo_misses, 1u);
  EXPECT_EQ(r.memo_hits, 2u);
}

TEST(StreamSolver, BoundedMemoEvictsDeterministicallyWithUnchangedDigest) {
  // 12 distinct instances, the first four repeated at the end, through a
  // capacity-4 store: evictions must happen, every algorithmic output must
  // be untouched, and the whole memo tally must be thread-count independent.
  auto batch = small_batch(12);
  for (std::size_t i = 0; i < 4; ++i) batch.push_back(batch[i]);
  const std::string text = to_stream(batch);

  StreamConfig plain_config;
  plain_config.window = 4;
  StreamConfig bounded = plain_config;
  bounded.memo = true;
  bounded.memo_capacity = 4;

  const StreamResult plain = run_stream(text, plain_config);
  const StreamResult a = run_stream(text, bounded);
  EXPECT_EQ(a.rolling_digest, plain.rolling_digest);
  EXPECT_EQ(a.solved, plain.solved);
  EXPECT_GT(a.memo_evictions, 0u);  // 12 distinct keys through capacity 4
  EXPECT_EQ(a.memo_hits + a.memo_misses, batch.size());

  StreamConfig parallel = bounded;
  parallel.threads = 6;
  const StreamResult b = run_stream(text, parallel);
  EXPECT_EQ(b.rolling_digest, a.rolling_digest);
  EXPECT_EQ(b.memo_hits, a.memo_hits);
  EXPECT_EQ(b.memo_misses, a.memo_misses);
  EXPECT_EQ(b.memo_evictions, a.memo_evictions);

  // An unbounded run over the same stream hits on every repeat; the bounded
  // store, having evicted them, re-solves — fewer hits, same digest.
  StreamConfig unbounded = bounded;
  unbounded.memo_capacity = 0;
  const StreamResult u = run_stream(text, unbounded);
  EXPECT_EQ(u.rolling_digest, plain.rolling_digest);
  EXPECT_EQ(u.memo_evictions, 0u);
  EXPECT_GE(u.memo_hits, a.memo_hits);
}

TEST(StreamSolver, WindowHistoryCapsRetainedStats) {
  const auto batch = small_batch(10);
  const std::string text = to_stream(batch);

  StreamConfig config;
  config.window = 1;
  config.window_history = 3;
  const StreamResult r = run_stream(text, config);
  EXPECT_EQ(r.windows, 10u);      // totals cover every window...
  EXPECT_EQ(r.instances, 10u);
  ASSERT_EQ(r.window_stats.size(), 3u);  // ...but only the last 3 are kept
  EXPECT_EQ(r.window_stats.front().index, 7u);
  EXPECT_EQ(r.window_stats.back().index, 9u);
  EXPECT_EQ(r.window_stats.back().rolling_digest, r.rolling_digest);

  // The window callback still fires for every window, in order.
  std::vector<std::size_t> seen;
  std::istringstream input(text);
  StreamSolver().run(input, config,
                     [&](const WindowStats& w) { seen.push_back(w.index); });
  EXPECT_EQ(seen.size(), 10u);
}

TEST(StreamSolver, WindowHistoryCapsRetainedErrors) {
  std::string text;
  for (int i = 0; i < 5; ++i) {
    text += "not a record " + std::to_string(i) + "\n";
    text += to_stream(small_batch(1));
  }
  StreamConfig config;
  config.window = 1;
  config.window_history = 2;
  std::size_t reported = 0;
  std::istringstream input(text);
  const StreamResult r =
      StreamSolver().run(input, config, {},
                         [&](const StreamError&) { ++reported; });
  EXPECT_EQ(r.malformed, 5u);
  EXPECT_EQ(reported, 5u);          // the callback saw every one...
  EXPECT_EQ(r.errors.size(), 2u);   // ...the result keeps the most recent 2
}

TEST(StreamSolver, DeadlineClassJumpsTheReorderBuffer) {
  // Four instances, stream order, equal arrivals; the last is labelled
  // interactive. With a deadline on that class its effective deadline is
  // finite while everyone else's is +inf, so it must be served first —
  // the rolling digest equals a one-shot batch over the jumped order.
  auto batch = small_batch(4);
  batch[3].set_sla_class("interactive");
  const std::string text = to_stream(batch);

  std::vector<Instance> jumped = {batch[3], batch[0], batch[1], batch[2]};
  const std::uint64_t jumped_digest = one_shot_digest(jumped);
  const std::uint64_t stream_order_digest = one_shot_digest(batch);
  ASSERT_NE(jumped_digest, stream_order_digest);

  StreamConfig config;
  config.window = 4;
  config.class_deadlines["interactive"] = 10.0;
  EXPECT_EQ(run_stream(text, config).rolling_digest, jumped_digest);

  // Without the deadline the same stream keeps stream order: the jump is a
  // pure function of the config, not of the class label.
  StreamConfig no_deadline;
  no_deadline.window = 4;
  EXPECT_EQ(run_stream(text, no_deadline).rolling_digest, stream_order_digest);
}

TEST(StreamSolver, EarlierDeadlineWinsWithinADeadlineClass) {
  // Two interactive instances with different arrivals: deadline = arrival +
  // class deadline, so the earlier arrival keeps its head start; the
  // deadline sort must not collapse a class into one undifferentiated bump.
  auto batch = small_batch(3);
  batch[1].set_sla_class("interactive");
  batch[1].set_arrival(5);
  batch[2].set_sla_class("interactive");
  batch[2].set_arrival(1);
  const std::string text = to_stream(batch);

  std::vector<Instance> expected = {batch[2], batch[1], batch[0]};
  StreamConfig config;
  config.window = 3;
  config.class_deadlines["interactive"] = 2.0;
  EXPECT_EQ(run_stream(text, config).rolling_digest,
            one_shot_digest(expected));
}

TEST(StreamSolver, DeadlineMissesAreCountedPerClassAndPerWindow) {
  auto batch = small_batch(6);
  for (std::size_t i = 0; i < batch.size(); ++i)
    if (i % 2 == 0) batch[i].set_sla_class("interactive");
  const std::string text = to_stream(batch);

  StreamConfig config;
  config.window = 3;
  // An impossible deadline: every interactive instance misses (queue +
  // compute latency is always positive), and the unlabelled class — no
  // deadline — never counts a miss however long it takes.
  config.class_deadlines["interactive"] = 1e-12;
  const StreamResult r = run_stream(text, config);
  EXPECT_EQ(r.deadline_misses, 3u);
  ASSERT_EQ(r.per_class.size(), 2u);
  EXPECT_EQ(r.per_class[0].sla_class, "default");
  EXPECT_EQ(r.per_class[0].deadline_misses, 0u);
  EXPECT_EQ(r.per_class[0].deadline_seconds, 0);
  EXPECT_EQ(r.per_class[1].sla_class, "interactive");
  EXPECT_EQ(r.per_class[1].deadline_misses, 3u);
  EXPECT_EQ(r.per_class[1].deadline_seconds, 1e-12);
  std::size_t window_total = 0;
  for (const WindowStats& w : r.window_stats) window_total += w.deadline_misses;
  EXPECT_EQ(window_total, 3u);

  // A generous deadline (solving a small instance takes nowhere near an
  // hour) records zero misses.
  StreamConfig generous = config;
  generous.class_deadlines["interactive"] = 3600.0;
  EXPECT_EQ(run_stream(text, generous).deadline_misses, 0u);
}

TEST(StreamSolver, DefaultKeyNamesTheUnlabelledClass) {
  // --deadline default=... must cover unlabelled instances (the io layer
  // canonicalizes an explicit `class default` to unlabelled, and the stats
  // report them under "default").
  const auto batch = small_batch(2);
  StreamConfig config;
  config.window = 2;
  config.class_deadlines["default"] = 1e-12;
  const StreamResult r = run_stream(to_stream(batch), config);
  EXPECT_EQ(r.deadline_misses, 2u);
  ASSERT_EQ(r.per_class.size(), 1u);
  EXPECT_EQ(r.per_class[0].deadline_seconds, 1e-12);
}

TEST(StreamSolver, RawSamplesMatchesSketchOnSmallStreams) {
  // Below the sketch's exact threshold both paths are nearest-rank over the
  // same samples of the same run... which are wall-clock measurements, so
  // compare shapes, not values: both must be monotone and consistent.
  const std::string text = to_stream(small_batch(8));
  StreamConfig config;
  config.window = 4;
  config.raw_samples = true;
  const StreamResult r = run_stream(text, config);
  ASSERT_EQ(r.per_class.size(), 1u);
  EXPECT_LE(r.per_class[0].compute.p50, r.per_class[0].compute.p99);
  EXPECT_LE(r.per_class[0].compute.p99, r.per_class[0].compute.max);
}

TEST(StreamSolver, PortfolioModeRollsTheSameDigestAsOneShot) {
  const auto batch = small_batch(8);
  const std::string text = to_stream(batch);

  PortfolioConfig one_shot;
  one_shot.variants = {"mrt", "lt-2approx"};
  const std::uint64_t expected = PortfolioSolver().solve(batch, one_shot).digest();

  StreamConfig config;
  config.window = 3;
  config.variants = {"mrt", "lt-2approx"};
  config.threads = 4;
  const StreamResult r = run_stream(text, config);
  EXPECT_EQ(r.rolling_digest, expected);
  EXPECT_EQ(r.solved, batch.size());

  StreamConfig serial = config;
  serial.threads = 1;
  EXPECT_EQ(run_stream(text, serial).rolling_digest, r.rolling_digest);
}

TEST(StreamSolver, PerClassLatencySplits) {
  auto batch = small_batch(6);
  for (std::size_t i = 0; i < batch.size(); ++i)
    if (i % 2 == 0) batch[i].set_sla_class("interactive");
  // Odd indices stay unlabelled -> "default".
  const std::string text = to_stream(batch);

  StreamConfig config;
  config.window = 4;
  const StreamResult r = run_stream(text, config);
  ASSERT_EQ(r.per_class.size(), 2u);  // sorted: "" (default) before "interactive"
  EXPECT_EQ(r.per_class[0].sla_class, "default");
  EXPECT_EQ(r.per_class[0].count, 3u);
  EXPECT_EQ(r.per_class[0].solved, 3u);
  EXPECT_EQ(r.per_class[1].sla_class, "interactive");
  EXPECT_EQ(r.per_class[1].count, 3u);
  for (const ClassStats& c : r.per_class) {
    EXPECT_LE(c.queue.p50, c.queue.p99);
    EXPECT_LE(c.queue.p99, c.queue.max);
    EXPECT_LE(c.compute.p50, c.compute.p99);
    EXPECT_LE(c.compute.p99, c.compute.max);
    EXPECT_GE(c.compute.p50, 0);
  }
}

TEST(StreamSolver, PerInstanceFailureIsIsolated) {
  // `exact` hard-caps at tiny instances: the oversized middle record fails
  // alone; the stream keeps serving.
  std::vector<Instance> batch;
  batch.push_back(make_instance(Family::kMixed, 4, 8, 21));
  batch.push_back(make_instance(Family::kMixed, 40, 64, 22));  // over the caps
  batch.push_back(make_instance(Family::kMixed, 4, 8, 23));
  StreamConfig config;
  config.window = 2;
  config.algorithm = "exact";
  const StreamResult r = run_stream(to_stream(batch), config);
  EXPECT_EQ(r.solved, 2u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.rolling_digest, one_shot_digest(batch, "exact"));
}

TEST(StreamSolver, InvalidConfigThrowsBeforeConsumingInput) {
  const std::string text = to_stream(small_batch(2));
  const auto expect_throw_without_reading = [&](const StreamConfig& config) {
    std::istringstream input(text);
    EXPECT_THROW(StreamSolver().run(input, config), std::invalid_argument);
    // The stream was not touched: the next reader still sees every record.
    jobs::InstanceStreamReader reader(input);
    jobs::StreamRecord record;
    std::size_t records = 0;
    while (reader.next(record)) ++records;
    EXPECT_EQ(records, 2u);
  };

  StreamConfig zero_window;
  zero_window.window = 0;
  expect_throw_without_reading(zero_window);

  StreamConfig zero_inflight;
  zero_inflight.max_inflight = 0;
  expect_throw_without_reading(zero_inflight);

  StreamConfig bad_eps;
  bad_eps.eps = 1.5;
  expect_throw_without_reading(bad_eps);

  StreamConfig unknown;
  unknown.algorithm = "no-such-solver";
  expect_throw_without_reading(unknown);

  StreamConfig dup_variants;
  dup_variants.variants = {"mrt", "mrt"};
  expect_throw_without_reading(dup_variants);

  StreamConfig zero_deadline;
  zero_deadline.class_deadlines["interactive"] = 0;
  expect_throw_without_reading(zero_deadline);

  StreamConfig negative_deadline;
  negative_deadline.class_deadlines["interactive"] = -1;
  expect_throw_without_reading(negative_deadline);

  StreamConfig infinite_deadline;
  infinite_deadline.class_deadlines["interactive"] =
      std::numeric_limits<double>::infinity();
  expect_throw_without_reading(infinite_deadline);
}

TEST(StreamSolver, WindowTimesInflightOverflowIsRejected) {
  // 2^32 x 2^32 wraps the reorder buffer's size to 0, which served nothing
  // and reported success; the product must be refused up front instead.
  StreamConfig config;
  config.window = std::size_t{1} << 32;
  config.max_inflight = std::size_t{1} << 32;
  std::istringstream input(to_stream(small_batch(2)));
  try {
    StreamSolver().run(input, config);
    FAIL() << "an overflowing window x max-inflight must be refused";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("window"), std::string::npos) << what;
    EXPECT_NE(what.find("max-inflight"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------- record/replay --
// The bit-exact record/replay contract (traffic/replay.hpp): a portfolio
// session recorded while served live at --threads 4 must replay on 1 thread
// with an identical rolling digest and identical memo / cancelled /
// deadline-miss counters — also when its serve line carries the race keys
// that builds with a concurrent race mode wrote; a truncated or tampered
// record file must be rejected with a diagnostic naming the defect, and a
// tampered-but-internally-consistent trailer must be caught by the replay
// comparison.

/// A storm-shaped stream for the round-trip tests: Poisson arrivals, class
/// mix, 1-job deciders (so the early-cancel rule fires), duplicates
/// (so the memo hit path runs), enough distinct records to overflow a
/// capacity-16 memo store.
std::string recordable_stream() {
  traffic::TrafficConfig config;
  config.curve = "flash:base=30,peak=300,t0=2,ramp=1,hold=2,decay=2";
  config.seed = 7;
  config.horizon = 8;
  config.jobs_min = 1;
  config.jobs_cap = 6;
  config.machines = 4;
  config.duplicate_every = 9;
  std::ostringstream out;
  traffic::TrafficGenerator(config).write(out);
  return out.str();
}

/// The serve configuration under test: portfolio, bounded LRU memo, an
/// interactive deadline.
StreamConfig recordable_config(unsigned threads) {
  StreamConfig config;
  config.window = 8;
  config.max_inflight = 2;
  config.variants = {"exact", "fptas", "mrt"};
  config.threads = threads;
  config.memo = true;
  config.memo_capacity = 16;
  config.window_history = 4;
  config.tie_break = TieBreak::kPortfolioOrder;
  config.class_deadlines["interactive"] = 0.5;
  return config;
}

/// Serves `text` under `config` while recording, and returns the record
/// file text alongside the live result.
std::pair<std::string, StreamResult> record_session(const std::string& text,
                                                    const StreamConfig& config) {
  std::ostringstream file;
  traffic::StreamRecorder recorder(file, config);
  std::istringstream input(text);
  const StreamResult live = StreamSolver().run(input, recorder.instrument(config));
  recorder.finalize(live);
  return {file.str(), live};
}

TEST(StreamRecordReplay, FourThreadRaceSessionReplaysBitExactOnOneThread) {
  const std::string text = recordable_stream();
  auto [record_text, live] = record_session(text, recordable_config(4));
  ASSERT_GT(live.instances, 100u);
  ASSERT_GT(live.cancelled_attempts, 0u) << "the deciders must trigger early-cancel";
  ASSERT_GT(live.memo_hits, 0u);
  ASSERT_GT(live.memo_evictions, 0u);

  // A raced session's record differs only in its serve line, which also
  // carried race=1 and race-width=W; the loader checks and discards both.
  const std::size_t serve = record_text.find("# serve ");
  const std::size_t shed_key = record_text.find(" shed=", serve);
  ASSERT_NE(shed_key, std::string::npos);
  EXPECT_EQ(record_text.substr(serve, record_text.find('\n', serve) - serve).find(" race"),
            std::string::npos);
  record_text.insert(shed_key, " race=1 race-width=2");

  std::istringstream file(record_text);
  const traffic::ReplayFile loaded = traffic::load_record(file);
  // The config frame round-trips every deterministic knob.
  EXPECT_EQ(loaded.config.window, 8u);
  EXPECT_EQ(loaded.config.max_inflight, 2u);
  EXPECT_EQ(loaded.config.variants, (std::vector<std::string>{"exact", "fptas", "mrt"}));
  EXPECT_TRUE(loaded.config.memo);
  EXPECT_EQ(loaded.config.memo_capacity, 16u);
  EXPECT_EQ(loaded.config.tie_break, TieBreak::kPortfolioOrder);
  ASSERT_EQ(loaded.config.class_deadlines.count("interactive"), 1u);
  EXPECT_DOUBLE_EQ(loaded.config.class_deadlines.at("interactive"), 0.5);
  // The trailer carries the live session's evidence.
  EXPECT_EQ(loaded.rolling_digest, live.rolling_digest);
  EXPECT_EQ(loaded.counters.instances, live.instances);
  EXPECT_EQ(loaded.counters.cancelled_attempts, live.cancelled_attempts);
  EXPECT_EQ(loaded.counters.deadline_misses, live.deadline_misses);
  EXPECT_EQ(loaded.latencies.size(), live.instances);
  // The source manifest (the traffic_gen preamble) is passed through.
  ASSERT_FALSE(loaded.source_preamble.empty());
  EXPECT_EQ(loaded.source_preamble.front(), "# traffic-manifest v1");

  // The acceptance gate: replay on ONE thread, compare against the
  // four-thread session.
  const traffic::ReplayReport report = traffic::replay(loaded, 1);
  EXPECT_TRUE(report.ok) << (report.mismatches.empty() ? "?" : report.mismatches[0]);
  EXPECT_TRUE(report.mismatches.empty());
  EXPECT_EQ(report.result.rolling_digest, live.rolling_digest);
  EXPECT_EQ(report.result.memo_hits, live.memo_hits);
  EXPECT_EQ(report.result.memo_misses, live.memo_misses);
  EXPECT_EQ(report.result.memo_evictions, live.memo_evictions);
  EXPECT_EQ(report.result.cancelled_attempts, live.cancelled_attempts);
  EXPECT_EQ(report.result.deadline_misses, live.deadline_misses);
}

TEST(StreamRecordReplay, RecordBodyIsTheCanonicalReadOrderStream) {
  // The body must be the canonical serialization of the records in READ
  // order — the windowing is a pure function of (stream, config), so the
  // pre-reorder stream is exactly what reproduces the session.
  const std::string text = recordable_stream();
  const auto [record_text, live] = record_session(text, recordable_config(2));

  std::istringstream file(record_text);
  const traffic::ReplayFile loaded = traffic::load_record(file);
  std::istringstream original(text);
  jobs::InstanceStreamReader reader(original);
  jobs::StreamRecord record;
  std::string canonical;
  while (reader.next(record)) {
    ASSERT_TRUE(record.ok);
    canonical += jobs::to_text(record.instance);
  }
  EXPECT_EQ(loaded.body, canonical);
  EXPECT_EQ(loaded.counters.instances, live.instances);
}

TEST(StreamRecordReplay, TruncatedFilesAreRejectedWithADiagnostic) {
  const std::string record_text =
      record_session(recordable_stream(), recordable_config(1)).first;
  const auto expect_truncated = [](const std::string& text) {
    std::istringstream file(text);
    try {
      traffic::load_record(file);
      FAIL() << "a truncated record file must not load";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
    }
  };
  // Cut mid-body (before the end sentinel)...
  expect_truncated(record_text.substr(0, record_text.size() / 2));
  // ...and mid-trailer (after the end sentinel but before the close).
  const std::size_t end = record_text.find("# moldable-record-end v1");
  ASSERT_NE(end, std::string::npos);
  expect_truncated(record_text.substr(0, end + 25));
  const std::size_t counters = record_text.find("# served ");
  ASSERT_NE(counters, std::string::npos);
  expect_truncated(record_text.substr(0, counters));

  // Not a record file at all: a plain serve stream.
  std::istringstream not_a_record(recordable_stream());
  EXPECT_THROW(traffic::load_record(not_a_record), std::runtime_error);
  std::istringstream empty("");
  EXPECT_THROW(traffic::load_record(empty), std::runtime_error);
}

TEST(StreamRecordReplay, RetiredRecordVersionsAreRejectedByName) {
  // Each retired version's digests cannot replay — v1 predates single-solver
  // sessions becoming one-variant portfolios, v2 the probe-first dual
  // search — and the loader must say why instead of reporting a divergence.
  std::ostringstream written;
  const traffic::StreamRecorder recorder(written, StreamConfig{});
  ASSERT_EQ(written.str().rfind("# moldable-record v3\n", 0), 0u);
  const std::vector<std::pair<std::string, std::string>> retired = {
      {"v1", "single-solver"}, {"v2", "dual search"}};
  for (const auto& [version, why] : retired) {
    std::istringstream file("# moldable-record " + version + "\n# serve window=16\n");
    try {
      traffic::load_record(file);
      FAIL() << "a " << version << " record file must not load";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("format " + version + " is no longer replayable"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
    }
  }
}

TEST(StreamRecordReplay, OutOfRangeServeValuesAreRefusedNamingTheKey) {
  // A sign used to wrap through stoull — window=-16 became 2^64-16, and
  // replay died in vector::reserve; memo-capacity=-1 replayed as 2^64-1 —
  // and race-width was truncated into an unsigned.
  for (const std::string kv : {"window=-16", "memo-capacity=-1", "race-width=4294967296"}) {
    std::istringstream file("# moldable-record v3\n# serve " + kv + "\n");
    try {
      traffic::load_record(file);
      FAIL() << kv << " must not load";
    } catch (const std::runtime_error& e) {
      const std::string key = kv.substr(0, kv.find('='));
      EXPECT_NE(std::string(e.what()).find("invalid " + key + " value"), std::string::npos)
          << e.what();
    }
  }
}

TEST(StreamRecordReplay, TrailerValuesAreRefusedNamingTheKey) {
  // The latency index and the digests are one strict token each: a sign or
  // a radix prefix used to slip through operator>> and stoull, which also
  // read a rolling digest of -1 as ffffffffffffffff.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"# latency +0 0 0", "latency index"},
      {"# rolling-digest 0x0123456789abcdef", "rolling-digest"},
      {"# rolling-digest -1", "rolling-digest"},
      {"# records-digest +1", "records-digest"}};
  for (const auto& [line, key] : cases) {
    std::istringstream file("# moldable-record v3\n# serve window=16\n"
                            "# moldable-record-end v1\n" + line + "\n");
    try {
      traffic::load_record(file);
      FAIL() << line << " must not load";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("invalid " + key + " value"), std::string::npos)
          << e.what();
    }
  }
}

TEST(StreamRecordReplay, DuplicatePortfolioVariantIsRefusedAtLoad) {
  // The portfolio line goes through the --portfolio parser, so a duplicated
  // variant is refused at load with the file named, not by the serve loop
  // once replay has started.
  std::string record_text =
      record_session(recordable_stream(), recordable_config(1)).first;
  const std::string line = "# portfolio exact,fptas,mrt\n";
  const std::size_t at = record_text.find(line);
  ASSERT_NE(at, std::string::npos);
  record_text.replace(at, line.size(), "# portfolio exact,fptas,exact\n");
  const std::string path = ::testing::TempDir() + "duplicate_variant_record.txt";
  std::ofstream(path) << record_text;
  try {
    traffic::load_record_file(path);
    FAIL() << "a record with a duplicated portfolio variant must not load";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("record: ", 0), 0u) << what;
    EXPECT_NE(what.find("duplicate variant 'exact'"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(StreamRecordReplay, CorruptedBodyIsRejectedWithADiagnostic) {
  std::string record_text =
      record_session(recordable_stream(), recordable_config(1)).first;
  // Flip one digit inside a record body line: the trailer digest no longer
  // matches the bytes, which is exactly what "corrupted" means here.
  const std::size_t job = record_text.find("job ");
  ASSERT_NE(job, std::string::npos);
  const std::size_t digit = record_text.find_first_of("0123456789", job);
  ASSERT_NE(digit, std::string::npos);
  record_text[digit] = record_text[digit] == '9' ? '8' : '9';
  std::istringstream file(record_text);
  try {
    traffic::load_record(file);
    FAIL() << "a corrupted record file must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupted"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("digest"), std::string::npos) << e.what();
  }
}

TEST(StreamRecordReplay, ReplayCatchesATamperedCounter) {
  // A record whose body is intact but whose trailer lies (memo-hits off by
  // one) parses fine — the divergence must surface in the replay report,
  // with the honest counters alongside.
  std::string record_text =
      record_session(recordable_stream(), recordable_config(1)).first;
  const std::size_t hits = record_text.find("memo-hits=");
  ASSERT_NE(hits, std::string::npos);
  const std::size_t digit = hits + 10;
  record_text[digit] = record_text[digit] == '9' ? '8' : '9';

  std::istringstream file(record_text);
  const traffic::ReplayFile loaded = traffic::load_record(file);
  const traffic::ReplayReport report = traffic::replay(loaded, 1);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.mismatches.size(), 1u);
  EXPECT_NE(report.mismatches[0].find("memo hits"), std::string::npos)
      << report.mismatches[0];
}

TEST(StreamRecordReplay, ReplayLatencyOverrideReproducesDeadlineMisses) {
  // Deadline misses are wall-clock MEASUREMENTS — the one non-deterministic
  // counter. The recorded latency table must reproduce them exactly even
  // when they could never occur live (sub-millisecond instances against a
  // 100-second threshold), proving replay scores the recorded values and
  // not a fresh measurement.
  const auto batch = small_batch(6);
  std::vector<Instance> labelled;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Instance inst = batch[i];
    inst.set_sla_class("interactive");
    labelled.push_back(std::move(inst));
  }
  const std::string text = to_stream(labelled);

  StreamConfig config;
  config.window = 3;
  config.threads = 1;
  config.class_deadlines["interactive"] = 100.0;  // unmissable live

  std::ostringstream file;
  traffic::StreamRecorder recorder(file, config);
  std::istringstream input(text);
  StreamResult live = StreamSolver().run(input, recorder.instrument(config));
  ASSERT_EQ(live.deadline_misses, 0u);

  // Forge the session the recorder saw: pretend instances 1 and 4 took 200
  // seconds. finalize() writes the forged latencies and honest counters
  // must come from the result we claim — so patch both, as a recorder whose
  // live run really measured those latencies would have.
  std::ostringstream forged_file;
  traffic::StreamRecorder forged(forged_file, config);
  StreamConfig instrumented = forged.instrument(config);
  std::vector<std::pair<double, double>> slow(labelled.size(), {0.001, 0.001});
  slow[1] = {150.0, 50.0};
  slow[4] = {10.0, 190.0};
  instrumented.replay_latencies = &slow;  // the "measurement" of this session
  std::istringstream again(text);
  StreamResult slow_live = StreamSolver().run(again, instrumented);
  EXPECT_EQ(slow_live.deadline_misses, 2u);  // the override fed the scoring
  forged.finalize(slow_live);

  std::istringstream record(forged_file.str());
  const traffic::ReplayFile loaded = traffic::load_record(record);
  EXPECT_EQ(loaded.counters.deadline_misses, 2u);
  const traffic::ReplayReport report = traffic::replay(loaded, 2);
  EXPECT_TRUE(report.ok) << (report.mismatches.empty() ? "?" : report.mismatches[0]);
  EXPECT_EQ(report.result.deadline_misses, 2u);
}

// ------------------------------------------------------- InstanceSource --
// Regression tests for the multi-source refactor: the serve loop must be a
// pure function of the record sequence an InstanceSource yields, whatever
// produced it, and the bookkeeping the socket layer depends on — gap-free
// stream-global indices, tags riding the reorder buffer — must hold even
// for sources that end mid-record.

/// The minimal InstanceSource: a canned record vector. What a socket
/// session or watch-dir scan boils down to once the I/O is stripped away.
class VectorSource : public InstanceSource {
 public:
  explicit VectorSource(std::vector<jobs::StreamRecord> records)
      : records_(std::move(records)) {}
  bool next(jobs::StreamRecord& record) override {
    if (pos_ >= records_.size()) return false;
    record = records_[pos_++];
    return true;
  }

 private:
  std::vector<jobs::StreamRecord> records_;
  std::size_t pos_ = 0;
};

jobs::StreamRecord ok_record(Instance instance, std::uint64_t tag,
                             std::size_t ordinal) {
  jobs::StreamRecord record;
  record.ok = true;
  record.instance = std::move(instance);
  record.tag = tag;
  record.ordinal = ordinal;
  return record;
}

jobs::StreamRecord bad_record(std::uint64_t tag, std::size_t ordinal) {
  jobs::StreamRecord record;
  record.ok = false;
  record.error = "torn record (session died mid-write)";
  record.tag = tag;
  record.ordinal = ordinal;
  return record;
}

TEST(StreamSolver, VectorSourceMatchesIstreamSource) {
  // Same records, two transports: the canned source and the istream wrapper
  // must produce identical serves — digest, windows, counters. The engine
  // must not care where records come from.
  const auto batch = small_batch(7);
  StreamConfig config;
  config.window = 3;
  config.threads = 2;

  std::vector<jobs::StreamRecord> records;
  for (std::size_t i = 0; i < batch.size(); ++i)
    records.push_back(ok_record(batch[i], 0, i));
  VectorSource source(std::move(records));
  const StreamResult from_vector = StreamSolver().run(source, config);
  const StreamResult from_stream = run_stream(to_stream(batch), config);

  EXPECT_EQ(from_vector.rolling_digest, from_stream.rolling_digest);
  EXPECT_EQ(from_vector.windows, from_stream.windows);
  EXPECT_EQ(from_vector.instances, from_stream.instances);
  EXPECT_EQ(from_vector.solved, from_stream.solved);
}

TEST(StreamSolver, ServedIndicesStayGapFreeAcrossMalformedRecords) {
  // A malformed record — including a socket session dying mid-record, which
  // parses as a torn tail — must never consume a stream-global outcome
  // index: downstream consumers (the recorder's latency table, the socket
  // RESULT frames) key on a dense 0..N-1 index space.
  const auto batch = small_batch(3);
  std::vector<jobs::StreamRecord> records;
  records.push_back(ok_record(batch[0], 7, 0));
  records.push_back(bad_record(9, 1));  // session 9 disconnected mid-record
  records.push_back(ok_record(batch[1], 7, 2));
  records.push_back(bad_record(7, 3));
  records.push_back(ok_record(batch[2], 8, 4));
  VectorSource source(std::move(records));

  StreamConfig config;
  config.window = 2;
  std::vector<std::size_t> served_indices;
  config.on_served = [&](std::size_t index, std::uint64_t, bool ok, double, double) {
    EXPECT_TRUE(ok);
    served_indices.push_back(index);
  };
  std::vector<StreamError> errors;
  const StreamResult r = StreamSolver().run(
      source, config, {}, [&](const StreamError& e) { errors.push_back(e); });

  EXPECT_EQ(r.instances, 3u);
  EXPECT_EQ(r.malformed, 2u);
  std::sort(served_indices.begin(), served_indices.end());
  EXPECT_EQ(served_indices, (std::vector<std::size_t>{0, 1, 2}));  // no gaps
  // The error callback still knows which session each torn record came from.
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].tag, 9u);
  EXPECT_EQ(errors[1].tag, 7u);
}

TEST(StreamSolver, TagsFollowInstancesThroughReordering) {
  // The reorder buffer sorts by (deadline, arrival) — tags must travel WITH
  // their instances, not with buffer positions, or the socket server would
  // route results to the wrong sessions exactly when reordering kicks in.
  auto batch = small_batch(4);
  const std::uint64_t tags[] = {11, 22, 33, 44};
  std::vector<jobs::StreamRecord> records;
  for (std::size_t i = 0; i < 4; ++i) {
    batch[i].set_arrival(static_cast<double>(3 - i));  // arrivals 3,2,1,0
    records.push_back(ok_record(batch[i], tags[i], i));
  }
  VectorSource source(std::move(records));

  StreamConfig config;
  config.window = 4;  // one window buffers all four -> full arrival re-sort
  std::vector<std::uint64_t> served_tags;
  config.on_served = [&](std::size_t index, std::uint64_t tag, bool, double, double) {
    ASSERT_EQ(index, served_tags.size());  // outcome indices in served order
    served_tags.push_back(tag);
  };
  const StreamResult r = StreamSolver().run(source, config);
  EXPECT_EQ(r.instances, 4u);
  // Served in arrival order (0,1,2,3) = the reverse of record order.
  EXPECT_EQ(served_tags, (std::vector<std::uint64_t>{44, 33, 22, 11}));
}

TEST(StreamSolver, SourceEndingMidWindowDrainsClean) {
  // A source that dries up partway through a window (the last socket client
  // disconnecting) must drain the partial window, not stall or drop it.
  const auto batch = small_batch(5);
  std::vector<jobs::StreamRecord> records;
  for (std::size_t i = 0; i < batch.size(); ++i)
    records.push_back(ok_record(batch[i], 1, i));
  VectorSource source(std::move(records));

  StreamConfig config;
  config.window = 3;
  const StreamResult r = StreamSolver().run(source, config);
  EXPECT_EQ(r.windows, 2u);  // 3 + 2 (end-of-source drain)
  EXPECT_EQ(r.instances, 5u);
  EXPECT_EQ(r.solved, 5u);
}

TEST(StreamSolver, FlushMarkerCutsTheReorderBufferEarly) {
  // A flush marker (a multiplexing source's "every session has drained"
  // signal) must cut the buffered backlog into windows NOW — otherwise a
  // lone client's tail records would wait on future traffic that may never
  // come. The cut changes window shapes but never the outcome digest.
  const auto batch = small_batch(6);
  std::string text;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i == 2) text += "moldable-flush v1\n";
    text += jobs::to_text(batch[i]);
  }

  StreamConfig config;
  config.window = 4;
  std::size_t flushes = 0;
  config.on_flush = [&] { ++flushes; };
  const StreamResult with_marker = run_stream(text, config);
  EXPECT_EQ(flushes, 1u);
  EXPECT_EQ(with_marker.instances, 6u);
  ASSERT_EQ(with_marker.window_stats.size(), 2u);
  EXPECT_EQ(with_marker.window_stats[0].instances, 2u);  // cut at the marker
  EXPECT_EQ(with_marker.window_stats[1].instances, 4u);

  StreamConfig plain;
  plain.window = 4;
  const StreamResult without = run_stream(to_stream(batch), plain);
  ASSERT_EQ(without.window_stats.size(), 2u);
  EXPECT_EQ(without.window_stats[0].instances, 4u);  // capacity-driven cut
  // Different cuts, same outcomes: the digest must not see the marker.
  EXPECT_EQ(with_marker.rolling_digest, without.rolling_digest);
}

TEST(StreamSolver, EmptyBufferFlushMarkerIsANoOp) {
  // An idle-period marker with nothing buffered must not produce an empty
  // window (or worse, stall) — it is observable only through on_flush.
  const auto batch = small_batch(2);
  const std::string text = "moldable-flush v1\n" + to_stream(batch);
  StreamConfig config;
  config.window = 4;
  std::size_t flushes = 0;
  config.on_flush = [&] { ++flushes; };
  const StreamResult r = run_stream(text, config);
  EXPECT_EQ(flushes, 1u);
  EXPECT_EQ(r.windows, 1u);
  EXPECT_EQ(r.instances, 2u);
  EXPECT_EQ(r.solved, 2u);
}

TEST(StreamRecordReplay, FlushDrivenWindowCutsSurviveReplay) {
  // Window cuts must stay a pure function of (recorded stream, config): the
  // recorder persists flush markers into the body, so a replay re-derives
  // the same flush-driven cuts — and with them the same per-window memo
  // tallies, which are cut-sensitive.
  const auto batch = small_batch(4);
  std::string text = jobs::to_text(batch[0]) + jobs::to_text(batch[1]);
  text += "moldable-flush v1\n";
  text += jobs::to_text(batch[2]) + jobs::to_text(batch[3]);
  text += jobs::to_text(batch[0]);  // cross-window duplicate: memo traffic

  StreamConfig config;
  config.window = 4;
  config.memo = true;
  config.memo_capacity = 8;
  const auto [record_text, live] = record_session(text, config);
  ASSERT_EQ(live.windows, 2u);  // 2 (flush cut) + 3 (end-of-input drain)
  EXPECT_NE(record_text.find("moldable-flush v1"), std::string::npos)
      << "the marker must be persisted in the record body";
  EXPECT_GT(live.memo_hits, 0u);

  std::istringstream file(record_text);
  const traffic::ReplayFile loaded = traffic::load_record(file);
  const traffic::ReplayReport report = traffic::replay(loaded, 1);
  EXPECT_TRUE(report.ok) << (report.mismatches.empty() ? "?" : report.mismatches[0]);
  EXPECT_EQ(report.result.windows, live.windows);
  ASSERT_EQ(report.result.window_stats.size(), 2u);
  EXPECT_EQ(report.result.window_stats[0].instances, 2u);  // same cut on replay
  EXPECT_EQ(report.result.memo_hits, live.memo_hits);
  EXPECT_EQ(report.result.memo_misses, live.memo_misses);
}

}  // namespace
}  // namespace moldable::engine
