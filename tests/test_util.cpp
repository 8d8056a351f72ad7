// Unit tests for src/util: PRNG determinism/distribution, table printing,
// and the parallel_for executor.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "src/util/common.hpp"
#include "src/util/prng.hpp"
#include "src/util/table.hpp"

namespace moldable {
namespace {

TEST(Prng, DeterministicForSameSeed) {
  util::Prng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Prng, DifferentSeedsDiffer) {
  util::Prng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Prng, UniformIntRespectsBounds) {
  util::Prng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 5);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 9u);  // all 9 values hit with overwhelming probability
}

TEST(Prng, UniformIntSingleton) {
  util::Prng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Prng, UniformIntRejectsInvertedRange) {
  util::Prng rng(7);
  EXPECT_THROW(rng.uniform_int(2, 1), std::invalid_argument);
}

TEST(Prng, Uniform01InRange) {
  util::Prng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);  // crude mean check
}

TEST(Prng, LogUniformRangeAndSpread) {
  util::Prng rng(13);
  int low_decade = 0;
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.log_uniform(1.0, 1000.0);
    ASSERT_GE(v, 1.0 - 1e-12);
    ASSERT_LE(v, 1000.0 + 1e-9);
    if (v < 10) ++low_decade;
  }
  // Log-uniform over 3 decades: each decade holds ~1/3 of the mass.
  EXPECT_NEAR(low_decade / 2000.0, 1.0 / 3, 0.06);
}

TEST(Prng, LogUniformValidatesArgs) {
  util::Prng rng(1);
  EXPECT_THROW(rng.log_uniform(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.log_uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Prng, BernoulliExtremes) {
  util::Prng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(LeqTol, BasicSemantics) {
  EXPECT_TRUE(leq_tol(1.0, 1.0));
  EXPECT_TRUE(leq_tol(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(leq_tol(1.0 + 1e-12, 1.0));  // within tolerance
  EXPECT_FALSE(leq_tol(1.0 + 1e-6, 1.0));
  EXPECT_TRUE(leq_tol(0.0, 0.0));
  EXPECT_TRUE(leq_tol(1e9, 1e9 * (1 + 1e-12)));
}

TEST(CheckInvariant, ThrowsInternalError) {
  EXPECT_NO_THROW(check_invariant(true, "fine"));
  EXPECT_THROW(check_invariant(false, "boom"), internal_error);
}

TEST(Table, PrintsHeaderAndRows) {
  util::Table t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"beta", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Fmt, SignificantDigits) {
  EXPECT_EQ(util::fmt(1.23456, 3), "1.23");
  EXPECT_EQ(util::fmt(1000.0, 4), "1000");
}

}  // namespace
}  // namespace moldable

namespace moldable {
namespace {

TEST(Table, CsvOutputAndQuoting) {
  util::Table t({"name", "value"});
  t.add_row({"plain", "1"});
  t.add_row({"with,comma", "quote\"inside"});
  std::ostringstream os;
  t.print_csv(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name,value\n"), std::string::npos);
  EXPECT_NE(s.find("plain,1\n"), std::string::npos);
  EXPECT_NE(s.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(s.find("\"quote\"\"inside\""), std::string::npos);
}

}  // namespace
}  // namespace moldable

#include "src/util/parallel.hpp"

namespace moldable {
namespace {

TEST(ParallelFor, CoversEveryIndexOnce) {
  std::vector<int> hits(1000, 0);
  util::parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; }, 4);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, SerialFallbackAndEmpty) {
  int count = 0;
  util::parallel_for(0, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  util::parallel_for(5, [&](std::size_t) { ++count; }, 1);
  EXPECT_EQ(count, 5);
}

TEST(ParallelFor, BoundsConcurrencyAndCallerParticipates) {
  constexpr std::size_t kItems = 9;
  constexpr unsigned kThreads = 3;
  const auto caller = std::this_thread::get_id();
  std::vector<int> runs(kItems, 0);
  std::atomic<int> live{0};
  std::atomic<int> high_water{0};
  std::atomic<bool> caller_ran{false};
  util::parallel_for(
      kItems,
      [&](std::size_t i) {
        const int now = live.fetch_add(1) + 1;
        int seen = high_water.load();
        while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
        }
        if (std::this_thread::get_id() == caller) caller_ran = true;
        // Hold every started thread until the caller has claimed an index,
        // so a fast pair of threads cannot drain the cursor first. Bounded:
        // an executor whose caller never works fails here instead of hanging.
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
        while (!caller_ran && std::chrono::steady_clock::now() < deadline)
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        runs[i]++;
        live.fetch_sub(1);
      },
      kThreads);
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(runs[i], 1) << i;
  EXPECT_LE(high_water.load(), static_cast<int>(kThreads));
  EXPECT_TRUE(caller_ran.load()) << "the calling thread ran no index";
}

TEST(ParallelFor, OneThreadRunsInOrderOnTheCaller) {
  const auto caller = std::this_thread::get_id();
  for (const unsigned threads : {0u, 1u}) {
    std::vector<std::size_t> order;  // one thread: no synchronization needed
    util::parallel_for(
        5,
        [&](std::size_t i) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          order.push_back(i);
        },
        threads);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4})) << threads;
  }
}

/// Counts the threads that ever ran a ReusesItsThreadsAcrossCalls body:
/// each thread constructs its own copy on first use.
std::atomic<int> g_threads_started{0};
struct CountsItsThread {
  CountsItsThread() { g_threads_started.fetch_add(1); }
};
thread_local CountsItsThread t_thread_marker;

TEST(ParallelFor, ReusesItsThreadsAcrossCalls) {
  // Three 4-thread calls whose bodies wait until all four threads hold an
  // index, so every helper takes part in every call. Persistent helpers
  // mean three helper threads in total; starting them per call would make
  // nine. (No test in this suite asks for more than four threads, so the
  // pool never holds more than three helpers.)
  constexpr unsigned kThreads = 4;
  const auto caller = std::this_thread::get_id();
  std::atomic<int> helper_runs{0};
  for (int call = 0; call < 3; ++call) {
    std::atomic<unsigned> arrived{0};
    util::parallel_for(
        kThreads,
        [&](std::size_t) {
          (void)&t_thread_marker;
          if (std::this_thread::get_id() != caller) helper_runs.fetch_add(1);
          arrived.fetch_add(1);
          // Bounded: a pool that starts fewer threads fails the counts
          // below instead of hanging here.
          const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
          while (arrived.load() < kThreads && std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        },
        kThreads);
  }
  EXPECT_EQ(helper_runs.load(), 9) << "a helper missed a call";
  const int caller_marker = 1;  // the calling thread ran bodies too
  EXPECT_EQ(g_threads_started.load() - caller_marker, 3)
      << "helper threads started across three 4-thread calls";
}

TEST(ParallelFor, ConcurrentCallersEachCoverTheirIndices) {
  // Two callers on different threads share the helpers; each call must
  // still run each of its own indices exactly once and return only when
  // they are done.
  constexpr std::size_t kItems = 2000;
  constexpr int kRounds = 20;
  const auto caller = [&](std::vector<int>& failures) {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::atomic<int>> hits(kItems);
      util::parallel_for(kItems, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
      for (std::size_t i = 0; i < kItems; ++i)
        if (hits[i].load() != 1) failures.push_back(round);
    }
  };
  std::vector<int> failures_a, failures_b;
  std::thread a(caller, std::ref(failures_a));
  std::thread b(caller, std::ref(failures_b));
  a.join();
  b.join();
  EXPECT_TRUE(failures_a.empty()) << failures_a.size() << " bad index counts";
  EXPECT_TRUE(failures_b.empty()) << failures_b.size() << " bad index counts";
}

TEST(ParallelFor, PropagatesWorkerExceptions) {
  EXPECT_THROW(util::parallel_for(
                   100,
                   [&](std::size_t i) {
                     if (i == 57) throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
}

}  // namespace
}  // namespace moldable
