// The execution core under PortfolioSolver (and the stream layer on top of
// it): the mechanics of solving a batch, kept apart from the portfolio
// policy.
//
//   * per-index outcome slots, sized up front, each worker writing only its
//     own slot (what makes every algorithmic output a pure function of
//     (batch, config) and hence thread-count independent);
//   * the shard loop on util::parallel_for: the calling thread and the
//     executor's persistent helper threads claim slots in index order. It
//     is the only parallelism in a solve: each instance's variants run one
//     after another on the thread that claimed it, so parallel_for never
//     nests;
//   * a single steady-clock anchor that stamps both the per-instance claim
//     time (the queue half of the latency split) and the whole-batch wall
//     clock;
//   * FNV-1a digest plumbing and nearest-rank percentile aggregation;
//   * an opt-in memoization plan that serves duplicate instances from a
//     prior outcome instead of re-solving them. The caller names every slot
//     by its identity bytes (see engine::memo_identity: the solver config,
//     the slot's execution plan and the instance's content bytes), and the
//     store is keyed by those bytes themselves, so two slots share an
//     outcome exactly when their identities are equal.
//
// Everything here is deterministic except the clock reads, and the memo
// plan is computed serially before dispatch so hit/miss counts are
// reproducible across thread counts.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/util/parallel.hpp"
#include "src/util/timer.hpp"

namespace moldable::engine::detail {

constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;

inline void fnv1a_mix(std::uint64_t& h, const void* data, std::size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
}

inline void fnv1a_mix_double(std::uint64_t& h, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  fnv1a_mix(h, &bits, sizeof(bits));
}

/// Nearest-rank percentile of a sorted sample (p in [0, 100]).
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx =
      std::min(sorted.size() - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return sorted[idx];
}

}  // namespace moldable::engine::detail

namespace moldable::engine::exec {

/// Resolves a configured worker count: 0 means hardware concurrency, and the
/// result is always at least 1 (hardware_concurrency may report 0).
unsigned resolve_threads(unsigned configured);

/// The p50/p90/p99/max summary every stats table in the engine layer
/// reports. Computed with the shared nearest-rank rule so no two aggregates
/// can drift apart in their percentile definition.
struct Percentiles {
  double p50 = 0, p90 = 0, p99 = 0, max = 0;
};

/// Sorts `samples` in place and summarizes it (all zeros when empty).
Percentiles percentiles_of(std::vector<double>& samples);

/// Where one outcome slot gets its value from under memoization. Computed
/// serially before dispatch (see plan_memo), so the split — and therefore
/// the hit/miss counts — is identical at every thread count.
struct MemoPlan {
  /// source[i] semantics: kCompute = solve slot i; kFromStore = slot i
  /// already holds the outcome an earlier batch stored; any other value j
  /// is an earlier index of THIS batch with the same identity (j < i, and j
  /// computes — copy from the finished slot j).
  static constexpr std::size_t kCompute = static_cast<std::size_t>(-1);
  static constexpr std::size_t kFromStore = static_cast<std::size_t>(-2);

  std::vector<std::size_t> source;
  std::size_t hits = 0;    ///< slots served without solving
  std::size_t misses = 0;  ///< slots that must compute

  bool computes(std::size_t i) const { return source[i] == kCompute; }
};

/// Cross-batch memo storage: identity bytes -> the first finished outcome
/// computed under them. The bytes themselves are the key, so an entry
/// answers exactly the identity it holds. Owned by the caller (the stream
/// layer keeps one alive across windows); not thread-safe by design — all
/// access happens in the serial plan and finalize phases around the shard
/// loop, never inside it.
///
/// A nonzero `capacity` bounds the store to that many outcomes under LRU
/// eviction (capacity 0 = unbounded, the replay-run default). Both `find`
/// and `insert` update recency. plan_memo runs a batch's every `find`, in
/// slot order, before the finalize runs its `insert`s, in slot order — so
/// no insert can evict an entry the plan promised to serve, and the
/// eviction sequence, and with it every hit/miss/eviction count, is a pure
/// function of the instance sequence and independent of the thread count.
template <typename Outcome>
class MemoStore {
 public:
  explicit MemoStore(std::size_t capacity = 0) : capacity_(capacity) {}

  /// The outcome stored under `identity`, now the most recently used; null
  /// when there is none.
  const Outcome* find(std::string_view identity) {
    const auto it = map_.find(identity);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->outcome;
  }

  /// First insertion wins; re-inserting an identity only refreshes its
  /// recency (the solvers are pure, so a second outcome for the same
  /// identity is identical). A fresh insertion over capacity evicts the
  /// least recently used entry.
  void insert(std::string_view identity, const Outcome& outcome) {
    if (find(identity)) return;
    // Copied, not moved: a copy is allocated at exactly its length.
    lru_.push_front(Entry{std::string(identity), outcome});
    map_.emplace(lru_.front().identity, lru_.begin());
    if (capacity_ != 0 && lru_.size() > capacity_) {
      map_.erase(lru_.back().identity);
      lru_.pop_back();
      ++evictions_;
    }
  }

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }  ///< 0 = unbounded
  std::size_t evictions() const { return evictions_; }

 private:
  struct Entry {
    std::string identity;  ///< the bytes the map's key views
    Outcome outcome;
  };

  std::size_t capacity_ = 0;
  std::size_t evictions_ = 0;
  std::list<Entry> lru_;  ///< front = most recent
  std::unordered_map<std::string_view, typename std::list<Entry>::iterator> map_;
};

/// Builds the memo plan for one batch, serially and in slot order: a slot
/// whose identity the store holds is served from it (the stored outcome is
/// copied into slots[i] here, and the `find` touches its recency); a later
/// slot with the identity of an earlier slot of this batch is served from
/// that slot; every other slot computes. An empty identity names an
/// instance that is never memoized: it computes and serves no one.
/// hits + misses == batch size.
template <typename Outcome>
MemoPlan plan_memo(const std::vector<std::string>& identity, MemoStore<Outcome>& store,
                   std::vector<Outcome>& slots) {
  MemoPlan plan;
  plan.source.assign(identity.size(), MemoPlan::kCompute);
  std::unordered_map<std::string_view, std::size_t> first_seen;
  for (std::size_t i = 0; i < identity.size(); ++i) {
    if (identity[i].empty()) {
      ++plan.misses;
      continue;
    }
    if (const Outcome* stored = store.find(identity[i])) {
      slots[i] = *stored;
      plan.source[i] = MemoPlan::kFromStore;
      ++plan.hits;
      continue;
    }
    const auto [it, fresh] = first_seen.emplace(identity[i], i);
    if (fresh) {
      ++plan.misses;
    } else {
      plan.source[i] = it->second;
      ++plan.hits;
    }
  }
  return plan;
}

/// Timing side-channel of one shard dispatch. queue_seconds[i] is the
/// steady-clock delta from batch submission to the moment a thread claimed
/// slot i — the time the instance waited behind earlier slots for a free
/// thread. Neither field is deterministic; neither enters any digest.
struct ShardTiming {
  std::vector<double> queue_seconds;
  double wall_seconds = 0;
};

/// The shard loop: util::parallel_for over [0, n) on `threads` threads (0 =
/// hardware concurrency), a claim stamp for every index (memo-served slots
/// still queue for a thread), and solve(i) for exactly the indices the plan
/// marks kCompute (all of them when plan is null). solve must write only
/// slot i's state — the usual per-index-slot contract.
template <typename SolveFn>
ShardTiming run_sharded(std::size_t n, unsigned threads, const MemoPlan* plan,
                        SolveFn&& solve) {
  ShardTiming timing;
  timing.queue_seconds.assign(n, 0);
  util::Timer batch_timer;  // anchors both the queue split and the batch wall
  util::parallel_for(
      n,
      [&](std::size_t i) {
        timing.queue_seconds[i] = batch_timer.seconds();
        if (plan && !plan->computes(i)) return;
        solve(i);
      },
      resolve_threads(threads));
  timing.wall_seconds = batch_timer.seconds();
  return timing;
}

}  // namespace moldable::engine::exec
