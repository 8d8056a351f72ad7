// The execution core under PortfolioSolver (and the stream layer on top of
// it): the mechanics of solving a batch, kept apart from the racing policy.
//
//   * per-index outcome slots, sized up front, each worker writing only its
//     own slot (what makes every algorithmic output a pure function of
//     (batch, config) and hence thread-count independent);
//   * the shard loop on util::parallel_for: threads claim slots in index
//     order and the calling thread works too;
//   * a single steady-clock anchor that stamps both the per-instance claim
//     time (the queue half of the latency split) and the whole-batch wall
//     clock;
//   * FNV-1a digest plumbing and nearest-rank percentile aggregation;
//   * an opt-in digest-keyed memoization plan that serves duplicate
//     instances from a prior outcome instead of re-solving them.
//
// Everything here is deterministic except the clock reads, and the memo
// plan is computed serially before dispatch so hit/miss counts are
// reproducible across thread counts.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/jobs/instance.hpp"
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

/// Digest-keyed memo key of one instance under one solver configuration:
/// FNV-1a over the instance's canonical text form — every io directive
/// (machines, jobs with their names, arrival, class, memcap, mem) minus the
/// instance name, which loaders auto-generate for unnamed input and which
/// affects no algorithmic output — seeded with `config_key` (which must
/// encode everything that changes the outcome — solver names, eps). Returns
/// nullopt for instances that cannot be serialized (custom oracle types
/// outside the io catalogue, instance names with line breaks, job names
/// with whitespace); those are never memoized.
std::optional<std::uint64_t> memo_key(const jobs::Instance& instance,
                                      std::uint64_t config_key);

/// Where one outcome slot gets its value from under memoization. Computed
/// serially before dispatch (see plan_memo), so the split — and therefore
/// the hit/miss counts — is identical at every thread count.
struct MemoPlan {
  /// source[i] semantics: kCompute = solve slot i; kFromStore = copy the
  /// outcome stored under key[i] by an earlier batch; any other value j is
  /// an earlier index of THIS batch with the same key (j < i, j computes or
  /// is itself served from the store — copy from the finished slot j).
  static constexpr std::size_t kCompute = static_cast<std::size_t>(-1);
  static constexpr std::size_t kFromStore = static_cast<std::size_t>(-2);

  std::vector<std::size_t> source;
  std::vector<std::uint64_t> key;   ///< valid where memoizable[i]
  std::vector<char> memoizable;     ///< 0 for unserializable instances
  std::size_t hits = 0;             ///< slots served without solving
  std::size_t misses = 0;           ///< slots that must compute

  bool computes(std::size_t i) const { return source[i] == kCompute; }
};

/// Cross-batch memo storage: key -> the first finished outcome computed
/// under that key. Owned by the caller (the stream layer keeps one alive
/// across windows); not thread-safe by design — all access happens in the
/// serial plan/finalize phases around the shard loop, never inside it.
///
/// A nonzero `capacity` bounds the store to that many outcomes under LRU
/// eviction (capacity 0 = unbounded, the replay-run default). Recency is
/// updated by `find` and `insert` only — both run in the serial finalize
/// phase, in batch order — so the eviction sequence, and with it every
/// hit/miss/eviction count, is a pure function of the instance sequence and
/// independent of the thread count. `contains` (the plan-phase probe) is
/// deliberately recency-neutral: planning must not perturb the store.
///
/// Callers that both read hits and insert fresh outcomes in one finalize
/// must perform ALL reads before the first insert (see PortfolioSolver's
/// finalize): an insert may evict an entry the plan promised to serve.
template <typename Outcome>
class MemoStore {
 public:
  explicit MemoStore(std::size_t capacity = 0) : capacity_(capacity) {}

  bool contains(std::uint64_t key) const { return map_.count(key) != 0; }

  /// Looks the key up and, when present, marks it most-recently-used.
  const Outcome* find(std::uint64_t key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->second;
  }

  /// First insertion wins; re-inserting an existing key only refreshes its
  /// recency (the solvers are pure, so a second outcome under the same key
  /// is identical). A fresh insertion over capacity evicts the least
  /// recently used entry.
  void insert(std::uint64_t key, const Outcome& outcome) {
    const auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(key, outcome);
    map_.emplace(key, lru_.begin());
    if (capacity_ != 0 && lru_.size() > capacity_) {
      map_.erase(lru_.back().first);
      lru_.pop_back();
      ++evictions_;
    }
  }

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }  ///< 0 = unbounded
  std::size_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_ = 0;
  std::size_t evictions_ = 0;
  std::list<std::pair<std::uint64_t, Outcome>> lru_;  ///< front = most recent
  std::unordered_map<std::uint64_t,
                     typename std::list<std::pair<std::uint64_t, Outcome>>::iterator>
      map_;
};

/// Builds the memo plan for one batch: serially keys every instance, marks
/// duplicates of earlier indices and instances already present in the store
/// (membership queried through `in_store` so this stays independent of the
/// outcome type). hits + misses == batch size.
///
/// `salts`, when non-null, must be batch-sized; a nonzero salts[i] is mixed
/// into slot i's key. Callers that solve an instance under a per-instance
/// execution plan (a down-shifted or reordered variant portfolio) pass the
/// plan's hash here so those outcomes never alias — and are never served
/// as — full-portfolio cache entries for the same content. Salt 0 keeps the
/// plain content key (the common path and the pre-plan behavior).
MemoPlan plan_memo(const std::vector<jobs::Instance>& batch, std::uint64_t config_key,
                   const std::function<bool(std::uint64_t)>& in_store,
                   const std::vector<std::uint64_t>* salts = nullptr);

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
