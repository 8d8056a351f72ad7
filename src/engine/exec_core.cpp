#include "src/engine/exec_core.hpp"

#include <limits>
#include <thread>

#include "src/jobs/io.hpp"

namespace moldable::engine::exec {

unsigned resolve_threads(unsigned configured) {
  if (configured != 0) return configured;
  return std::max(1u, std::thread::hardware_concurrency());
}

Percentiles percentiles_of(std::vector<double>& samples) {
  Percentiles p;
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  p.p50 = detail::percentile_sorted(samples, 50);
  p.p90 = detail::percentile_sorted(samples, 90);
  p.p99 = detail::percentile_sorted(samples, 99);
  p.max = samples.back();
  return p;
}

std::optional<std::uint64_t> memo_key(const jobs::Instance& instance,
                                      std::uint64_t config_key) {
  // The canonical text form is the content identity the io layer already
  // maintains (round-trip fixed point, every directive included — the
  // memory axis too, which changes which variants may run) — minus the
  // instance name: loaders invent fallback names (the file stem, the stream
  // reader's "stream-<ordinal>"), so keying on the name would make every
  // unnamed duplicate unique and silently defeat memoization. The name
  // affects no algorithmic output and is excluded from every digest, so
  // dropping it here is safe. The writer emits it, when present, as the
  // line right after the header. An instance outside the serializable
  // catalogue has no stable identity at all and is simply never memoized
  // rather than guessed at.
  std::string text;
  try {
    text = jobs::to_text(instance);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  const std::size_t body = text.find('\n') + 1;
  if (text.compare(body, 5, "name ") == 0)
    text.erase(body, text.find('\n', body) + 1 - body);
  std::uint64_t h = config_key;
  detail::fnv1a_mix(h, text.data(), text.size());
  return h;
}

MemoPlan plan_memo(const std::vector<jobs::Instance>& batch, std::uint64_t config_key,
                   const std::function<bool(std::uint64_t)>& in_store,
                   const std::vector<std::uint64_t>* salts) {
  MemoPlan plan;
  const std::size_t n = batch.size();
  plan.source.assign(n, MemoPlan::kCompute);
  plan.key.assign(n, 0);
  plan.memoizable.assign(n, 0);

  std::unordered_map<std::uint64_t, std::size_t> first_seen;
  for (std::size_t i = 0; i < n; ++i) {
    std::optional<std::uint64_t> key = memo_key(batch[i], config_key);
    if (key && salts && i < salts->size() && (*salts)[i] != 0) {
      const std::uint64_t salt = (*salts)[i];
      detail::fnv1a_mix(*key, &salt, sizeof(salt));
    }
    if (!key) {
      ++plan.misses;  // computes, and can never be served from anywhere
      continue;
    }
    plan.key[i] = *key;
    plan.memoizable[i] = 1;
    if (in_store && in_store(*key)) {
      plan.source[i] = MemoPlan::kFromStore;
      ++plan.hits;
      continue;
    }
    const auto it = first_seen.find(*key);
    if (it != first_seen.end()) {
      plan.source[i] = it->second;
      ++plan.hits;
    } else {
      first_seen.emplace(*key, i);
      ++plan.misses;
    }
  }
  return plan;
}

RaceArena::RaceArena(std::size_t lanes, unsigned width)
    : tokens_(lanes),
      posts_(lanes),
      width_(width == 0 ? static_cast<unsigned>(std::min<std::size_t>(
                              lanes, std::numeric_limits<unsigned>::max()))
                        : width) {
  if (width_ == 0) width_ = 1;  // zero lanes: run() is a no-op either way
}

void RaceArena::post(std::size_t lane, double makespan, double lower_bound,
                     bool decisive) {
  Post& p = posts_[lane];
  p.posted = true;
  p.decisive = decisive;
  p.makespan = makespan;
  p.lower_bound = lower_bound;
  // Order-directional cancellation: only *later* lanes are told to stop.
  // The serial canonicalization excludes every lane after the earliest
  // decisive completer, so cancelling later lanes can only kill work that
  // canonicalization would discard anyway — never a lane whose result the
  // deterministic finalize still needs.
  if (decisive)
    for (std::size_t v = lane + 1; v < tokens_.size(); ++v) tokens_[v].cancel();
}

void RaceArena::run(const std::function<void(std::size_t)>& body) {
  const std::size_t n = tokens_.size();
  if (n == 0) return;
  const auto workers =
      static_cast<unsigned>(std::min<std::size_t>(width_, n));
  const auto pump = [&] {
    for (;;) {
      const std::size_t lane = cursor_.fetch_add(1, std::memory_order_relaxed);
      if (lane >= n) return;
      body(lane);
    }
  };
  if (workers <= 1) {
    pump();
    return;
  }
  // The calling shard worker participates, so `width` lanes make progress
  // with width-1 spawned threads. body is contractually non-throwing, but
  // mirror parallel_for's capture anyway: a bug must surface on the caller,
  // not std::terminate a detached worker.
  std::vector<std::thread> pool;
  std::vector<std::exception_ptr> errors(workers - 1);
  pool.reserve(workers - 1);
  for (unsigned t = 0; t + 1 < workers; ++t)
    pool.emplace_back([&, t] {
      try {
        pump();
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  std::exception_ptr own;
  try {
    pump();
  } catch (...) {
    own = std::current_exception();
  }
  for (auto& th : pool) th.join();
  if (own) std::rethrow_exception(own);
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace moldable::engine::exec
