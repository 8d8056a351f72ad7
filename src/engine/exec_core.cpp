#include "src/engine/exec_core.hpp"

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

}  // namespace moldable::engine::exec
