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

namespace {

std::uint64_t content_key(const std::string& content, std::uint64_t config_key) {
  std::uint64_t h = config_key;
  detail::fnv1a_mix(h, content.data(), content.size());
  return h;
}

}  // namespace

std::optional<std::uint64_t> memo_key(const jobs::Instance& instance,
                                      std::uint64_t config_key) {
  // The content bytes leave the instance name out: loaders invent fallback
  // names (the file stem, the stream reader's "stream-<ordinal>"), so
  // keying on the name would make every unnamed duplicate unique and
  // silently defeat memoization. The name affects no algorithmic output and
  // is excluded from every digest, so dropping it is safe.
  const std::optional<std::string> content = jobs::content_bytes(instance);
  if (!content) return std::nullopt;
  return content_key(*content, config_key);
}

MemoPlan plan_memo(const std::vector<jobs::Instance>& batch, std::uint64_t config_key,
                   const std::function<bool(std::uint64_t, std::string_view)>& in_store,
                   const std::vector<std::uint64_t>* salts) {
  MemoPlan plan;
  const std::size_t n = batch.size();
  plan.source.assign(n, MemoPlan::kCompute);
  plan.key.assign(n, 0);
  plan.identity.resize(n);

  std::unordered_map<std::uint64_t, std::size_t> first_seen;
  for (std::size_t i = 0; i < n; ++i) {
    std::optional<std::string> content = jobs::content_bytes(batch[i]);
    if (!content) {
      ++plan.misses;  // computes, and can never be served from anywhere
      continue;
    }
    // memo_key's key, salted where the slot has a plan.
    std::uint64_t key = content_key(*content, config_key);
    const std::uint64_t salt = salts && i < salts->size() ? (*salts)[i] : 0;
    if (salt != 0) detail::fnv1a_mix(key, &salt, sizeof(salt));
    std::string& identity = plan.identity[i];
    identity = std::move(*content);
    identity.append(reinterpret_cast<const char*>(&salt), sizeof(salt));
    identity.append(reinterpret_cast<const char*>(&config_key), sizeof(config_key));
    plan.key[i] = key;
    if (in_store && in_store(key, identity)) {
      plan.source[i] = MemoPlan::kFromStore;
      ++plan.hits;
      continue;
    }
    const auto [it, fresh] = first_seen.emplace(key, i);
    if (!fresh && plan.identity[it->second] == identity) {
      plan.source[i] = it->second;
      ++plan.hits;
    } else {
      ++plan.misses;  // the first of its key, or a collision: computes
    }
  }
  return plan;
}

}  // namespace moldable::engine::exec
