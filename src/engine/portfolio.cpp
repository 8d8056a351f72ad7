#include "src/engine/portfolio.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>

#include "src/engine/exec_core.hpp"
#include "src/engine/policy.hpp"
#include "src/sched/validator.hpp"
#include "src/util/common.hpp"

namespace moldable::engine {

namespace {

using detail::fnv1a_mix;
using detail::fnv1a_mix_double;

std::vector<VariantStats> aggregate(const std::vector<PortfolioOutcome>& outcomes,
                                    const std::vector<std::string>& variants) {
  struct Samples {
    std::vector<double> ratios, gaps, walls;
    std::map<core::Algorithm, std::size_t> resolved;
  };
  std::vector<VariantStats> out(variants.size());
  std::vector<Samples> samples(variants.size());
  for (std::size_t v = 0; v < variants.size(); ++v) out[v].algorithm = variants[v];

  for (const PortfolioOutcome& o : outcomes) {
    for (const VariantAttempt& a : o.attempts) {
      // Keyed by the attempt's config index, not its lane: under per-instance
      // variant plans the attempt list is a (possibly shrunken) permutation
      // of the portfolio, so positions no longer line up.
      VariantStats& s = out[a.variant];
      Samples& x = samples[a.variant];
      // Wall stats cover every attempt: a variant that burns time before
      // failing still costs the portfolio, and hiding that would make
      // expensive never-winning variants look free in the table.
      x.walls.push_back(a.wall_seconds);
      if (a.outcome == AttemptOutcome::kCancelled) {
        ++s.cancelled;
        continue;
      }
      if (!a.ok) {
        ++s.failed;
        continue;
      }
      ++s.solved;
      if (a.algorithm == o.winner) ++s.wins;
      x.ratios.push_back(a.ratio);
      if (o.makespan > 0) x.gaps.push_back(a.makespan / o.makespan - 1.0);
      ++x.resolved[a.used];
    }
  }

  for (std::size_t v = 0; v < out.size(); ++v) {
    VariantStats& s = out[v];
    Samples& x = samples[v];
    if (!x.ratios.empty()) {
      double sum = 0;
      for (double r : x.ratios) sum += r;
      s.ratio_mean = sum / static_cast<double>(x.ratios.size());
      const exec::Percentiles ratio = exec::percentiles_of(x.ratios);
      s.ratio_p50 = ratio.p50;
      s.ratio_p90 = ratio.p90;
      s.ratio_p99 = ratio.p99;
      s.ratio_max = ratio.max;
    }
    if (!x.gaps.empty()) {
      double sum = 0;
      for (double g : x.gaps) sum += g;
      s.gap_mean = sum / static_cast<double>(x.gaps.size());
      s.gap_max = *std::max_element(x.gaps.begin(), x.gaps.end());
    }
    if (!x.walls.empty()) {
      for (double w : x.walls) s.wall_total += w;
      const exec::Percentiles wall = exec::percentiles_of(x.walls);
      s.wall_p50 = wall.p50;
      s.wall_p90 = wall.p90;
      s.wall_p99 = wall.p99;
      s.wall_max = wall.max;
    }
    // kAuto is "no core algorithm" (exact, and ptas's exact branch) and a
    // variant that resolved to itself dispatched nothing.
    for (const auto& [used, count] : x.resolved) {
      if (used == core::Algorithm::kAuto) continue;
      std::string name = core::algorithm_name(used);
      if (name != s.algorithm) s.resolved.emplace_back(std::move(name), count);
    }
    std::sort(s.resolved.begin(), s.resolved.end());
  }
  return out;
}

/// Config part of the memo key: everything that changes an outcome — the
/// variant list, eps, and the tie-break mode (the winner label is stored in
/// the cached outcome, so outcomes produced under different tie-break rules
/// must not alias).
std::uint64_t config_memo_key(const PortfolioConfig& config) {
  std::uint64_t h = detail::kFnvOffsetBasis;
  const char tag[] = "portfolio";
  fnv1a_mix(h, tag, sizeof(tag));
  for (const std::string& v : config.variants) {
    fnv1a_mix(h, v.data(), v.size());
    const char sep = ',';
    fnv1a_mix(h, &sep, sizeof(sep));
  }
  fnv1a_mix_double(h, config.eps);
  const unsigned char tie = config.tie_break == TieBreak::kPortfolioOrder ? 1 : 0;
  fnv1a_mix(h, &tie, sizeof(tie));
  return h;
}

}  // namespace

std::vector<std::string> parse_portfolio_spec(const std::string& spec) {
  std::vector<std::string> names;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    std::string name = trim(spec.substr(pos, comma - pos));
    if (name.empty())
      throw std::invalid_argument("portfolio: empty variant name in spec '" + spec + "'");
    if (std::find(names.begin(), names.end(), name) != names.end())
      throw std::invalid_argument(
          "portfolio: duplicate variant '" + name +
          "' (each variant may appear once — duplicates would skew the win "
          "table and run a variant twice)");
    names.push_back(std::move(name));
    pos = comma + 1;
  }
  return names;
}

void PortfolioOutcome::mix_digest(std::uint64_t& h, std::size_t digest_index) const {
  fnv1a_mix(h, &digest_index, sizeof(digest_index));
  const unsigned char ok_byte = ok ? 1 : 0;
  fnv1a_mix(h, &ok_byte, sizeof(ok_byte));
  fnv1a_mix_double(h, makespan);
  fnv1a_mix_double(h, lower_bound);
  fnv1a_mix_double(h, ratio);
  fnv1a_mix_double(h, guarantee);
  for (const VariantAttempt& a : attempts) {
    fnv1a_mix(h, a.algorithm.data(), a.algorithm.size());
    const unsigned char outcome_byte = static_cast<unsigned char>(a.outcome);
    fnv1a_mix(h, &outcome_byte, sizeof(outcome_byte));
    const unsigned char aok = a.ok ? 1 : 0;
    fnv1a_mix(h, &aok, sizeof(aok));
    fnv1a_mix_double(h, a.makespan);
    fnv1a_mix_double(h, a.lower_bound);
    fnv1a_mix_double(h, a.ratio);
    fnv1a_mix_double(h, a.guarantee);
    fnv1a_mix(h, &a.dual_calls, sizeof(a.dual_calls));
  }
}

std::uint64_t PortfolioResult::digest() const {
  std::uint64_t h = detail::kFnvOffsetBasis;
  for (const PortfolioOutcome& o : outcomes) o.mix_digest(h, o.index);
  return h;
}

PortfolioSolver::PortfolioSolver(const AlgorithmRegistry& registry)
    : registry_(&registry) {}

PortfolioResult PortfolioSolver::solve(const std::vector<jobs::Instance>& batch,
                                       const PortfolioConfig& config,
                                       exec::MemoStore<PortfolioOutcome>* memo) const {
  if (config.variants.empty())
    throw std::invalid_argument("portfolio: variant list is empty");
  if (!(config.eps > 0) || config.eps > 1)
    throw std::invalid_argument("portfolio: eps must be in (0, 1]");

  // Validate and resolve in one pass, outside the worker loop (the registry
  // reference contract). at() throws with the known-name list.
  std::vector<const SolverFn*> solvers;
  solvers.reserve(config.variants.size());
  for (std::size_t v = 0; v < config.variants.size(); ++v) {
    const SolverFn& fn = registry_->at(config.variants[v]);
    for (std::size_t w = 0; w < v; ++w)
      if (config.variants[w] == config.variants[v])
        throw std::invalid_argument("portfolio: duplicate variant '" +
                                    config.variants[v] + "'");
    solvers.push_back(&fn);
  }

  const std::size_t n_variants = config.variants.size();

  // Capability table, resolved once — the per-instance lane filter below
  // must not do registry lookups inside the worker loop.
  std::vector<char> mem_aware(n_variants, 0);
  for (std::size_t v = 0; v < n_variants; ++v)
    mem_aware[v] = registry_->memory_aware(config.variants[v]) ? 1 : 0;

  // Resolve slot i's execution plan: null = identity (full portfolio in
  // config order). Explicit identity permutations are canonicalized to null
  // here so they memoize, digest, and salt exactly like a plan-free solve.
  const auto plan_of = [&](std::size_t i) -> const std::vector<std::uint16_t>* {
    if (!config.variant_plans || i >= config.variant_plans->size()) return nullptr;
    const std::vector<std::uint16_t>& p = (*config.variant_plans)[i];
    if (p.empty()) return nullptr;
    if (p.size() == n_variants) {
      bool identity = true;
      for (std::size_t l = 0; l < p.size(); ++l)
        if (p[l] != l) { identity = false; break; }
      if (identity) return nullptr;
    }
    return &p;
  };
  if (config.variant_plans) {
    for (const std::vector<std::uint16_t>& p : *config.variant_plans) {
      std::vector<char> seen(n_variants, 0);
      for (const std::uint16_t v : p) {
        if (v >= n_variants)
          throw std::invalid_argument("portfolio: variant plan index out of range");
        if (seen[v])
          throw std::invalid_argument("portfolio: duplicate variant in plan");
        seen[v] = 1;
      }
    }
  }

  PortfolioResult result;
  result.outcomes.resize(batch.size());

  exec::MemoPlan plan;
  if (memo) {
    // A non-identity plan changes the outcome, so it must change the memo
    // key: salt each planned slot with a hash of its plan. Identity slots
    // keep salt 0 and share entries with plan-free runs.
    std::vector<std::uint64_t> salts;
    if (config.variant_plans) {
      salts.assign(batch.size(), 0);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::vector<std::uint16_t>* p = plan_of(i);
        if (!p) continue;
        std::uint64_t s = detail::kFnvOffsetBasis;
        const char tag[] = "variant-plan";
        fnv1a_mix(s, tag, sizeof(tag));
        for (const std::uint16_t v : *p) fnv1a_mix(s, &v, sizeof(v));
        salts[i] = s != 0 ? s : 1;  // 0 is the "unsalted" sentinel
      }
    }
    plan = exec::plan_memo(
        batch, config_memo_key(config),
        [&](std::uint64_t key, std::string_view identity) {
          return memo->contains(key, identity);
        },
        salts.empty() ? nullptr : &salts);
    result.memo_hits = plan.hits;
    result.memo_misses = plan.misses;
  }

  // One variant's attempt, run to completion or failure. Pure except for
  // the wall stamp.
  const auto run_attempt = [&](std::size_t i, std::uint16_t v, double omega,
                               VariantAttempt& a) {
    a.algorithm = config.variants[v];
    a.variant = v;
    util::Timer attempt_timer;
    try {
      SolverConfig solver_config;
      solver_config.eps = config.eps;
      solver_config.omega = omega;
      const core::ScheduleResult r = (*solvers[v])(batch[i], solver_config);
      const sched::ValidationResult check = sched::validate(r.schedule, batch[i]);
      if (!check.ok)
        throw std::runtime_error("invalid schedule: " + check.errors.front());
      a.outcome = AttemptOutcome::kCompleted;
      a.ok = true;
      a.makespan = r.makespan;
      a.lower_bound = r.lower_bound;
      a.ratio = r.ratio_vs_lower;
      a.guarantee = r.guarantee;
      a.dual_calls = r.dual_calls;
      a.used = r.used;
    } catch (const std::exception& e) {
      a.outcome = AttemptOutcome::kFailed;
      a.error = e.what();
    }
    a.wall_seconds = attempt_timer.seconds();
  };

  const exec::ShardTiming timing = exec::run_sharded(
      batch.size(), config.threads, memo ? &plan : nullptr, [&](std::size_t i) {
        PortfolioOutcome& out = result.outcomes[i];
        // The instance's execution plan maps lanes (attempt slots) to
        // config-variant indices; a null map is the identity (lane l IS
        // variant l) — the plan-free common case, which allocates nothing.
        // The plan order is the canonical order for everything below — the
        // early-cancel walk and the digest.
        const std::uint16_t* lane_map = nullptr;
        std::size_t lanes = n_variants;
        if (const std::vector<std::uint16_t>* vp = plan_of(i)) {
          lane_map = vp->data();
          lanes = vp->size();
        }
        const auto variant_of = [&](std::size_t lane) -> std::uint16_t {
          return lane_map ? lane_map[lane] : static_cast<std::uint16_t>(lane);
        };
        // Capability filter (memory axis): a memory-constrained instance
        // runs only the memory-aware subset of its planned lanes — blind
        // variants are dropped, not failed, so a mixed portfolio degrades
        // gracefully. Deterministic: a pure function of instance content and
        // the registry's declared capabilities, both memo-key-covered. When
        // NO planned lane is capable the instance fails closed: every lane
        // reports the named capability error.
        std::vector<std::uint16_t> capable;
        if (batch[i].memory_constrained()) {
          for (std::size_t lane = 0; lane < lanes; ++lane)
            if (mem_aware[variant_of(lane)]) capable.push_back(variant_of(lane));
          if (capable.empty()) {
            out.attempts.resize(lanes);
            for (std::size_t lane = 0; lane < lanes; ++lane) {
              VariantAttempt& a = out.attempts[lane];
              a.variant = variant_of(lane);
              a.algorithm = config.variants[a.variant];
              a.outcome = AttemptOutcome::kFailed;
              try {
                registry_->check_capability(a.algorithm, batch[i]);
              } catch (const std::invalid_argument& e) {
                a.error = e.what();
              }
            }
            return;
          }
          lane_map = capable.data();
          lanes = capable.size();
        }
        out.attempts.resize(lanes);
        // The certified lower bound, computed at most once: the caller's
        // when it holds one, else here for a multi-lane instance. A
        // single-lane instance (single-solver mode, a down-shifted plan, or
        // a capability-filtered instance) has no peers to cancel and must
        // stay bitwise equal to solving that one variant alone, so it never
        // decides and never runs the estimator for the decision's sake.
        double bound = config.omegas && i < config.omegas->size() ? (*config.omegas)[i] : 0;
        if (bound == 0 && lanes > 1) bound = certified_lower_bound(batch[i]);
        const double omega = lanes > 1 ? bound : -std::numeric_limits<double>::infinity();
        // The lanes' estimate: on a memory-free instance the bound is the
        // estimator's omega itself. An estimator failure (-inf) carries
        // nothing; the lane then computes and fails as it would alone.
        const double lane_omega = batch[i].memory_constrained() ? 0 : std::max(bound, 0.0);

        // Lanes run in plan order. Once a completed attempt decides the
        // instance (makespan <= omega), every later lane is skipped and
        // becomes the canonical kCancelled stub: name + outcome, every
        // certificate field zero.
        bool decided = false;
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          VariantAttempt& a = out.attempts[lane];
          if (!decided) {
            run_attempt(i, variant_of(lane), lane_omega, a);
            decided = a.ok && a.makespan <= omega;
            continue;
          }
          a.variant = variant_of(lane);
          a.algorithm = config.variants[a.variant];
          a.outcome = AttemptOutcome::kCancelled;
          a.error = "cancelled: an earlier variant completed at the certified lower bound";
        }

        // Combine the canonical attempts: best makespan, max certified
        // bound, tie-break-mode winner label.
        std::size_t winner = lanes;  // sentinel: none yet
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          const VariantAttempt& a = out.attempts[lane];
          out.compute_seconds += a.wall_seconds;
          if (!a.ok) continue;
          if (!out.ok) {
            out.ok = true;
            out.makespan = a.makespan;
            out.lower_bound = a.lower_bound;
            out.guarantee = a.guarantee;
            winner = lane;
            continue;
          }
          out.lower_bound = std::max(out.lower_bound, a.lower_bound);
          if (a.makespan < out.makespan) {
            out.makespan = a.makespan;
            out.guarantee = a.guarantee;
            winner = lane;
          } else if (a.makespan == out.makespan) {
            out.guarantee = std::min(out.guarantee, a.guarantee);
            // kPortfolioOrder keeps the earliest tied lane (winner < lane by
            // construction); kWallTime hands the label to a faster tie.
            if (config.tie_break == TieBreak::kWallTime &&
                a.wall_seconds < out.attempts[winner].wall_seconds)
              winner = lane;
          }
        }
        if (out.ok) {
          out.winner = config.variants[variant_of(winner)];
          // A decided instance carries a proof the code would otherwise
          // discard: the decision fired because makespan <= omega <= OPT,
          // and omega is itself a certified bound — fold it in so the
          // combined certificate does not regress when cancelled variants'
          // (possibly tighter) bounds are stubbed away. Deterministic:
          // `decided` and omega are pure functions of the instance.
          if (decided) out.lower_bound = std::max(out.lower_bound, omega);
          // Same convention as core::ScheduleResult: a degenerate zero lower
          // bound (e.g. a zero-job instance) reports ratio 1, keeping the
          // single-variant portfolio bitwise equal to the solver's own result.
          out.ratio = out.lower_bound > 0 ? out.makespan / out.lower_bound : 1;
        }
      });
  result.wall_seconds = timing.wall_seconds;

  // Serial finalize, two passes. Pass 1 serves every store-promised slot
  // before anything is inserted: under a bounded (LRU) store, recording a
  // fresh outcome can evict an entry the plan promised to serve — plan_memo
  // probed the store before the shard loop ran — so all store reads must
  // precede the first write. Pass 2 serves in-batch duplicates (slot j < i
  // is already final), stamps index/queue, and stores fresh outcomes.
  // Served slots zero the compute cost — nothing was solved.
  if (memo) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (plan.source[i] != exec::MemoPlan::kFromStore) continue;
      PortfolioOutcome& out = result.outcomes[i];
      out = *memo->find(plan.key[i], plan.identity[i]);
      out.compute_seconds = 0;
      for (VariantAttempt& a : out.attempts) a.wall_seconds = 0;
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    PortfolioOutcome& out = result.outcomes[i];
    if (memo && !plan.computes(i) && plan.source[i] != exec::MemoPlan::kFromStore) {
      out = result.outcomes[plan.source[i]];
      out.compute_seconds = 0;
      for (VariantAttempt& a : out.attempts) a.wall_seconds = 0;
    }
    out.index = i;
    out.queue_seconds = timing.queue_seconds[i];
    if (memo && plan.computes(i) && !plan.identity[i].empty())
      memo->insert(plan.key[i], plan.identity[i], out);
  }

  for (const PortfolioOutcome& o : result.outcomes)
    (o.ok ? result.solved : result.failed)++;
  result.per_variant = aggregate(result.outcomes, config.variants);
  for (const VariantStats& s : result.per_variant)
    result.cancelled_attempts += s.cancelled;

  std::vector<double> queues;
  queues.reserve(result.outcomes.size());
  for (const PortfolioOutcome& o : result.outcomes) queues.push_back(o.queue_seconds);
  const exec::Percentiles queue = exec::percentiles_of(queues);
  result.queue_p50 = queue.p50;
  result.queue_p99 = queue.p99;
  result.queue_max = queue.max;
  return result;
}

}  // namespace moldable::engine
