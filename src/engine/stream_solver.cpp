#include "src/engine/stream_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "src/engine/sketch.hpp"
#include "src/jobs/io.hpp"
#include "src/util/timer.hpp"

namespace moldable::engine {

namespace {

/// Per-class accumulation over the whole stream; finalized into ClassStats.
/// Latency distributions live in bounded sketches (exact below the sample
/// threshold, P² markers above) unless raw_samples lifted the bound.
struct ClassBucket {
  explicit ClassBucket(std::size_t threshold)
      : queue(threshold), compute(threshold) {}
  std::size_t solved = 0, failed = 0;
  std::size_t deadline_misses = 0;
  std::size_t shed = 0;
  QuantileSketch queue;
  QuantileSketch compute;
};

}  // namespace

PortfolioConfig StreamConfig::portfolio() const {
  PortfolioConfig config;
  config.variants = variants.empty() ? std::vector<std::string>{algorithm} : variants;
  config.eps = eps;
  config.threads = threads;
  config.tie_break = tie_break;
  return config;
}

StreamSolver::StreamSolver(const AlgorithmRegistry& registry) : registry_(&registry) {}

StreamResult StreamSolver::run(std::istream& input, const StreamConfig& config,
                               const WindowCallback& on_window,
                               const ErrorCallback& on_error) const {
  IstreamSource source(input);
  return run(source, config, on_window, on_error);
}

void StreamSolver::check_config(const StreamConfig& config) const {
  if (config.window == 0)
    throw std::invalid_argument("stream: window must be >= 1");
  if (config.max_inflight == 0)
    throw std::invalid_argument("stream: max-inflight must be >= 1");
  // The reorder buffer holds window x max-inflight records; a product that
  // wraps would size it to nothing and serve nothing.
  if (config.max_inflight > std::numeric_limits<std::size_t>::max() / config.window)
    throw std::invalid_argument("stream: window x max-inflight overflows the reorder buffer");
  if (!(config.eps > 0) || config.eps > 1)
    throw std::invalid_argument("stream: eps must be in (0, 1]");
  // Single-solver mode is the one-variant portfolio {algorithm}.
  const std::vector<std::string> variants = config.portfolio().variants;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    registry_->at(variants[v]);  // throws with the known-name list
    for (std::size_t w = 0; w < v; ++w)
      if (variants[w] == variants[v])
        throw std::invalid_argument("stream: duplicate variant '" + variants[v] + "'");
  }
  for (const auto& [name, seconds] : config.class_deadlines)
    if (!(seconds > 0) || !std::isfinite(seconds))
      throw std::invalid_argument("stream: deadline for class '" + name +
                                  "' must be finite and > 0");
  if (config.shed && config.class_deadlines.empty())
    throw std::invalid_argument(
        "stream: shed requires at least one class deadline (with nothing to "
        "certify against there is nothing to shed)");
  if (config.adapt && config.variants.empty())
    throw std::invalid_argument(
        "stream: adapt requires a portfolio (a single solver has no variant "
        "order to learn)");
}

StreamResult StreamSolver::run(InstanceSource& source, const StreamConfig& config,
                               const WindowCallback& on_window,
                               const ErrorCallback& on_error) const {
  // Fail fast, before consuming any input: a config typo must not eat half
  // a stream first. The same checks the per-window solvers repeat.
  check_config(config);
  PortfolioConfig portfolio_config = config.portfolio();
  const std::vector<std::string>& variants = portfolio_config.variants;
  // Canonicalize deadline keys the way Instance does ("default" == the
  // unlabelled class) so the lookup below can use sla_class() verbatim.
  std::map<std::string, double> deadlines;
  for (const auto& [name, seconds] : config.class_deadlines)
    deadlines[name == "default" ? std::string() : name] = seconds;

  // The policy layer: shed probe + virtual clock + variant plans. Owned
  // here and driven entirely from the serial serve loop (fill, window cut,
  // per-window finalize) — never from inside a worker. With one variant
  // there is no order to learn: no plans, no prior updates, no priors.
  std::optional<AdmissionPolicy> policy;
  if (config.shed || config.adapt) {
    AdmissionPolicy::Config policy_config;
    policy_config.shed = config.shed;
    policy_config.adapt = config.adapt;
    policy_config.n_variants = variants.size();
    policy.emplace(policy_config, deadlines);
  }
  const bool learn = policy && variants.size() > 1;

  const PortfolioSolver solver(*registry_);
  exec::MemoStore<PortfolioOutcome> memo(config.memo_capacity);

  StreamResult result;
  result.rolling_digest = detail::kFnvOffsetBasis;  // == empty batch digest

  // The bounded reorder buffer: each admitted instance rides with its
  // source tag so a served outcome can be routed back to the session that
  // sent it, however the window cuts reordered it in between.
  struct Pending {
    jobs::Instance instance;
    std::uint64_t tag;
    /// Admission probe's certified lower bound (deadline classes under an
    /// active policy; 0 otherwise). Carried to the window cut so neither
    /// the down-shift check nor the portfolio re-runs the estimator.
    double omega;
  };
  std::vector<Pending> pending;
  const std::size_t capacity = config.window * config.max_inflight;
  pending.reserve(capacity);

  const std::size_t sketch_threshold = config.raw_samples
                                           ? QuantileSketch::kUnbounded
                                           : QuantileSketch::kDefaultExactThreshold;
  std::map<std::string, ClassBucket> classes;
  // The effective deadline an instance must be served by: arrival plus its
  // class's relative deadline, +inf for classes without one. Window cutting
  // sorts by (deadline, arrival), so with no deadlines configured the order
  // is exactly the old arrival order.
  const auto deadline_of = [&](const jobs::Instance& inst) {
    const auto it = deadlines.find(inst.sla_class());
    return it == deadlines.end() ? std::numeric_limits<double>::infinity()
                                 : inst.arrival() + it->second;
  };
  const auto cap_history = [&](auto& entries) {
    if (config.window_history == 0) return;
    if (entries.size() > config.window_history)
      entries.erase(entries.begin(),
                    entries.begin() +
                        static_cast<std::ptrdiff_t>(entries.size() - config.window_history));
  };
  std::size_t global_index = 0;  // stream-wide outcome index for the digest
  bool exhausted = false;
  // A flush marker stops the fill and drains every buffered record into
  // windows before reading resumes — the quiet-source escape from the
  // reorder horizon (a lone socket client's tail records must be served
  // now, not when some future session's traffic finally fills the buffer).
  bool flushing = false;
  util::Timer stream_timer;

  while (true) {
    // Fill the reorder buffer up to its horizon (serial, merged stream
    // order — whatever order the source yields IS the canonical order).
    while (!exhausted && !flushing && pending.size() < capacity) {
      jobs::StreamRecord record;
      if (!source.next(record)) {
        exhausted = true;
        break;
      }
      if (record.flush) {
        if (config.on_flush) config.on_flush();
        if (!pending.empty()) flushing = true;  // cut the backlog now
        continue;  // an empty-buffer marker is a no-op
      }
      if (!record.ok) {
        // Malformed records never consume a stream-global index: the
        // outcome index sequence stays gap-free even when a session
        // disconnects mid-record and its tail parses as garbage.
        ++result.malformed;
        StreamError err;
        err.line = record.line;
        err.ordinal = record.ordinal;
        err.tag = record.tag;
        err.message = record.error;
        if (on_error) on_error(err);
        result.errors.push_back(std::move(err));
        cap_history(result.errors);
        continue;
      }
      // on_admit fires for every parse-ok record, shed ones included: the
      // recorder persists the full record stream and the replay re-derives
      // the same shed set from it (digest-enforced below).
      if (config.on_admit) config.on_admit(record.instance);
      double omega = 0;
      if (policy) {
        policy->observe_arrival(record.instance.arrival());
        const ShedDecision decision = policy->admission_check(record.instance);
        omega = decision.omega;
        if (decision.shed) {
          // Refused at admission: consumes a stream-global index and mixes
          // its certificate into the rolling digest (marker byte 2 in the
          // ok-byte slot — can never collide with a served outcome), but
          // never reaches the reorder buffer or a solver.
          const std::size_t index = global_index++;
          ShedOutcome shed;
          shed.sla_class = record.instance.sla_class();
          shed.arrival = record.instance.arrival();
          shed.omega = decision.omega;
          shed.budget = decision.budget;
          mix_shed_digest(result.rolling_digest, index, shed);
          ++result.shed;
          auto it = classes.find(shed.sla_class);
          if (it == classes.end())
            it = classes.emplace(shed.sla_class, ClassBucket(sketch_threshold)).first;
          ++it->second.shed;
          if (config.on_shed) config.on_shed(index, record.tag, shed);
          continue;
        }
      }
      pending.push_back(Pending{std::move(record.instance), record.tag, omega});
    }
    if (pending.empty()) break;  // fully drained

    // Deadline-then-arrival ordering within the horizon: instances of a
    // deadline class carry a finite effective deadline and jump ahead of
    // the (+inf) rest; within equal deadlines, arrival order. Stable, so
    // full ties keep stream order — a pure function of the record stream
    // and the config, no clock involved. Tags ride along and never order.
    std::stable_sort(pending.begin(), pending.end(),
                     [&](const Pending& a, const Pending& b) {
                       const double da = deadline_of(a.instance),
                                    db = deadline_of(b.instance);
                       if (da != db) return da < db;
                       return a.instance.arrival() < b.instance.arrival();
                     });

    const std::size_t take = std::min(config.window, pending.size());
    std::vector<jobs::Instance> window;
    window.reserve(take);
    std::vector<std::uint64_t> window_tags;
    window_tags.reserve(take);
    std::vector<double> window_omegas;
    window_omegas.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      window.push_back(std::move(pending[i].instance));
      window_tags.push_back(pending[i].tag);
      window_omegas.push_back(pending[i].omega);
    }
    pending.erase(pending.begin(), pending.begin() + take);
    if (pending.empty()) flushing = false;  // flush satisfied: resume filling

    WindowStats stats;
    stats.index = result.windows;
    stats.instances = window.size();
    const std::size_t evictions_before = memo.evictions();

    // Per-instance execution plans from the policy: single-lane down-shifts
    // for slack-exhausted deadline instances, prior-seeded lane orders under
    // adapt. Derived serially at the cut — the virtual clock and prior table
    // are frozen for the whole window, so the plan set is a pure function of
    // the stream prefix and config.
    std::vector<std::vector<std::uint16_t>> window_plans;
    portfolio_config.variant_plans = nullptr;
    portfolio_config.omegas = &window_omegas;
    if (learn) {
      window_plans.resize(take);
      for (std::size_t i = 0; i < take; ++i) {
        VariantPlan plan = policy->plan_for(window[i], window_omegas[i]);
        if (plan.downshift) {
          ++stats.downshifted;
          if (config.on_downshift) config.on_downshift(window_tags[i]);
        }
        window_plans[i] = std::move(plan.order);
      }
      portfolio_config.variant_plans = &window_plans;
    }

    // One solved instance folded into the per-class accounting: sketch the
    // latency split, and score the deadline when its class has one. Under a
    // replay override the recorded latencies stand in for the measurement,
    // making the deadline tally (and the sketches) reproduce the recorded
    // session exactly.
    const auto account = [&](std::size_t index, std::uint64_t tag,
                             const jobs::Instance& inst, bool ok, double queue_s,
                             double compute_s) {
      if (config.replay_latencies && index < config.replay_latencies->size()) {
        queue_s = (*config.replay_latencies)[index].first;
        compute_s = (*config.replay_latencies)[index].second;
      }
      if (config.on_served) config.on_served(index, tag, ok, queue_s, compute_s);
      auto it = classes.find(inst.sla_class());
      if (it == classes.end())
        it = classes.emplace(inst.sla_class(), ClassBucket(sketch_threshold)).first;
      ClassBucket& bucket = it->second;
      (ok ? bucket.solved : bucket.failed)++;
      bucket.queue.add(queue_s);
      bucket.compute.add(compute_s);
      const auto dl = deadlines.find(inst.sla_class());
      if (dl != deadlines.end() && queue_s + compute_s > dl->second) {
        ++bucket.deadline_misses;
        ++stats.deadline_misses;
      }
    };

    // Solve the window; fold outcomes into the rolling digest under their
    // stream-global indices and into the per-class accounting.
    const PortfolioResult r =
        solver.solve(window, portfolio_config, config.memo ? &memo : nullptr);
    stats.solved = r.solved;
    stats.failed = r.failed;
    stats.wall_seconds = r.wall_seconds;
    stats.memo_hits = r.memo_hits;
    stats.memo_misses = r.memo_misses;
    stats.cancelled_attempts = r.cancelled_attempts;
    for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
      const PortfolioOutcome& o = r.outcomes[i];
      const std::size_t index = global_index++;
      o.mix_digest(result.rolling_digest, index);
      account(index, window_tags[i], window[i], o.ok, o.queue_seconds, o.compute_seconds);
    }
    // Serial prior update from this window's canonical attempt sets. The
    // win credit goes to the CANONICAL winner — the earliest attempt in
    // plan order that completed at the outcome makespan — not the
    // tie-break label, which under kWallTime may differ between runs.
    // Cancelled attempts (skipped on a decided instance) are debited.
    // Memo-served outcomes count too: their attempt sets are canonical by
    // construction. Runs whenever the policy is active so a shed-only serve
    // still learns the leaders its down-shifts will target.
    if (learn) {
      for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
        const PortfolioOutcome& o = r.outcomes[i];
        const std::string& cls = window[i].sla_class();
        bool win_credited = false;
        for (const VariantAttempt& a : o.attempts) {
          if (!win_credited && o.ok && a.ok && a.makespan == o.makespan) {
            policy->priors().observe_win(cls, a.variant);
            win_credited = true;
          } else if (a.outcome == AttemptOutcome::kCancelled) {
            policy->priors().observe_cancel(cls, a.variant);
          }
        }
      }
      policy->priors().end_window();
    }
    stats.memo_evictions = memo.evictions() - evictions_before;
    stats.rolling_digest = result.rolling_digest;

    ++result.windows;
    result.instances += stats.instances;
    result.solved += stats.solved;
    result.failed += stats.failed;
    result.memo_hits += stats.memo_hits;
    result.memo_misses += stats.memo_misses;
    result.cancelled_attempts += stats.cancelled_attempts;
    result.deadline_misses += stats.deadline_misses;
    result.downshifted += stats.downshifted;
    if (on_window) on_window(stats);
    result.window_stats.push_back(stats);
    cap_history(result.window_stats);
  }
  result.memo_evictions = memo.evictions();
  result.preamble = source.preamble();

  for (auto& [name, bucket] : classes) {  // std::map: sorted by class name
    ClassStats s;
    s.sla_class = name.empty() ? "default" : name;
    s.solved = bucket.solved;
    s.failed = bucket.failed;
    s.count = bucket.solved + bucket.failed;
    const auto dl = deadlines.find(name);
    s.deadline_seconds = dl == deadlines.end() ? 0 : dl->second;
    s.deadline_misses = bucket.deadline_misses;
    s.shed = bucket.shed;
    s.queue = bucket.queue.summary();
    s.compute = bucket.compute.summary();
    result.per_class.push_back(std::move(s));
  }
  if (policy) result.priors = policy->priors().snapshot();
  result.wall_seconds = stream_timer.seconds();
  return result;
}

}  // namespace moldable::engine
