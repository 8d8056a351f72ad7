// The serve loop's control plane: deadline-aware admission and adaptive
// portfolio priors, layered over the portfolio's early-cancel rule without
// weakening its determinism contract.
//
// The serving stack measures deadline pressure (per-class miss counters)
// and portfolio economics (win/cancel tallies) but, before this layer, acted
// on neither: a provably-hopeless instance still ran every variant, and the
// portfolio ordered lanes in static config order forever. The policy
// layer closes that loop with three behaviors, every one of them a pure
// function of (stream, config) so recorded sessions still replay bit-exact:
//
//   * certificate-backed shedding — at admission, the Ludwig-Tiwari
//     estimator's certified lower bound omega (<= OPT, the same bound the
//     early-cancel rule trusts) is compared against the instance's SLA
//     budget. omega > budget proves no solver on any hardware can produce
//     a schedule meeting the deadline, so the instance is refused with the
//     certificate attached — a kShed outcome in the stream digest, a named
//     REJECT frame over the socket path;
//   * down-shift — an admitted instance whose deadline slack has been eaten
//     by queueing (measured on the stream's own virtual clock, never the
//     wall clock) runs only the historically-winning variant instead of
//     the full portfolio: serve it cheaply rather than run variants for a
//     deadline it has already lost;
//   * learned priors — a VariantPriorTable keyed by SLA class, updated from
//     canonical win/cancel tallies in the serial per-window finalize pass,
//     reorders each instance's lanes so the historically-winning variant
//     runs first, decaying by window so the table tracks drift. The order
//     is the canonical attempt order, so it changes which attempts the
//     early-cancel rule skips and hence the digest — deterministically.
//
// Determinism contract (stated once, for the whole layer): every decision
// here is re-derivable serially, exactly like the early-cancel rule.
// Shedding depends only on instance content and config; the virtual clock
// is the max arrival stamp over admitted records (a pure function of the
// stream prefix); prior updates use the canonical winner (min makespan,
// earliest attempt under ties — never the measured wall-time label) and run
// in the serial finalize, so the table state — and therefore every
// down-shift and lane order derived from it — is identical at any thread
// count and on any replay of the same stream.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/jobs/instance.hpp"

namespace moldable::engine {

/// The certified makespan lower bound used as decision currency by both the
/// early-cancel rule and the admission shed probe: the Ludwig-Tiwari
/// estimator's omega (<= OPT), max-combined with the memory-aware area
/// bound when the instance is memory-constrained (+inf when some job's
/// minimum feasible allotment exceeds m — provably unschedulable, so the
/// shed probe fires with a proof). Deterministic — a pure function of the
/// instance. Returns 0 for an empty instance (the empty schedule is
/// optimal) and -infinity when the estimator is unavailable (a malformed
/// oracle) and no memory bound applies: a -inf bound never decides an
/// instance and never sheds.
double certified_lower_bound(const jobs::Instance& instance);

/// One admission probe's verdict. When `shed` is set, `omega > budget` is
/// the certificate: omega lower-bounds every achievable makespan, so the
/// instance provably cannot meet its class deadline no matter which variant
/// serves it.
struct ShedDecision {
  bool shed = false;
  double omega = 0;   ///< certified lower bound (the certificate)
  double budget = 0;  ///< the class's relative deadline, seconds
};

/// A shed outcome as surfaced to callbacks and digests: the instance never
/// reached a solver, but it consumed a stream-global index and its decision
/// evidence is digest-covered (see mix_shed_digest), so replay equality
/// enforces that the same records shed on every run.
struct ShedOutcome {
  std::string sla_class;  ///< canonical key ("" = unlabelled/default)
  double arrival = 0;
  double omega = 0;   ///< the certificate
  double budget = 0;  ///< the class deadline it provably exceeds
};

/// Mixes one shed outcome into a rolling digest under its stream-global
/// index. The marker byte 2 occupies the slot where served outcomes mix
/// their ok byte (0/1), so a shed can never collide with a solve. Only the
/// deterministic fields (omega, budget) are covered.
void mix_shed_digest(std::uint64_t& h, std::size_t index, const ShedOutcome& shed);

/// Per-SLA-class variant priors, learned from the portfolio's own outcomes.
///
/// Scores are per (class, variant): a canonical win credits the variant, a
/// cancelled attempt (skipped on a decided instance) debits it mildly, and
/// every window end decays all scores toward zero so stale history fades. The
/// seeding order for a class ranks variants by descending score with ties
/// broken by portfolio (config) order — a class with no history keeps the
/// config order exactly.
///
/// Determinism contract: all mutation happens in the stream layer's serial
/// per-window finalize, from canonical (thread-count-independent) tallies,
/// in deterministic key order — so the table state after window k is a pure
/// function of the stream prefix and config. State is O(#classes x
/// #variants), bounded for bounded class vocabularies.
class VariantPriorTable {
 public:
  /// `n_variants` is the portfolio size; `decay` in (0, 1] scales every
  /// score at end_window() (1 = never forget).
  explicit VariantPriorTable(std::size_t n_variants, double decay = 0.9);

  /// Credits `variant` (a portfolio/config index) with a canonical win for
  /// `sla_class`. Call only from a serial pass.
  void observe_win(const std::string& sla_class, std::size_t variant);
  /// Debits `variant` for a cancelled attempt. Serial only.
  void observe_cancel(const std::string& sla_class, std::size_t variant);
  /// Decays every score — call once per completed window, serially.
  void end_window();

  /// Seeding order for a class: variant indices by descending score, ties
  /// by ascending config index. Identity order for unknown classes.
  std::vector<std::uint16_t> order(const std::string& sla_class) const;
  /// The top-ranked variant — the down-shift target. 0 for unknown classes.
  std::uint16_t leader(const std::string& sla_class) const;

  /// Deterministic state snapshot for reporting and cross-run comparison:
  /// classes in key order, each with (variant index, score) in seeding
  /// order.
  struct ClassPriors {
    std::string sla_class;  ///< canonical key ("" = unlabelled)
    std::vector<std::pair<std::uint16_t, double>> ranked;
  };
  std::vector<ClassPriors> snapshot() const;

  std::size_t variants() const { return n_variants_; }

 private:
  std::size_t n_variants_;
  double decay_;
  std::map<std::string, std::vector<double>> scores_;  ///< key order = report order
};

/// One instance's effective portfolio for a window solve, as handed to
/// PortfolioConfig::variant_plans. An empty order means "the full portfolio
/// in config order" (the identity plan — deliberately canonicalized to
/// empty so it memoizes and digests exactly like a plan-free solve).
struct VariantPlan {
  std::vector<std::uint16_t> order;  ///< config indices, seeding order
  bool downshift = false;            ///< single-lane lateness down-shift
};

/// The admission-time policy: shed probe, virtual clock, down-shift and
/// lane-seeding plans. One instance per serve session, owned and driven by
/// StreamSolver; every method is called from the serial serve loop.
class AdmissionPolicy {
 public:
  struct Config {
    bool shed = false;   ///< certificate shedding + lateness down-shift
    bool adapt = false;  ///< prior-driven lane seeding
    /// Portfolio size; 1 = single-solver mode (shedding still applies,
    /// down-shift and adaptation have no variants to choose between).
    std::size_t n_variants = 0;
  };

  /// `deadlines` must use canonical class keys ("" = unlabelled), the same
  /// map the stream layer scores misses against.
  AdmissionPolicy(Config config, std::map<std::string, double> deadlines);

  /// Advances the stream's virtual clock: the max arrival stamp over every
  /// admitted record so far — a pure function of the stream prefix, and the
  /// only notion of "now" any policy decision may consult.
  void observe_arrival(double arrival);
  double virtual_now() const { return virtual_now_; }

  /// The admission probe. Computes omega only for instances whose class
  /// carries a deadline (the probe's cost is gated to where it can matter);
  /// `shed` is set when shedding is enabled and omega certifies the budget
  /// unmeetable. Never sheds on estimator failure, empty instances, or
  /// deadline-free classes. Pure (the virtual clock is not consulted:
  /// omega > budget is hopeless at any queue depth).
  ShedDecision admission_check(const jobs::Instance& instance) const;

  /// The window-cut plan for an admitted instance. `omega` is the admission
  /// probe's bound for deadline-class instances (0 otherwise — it is only
  /// consulted together with a budget). Returns, in precedence order:
  ///   * a single-lane down-shift plan when shedding is on and the
  ///     instance's slack is gone: virtual_now + omega > arrival + budget —
  ///     the same inequality the shed probe applies at admission, re-checked
  ///     against queueing delay (lane = the class's prior leader);
  ///   * the prior table's seeding order when adaptation is on (empty when
  ///     that order is the identity);
  ///   * the empty (identity) plan.
  VariantPlan plan_for(const jobs::Instance& instance, double omega) const;

  /// The prior table (serial mutation only — see VariantPriorTable).
  VariantPriorTable& priors() { return priors_; }
  const VariantPriorTable& priors() const { return priors_; }

  const Config& config() const { return config_; }

 private:
  Config config_;
  std::map<std::string, double> deadlines_;
  VariantPriorTable priors_;  ///< the table's default decay: 0.9 per window
  double virtual_now_ = 0;
};

}  // namespace moldable::engine
