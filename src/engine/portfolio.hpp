// PortfolioSolver: the engine's one solver front-end. It runs a list of
// registry variants per instance and keeps the best valid schedule; a single
// solver (`--algorithm X`) is simply the one-variant portfolio {X}.
//
// Capability filtering (memory axis): a memory-constrained instance runs
// only the memory-aware subset of its planned lanes — memory-blind variants
// are auto-dropped per instance (deterministically: instance content,
// memory axis included, and registry capabilities are both memo-key-covered).
// When no planned lane is memory-aware the instance fails closed with the
// named capability error on every lane, never a memory-overcommitted
// schedule.
//
// For every instance of a batch the configured variants are run and the
// portfolio keeps the best *valid* schedule per instance — validity is
// re-checked with sched::validate, not just assumed from solver success —
// combining the variants' certificates:
//
//   * makespan     = min over completed variants (the kept schedule's),
//   * lower_bound  = max over completed variants (each bound is
//                    independently certified, so the max certifies too);
//                    on a *decided* instance (see below) the estimator's
//                    omega is folded in as well — the decision proof is a
//                    certificate, and stubbed variants must not weaken the
//                    combined bound,
//   * ratio        = makespan / lower_bound (tighter than any single
//                    variant's self-reported ratio),
//   * guarantee    = min proven factor among the variants that achieved the
//                    best makespan.
//
// Early-cancel rule: each instance first gets the Ludwig-Tiwari
// estimator's certified lower bound omega (<= OPT). The variants run one
// after another, in portfolio order, on the thread solving the instance;
// the first completed variant whose valid makespan is <= omega *decides*
// the instance — no peer can produce a strictly better schedule, because
// every certified lower bound sandwiches OPT under that makespan — and
// every LATER variant is skipped without running, recorded as a kCancelled
// attempt (a deterministic stub: name + outcome only). The excluded set is
// therefore a pure function of (batch, variants, eps): completed results
// are pure and the decision threshold omega is deterministic.
//
// One estimate per instance: omega is computed at most once per instance,
// or taken from the caller (PortfolioConfig::omegas, the stream's
// admission probe), and every lane of a memory-free instance gets it as
// SolverConfig::omega, so no dual solver runs the estimator again. On a
// memory-constrained instance omega folds in the memory bound, so it only
// serves the decision and the lanes get 0.
//
// All combined certificate fields are pure functions of (batch, variants,
// eps) and enter the digest. The *winner name* is tie-broken by makespan,
// then (under the default TieBreak::kWallTime) wall time, then portfolio
// order: wall time is measured, so under an exact makespan tie the winner
// label (and the per-variant win counts derived from it) may differ between
// runs. TieBreak::kPortfolioOrder drops the wall-time step — ties go to the
// earliest variant in portfolio order, making the full win-count table a
// pure function of (batch, variants, eps), reproducible for CI comparison.
// Winner identity and all wall/queue fields are excluded from the digest
// under either mode — see PortfolioResult::digest().
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/exec_core.hpp"
#include "src/engine/registry.hpp"
#include "src/jobs/instance.hpp"

namespace moldable::engine {

/// Parses a comma-separated variant list ("fptas,mrt,lt-2approx") into
/// names, trimming surrounding whitespace. Throws std::invalid_argument for
/// an empty spec, an empty element, or a duplicate name (duplicates would
/// skew the win table and run a variant twice). Names are NOT checked against
/// a registry here — PortfolioSolver::solve does that up front so the error
/// carries the known-name list.
std::vector<std::string> parse_portfolio_spec(const std::string& spec);

/// How an exact makespan tie picks the labelled winner (the combined
/// certificate is unaffected — only the winner name and win counts change).
enum class TieBreak {
  kWallTime,        ///< fastest tied variant wins (measured; may vary run to run)
  kPortfolioOrder,  ///< earliest tied variant in portfolio order wins (deterministic)
};

struct PortfolioConfig {
  std::vector<std::string> variants;  ///< registry names to run, in order
  double eps = 0.1;                   ///< approximation parameter, in (0, 1]
  unsigned threads = 0;               ///< worker threads; 0 = hardware concurrency
  TieBreak tie_break = TieBreak::kWallTime;  ///< winner selection under ties
  /// Optional per-instance execution plans (the policy layer's down-shift /
  /// prior-seeding hook), index-aligned with the batch; null = every
  /// instance runs the full portfolio in config order. Each inner vector
  /// lists `variants` indices in seeding order: that order IS the canonical
  /// attempt order for the instance — the early-cancel walk and the digest
  /// both follow it — so a plan deterministically changes the
  /// outcome (and must be reproduced to reproduce the digest). An empty
  /// inner vector (or a missing entry past the vector's end) is the
  /// identity plan: full portfolio, config order, bitwise identical to a
  /// plan-free solve and sharing its memo entries; non-identity plans are
  /// salted into the memo key so they never alias. Entries must be valid,
  /// duplicate-free variant indices. The pointee must outlive solve().
  const std::vector<std::vector<std::uint16_t>>* variant_plans = nullptr;
  /// Optional per-instance certified_lower_bound values the caller already
  /// holds, index-aligned with the batch like `variant_plans`; 0 (or a
  /// missing entry) = not known, computed here when needed. A known entry
  /// must equal certified_lower_bound(batch[i]), so it changes no outcome,
  /// only what is computed. The pointee must outlive solve().
  const std::vector<double>* omegas = nullptr;
};

/// How one variant's attempt on one instance ended.
enum class AttemptOutcome : unsigned char {
  kCompleted = 0,  ///< ran to completion and produced a valid schedule
  kFailed = 1,     ///< threw, or produced a schedule sched::validate rejects
  kCancelled = 2,  ///< excluded by the early-cancel rule (deterministic stub)
};

/// One variant's run on one instance. Every field except wall_seconds is
/// deterministic; the digest covers the deterministic fields minus `error`
/// (exception text is not part of the stability contract). A kCancelled
/// attempt is a stub for a variant skipped after the instance was decided:
/// name + outcome, all certificate fields zero.
struct VariantAttempt {
  std::string algorithm;
  std::uint16_t variant = 0;  ///< index of `algorithm` in PortfolioConfig::variants
  AttemptOutcome outcome = AttemptOutcome::kFailed;
  bool ok = false;    ///< outcome == kCompleted (kept for ergonomic checks)
  std::string error;  ///< solver exception or validator message when failed
  double makespan = 0;
  double lower_bound = 0;
  double ratio = 0;
  double guarantee = 0;
  int dual_calls = 0;
  /// The core solver a completed attempt resolved to (ScheduleResult::used
  /// — what `auto` picked for this instance). Deterministic but outside the
  /// digest: the variant name already identifies the configuration.
  core::Algorithm used = core::Algorithm::kAuto;
  /// This variant's measured compute time (not deterministic); 0 for a
  /// cancelled attempt, which never ran.
  double wall_seconds = 0;
};

/// Combined outcome for one instance, index-aligned with the batch.
struct PortfolioOutcome {
  std::size_t index = 0;
  bool ok = false;      ///< at least one variant produced a valid schedule
  std::string winner;   ///< best variant (makespan, then wall, then order)
  double makespan = 0;      ///< best makespan across completed variants
  double lower_bound = 0;   ///< best (max) certified lower bound
  double ratio = 0;         ///< makespan / lower_bound
  double guarantee = 0;     ///< min proven factor among makespan-best variants
  double queue_seconds = 0;    ///< batch start -> thread claim (not deterministic)
  double compute_seconds = 0;  ///< sum of variant walls; 0 when memo-served
  /// One per planned lane, in plan order (= portfolio order without a
  /// variant plan; a down-shifted instance has a single attempt).
  std::vector<VariantAttempt> attempts;

  /// Mixes the digest-covered fields into `h` exactly as
  /// PortfolioResult::digest() does, but under a caller-chosen index — the
  /// hook the stream layer uses to fold window outcomes into one rolling
  /// digest with stream-global indices, guaranteeing equality with a
  /// one-shot digest over the concatenated windows.
  void mix_digest(std::uint64_t& h, std::size_t digest_index) const;
};

/// Aggregate over one variant across the whole batch.
struct VariantStats {
  std::string algorithm;
  std::size_t wins = 0;    ///< instances where this variant was the winner
  std::size_t solved = 0;  ///< completed (valid-schedule) attempts
  std::size_t failed = 0;  ///< failed attempts (cancelled NOT included)
  std::size_t cancelled = 0;  ///< skipped by the early-cancel rule (deterministic)
  /// The variant's own ratio (makespan / its certified lower bound) over
  /// its completed attempts: mean and nearest-rank p50/p90/p99/max.
  double ratio_mean = 0;
  double ratio_p50 = 0, ratio_p90 = 0, ratio_p99 = 0, ratio_max = 0;
  /// Quality gap of a completed attempt: makespan / best_makespan - 1,
  /// i.e. how far behind the per-instance winner this variant was (0 when it
  /// matched the best). Mean/max over its completed attempts.
  double gap_mean = 0;
  double gap_max = 0;
  /// Wall stats cover ALL attempts — failed ones burn compute before
  /// throwing, and cancelled ones report 0. Same p50/p90/p99/max ladder as
  /// the ratios.
  double wall_total = 0;
  double wall_p50 = 0, wall_p90 = 0, wall_p99 = 0, wall_max = 0;
  /// For a dispatching variant (`auto`, `ptas`): its completed attempts
  /// counted per core solver they resolved to (VariantAttempt::used), sorted
  /// by name. Empty for a variant that always runs itself.
  std::vector<std::pair<std::string, std::size_t>> resolved;
};

struct PortfolioResult {
  std::vector<PortfolioOutcome> outcomes;   ///< index-aligned with the batch
  std::vector<VariantStats> per_variant;    ///< portfolio order
  std::size_t solved = 0;  ///< instances with at least one valid schedule
  std::size_t failed = 0;  ///< instances where every variant failed
  /// Total attempts excluded by the early-cancel rule (sum of the
  /// per-variant `cancelled` counts). Deterministic.
  std::size_t cancelled_attempts = 0;
  double wall_seconds = 0;  ///< whole-batch wall clock
  /// Memoization tally (both zero without a memo store). A hit is an
  /// outcome served without solving — a duplicate of an earlier index of
  /// this batch, or of an instance a prior batch stored. hits + misses ==
  /// batch size when memoization is on, and both counts are deterministic
  /// (the memo plan is computed serially before dispatch).
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;
  /// Batch-level queue latency percentiles over all outcomes: batch start
  /// to the moment a thread claimed the instance's slot, shared by every
  /// variant run on it. Not deterministic, excluded from the digest.
  double queue_p50 = 0, queue_p99 = 0, queue_max = 0;

  /// FNV-1a over the deterministic fields, batch order: per outcome
  /// (index, ok, makespan, lower_bound, ratio, guarantee) and per attempt
  /// (algorithm, outcome, ok, makespan, lower_bound, ratio, guarantee,
  /// dual_calls). Winner names, win counts, resolved solvers, error texts,
  /// and all wall/queue fields are excluded — they may legitimately differ
  /// between runs (see file comment) or are not part of the stability
  /// contract. Equal across thread counts for the same batch + config; not
  /// promised across compilers or
  /// libm versions (solvers do real floating-point work).
  std::uint64_t digest() const;
};

class PortfolioSolver {
 public:
  /// The registry must outlive the solver (the global registry always does).
  explicit PortfolioSolver(const AlgorithmRegistry& registry = AlgorithmRegistry::global());

  /// Runs config.variants on every instance. Throws std::invalid_argument
  /// up front when the variant list is empty, contains an unknown or
  /// duplicate name, or eps is out of range; per-instance solver errors are
  /// recorded in the outcomes instead of thrown. A single-variant portfolio
  /// is exactly that solver: one attempt per instance carrying the solver's
  /// own makespan, bound, ratio, and guarantee (no estimator call of the
  /// portfolio's own, no early-cancel machinery).
  ///
  /// `memo` (optional) enables digest-keyed memoization: instances whose
  /// content was already solved under this config — earlier in this batch
  /// or in a prior batch sharing the store — reuse the stored outcome
  /// (winner label included) instead of re-solving. Solvers are pure, so the
  /// digest is unchanged; served outcomes report zero compute. The store is
  /// read and extended serially around the shard loop and must not be
  /// shared concurrently.
  PortfolioResult solve(const std::vector<jobs::Instance>& batch,
                        const PortfolioConfig& config,
                        exec::MemoStore<PortfolioOutcome>* memo = nullptr) const;

 private:
  const AlgorithmRegistry* registry_;
};

}  // namespace moldable::engine
