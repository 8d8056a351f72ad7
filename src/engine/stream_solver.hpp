// StreamSolver: the continuous serving loop on top of the execution core.
//
// Where PortfolioSolver solves one pre-materialized batch and returns,
// StreamSolver consumes an unbounded stream of instance records
// from an InstanceSource (a stdin pipe, a watched directory, a socket
// listener multiplexing many client sessions — see instance_source.hpp)
// and serves it as a sequence of bounded micro-batches:
//
//   * at most `window` instances are grouped per micro-batch;
//   * at most `max_inflight` windows' worth of instances are buffered ahead
//     of the solver — the bounded reorder horizon within which instances
//     are ordered by their `arrival` metadata (stable sort, so records
//     without arrival stamps keep stream order);
//   * each window runs through PortfolioSolver — a single solver is the
//     one-variant portfolio {algorithm} — optionally memoized across
//     windows (duplicate
//     instances in a replay stream reuse the prior outcome; a nonzero
//     memo_capacity bounds the store under deterministic LRU eviction);
//   * per-window stats are emitted as the window completes, and per-SLA-
//     class latency splits are aggregated over the whole stream;
//   * a flush marker in the stream (StreamRecord::flush — emitted by a
//     multiplexing source when every connected session has drained, or
//     written literally as `moldable-flush v1`) cuts the buffered records
//     into windows immediately instead of waiting for the buffer to fill —
//     without it, a quiet source would strand its tail records in the
//     reorder buffer forever. Markers are part of the record sequence, so
//     cuts stay a pure function of stream + config;
//   * on end of input the buffer drains — the final window may be short,
//     and no instance is ever dropped.
//
// Bounded-serve contract: with a nonzero memo_capacity and window_history,
// the solver's retained state is O(window × max_inflight + memo_capacity +
// window_history + #classes) — independent of stream length. Per-class
// latency percentiles come from engine::QuantileSketch (exact below its
// sample threshold, P² markers above), totals and counters are plain
// integers, and window/error retention is capped to the most recent
// window_history entries (the callbacks still see every one).
//
// Deadline-aware windows: class_deadlines maps an SLA class to a relative
// deadline in seconds. Instances of a deadline class jump the reorder
// buffer — window cutting orders by (arrival + class deadline, arrival)
// instead of arrival alone, still a pure function of stream + config — and
// every served instance (failed ones included — a failure blows a deadline
// too) whose measured queue+compute latency exceeds its class deadline
// counts as a deadline miss (per class, per window, and
// stream-total; measured, so never part of the digest).
//
// Determinism: the windowing is a pure function of the record stream and
// the config (reading, ordering, and window cuts are all serial), and each
// window inherits the core's thread-count independence. The rolling digest
// folds every outcome under its stream-global index with exactly the
// per-outcome mixing of PortfolioResult::digest(), so for a fixed input and
// window size it is identical across --threads 1/N *and* equal to the
// one-shot batch digest over the concatenated windows (ordered as served).
// Memo hit/miss/eviction counts are equally thread-count independent (serial
// plan, serial LRU updates). Malformed records are isolated with a
// diagnostic and never perturb the digest — nor do they consume a
// stream-global index, so outcome indices stay gap-free even when a source
// injects errors mid-stream (a socket session disconnecting mid-record).
//
// Multi-source streams: with a multiplexing source the record sequence is
// whatever merged order the source produced, and everything above holds
// over that sequence verbatim. Each record's source tag rides along from
// admission to the served-outcome callback (on_served) so a server can
// route results back to the originating session; tags never influence
// ordering, solving, or any digest.
//
// Admission policy (`shed` / `adapt` — see policy.hpp for the full layer
// contract): with `shed`, a deadline-class record whose certified lower
// bound omega exceeds its class budget is refused at admission — it
// consumes a stream-global index, mixes a shed marker (omega + budget
// included) into the rolling digest, fires on_shed instead of on_served,
// and never reaches a solver; an admitted deadline-class instance whose
// slack is gone by its window cut (stream virtual time, never wall clock)
// runs only the prior-leading variant (down-shift). With `adapt`, learned
// per-class priors reorder each instance's portfolio lanes. Both knobs change
// the digest deterministically: every decision is a pure function of
// (stream, config), so digests remain thread-count independent and
// replay-exact — the shed set itself is digest-enforced.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/instance_source.hpp"
#include "src/engine/policy.hpp"
#include "src/engine/portfolio.hpp"
#include "src/engine/registry.hpp"

namespace moldable::engine {

struct StreamConfig {
  std::size_t window = 16;       ///< max instances per micro-batch (>= 1)
  std::size_t max_inflight = 4;  ///< arrival-reorder horizon, in windows (>= 1)
  /// Single-solver mode: served as the one-variant portfolio {algorithm}.
  std::string algorithm = "auto";
  std::vector<std::string> variants;  ///< non-empty: portfolio mode (ignores algorithm)
  double eps = 0.1;                   ///< approximation parameter, in (0, 1]
  unsigned threads = 0;               ///< worker threads per window; 0 = hardware
  bool memo = false;                  ///< digest-keyed memoization across windows
  /// Memo store bound (outcomes); 0 = unbounded. Only meaningful with
  /// `memo`. Eviction is LRU over the serial plan/finalize order, so
  /// hit/miss/eviction counts stay thread-count independent.
  std::size_t memo_capacity = 0;
  /// Retain only the most recent K entries of StreamResult::window_stats
  /// and ::errors; 0 = keep all (the finite-replay default). Totals and
  /// callbacks are unaffected.
  std::size_t window_history = 0;
  /// Keep exact per-class latency samples instead of bounded sketches —
  /// O(instances) state again; the escape hatch for tests that need exact
  /// percentiles beyond the sketch's exact-mode threshold.
  bool raw_samples = false;
  /// Relative deadline per SLA class, in seconds (> 0, finite). Key
  /// "default" (or "") covers unlabelled instances. Classes without an
  /// entry have no deadline: they never jump the buffer or count misses.
  std::map<std::string, double> class_deadlines;
  TieBreak tie_break = TieBreak::kWallTime;  ///< portfolio winner ties
  /// Certificate-backed load shedding + lateness down-shift (requires at
  /// least one class deadline — with nothing to certify against there is
  /// nothing to shed). Deterministic: changes the digest, but identically
  /// at every thread count and on every replay. See the file comment.
  bool shed = false;
  /// Learned per-class variant priors reorder each instance's portfolio
  /// lanes (portfolio mode only). Deterministic like `shed`.
  bool adapt = false;
  /// Record/replay hooks (traffic/replay.hpp is the canonical consumer).
  /// on_admit fires for every parse-ok record in read (pre-reorder) order —
  /// the exact stream a recorder must persist to reproduce the windowing,
  /// window cuts, memo behaviour, and digest.
  std::function<void(const jobs::Instance&)> on_admit;
  /// on_served fires per outcome under its stream-global index with the
  /// accounted (queue, compute) latency split — after any replay override,
  /// so a recorder persists exactly what a replay will account. `tag` is
  /// the source's routing cookie for the served instance (a socket session
  /// id; 0 for single-pipe sources) — how a network server knows which
  /// connection gets this result frame.
  std::function<void(std::size_t index, std::uint64_t tag, bool ok,
                     double queue_seconds, double compute_seconds)>
      on_served;
  /// Fires for every flush marker the source yields, in read order (between
  /// the on_admit calls it separates) — a recorder persists the marker so a
  /// replay reproduces the flush-driven window cuts. See StreamRecord::flush.
  std::function<void()> on_flush;
  /// Fires for every record refused by the shed rule, at admission time,
  /// under the stream-global index the shed consumed — after on_admit (a
  /// recorder persists the record; the shed set is re-derived on replay)
  /// and instead of on_served (the instance is never solved). Index order
  /// across on_served and on_shed together is the stream-global order, so
  /// a recorder appending per-index rows from both hooks stays gap-free.
  std::function<void(std::size_t index, std::uint64_t tag, const ShedOutcome&)>
      on_shed;
  /// Fires once per lateness down-shift, at the window cut that planned it
  /// (before the window solves), with the record's source tag — how a
  /// network server tallies per-session down_shifted counters. The record
  /// still flows to on_served afterwards; this hook is observability, not
  /// an outcome. Deterministic: the down-shift rule runs on stream virtual
  /// time, so the firing set is a pure function of (stream, config).
  std::function<void(std::uint64_t tag)> on_downshift;
  /// Replay latency override, indexed by stream-global outcome index: when
  /// set, per-class accounting and deadline scoring use these recorded
  /// values instead of the live measurement — the deadline-miss tally, a
  /// wall-clock measurement on a live serve, becomes bit-reproducible on
  /// replay. Indices beyond the vector fall back to live measurement. The
  /// digest never covers latencies, so it is unaffected either way.
  const std::vector<std::pair<double, double>>* replay_latencies = nullptr;

  /// The solver knobs as a PortfolioConfig (no variant plans): a single
  /// solver is the one-variant portfolio {algorithm}.
  PortfolioConfig portfolio() const;
};

/// Stats for one completed micro-batch.
struct WindowStats {
  std::size_t index = 0;  ///< window ordinal in the stream
  std::size_t instances = 0;
  std::size_t solved = 0;
  std::size_t failed = 0;
  double wall_seconds = 0;  ///< this window's solve wall clock
  std::size_t memo_hits = 0, memo_misses = 0;
  std::size_t memo_evictions = 0;   ///< LRU evictions while this window finalized
  /// Portfolio attempts excluded by the early-cancel rule in this window
  /// (deterministic — identical across thread counts).
  std::size_t cancelled_attempts = 0;
  /// Instances of a deadline class whose queue+compute latency exceeded
  /// their class deadline in this window (measured; not in any digest).
  std::size_t deadline_misses = 0;
  /// Instances this window served on a single down-shifted lane because
  /// their deadline slack was already gone at the window cut (deterministic
  /// — the rule runs on stream virtual time).
  std::size_t downshifted = 0;
  std::uint64_t digest = 0;          ///< this window's own batch digest
  std::uint64_t rolling_digest = 0;  ///< stream digest after this window
};

/// Whole-stream latency split for one SLA class (the `class` directive;
/// unlabelled instances report under "default"). Queue is shard pickup
/// within the instance's window, compute is solve time (the summed variant
/// walls in portfolio mode) — the same split PortfolioSolver reports,
/// aggregated per class instead of per algorithm.
struct ClassStats {
  std::string sla_class;
  std::size_t count = 0, solved = 0, failed = 0;
  /// Configured relative deadline for this class; 0 = none configured.
  double deadline_seconds = 0;
  /// Instances whose queue+compute latency exceeded the class deadline
  /// (always 0 for classes without one). Measured, not deterministic.
  std::size_t deadline_misses = 0;
  /// Instances refused at admission by the shed rule (not included in
  /// `count` — they were never served). Deterministic, digest-enforced.
  std::size_t shed = 0;
  exec::Percentiles queue;
  exec::Percentiles compute;
};

/// A malformed stream record, recorded and skipped.
struct StreamError {
  std::size_t line = 0;     ///< 1-based stream line where the record started
  std::size_t ordinal = 0;  ///< record position in the stream
  std::uint64_t tag = 0;    ///< source routing tag (socket session id; 0 = none)
  std::string message;
};

struct StreamResult {
  std::size_t windows = 0;
  std::size_t instances = 0;  ///< parsed and solved-or-failed (excl. malformed)
  std::size_t solved = 0;
  std::size_t failed = 0;
  std::size_t malformed = 0;  ///< records skipped with a diagnostic
  /// FNV-1a over every outcome in stream order under its stream-global
  /// index; equals the one-shot batch digest over the concatenated windows
  /// (empty stream == empty batch digest). Thread-count independent.
  std::uint64_t rolling_digest = 0;
  double wall_seconds = 0;  ///< whole run, input read time included
  /// Deterministic memo tally (serial plan + serial LRU): identical across
  /// thread counts for a fixed stream and config.
  std::size_t memo_hits = 0, memo_misses = 0, memo_evictions = 0;
  /// Stream-total portfolio attempts excluded by the early-cancel rule
  /// (deterministic, see WindowStats::cancelled_attempts).
  std::size_t cancelled_attempts = 0;
  std::size_t deadline_misses = 0;  ///< stream total over all deadline classes
  /// Records refused at admission by the shed rule (never solved; each
  /// consumed a stream-global index and mixed its certificate into the
  /// rolling digest). Deterministic.
  std::size_t shed = 0;
  /// Instances served on a single down-shifted lane (stream total over
  /// WindowStats::downshifted). Deterministic.
  std::size_t downshifted = 0;
  /// Final prior-table state (empty unless shed/adapt ran over two or more
  /// variants — one variant has no order to learn). Deterministic: built
  /// from canonical win/cancel tallies in the serial finalize, so identical
  /// across thread counts and on replay.
  std::vector<VariantPriorTable::ClassPriors> priors;
  /// Leading comment lines of the stream (before the first record header) —
  /// a traffic generator's manifest block, passed through for reporting and
  /// for the record/replay harness. '#' prefixes preserved.
  std::vector<std::string> preamble;
  /// One per window in stream order — capped to the most recent
  /// config.window_history entries when that is nonzero (the totals above
  /// and the window callback always cover every window).
  std::vector<WindowStats> window_stats;
  std::vector<ClassStats> per_class;  ///< sorted by class name; bounded state
  /// Malformed records in stream order, capped like window_stats (the error
  /// callback always sees every record).
  std::vector<StreamError> errors;
};

class StreamSolver {
 public:
  /// Called as each window completes / each malformed record is skipped —
  /// the serve loop's live progress hooks.
  using WindowCallback = std::function<void(const WindowStats&)>;
  using ErrorCallback = std::function<void(const StreamError&)>;

  /// The registry must outlive the solver (the global registry always does).
  explicit StreamSolver(const AlgorithmRegistry& registry = AlgorithmRegistry::global());

  /// Throws std::invalid_argument for a config run() would refuse: a zero
  /// window/max_inflight, a window × max_inflight product that overflows,
  /// an unknown or duplicate solver name, eps out of range, a non-finite or
  /// non-positive class deadline, `shed` without any class deadline, or
  /// `adapt` outside portfolio mode. A caller with side effects of its own
  /// (a record file to truncate, a socket to open) checks here first.
  void check_config(const StreamConfig& config) const;

  /// Serves `source` to exhaustion. Runs check_config up front, before
  /// consuming any input; per-instance failures and malformed records are
  /// recorded, never thrown.
  StreamResult run(InstanceSource& source, const StreamConfig& config,
                   const WindowCallback& on_window = {},
                   const ErrorCallback& on_error = {}) const;

  /// Single-pipe convenience: wraps `input` in an IstreamSource. Identical
  /// semantics (this was the only entry point before sources existed).
  StreamResult run(std::istream& input, const StreamConfig& config,
                   const WindowCallback& on_window = {},
                   const ErrorCallback& on_error = {}) const;

 private:
  const AlgorithmRegistry* registry_;
};

}  // namespace moldable::engine
