// Record/replay harness for serve mode: capture a live serving session and
// re-serve it with bit-identical evidence.
//
// A record file is three comment-framed sections, and — because every frame
// line is an io comment — the whole file doubles as a plain serve stream:
//
//   # moldable-record v3
//   # serve window=16 max-inflight=4 eps=0.1 memo=1 memo-capacity=64 ...
//   # portfolio exact,fptas,mrt              (portfolio mode only)
//   # deadline interactive=0.5               (repeatable)
//   <the served records, canonical io text, in read order>
//   # moldable-record-end v1
//   # source <original stream preamble, passed through>
//   # latency <index> <queue_s> <compute_s>  (one per stream-global index —
//            served instances record their measured split, shed ones a 0 0
//            placeholder, so the table stays gap-free in index order)
//   # served instances=N solved=.. failed=.. memo-hits=.. memo-misses=..
//            memo-evictions=.. cancelled=.. deadline-misses=.. shed=..
//            downshifted=..
//   # records-digest <fnv64 of the record bytes>
//   # rolling-digest <fnv64 — the session's stream digest>
//   # moldable-record-close v1
//
// Determinism contract: the body is the exact record stream in read order,
// so windowing, window cuts, memo hits/misses/evictions, early-cancel
// exclusions, admission-policy decisions (the shed set, down-shifts, and
// prior-table evolution under `shed`/`adapt` — re-derived from the body,
// never stored per record), and the rolling digest — all pure functions of
// (stream, config) — reproduce bit for bit at ANY thread count. The one measured
// quantity, per-instance latency, is recorded per stream-global index and
// fed back through StreamConfig::replay_latencies, so deadline-miss tallies
// reproduce too. replay() asserts all of it and reports every divergence.
//
// Failure modes are first-class: a v1 or v2 file (recorded before
// single-solver or dual-solver digests changed) is rejected by name, a file
// without the trailer sentinels is rejected as truncated, a file whose body
// bytes do not hash to records-digest is rejected as corrupted — each with
// a diagnostic naming what was expected.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <tuple>
#include <vector>

#include "src/engine/stream_solver.hpp"

namespace moldable::traffic {

/// The deterministic session counters a replay must reproduce.
struct RecordedCounters {
  std::size_t instances = 0, solved = 0, failed = 0;
  std::size_t memo_hits = 0, memo_misses = 0, memo_evictions = 0;
  std::size_t cancelled_attempts = 0;
  std::size_t deadline_misses = 0;
  /// Admission-policy tallies (0 on pre-policy recordings, which omit the
  /// keys). Deterministic, so replay must reproduce them exactly.
  std::size_t shed = 0;
  std::size_t downshifted = 0;
};

/// Streams a serving session into a record file. Usage:
///
///   StreamRecorder recorder(file, config);              // header out now
///   result = solver.run(in, recorder.instrument(config), ...);
///   recorder.finalize(result);                          // trailer out
///
/// Recording is O(1) memory in the stream length apart from the latency
/// table (one entry per served instance), which the trailer needs anyway.
class StreamRecorder {
 public:
  /// Writes the config header immediately. `os` must outlive the recorder
  /// and stay open through finalize(). Throws std::invalid_argument on a
  /// config the header format cannot represent (none today) and
  /// std::runtime_error on an I/O failure.
  StreamRecorder(std::ostream& os, const engine::StreamConfig& config);

  /// Returns `config` with the recording hooks installed (chaining hooks
  /// already present, so a caller's own on_admit/on_served still fire).
  engine::StreamConfig instrument(engine::StreamConfig config);

  /// Writes the trailer from the finished run's result. Call exactly once.
  void finalize(const engine::StreamResult& result);

 private:
  std::ostream* os_;
  bool finalized_ = false;
  std::uint64_t records_digest_;
  std::vector<std::tuple<std::size_t, double, double>> latencies_;
};

/// A parsed record file, ready to re-serve.
struct ReplayFile {
  engine::StreamConfig config;  ///< as recorded; threads left 0 (= hardware)
  std::string body;             ///< the record stream text
  std::vector<std::pair<double, double>> latencies;  ///< by stream-global index
  RecordedCounters counters;
  std::uint64_t rolling_digest = 0;
  std::uint64_t records_digest = 0;
  std::vector<std::string> source_preamble;  ///< original stream's manifest
};

/// Parses and integrity-checks a record file. Throws std::runtime_error
/// with a diagnostic naming the defect: missing header, truncated trailer,
/// body-digest mismatch (corruption), or malformed frame lines.
ReplayFile load_record(std::istream& is);
ReplayFile load_record_file(const std::string& path);

struct ReplayReport {
  bool ok = false;  ///< every digest and counter matched the recording
  std::vector<std::string> mismatches;  ///< human-readable divergences
  engine::StreamResult result;          ///< the replay run itself
};

/// Re-serves the recorded stream under the recorded config (thread count
/// aside — the contract is thread-count independence, so any `threads`
/// must reproduce the session; 0 = hardware) and checks the rolling digest
/// and every RecordedCounters field against the recording.
ReplayReport replay(
    const ReplayFile& file, unsigned threads = 0,
    const engine::AlgorithmRegistry& registry = engine::AlgorithmRegistry::global());

}  // namespace moldable::traffic
