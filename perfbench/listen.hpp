// Socket passes: the real `batch_service --listen` binary over loopback,
// driven by an open-loop client.
//
// Each pass spawns a fresh server (`--listen 127.0.0.1:0 --port-file F
// --listen-sessions N` plus the workload's flags), so no state carries
// between passes. One client thread keeps at most 4 sessions open. Sessions
// open at the points of a seeded Poisson process of kSessionsPerSecond; a
// pass offers the sessions due within its first kPassSeconds, so it serves a
// prefix of the storm when the whole storm does not fit. Each session waits
// for WELCOME, sends a Pareto-sized batch of 1-16 records, half-closes, and
// reads frames until SUMMARY. A record's latency runs from its session's due
// time to its RESULT or shed REJECT frame. The client connects with
// net::dial and decodes with net::FrameDecoder and the decode_* helpers, so
// it speaks only the frames of docs/PROTOCOL.md.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Offered session rate: a couple of hundred sessions a second, which one
/// client thread over 4 connections opens on time on every workload (see
/// net.generator_late_ms_p99).
constexpr double kSessionsPerSecond = 200;
/// Longest schedule one pass offers: about 800 sessions, 1,800 records.
constexpr double kPassSeconds = 4;
/// A pass whose sessions open later than this (p99) had a generator that
/// fell behind its schedule; the run's diagnostics flag it.
constexpr double kLateLimitMs = 1;

struct ListenPass {
  double generate_s = 0;  ///< storm generation (src/traffic)
  double setup_s = 0;     ///< generation + server spawn until its port file exists
  double wall_s = 0;      ///< schedule start to the last frame
  std::size_t sessions = 0;
  std::size_t records = 0;  ///< records offered: the storm's first `records`
  std::size_t results = 0;  ///< RESULT frames
  std::size_t shed = 0;     ///< shed REJECT frames
  std::size_t errors = 0;   ///< failed + malformed + unanswered + connection errors
  std::vector<std::string> error_messages;  ///< the first few, for the log
  std::vector<double> latency_ms;      ///< due time -> RESULT / shed REJECT
  std::vector<double> interactive_ms;  ///< the same, interactive class only
  std::vector<double> welcome_ms;      ///< connect() -> WELCOME
  std::vector<double> server_ms;       ///< queue + compute carried by RESULT
  std::vector<double> edge_ms;         ///< latency - server time, RESULT only
  std::vector<double> late_ms;         ///< actual session open - due time
  double peak_rss_mb = 0;              ///< the server's peak resident set

  double rate() const { return wall_s > 0 ? double(results + shed) / wall_s : 0; }
};

/// Runs one socket pass against `server_binary`; scratch files (port file,
/// server stderr) go to `work_dir`. Failures are counted in `errors`, never
/// thrown, except when the server cannot be started at all.
ListenPass run_listen_pass(const Workload& workload, const std::string& server_binary,
                           const std::string& work_dir);

}  // namespace perfbench
