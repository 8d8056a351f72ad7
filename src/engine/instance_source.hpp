// InstanceSource: where a serve session's records come from.
//
// StreamSolver used to be hard-wired to one stdin pipe. This interface
// factors the ingestion side out so the same serve loop — windowing, memo,
// early-cancel, record/replay — runs unchanged over any producer of records:
//
//   * IstreamSource (here)      — the original stdin/file stream, a thin
//     wrapper over jobs::InstanceStreamReader;
//   * net::WatchDirSource       — periodic directory re-scan with a
//     served-file ledger (the "drop files in a dir" deployment shape);
//   * net::SocketServer         — a TCP/Unix-socket listener multiplexing
//     many concurrent client sessions into one merged record stream.
//
// Contract:
//
//   * next() BLOCKS until a record is available or the source is exhausted
//     (stdin EOF, all socket sessions drained, watch-dir idle-exit), then
//     returns false exactly once — after which the serve loop drains its
//     reorder buffer and finishes. next() is called from one thread only
//     (the serve loop); sources that ingest concurrently serialize
//     internally.
//   * Malformed input is isolated, never thrown: a record that fails to
//     parse comes back with ok == false and a diagnostic, exactly like the
//     stream reader's rule — one corrupt record (or one garbage-spewing
//     client) never kills the serve.
//   * The order in which next() yields records IS the canonical stream
//     order: windowing, window cuts, memo behaviour, and the rolling digest
//     are pure functions of that sequence plus the config. A multiplexing
//     source's merge order is decided by real arrival interleaving (not
//     reproducible across runs), but once merged it is a perfectly ordinary
//     serial stream — which is why a recorded multi-client session replays
//     bit-exact from the record file on any thread count.
//   * StreamRecord::tag is the source's routing cookie (e.g. the socket
//     session id). The engine carries it from admission to the served
//     outcome untouched; it never affects ordering, solving, or digests.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/jobs/io.hpp"

namespace moldable::engine {

/// Abstract producer of serve-mode records. The sequence next() yields is
/// the canonical stream order: every digest-covered output downstream is a
/// pure function of that sequence plus the serve config, never of timing,
/// thread count, or which concrete source produced it.
class InstanceSource {
 public:
  virtual ~InstanceSource() = default;

  /// Blocking pull of the next record (parse-ok, malformed-with-diagnostic,
  /// or a flush marker with record.flush set — see jobs::StreamRecord).
  /// Returns false when the source is exhausted; after the first false
  /// every further call must also return false. Called from exactly one
  /// thread (the serve loop).
  virtual bool next(jobs::StreamRecord& record) = 0;

  /// Manifest comment lines the source saw ahead of its records (a traffic
  /// generator's header block), for reporting and the record trailer. Only
  /// meaningful once next() has returned false; sources without a manifest
  /// return empty.
  virtual std::vector<std::string> preamble() const { return {}; }
};

/// The original single-pipe source: concatenated io-format records from one
/// std::istream, via jobs::InstanceStreamReader (malformed-record isolation
/// and preamble capture included). Tags every record 0.
class IstreamSource : public InstanceSource {
 public:
  explicit IstreamSource(std::istream& is) : reader_(is) {}

  bool next(jobs::StreamRecord& record) override { return reader_.next(record); }
  std::vector<std::string> preamble() const override { return reader_.preamble(); }

 private:
  jobs::InstanceStreamReader reader_;
};

}  // namespace moldable::engine
