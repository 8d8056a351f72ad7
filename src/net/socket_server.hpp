// SocketServer: a TCP/Unix-socket listener that multiplexes many concurrent
// client sessions into ONE merged record stream — an engine::InstanceSource
// — so a single StreamSolver serve loop (one shared exec core and memo
// store) serves every connection at once.
//
// Shape (the central-update-loop idiom: one solver loop, many independent
// clients notified as their results land):
//
//   accept thread ──> per-session reader threads ──> bounded merged queue
//                                                         │ next()
//                                                    serve loop (caller)
//                                                         │ publish()
//                     per-session writer threads <── result routing by tag
//
// Each session's reader parses the connection with the ordinary
// InstanceStreamReader (over an FdInBuf), tags every record with its
// session id, and pushes into the merged queue; the queue bound is the
// backpressure valve — readers block when the solver falls behind, which
// TCP turns into flow control on the sender. The serve loop's next() pops
// the merge. Whatever interleaving the readers produced IS the canonical
// stream order: the caller records it via the normal --record hooks, and a
// serial replay of the record file reproduces the rolling digest and every
// deterministic counter bit for bit (the network edge adds no new
// determinism obligations — it only decides the merge). When the queue
// empties with every connected session drained but the listener still
// open, or stays empty for kIdleFlushInterval after records arrived,
// next() yields one flush marker (StreamRecord::flush) so the serve loop
// cuts its reorder buffer immediately — markers are recorded like
// records, so replay re-derives the same cuts.
//
// Result routing: the serve loop calls publish() from its on_served hook;
// the session id travels as the record tag, so each outcome finds its way
// back to the originating connection as a length-prefixed RESULT frame
// (framing.hpp), tagged (session id, stream-global index). Frames are
// queued per session and written by that session's writer thread — the
// serve loop never blocks on a slow client (the outbox is unbounded; the
// deadlock-freedom trade-off, bounded in practice by the session's own
// record count). A dead client (EPIPE) silently loses its remaining
// frames; the serve itself is unaffected.
//
// Admission control: at most max_sessions sessions concurrently; a
// connection over the cap receives a REJECT frame with a named reason and
// is closed — it never touches the merged stream. With expected_sessions
// set, accepting stops after that many admissions (the test/drain shape);
// otherwise the listener runs until shutdown().
//
// Session protocol, client's view:
//   connect -> recv WELCOME(session id)
//   send io-format records ... -> shutdown(SHUT_WR)   [half-close = EOF]
//   recv RESULT frames  (one per parse-ok record, in served order)
//   recv SUMMARY frame -> server closes
//
// A session completes INDIVIDUALLY: once its reader hit EOF and every one
// of its admitted records has a published result, the server sends that
// session's SUMMARY and closes it — a client of an endless listener gets
// its answer and leaves without waiting for the server to drain.
//
// Clients MUST half-close when done sending: a session completes (SUMMARY,
// close) only once its reader is at EOF. Its RESULT frames do not wait for
// that — the idle flush marker cuts the window once the merged queue has
// been quiet for kIdleFlushInterval, so a silent client stalls no one.
//
// Clean drain: next() returns false only after (a) accepting has finished,
// (b) every admitted session hit reader EOF, and (c) the merged queue is
// empty — no record is ever dropped. finish() then flushes any straggler
// SUMMARY (normally already sent at per-session completion), closes the
// connections, and joins every thread.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/instance_source.hpp"
#include "src/net/fd_io.hpp"

namespace moldable::net {

struct SocketServerConfig {
  std::string address;  ///< parse_address spec; port 0 = kernel-chosen
  /// Admission cap: concurrent sessions beyond this get a REJECT frame.
  std::size_t max_sessions = 64;
  /// Stop accepting after this many admitted sessions (0 = accept until
  /// shutdown()). The drain-after-N test/batch shape.
  std::size_t expected_sessions = 0;
  /// When nonempty, the bound TCP port is written here (atomic temp+rename)
  /// after listen — how a test harness learns a port-0 choice.
  std::string port_file;
};

/// Per-session tallies, stable after finish().
struct SessionCounters {
  std::uint64_t id = 0;
  std::size_t records = 0;    ///< parse-ok records admitted
  std::size_t malformed = 0;  ///< records isolated with a diagnostic
  std::size_t results = 0;    ///< RESULT frames queued back
  std::size_t solved = 0;
  std::size_t failed = 0;
  /// Per-record shed REJECT frames queued back (the admission policy's
  /// certificate-backed refusals — the session itself stays admitted; every
  /// shed record counts toward its completion like a result).
  std::size_t shed = 0;
  /// Admitted records served single-lane by the lateness down-shift rule.
  /// Observability only: a down-shifted record still produces a RESULT
  /// frame, so this never enters the results+shed==records completion test.
  std::size_t down_shifted = 0;
  bool write_failed = false;  ///< client vanished before its frames drained
};

/// Aggregate tallies, stable after finish().
struct ServerCounters {
  std::size_t accepted = 0;
  std::size_t rejected = 0;  ///< admission-cap rejections (whole connections)
  std::size_t records = 0;
  std::size_t malformed = 0;
  std::size_t results = 0;
  std::size_t shed = 0;  ///< per-record shed REJECT frames (sessions stay up)
  std::size_t down_shifted = 0;  ///< records served single-lane by down-shift
};

class SocketServer : public engine::InstanceSource {
 public:
  /// Validates the address spec (throws std::invalid_argument). No I/O yet.
  explicit SocketServer(SocketServerConfig config);
  /// Joins every thread; forcibly closes live connections if finish() was
  /// never called (the error-exit path).
  ~SocketServer() override;

  /// Binds, listens, writes the port file, and starts the accept thread.
  /// Throws std::runtime_error on bind/listen failure.
  void start();

  /// The merged stream (InstanceSource): blocks until a record arrives or
  /// the drain condition holds. Single consumer — the serve loop.
  bool next(jobs::StreamRecord& record) override;

  /// Per-session manifest preambles, "[session N] "-prefixed, in session-id
  /// order. Complete once next() has returned false.
  std::vector<std::string> preamble() const override;

  /// Routes one served outcome back to its session as a RESULT frame. Call
  /// from StreamConfig::on_served (tag = the session id). Unknown tags
  /// (e.g. 0 on a replayed stream) are ignored.
  void publish(std::size_t index, std::uint64_t tag, bool ok, double queue_seconds,
               double compute_seconds);

  /// Routes one shed record back to its session as a mid-session REJECT
  /// frame (reason code "shed ..." — see framing.hpp for the grammar). Call
  /// from StreamConfig::on_shed. The session stays open: a shed record
  /// counts toward the session's completion exactly like a result, so a
  /// client whose every record was shed still gets its SUMMARY and close.
  /// Unknown tags are ignored like publish().
  void publish_shed(std::size_t index, std::uint64_t tag, const std::string& reason);

  /// Tallies one lateness down-shift for its session (no frame is sent —
  /// the record's RESULT still follows via publish()). Call from
  /// StreamConfig::on_downshift. Unknown tags are ignored like publish().
  void note_downshift(std::uint64_t tag);

  /// Stops accepting new connections (idempotent). Existing sessions drain
  /// normally; next() returns false once they do.
  void shutdown();

  /// After the serve loop drained: send each session its SUMMARY frame,
  /// close every connection, join every thread. Idempotent.
  void finish();

  /// The kernel-chosen TCP port (valid after start(); 0 for unix sockets).
  std::uint16_t port() const { return port_; }
  /// The raw listening fd (valid after start()). For a signal handler that
  /// wants the drain-on-SIGTERM shape: ::shutdown(fd, SHUT_RDWR) is
  /// async-signal-safe and makes the accept loop exit exactly like
  /// shutdown() — which itself takes a lock and so cannot be called from a
  /// handler. Existing sessions still drain normally.
  int listen_socket_fd() const { return listen_fd_.get(); }
  /// Human-readable bound endpoint (valid after start()).
  std::string endpoint() const;

  ServerCounters counters() const;
  /// Sorted by session id.
  std::vector<SessionCounters> session_counters() const;

 private:
  /// How long the merged queue must stay empty, with records pushed since
  /// the last flush marker, before next() emits a marker while sessions are
  /// still connected.
  static constexpr std::chrono::milliseconds kIdleFlushInterval{5};
  /// Merged-queue bound, in records — the backpressure valve between fast
  /// clients and the serve loop.
  static constexpr std::size_t kQueueCapacity = 4096;

  struct Session {
    std::uint64_t id = 0;
    ScopedFd fd;
    std::thread reader;
    std::thread writer;
    // Writer mailbox: encoded frames; closed_for_write ends the writer
    // after the backlog drains.
    std::deque<std::string> outbox;
    bool close_after_drain = false;
    SessionCounters tally;
    std::vector<std::string> preamble;
    bool reader_done = false;
    bool summary_sent = false;
  };

  void accept_loop();
  void reader_loop(Session& session);
  void writer_loop(Session& session);
  void enqueue_frame(Session& session, std::string frame);  // mutex_ held by caller
  // Sends the SUMMARY and closes the session once its reader is at EOF and
  // every admitted record has a published result. mutex_ held by caller.
  void maybe_complete_session(Session& session);

  SocketServerConfig config_;
  Address address_;
  ScopedFd listen_fd_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  bool started_ = false;
  bool finished_ = false;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;   ///< consumer side: records available / drained
  std::condition_variable space_cv_;   ///< producer side: queue below capacity
  std::condition_variable outbox_cv_;  ///< writers: frames queued / close requested
  std::deque<jobs::StreamRecord> queue_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::uint64_t next_session_id_ = 1;  ///< tag 0 means "no session"
  std::size_t active_sessions_ = 0;    ///< admitted, reader not yet at EOF
  std::size_t merged_ordinal_ = 0;     ///< stream-wide ordinal across sessions
  /// Records pushed since the last flush marker: when the merged queue
  /// empties with no session mid-stream but the listener still open, or
  /// stays empty for kIdleFlushInterval, next() emits ONE flush record
  /// (StreamRecord::flush) so the serve loop cuts its reorder buffer
  /// instead of stranding tail records behind other sessions. Re-armed by
  /// every record push.
  bool flush_armed_ = false;
  bool accept_done_ = false;
  bool stop_accepting_ = false;
  bool aborting_ = false;  ///< destructor-path force-stop
  ServerCounters totals_;
};

}  // namespace moldable::net
