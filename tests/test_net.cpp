// Net-layer tests: frame encode/decode round-trips over arbitrarily torn
// byte feeds, the decoder's defensive rejections (oversized, zero-length,
// unknown type, truncated tail), watch-dir pickup order / ledger restart
// safety / partial-file skipping, and the socket server end to end on a
// loopback listener — session-id monotonicity, the admission-cap REJECT
// frame, mid-record disconnect isolation, a multi-client storm whose
// recorded merged session replays bit-exact on one thread, and an idle
// client that must not stall another session.
//
// Every socket test binds port 0 (kernel-chosen), so the suite is safe
// under `ctest -j` with any number of concurrent test binaries.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/portfolio.hpp"
#include "src/engine/stream_solver.hpp"
#include "src/jobs/generators.hpp"
#include "src/jobs/io.hpp"
#include "src/net/fd_io.hpp"
#include "src/net/framing.hpp"
#include "src/net/socket_server.hpp"
#include "src/net/watch_dir.hpp"
#include "src/traffic/replay.hpp"
#include "src/traffic/traffic_gen.hpp"

namespace moldable::net {
namespace {

namespace fs = std::filesystem;

// ----------------------------------------------------------------- framing --

TEST(Framing, RoundTripsEveryFrameType) {
  const WelcomeFrame welcome{42};
  const ResultFrame result{42, 1337, true, 0.25, 1.5};
  const RejectFrame reject{0, "session-cap: 4 concurrent sessions already admitted"};
  const SummaryFrame summary{42, 100, 3, 95, 93, 2, 5, 4};

  FrameDecoder decoder;
  decoder.feed(encode(welcome));
  decoder.feed(encode(result));
  decoder.feed(encode(reject));
  decoder.feed(encode(summary));

  Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(decode_welcome(frame).session, 42u);

  ASSERT_TRUE(decoder.next(frame));
  const ResultFrame r = decode_result(frame);
  EXPECT_EQ(r.session, 42u);
  EXPECT_EQ(r.index, 1337u);
  EXPECT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.queue_seconds, 0.25);
  EXPECT_DOUBLE_EQ(r.compute_seconds, 1.5);

  ASSERT_TRUE(decoder.next(frame));
  const RejectFrame j = decode_reject(frame);
  EXPECT_EQ(j.session, 0u);
  EXPECT_EQ(j.reason, reject.reason);

  ASSERT_TRUE(decoder.next(frame));
  const SummaryFrame s = decode_summary(frame);
  EXPECT_EQ(s.session, 42u);
  EXPECT_EQ(s.records, 100u);
  EXPECT_EQ(s.malformed, 3u);
  EXPECT_EQ(s.results, 95u);
  EXPECT_EQ(s.solved, 93u);
  EXPECT_EQ(s.failed, 2u);
  EXPECT_EQ(s.shed, 5u);
  EXPECT_EQ(s.down_shifted, 4u);

  EXPECT_FALSE(decoder.next(frame));
  EXPECT_FALSE(decoder.failed());
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(Framing, ReassemblesAByteAtATimeFeed) {
  // The cruellest chunking recv() can produce: one byte per feed, frames
  // torn mid-prefix and mid-payload.
  std::string wire;
  for (std::uint64_t i = 0; i < 10; ++i)
    wire += encode(ResultFrame{7, i, i % 2 == 0, 0.5 * i, 0.25 * i});

  FrameDecoder decoder;
  std::vector<ResultFrame> seen;
  Frame frame;
  for (const char byte : wire) {
    decoder.feed(&byte, 1);
    while (decoder.next(frame)) seen.push_back(decode_result(frame));
  }
  ASSERT_EQ(seen.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(seen[i].index, i);
    EXPECT_EQ(seen[i].ok, i % 2 == 0);
    EXPECT_DOUBLE_EQ(seen[i].queue_seconds, 0.5 * i);
  }
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

std::string length_prefix(std::uint32_t n) {
  std::string out(4, '\0');
  out[0] = static_cast<char>(n >> 24);
  out[1] = static_cast<char>(n >> 16);
  out[2] = static_cast<char>(n >> 8);
  out[3] = static_cast<char>(n);
  return out;
}

TEST(Framing, PoisonsOnOversizedFrame) {
  FrameDecoder decoder;
  decoder.feed(length_prefix(static_cast<std::uint32_t>(kMaxFrameBytes + 1)));
  Frame frame;
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_TRUE(decoder.failed());
  EXPECT_NE(decoder.error().find("exceeds"), std::string::npos) << decoder.error();
  // A poisoned decoder never yields again, whatever arrives afterwards.
  decoder.feed(encode(WelcomeFrame{1}));
  EXPECT_FALSE(decoder.next(frame));
}

TEST(Framing, PoisonsOnZeroLengthFrame) {
  FrameDecoder decoder;
  decoder.feed(length_prefix(0));
  Frame frame;
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_TRUE(decoder.failed());
}

TEST(Framing, PoisonsOnUnknownFrameType) {
  FrameDecoder decoder;
  decoder.feed(length_prefix(1));
  const char bogus_type = 9;
  decoder.feed(&bogus_type, 1);
  Frame frame;
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_TRUE(decoder.failed());
}

TEST(Framing, TruncatedTailIsVisibleAsPendingBytes) {
  const std::string wire = encode(SummaryFrame{1, 2, 3, 4, 5, 6});
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size() - 3);  // connection died mid-frame
  Frame frame;
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_FALSE(decoder.failed());  // not a protocol violation, just incomplete
  EXPECT_GT(decoder.pending_bytes(), 0u);
}

TEST(Framing, TypedDecodersRejectWrongTypeAndSize) {
  FrameDecoder decoder;
  decoder.feed(encode(WelcomeFrame{5}));
  Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_THROW(decode_result(frame), std::runtime_error);   // wrong type
  EXPECT_NO_THROW(decode_welcome(frame));
  frame.payload += 'x';  // right type, corrupt size
  EXPECT_THROW(decode_welcome(frame), std::runtime_error);
}

TEST(Framing, OldSummaryLayoutIsLoudlyRejected) {
  // The v2 SUMMARY payload grew 48 -> 64 bytes (shed, down_shifted). A
  // counter-blind peer speaking the old layout must fail the exact-size
  // check, never silently decode with the tail counters zeroed.
  Frame frame;
  frame.type = FrameType::kSummary;
  frame.payload.assign(48, '\0');
  EXPECT_THROW(decode_summary(frame), std::runtime_error);
  frame.payload.assign(64, '\0');
  EXPECT_NO_THROW(decode_summary(frame));
}

// --------------------------------------------------------------- watch-dir --

/// A unique fresh directory per test; removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::path(::testing::TempDir()) /
             (name + "-" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

void drop_instance(const fs::path& dir, const std::string& name,
                   const jobs::Instance& instance) {
  // rename-into-place, exactly as a producer must: the watcher skips the
  // .tmp name, and rename(2) makes the final name appear atomically.
  const fs::path tmp = dir / (name + ".tmp");
  std::ofstream os(tmp);
  os << jobs::to_text(instance);
  os.close();
  fs::rename(tmp, dir / name);
}

std::vector<jobs::Instance> watch_batch(std::size_t count) {
  std::vector<jobs::Instance> batch;
  const auto families = jobs::all_families();
  for (std::size_t i = 0; i < count; ++i)
    batch.push_back(
        jobs::make_instance(families[i % families.size()], 8, 16, 500 + i));
  return batch;
}

WatchDirConfig drain_config(const std::string& dir) {
  WatchDirConfig config;
  config.dir = dir;
  config.poll_ms = 5;
  config.idle_exit_scans = 2;  // batch-drain shape: stop when nothing new lands
  return config;
}

/// next() minus flush markers. Sources emit a flush record whenever their
/// backlog drains (so the serve loop cuts its reorder buffer); hand-driven
/// tests that only care about data records skip them here. Flush records
/// carry no payload and consume no ordinal, so every ordinal/name/tag
/// expectation stays valid.
bool next_data(engine::InstanceSource& source, jobs::StreamRecord& record) {
  while (source.next(record))
    if (!record.flush) return true;
  return false;
}

TEST(WatchDir, ServesDroppedFilesInSortedOrder) {
  TempDir dir("watch-sorted");
  const auto batch = watch_batch(3);
  // Dropped out of order; pickup must be sorted-path order, stream-wide
  // ordinals and all.
  drop_instance(dir.path, "c.inst", batch[2]);
  drop_instance(dir.path, "a.inst", batch[0]);
  drop_instance(dir.path, "b.inst", batch[1]);

  WatchDirSource source(drain_config(dir.str()));
  jobs::StreamRecord record;
  std::vector<std::string> names;
  while (next_data(source, record)) {
    ASSERT_TRUE(record.ok) << record.error;
    EXPECT_EQ(record.ordinal, names.size());
    EXPECT_EQ(record.tag, 0u);  // watch-dir sessions are untagged
    names.push_back(record.instance.name());
  }
  EXPECT_EQ(names, (std::vector<std::string>{batch[0].name(), batch[1].name(),
                                             batch[2].name()}));
  EXPECT_EQ(source.files_served(), 3u);
}

TEST(WatchDir, LedgerPreventsDoubleServeAcrossRestarts) {
  TempDir dir("watch-ledger");
  const auto batch = watch_batch(3);
  drop_instance(dir.path, "a.inst", batch[0]);
  drop_instance(dir.path, "b.inst", batch[1]);

  {
    WatchDirSource first(drain_config(dir.str()));
    jobs::StreamRecord record;
    std::size_t served = 0;
    while (next_data(first, record)) ++served;
    EXPECT_EQ(served, 2u);
  }

  // "Restart": a fresh source over the same directory and ledger. Only the
  // file dropped after the restart may be served.
  drop_instance(dir.path, "c.inst", batch[2]);
  WatchDirSource second(drain_config(dir.str()));
  jobs::StreamRecord record;
  std::vector<std::string> names;
  while (next_data(second, record)) names.push_back(record.instance.name());
  EXPECT_EQ(names, std::vector<std::string>{batch[2].name()});

  // The ledger itself lists all three, one filename per line.
  std::ifstream ledger(dir.path / ".moldable-served");
  std::vector<std::string> lines;
  for (std::string line; std::getline(ledger, line);) lines.push_back(line);
  EXPECT_EQ(lines, (std::vector<std::string>{"a.inst", "b.inst", "c.inst"}));
}

TEST(WatchDir, SkipsPartialWritesAndDotfiles) {
  TempDir dir("watch-partial");
  const auto batch = watch_batch(1);
  // In-flight writes under the rename-into-place convention, plus a
  // dotfile: all invisible to the watcher.
  std::ofstream(dir.path / "half.inst.tmp") << "moldable-instance v1\nmachi";
  std::ofstream(dir.path / "half.part") << "moldable-instance v1\n";
  std::ofstream(dir.path / ".hidden") << "not an instance\n";
  drop_instance(dir.path, "real.inst", batch[0]);

  WatchDirSource source(drain_config(dir.str()));
  jobs::StreamRecord record;
  std::vector<std::string> names;
  while (next_data(source, record)) {
    ASSERT_TRUE(record.ok) << record.error;
    names.push_back(record.instance.name());
  }
  EXPECT_EQ(names, std::vector<std::string>{batch[0].name()});
  EXPECT_EQ(source.files_served(), 1u);
}

TEST(WatchDir, CorruptFileIsReportedOnceAndNeverRetried) {
  TempDir dir("watch-corrupt");
  std::ofstream(dir.path / "bad.inst")
      << "moldable-instance v1\nmachines 4\njob bogus 1 2\n";

  WatchDirSource source(drain_config(dir.str()));
  jobs::StreamRecord record;
  ASSERT_TRUE(source.next(record));
  EXPECT_FALSE(record.ok);
  // The diagnostic names the offending file (stream-wide ordinals would
  // otherwise make the error untraceable).
  EXPECT_NE(record.error.find("bad.inst"), std::string::npos) << record.error;
  // The drained backlog (even an all-malformed one) yields one flush marker
  // before the idle exit.
  ASSERT_TRUE(source.next(record));
  EXPECT_TRUE(record.flush);
  EXPECT_FALSE(source.next(record));

  // Ledgered despite the parse failure: a restart must not re-report it.
  WatchDirSource second(drain_config(dir.str()));
  EXPECT_FALSE(second.next(record));
}

TEST(WatchDir, StreamSolverOverWatchDirMatchesBatchDigest) {
  TempDir dir("watch-digest");
  const auto batch = watch_batch(6);
  for (std::size_t i = 0; i < batch.size(); ++i)
    drop_instance(dir.path, "inst-" + std::to_string(i) + ".inst", batch[i]);

  WatchDirSource source(drain_config(dir.str()));
  engine::StreamConfig config;
  config.window = 4;
  config.threads = 2;
  const engine::StreamResult r = engine::StreamSolver().run(source, config);
  EXPECT_EQ(r.instances, batch.size());
  EXPECT_EQ(r.solved, batch.size());
  // Sorted pickup + arrival-free instances = the batch in drop order, so the
  // serve digest must equal the one-shot batch digest: the ingestion path
  // leaves no trace in the outcome.
  engine::PortfolioConfig one_shot;
  one_shot.variants = {"auto"};
  EXPECT_EQ(r.rolling_digest, engine::PortfolioSolver().solve(batch, one_shot).digest());
}

// ----------------------------------------------------------- socket server --

std::string client_storm(std::uint64_t seed, std::size_t arrivals) {
  traffic::TrafficConfig config;
  config.seed = seed;
  config.horizon = 60;
  config.max_arrivals = arrivals;
  config.jobs_min = 1;
  config.jobs_cap = 6;
  config.machines = 4;
  std::ostringstream os;
  traffic::TrafficGenerator(config).write(os);
  return os.str();
}

/// What one loopback client saw: its WELCOME id, RESULT count, and trailer.
struct ClientOutcome {
  std::uint64_t session = 0;
  std::size_t results = 0;
  std::size_t solved = 0;
  bool rejected = false;
  std::string reject_reason;
  bool summary_seen = false;
  SummaryFrame summary;
};

/// Dials the server, sends `payload`, half-closes, and drains the framed
/// responses until the server closes.
ClientOutcome run_client(std::uint16_t port, const std::string& payload) {
  ClientOutcome out;
  ScopedFd fd = dial("127.0.0.1:" + std::to_string(port));
  if (!payload.empty()) {
    EXPECT_TRUE(send_all(fd.get(), payload.data(), payload.size()));
  }
  ::shutdown(fd.get(), SHUT_WR);

  FrameDecoder decoder;
  char buf[16 * 1024];
  Frame frame;
  for (;;) {
    const long n = read_some(fd.get(), buf, sizeof(buf));
    if (n <= 0) break;
    decoder.feed(buf, static_cast<std::size_t>(n));
    while (decoder.next(frame)) {
      switch (frame.type) {
        case FrameType::kWelcome:
          out.session = decode_welcome(frame).session;
          break;
        case FrameType::kResult: {
          const ResultFrame r = decode_result(frame);
          EXPECT_EQ(r.session, out.session);
          ++out.results;
          if (r.ok) ++out.solved;
          break;
        }
        case FrameType::kReject:
          out.rejected = true;
          out.reject_reason = decode_reject(frame).reason;
          break;
        case FrameType::kSummary:
          out.summary_seen = true;
          out.summary = decode_summary(frame);
          break;
      }
    }
    EXPECT_FALSE(decoder.failed()) << decoder.error();
  }
  EXPECT_EQ(decoder.pending_bytes(), 0u) << "truncated final frame";
  return out;
}

/// Reads `fd` until its first frame lands; returns that WELCOME's session id.
std::uint64_t await_welcome(int fd) {
  FrameDecoder decoder;
  char buf[256];
  Frame frame;
  while (!decoder.next(frame)) {
    const long n = read_some(fd, buf, sizeof(buf));
    if (n <= 0) return 0;
    decoder.feed(buf, static_cast<std::size_t>(n));
  }
  return decode_welcome(frame).session;
}

SocketServerConfig loopback_config(std::size_t expected_sessions,
                                   std::size_t max_sessions = 64) {
  SocketServerConfig config;
  config.address = "127.0.0.1:0";  // kernel-chosen port: ctest -j safe
  config.expected_sessions = expected_sessions;
  config.max_sessions = max_sessions;
  return config;
}

TEST(SocketServer, SessionIdsAreMonotonicFromOne) {
  SocketServer server(loopback_config(3));
  server.start();
  const std::string payload = client_storm(1, 2);

  // Staggered connects pin the admission order — client i+1 only dials after
  // client i's records were already consumed off the merged stream — so ids
  // and merged-stream tags are fully predictable: 1, 2, 3.
  std::vector<ClientOutcome> outcomes(3);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < 3; ++i) {
    clients.emplace_back(
        [&, i] { outcomes[i] = run_client(server.port(), payload); });
    jobs::StreamRecord record;
    ASSERT_TRUE(next_data(server, record));
    EXPECT_EQ(record.tag, i + 1);
    ASSERT_TRUE(next_data(server, record));
    EXPECT_EQ(record.tag, i + 1);
    server.publish(2 * i, record.tag, true, 0.0, 0.0);
    server.publish(2 * i + 1, record.tag, true, 0.0, 0.0);
  }
  // No seventh data record: expected_sessions reached and every reader at
  // EOF (next_data also swallows the final quiet-period flush marker).
  jobs::StreamRecord record;
  EXPECT_FALSE(next_data(server, record));
  server.finish();  // flushes SUMMARYs and closes — lets the clients exit
  for (auto& c : clients) c.join();

  const auto sessions = server.session_counters();
  ASSERT_EQ(sessions.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sessions[i].id, i + 1);
    EXPECT_EQ(sessions[i].records, 2u);
    EXPECT_EQ(sessions[i].results, 2u);
    EXPECT_EQ(outcomes[i].session, i + 1);
    EXPECT_EQ(outcomes[i].results, 2u);
    EXPECT_TRUE(outcomes[i].summary_seen);
  }
  EXPECT_EQ(server.counters().accepted, 3u);
  EXPECT_EQ(server.counters().rejected, 0u);
}

TEST(SocketServer, OverCapConnectionGetsNamedRejectFrame) {
  SocketServerConfig config = loopback_config(0, /*max_sessions=*/1);
  SocketServer server(config);
  server.start();

  // First client occupies the only admission slot (it stays connected by
  // not half-closing until told).
  ScopedFd holder = dial("127.0.0.1:" + std::to_string(server.port()));
  // Its WELCOME confirms admission before the over-cap connect races in.
  ASSERT_EQ(await_welcome(holder.get()), 1u);

  // Second client: over the cap — a named REJECT, then close, session id 0.
  const ClientOutcome rejected = run_client(server.port(), "");
  EXPECT_TRUE(rejected.rejected);
  EXPECT_EQ(rejected.session, 0u);
  EXPECT_EQ(rejected.reject_reason.rfind("session-cap:", 0), 0u)
      << rejected.reject_reason;
  EXPECT_FALSE(rejected.summary_seen);

  ::shutdown(holder.get(), SHUT_WR);  // first client finishes (sent nothing)
  server.shutdown();                  // stop accepting; drain
  jobs::StreamRecord record;
  EXPECT_FALSE(server.next(record));
  server.finish();
  EXPECT_EQ(server.counters().accepted, 1u);
  EXPECT_EQ(server.counters().rejected, 1u);
}

TEST(SocketServer, MidRecordDisconnectIsIsolatedAsMalformed) {
  SocketServer server(loopback_config(1));
  server.start();

  // One whole record, then a connection that dies mid-record: the torn tail
  // must surface as ONE malformed record with a diagnostic — never as a
  // parse abort, never as a record that consumes a real outcome slot.
  const auto batch = watch_batch(1);
  std::string payload = jobs::to_text(batch[0]);
  payload += "moldable-instance v1\nmachines 4\njob amdahl 5";  // torn write
  std::thread client([&] {
    ScopedFd fd = dial("127.0.0.1:" + std::to_string(server.port()));
    EXPECT_TRUE(send_all(fd.get(), payload.data(), payload.size()));
    // Abrupt close, not a polite half-close-and-drain.
  });

  jobs::StreamRecord record;
  ASSERT_TRUE(next_data(server, record));
  EXPECT_TRUE(record.ok);
  EXPECT_EQ(record.tag, 1u);
  ASSERT_TRUE(next_data(server, record));
  EXPECT_FALSE(record.ok);  // the torn tail
  EXPECT_EQ(record.tag, 1u);
  EXPECT_FALSE(record.error.empty());
  // next_data also swallows the quiet-period flush marker that may race
  // ahead of the accept thread's "no more sessions" flag.
  EXPECT_FALSE(next_data(server, record));
  client.join();
  server.finish();

  const auto sessions = server.session_counters();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].records, 1u);
  EXPECT_EQ(sessions[0].malformed, 1u);
}

TEST(SocketServer, SummaryCarriesShedAndDownshiftCounters) {
  // Drive the result-routing surface by hand: one record down-shifted then
  // served, one shed — the client's SUMMARY and the server tallies must
  // carry both counters, and unknown tags must be ignored.
  SocketServer server(loopback_config(1));
  server.start();
  ClientOutcome out;
  std::thread client([&] { out = run_client(server.port(), client_storm(5, 2)); });

  jobs::StreamRecord a, b;
  ASSERT_TRUE(next_data(server, a));
  ASSERT_TRUE(next_data(server, b));
  server.note_downshift(a.tag);
  server.note_downshift(999);  // unknown tag: ignored, like publish()
  server.note_downshift(0);    // tag 0 ("no session"): ignored
  server.publish(0, a.tag, true, 0.0, 0.0);
  server.publish_shed(1, b.tag, "shed index=1 class=default omega=2 budget=1");

  jobs::StreamRecord rest;
  EXPECT_FALSE(next_data(server, rest));
  client.join();
  server.finish();

  ASSERT_TRUE(out.summary_seen);
  EXPECT_EQ(out.summary.records, 2u);
  EXPECT_EQ(out.summary.results, 1u);
  EXPECT_EQ(out.summary.shed, 1u);
  EXPECT_EQ(out.summary.down_shifted, 1u);
  EXPECT_TRUE(out.rejected);  // the shed REJECT, with its certificate text
  EXPECT_EQ(out.reject_reason.rfind("shed ", 0), 0u) << out.reject_reason;

  const auto sessions = server.session_counters();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].shed, 1u);
  EXPECT_EQ(sessions[0].down_shifted, 1u);
  EXPECT_EQ(server.counters().shed, 1u);
  EXPECT_EQ(server.counters().down_shifted, 1u);
}

TEST(SocketServer, MultiClientStormRecordsAndReplaysBitExact) {
  // The tentpole contract end to end: N concurrent clients storm one serve
  // loop; every client gets exactly its results back; the recorded merged
  // session re-serves serially to the same rolling digest and counters.
  SocketServer server(loopback_config(3));
  server.start();

  engine::StreamConfig config;
  config.window = 8;
  config.max_inflight = 2;
  config.threads = 2;
  config.memo = true;
  config.memo_capacity = 32;

  std::ostringstream record_stream;
  traffic::StreamRecorder recorder(record_stream, config);
  engine::StreamConfig serve_config = recorder.instrument(config);
  SocketServer* raw_server = &server;
  auto prev = serve_config.on_served;
  serve_config.on_served = [raw_server, prev](std::size_t index, std::uint64_t tag,
                                              bool ok, double queue_seconds,
                                              double compute_seconds) {
    if (prev) prev(index, tag, ok, queue_seconds, compute_seconds);
    raw_server->publish(index, tag, ok, queue_seconds, compute_seconds);
  };

  constexpr std::size_t kPerClient = 100;
  std::vector<ClientOutcome> outcomes(3);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < 3; ++i)
    clients.emplace_back([&, i] {
      outcomes[i] = run_client(server.port(), client_storm(10 + i, kPerClient));
    });

  const engine::StreamResult live = engine::StreamSolver().run(server, serve_config);
  server.finish();
  for (auto& c : clients) c.join();
  recorder.finalize(live);

  EXPECT_EQ(live.instances, 3 * kPerClient);
  EXPECT_EQ(live.malformed, 0u);
  for (const ClientOutcome& c : outcomes) {
    EXPECT_FALSE(c.rejected);
    EXPECT_EQ(c.results, kPerClient);
    ASSERT_TRUE(c.summary_seen);
    EXPECT_EQ(c.summary.records, kPerClient);
    EXPECT_EQ(c.summary.results, kPerClient);
    // No admission policy configured: the policy counters must stay zero,
    // not pick up noise from the storm.
    EXPECT_EQ(c.summary.shed, 0u);
    EXPECT_EQ(c.summary.down_shifted, 0u);
  }
  const auto sessions = server.session_counters();
  ASSERT_EQ(sessions.size(), 3u);
  for (const SessionCounters& s : sessions) {
    EXPECT_EQ(s.records, kPerClient);
    EXPECT_EQ(s.results, kPerClient);
    EXPECT_EQ(s.shed, 0u);
    EXPECT_EQ(s.down_shifted, 0u);
    EXPECT_FALSE(s.write_failed);
  }
  EXPECT_EQ(server.counters().shed, 0u);
  EXPECT_EQ(server.counters().down_shifted, 0u);

  // The merged arrival order was decided by real socket interleaving — but
  // the record file pins it, so a serial replay must reproduce the session
  // bit for bit: rolling digest and every deterministic counter.
  std::istringstream record_in(record_stream.str());
  const traffic::ReplayFile file = traffic::load_record(record_in);
  EXPECT_EQ(file.rolling_digest, live.rolling_digest);
  const traffic::ReplayReport report = traffic::replay(file, /*threads=*/1);
  EXPECT_TRUE(report.ok) << (report.mismatches.empty() ? ""
                                                       : report.mismatches.front());
  EXPECT_EQ(report.result.rolling_digest, live.rolling_digest);
}

TEST(SocketServer, EndlessListenerClientCompletesWithoutServerDrain) {
  // The regression behind flush markers + per-session completion: against a
  // listener with no session bound, a lone client must get every RESULT,
  // its SUMMARY, and the close while the server keeps listening. Without
  // the flush cut its tail records (30 mod the window) sit in the reorder
  // buffer waiting for traffic that never comes; without per-session
  // completion the SUMMARY waits for a finish() that an endless server
  // never reaches. Either bug hangs this test.
  SocketServer server(loopback_config(/*expected_sessions=*/0));
  server.start();

  engine::StreamConfig config;
  config.window = 8;  // 30 records: a 6-record tail only a flush cut serves
  config.max_inflight = 2;
  config.threads = 2;
  SocketServer* raw_server = &server;
  config.on_served = [raw_server](std::size_t index, std::uint64_t tag, bool ok,
                                  double queue_seconds, double compute_seconds) {
    raw_server->publish(index, tag, ok, queue_seconds, compute_seconds);
  };
  std::thread serve([&] { engine::StreamSolver().run(server, config); });

  // run_client returning AT ALL is the contract: the listener is still
  // open (shutdown() hasn't been called) when the SUMMARY and close land.
  const ClientOutcome first = run_client(server.port(), client_storm(21, 30));
  EXPECT_EQ(first.session, 1u);
  EXPECT_EQ(first.results, 30u);
  ASSERT_TRUE(first.summary_seen);
  EXPECT_EQ(first.summary.records, 30u);
  EXPECT_EQ(first.summary.results, 30u);

  // The same still-open listener serves a second, later client.
  const ClientOutcome second = run_client(server.port(), client_storm(22, 20));
  EXPECT_EQ(second.session, 2u);
  EXPECT_EQ(second.results, 20u);
  EXPECT_TRUE(second.summary_seen);

  server.shutdown();
  serve.join();
  server.finish();
  EXPECT_EQ(server.counters().accepted, 2u);
  const auto sessions = server.session_counters();
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_FALSE(sessions[0].write_failed);
  EXPECT_FALSE(sessions[1].write_failed);
}

TEST(SocketServer, IdleClientDoesNotStallAnotherSession) {
  // A connected client that never sends keeps its session active, so the
  // all-drained flush marker cannot fire while it stays. The idle-queue
  // marker must still cut the window: a second client's record is answered
  // while the silent client remains connected.
  SocketServer server(loopback_config(/*expected_sessions=*/0));
  server.start();

  engine::StreamConfig config;
  config.algorithm = "lt-2approx";
  config.threads = 1;
  SocketServer* raw_server = &server;
  config.on_served = [raw_server](std::size_t index, std::uint64_t tag, bool ok,
                                  double queue_seconds, double compute_seconds) {
    raw_server->publish(index, tag, ok, queue_seconds, compute_seconds);
  };
  std::thread serve([&] { engine::StreamSolver().run(server, config); });

  ScopedFd idle = dial("127.0.0.1:" + std::to_string(server.port()));
  EXPECT_EQ(await_welcome(idle.get()), 1u);  // admitted before the other dials

  auto answered = std::async(std::launch::async, [&] {
    return run_client(server.port(), client_storm(23, 1));
  });
  // Loose enough for the sanitizer legs; a stalled record waits forever.
  const bool in_time =
      answered.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  ::shutdown(idle.get(), SHUT_WR);  // ends the idle session, so a stall drains
  const ClientOutcome outcome = answered.get();
  EXPECT_TRUE(in_time) << "the record waited for the idle client";
  EXPECT_EQ(outcome.session, 2u);
  EXPECT_EQ(outcome.results, 1u);
  EXPECT_TRUE(outcome.summary_seen);

  server.shutdown();
  serve.join();
  server.finish();
}

}  // namespace
}  // namespace moldable::net
