// batch_service: throughput-oriented driver over the engine layer.
//
// Batch mode solves a synthetic batch (round-robin over the generator
// families) or a directory of instance files (jobs/io.hpp format; malformed
// files are skipped with a diagnostic). Serve mode streams records from
// stdin, from socket clients (src/net/socket_server.hpp) or from a watched
// directory (src/net/watch_dir.hpp) through engine::StreamSolver, with
// optional record/replay (src/traffic/replay.hpp); the solve pipeline is
// identical over every source. Every solve runs through
// engine::PortfolioSolver, and a single solver is the one-variant portfolio.
//
// The result digest is a pure function of the input and the solver config,
// whatever the thread count. The verify mode re-solves on 1 thread without
// the memo, in process, and fails loudly when the digests diverge, so it
// also catches a memo that served the wrong outcome.
//
// Every flag is one row of make_flags(): the parser, --help and the
// "only affects <mode> mode" warnings all derive from it, and
// docs/OPERATIONS.md is the operator's reference. Exit codes: 0 all solved,
// 1 a failed instance or a determinism violation, 2 a usage or
// configuration error.
#include <sys/socket.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/engine/portfolio.hpp"
#include "src/engine/stream_solver.hpp"
#include "src/jobs/generators.hpp"
#include "src/jobs/io.hpp"
#include "src/net/socket_server.hpp"
#include "src/net/watch_dir.hpp"
#include "src/traffic/replay.hpp"
#include "src/util/cli.hpp"
#include "src/util/common.hpp"
#include "src/util/table.hpp"

namespace {

namespace cli = moldable::util::cli;

using moldable::engine::AlgorithmRegistry;
using moldable::engine::PortfolioConfig;
using moldable::engine::PortfolioResult;
using moldable::engine::PortfolioSolver;
using moldable::engine::StreamConfig;
using moldable::engine::StreamResult;
using moldable::engine::StreamSolver;
using moldable::engine::TieBreak;

// Every solver and serve knob lives in `config`; batch mode reads the solver
// ones through StreamConfig::portfolio().
struct Options {
  StreamConfig config;
  moldable::net::SocketServerConfig listen;
  moldable::net::WatchDirConfig watch;
  std::size_t instances = 100;
  std::size_t jobs = 64;
  moldable::procs_t machines = 1024;
  std::uint64_t seed = 42;
  std::string input;   // directory of instance files; empty = synthetic
  std::string record;  // serve: write a replayable session record
  std::string replay;  // re-serve a recorded session and check it
  bool serve = false;  // stream records from stdin (--listen/--watch imply it)
  bool csv = false;
  bool verify = false;
};

// The modes a flag can be scoped to: its --help prefix, and the warning a
// flag given outside its mode prints.
constexpr char kSynthetic[] = "synthetic";
constexpr char kServe[] = "serve";
constexpr char kListen[] = "listen";
constexpr char kWatch[] = "watch";
constexpr char kPortfolio[] = "portfolio";
constexpr char kSingleSolver[] = "single-solver";

cli::FlagTable make_flags(Options& opt) {
  StreamConfig& c = opt.config;
  std::string known;
  for (const auto& n : AlgorithmRegistry::global().names()) known += ' ' + n;
  return cli::FlagTable("[options]", {
      {"--instances", "N", "batch size (default 100)", kSynthetic, cli::count(opt.instances)},
      {"--jobs", "N", "jobs per instance (default 64)", kSynthetic, cli::count(opt.jobs)},
      {"--machines", "M", "machine count (default 1024)", kSynthetic, cli::count(opt.machines)},
      {"--input", "DIR", "solve the instance files in DIR (bad files skipped)", "",
       cli::text(opt.input)},
      {"--serve", "", "serve io-format records from stdin until EOF", "", cli::on(opt.serve)},
      {"--listen", "ADDR",
       "serve socket clients instead of stdin (HOST:PORT, :PORT,\n"
       "PORT or unix:PATH; TCP port 0 = kernel-chosen)",
       "", cli::text(opt.listen.address)},
      {"--listen-sessions", "N", "drain after N sessions (0 = never, the default)", kListen,
       cli::count(opt.listen.expected_sessions)},
      {"--max-sessions", "N", "cap on concurrent sessions (default 64)", kListen,
       cli::count(opt.listen.max_sessions)},
      {"--port-file", "F", "write the bound TCP port to F (atomic rename)", kListen,
       cli::text(opt.listen.port_file)},
      {"--watch", "DIR", "serve instance files renamed into DIR", "", cli::text(opt.watch.dir)},
      {"--watch-ledger", "F", "ledger path (default DIR/.moldable-served)", kWatch,
       cli::text(opt.watch.ledger)},
      {"--watch-poll-ms", "N", "rescan period while idle (default 200)", kWatch,
       cli::count(opt.watch.poll_ms)},
      {"--watch-idle-exit", "K", "exit after K empty scans (0 = never, the default)", kWatch,
       cli::count(opt.watch.idle_exit_scans)},
      {"--record", "FILE", "capture the session as a replayable record file", kServe,
       cli::text(opt.record)},
      {"--replay", "FILE",
       "re-serve a recorded session and check its digest and\n"
       "counters (honours --threads; the rest comes from the record)",
       "", cli::text(opt.replay)},
      {"--window", "N", "instances per micro-batch (default 16)", kServe, cli::count(c.window)},
      {"--max-inflight", "K", "reorder horizon in windows (default 4)", kServe,
       cli::count(c.max_inflight)},
      {"--algorithm", "A", "registry solver name (default auto); known:" + known,
       kSingleSolver, cli::text(c.algorithm)},
      {"--portfolio", "A,B", "race the named variants, keep the best valid schedule", "",
       [&c](const std::string& v) {
         c.variants = moldable::engine::parse_portfolio_spec(cli::parse_text(v));
       }},
      {"--race", "",
       "run each instance's variants concurrently with\n"
       "early-cancel (wall-clock only: digests unchanged)",
       kPortfolio, cli::on(c.race)},
      {"--race-width", "W",
       "lanes per raced instance (implies --race;\n"
       "0 = one per variant, the default)",
       kPortfolio,
       [&c](const std::string& v) {
         c.race_width = cli::parse_count<unsigned>(v);
         c.race = true;  // a width without racing would be inert
       }},
      {"--tie-break", "M",
       "winner under exact ties: wall (fastest, default)\n"
       "or order (first in portfolio order)",
       kPortfolio,
       [&c](const std::string& v) {
         if (v == "wall") c.tie_break = TieBreak::kWallTime;
         else if (v == "order") c.tie_break = TieBreak::kPortfolioOrder;
         else throw cli::BadValue("must be 'wall' or 'order'");
       }},
      {"--memo", "", "reuse outcomes of duplicate instances", "", cli::on(c.memo)},
      {"--memo-capacity", "N",
       "LRU bound on the memo store (implies --memo;\n"
       "0 = unbounded, the default)",
       "",
       [&c](const std::string& v) {
         c.memo_capacity = cli::parse_count<std::size_t>(v);
         c.memo = true;  // a capacity without memoization would be inert
       }},
      {"--window-history", "K", "keep only the last K windows' stats (0 = all)", kServe,
       cli::count(c.window_history)},
      {"--deadline", "C=S",
       "relative deadline of S seconds for SLA class C\n"
       "(repeatable; C 'default' = unlabelled)",
       kServe,
       [&c](const std::string& spec) {
         const std::size_t eq = spec.find('=');
         if (eq == 0 || eq == std::string::npos || eq + 1 == spec.size())
           throw cli::BadValue("needs CLASS=SECONDS");
         // A NaN deadline would make every lateness comparison silently
         // false, and an infinite or negative one is operator error.
         const double seconds = cli::parse_real(spec.substr(eq + 1));
         if (!std::isfinite(seconds) || seconds < 0)
           throw cli::BadValue("SECONDS must be finite and non-negative");
         c.class_deadlines[spec.substr(0, eq)] = seconds;
       }},
      {"--raw-samples", "", "exact per-class percentiles instead of sketches", kServe,
       cli::on(c.raw_samples)},
      {"--shed", "",
       "refuse instances whose certified lower bound\n"
       "misses their class deadline (needs --deadline)",
       kServe, cli::on(c.shed)},
      {"--adapt", "",
       "reorder portfolio races from learned per-class\n"
       "priors (needs --portfolio; digests unchanged)",
       kServe, cli::on(c.adapt)},
      {"--eps", "E", "approximation parameter in (0,1] (default 0.1)", "", cli::real(c.eps)},
      {"--threads", "T", "worker threads, 0 = hardware (default 0)", "", cli::count(c.threads)},
      {"--seed", "S", "base RNG seed (default 42)", kSynthetic, cli::count(opt.seed)},
      {"--csv", "", "emit the stats table as CSV", "", cli::on(opt.csv)},
      {"--verify", "", "re-solve on 1 thread without the memo and compare digests", "",
       cli::on(opt.verify)},
  });
}

std::vector<moldable::jobs::Instance> make_synthetic_batch(const Options& opt) {
  // Round-robin over the closed-form families; kTable is skipped when the
  // machine count exceeds its explicit-table cap.
  std::vector<moldable::jobs::Family> families;
  for (moldable::jobs::Family f : moldable::jobs::all_families()) {
    if (f == moldable::jobs::Family::kTable && opt.machines > 8192) continue;
    families.push_back(f);
  }
  std::vector<moldable::jobs::Instance> batch;
  batch.reserve(opt.instances);
  for (std::size_t i = 0; i < opt.instances; ++i) {
    const auto family = families[i % families.size()];
    batch.push_back(moldable::jobs::make_instance(
        family, opt.jobs, opt.machines, moldable::jobs::derive_seed(opt.seed, i)));
  }
  return batch;
}

std::vector<moldable::jobs::Instance> load_input_batch(const std::string& dir) {
  const moldable::jobs::DirectoryLoad load = moldable::jobs::load_instances_from_dir(dir);
  for (const auto& f : load.files)
    if (!f.ok) std::cerr << "skipping " << f.path << ": " << f.error << "\n";
  std::cerr << "input: " << load.loaded << " instance(s) loaded, " << load.skipped
            << " file(s) skipped from " << dir << "\n";
  if (load.instances.empty())
    throw std::runtime_error("no loadable instance files in " + dir);
  return load.instances;
}

// SIGINT/SIGTERM under --listen means "drain, don't die": the handler may
// only touch async-signal-safe state, so it shuts down the raw listening fd
// (a lock-free exchange + one syscall). The accept loop exits, sessions
// already connected drain normally, and the run finishes through the
// ordinary report/record path.
std::atomic<int> g_listen_fd{-1};

extern "C" void handle_drain_signal(int) {
  const int fd = g_listen_fd.exchange(-1);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void print_memo_line(std::size_t hits, std::size_t misses, std::size_t evictions,
                     std::size_t capacity) {
  std::cout << "memo: " << hits << " hit(s), " << misses << " miss(es), " << evictions
            << " eviction(s)";
  if (capacity != 0) std::cout << " (LRU capacity " << capacity << ")";
  std::cout << "\n";
}

int run_batch(const Options& opt, const std::vector<moldable::jobs::Instance>& batch) {
  const StreamConfig& c = opt.config;
  const PortfolioConfig config = c.portfolio();
  const PortfolioSolver solver;
  moldable::engine::exec::MemoStore<moldable::engine::PortfolioOutcome> memo(
      c.memo_capacity);
  const PortfolioResult result = solver.solve(batch, config, c.memo ? &memo : nullptr);

  // `cancelled` keeps race-mode reports honest: attempts killed by the
  // early-cancel rule are neither losses nor failures and must not be
  // silently folded into either. Ratios are each variant's own
  // (makespan / its certified bound); gaps measure it against the winner.
  moldable::util::Table table({"variant", "wins", "solved", "failed", "cancelled",
                               "ratio-mean", "ratio-p50", "ratio-p90", "ratio-p99",
                               "ratio-max", "gap-mean", "gap-max", "compute-p50-ms",
                               "compute-p90-ms", "compute-p99-ms", "compute-total-s"});
  for (const auto& s : result.per_variant) {
    table.add_row({s.algorithm, std::to_string(s.wins), std::to_string(s.solved),
                   std::to_string(s.failed), std::to_string(s.cancelled),
                   moldable::util::fmt(s.ratio_mean), moldable::util::fmt(s.ratio_p50),
                   moldable::util::fmt(s.ratio_p90), moldable::util::fmt(s.ratio_p99),
                   moldable::util::fmt(s.ratio_max), moldable::util::fmt(s.gap_mean),
                   moldable::util::fmt(s.gap_max), moldable::util::fmt(s.wall_p50 * 1e3),
                   moldable::util::fmt(s.wall_p90 * 1e3),
                   moldable::util::fmt(s.wall_p99 * 1e3),
                   moldable::util::fmt(s.wall_total, 3)});
  }
  if (opt.csv)
    table.print_csv(std::cout);
  else
    table.print(std::cout);

  // Prose trailers, like the batch/digest lines below: CSV consumers already
  // have to stop at the first non-CSV line, and dropping these in --csv mode
  // would lose data the flag exists to export.
  for (const auto& s : result.per_variant) {
    if (s.resolved.empty()) continue;
    std::cout << "resolved: " << s.algorithm << " ->";
    for (const auto& [name, count] : s.resolved) std::cout << ' ' << name << '=' << count;
    std::cout << "\n";
  }
  std::cout << "queue: p50 " << moldable::util::fmt(result.queue_p50 * 1e3)
            << " ms, p99 " << moldable::util::fmt(result.queue_p99 * 1e3)
            << " ms, max " << moldable::util::fmt(result.queue_max * 1e3)
            << " ms (shard pickup, shared by all variants of an instance)\n";
  if (c.race)
    std::cout << "race: " << result.cancelled_attempts
              << " cancelled attempt(s) (early-cancel; deterministic)\n";
  if (c.memo)
    print_memo_line(result.memo_hits, result.memo_misses, memo.evictions(),
                    c.memo_capacity);
  std::cout << "batch: " << result.solved << " solved, " << result.failed << " failed in "
            << moldable::util::fmt(result.wall_seconds, 3) << " s ("
            << (c.threads == 0 ? std::string("hw") : std::to_string(c.threads))
            << " threads)\ndigest: " << moldable::fmt_digest(result.digest()) << "\n";
  for (const auto& o : result.outcomes) {
    if (o.ok) continue;
    std::cerr << "  instance " << o.index << " failed on every variant:\n";
    for (const auto& a : o.attempts)
      std::cerr << "    " << a.algorithm << ": " << a.error << "\n";
  }

  if (opt.verify) {
    // The reference re-solves on 1 thread WITHOUT the memo: an empty-store
    // re-solve also re-checks that the memo served the right outcomes.
    PortfolioConfig reference = config;
    reference.threads = 1;
    if (solver.solve(batch, reference).digest() != result.digest()) {
      std::cerr << "DETERMINISM VIOLATION: threads=" << c.threads
                << " digest differs from threads=1\n";
      return 1;
    }
    std::cout << "determinism: OK (digest matches single-threaded reference)\n";
  }
  return result.failed == 0 ? 0 : 1;
}

int run_serve(const Options& opt) {
  const StreamConfig& config = opt.config;
  const StreamSolver solver;

  const auto on_window = [&](const moldable::engine::WindowStats& w) {
    std::cout << "window " << w.index << ": " << w.instances << " inst, " << w.solved
              << " solved, " << w.failed << " failed in "
              << moldable::util::fmt(w.wall_seconds * 1e3) << " ms";
    if (config.memo) {
      std::cout << ", memo " << w.memo_hits << "/" << w.memo_misses;
      if (w.memo_evictions != 0) std::cout << " (-" << w.memo_evictions << ")";
    }
    if (!config.class_deadlines.empty()) std::cout << ", " << w.deadline_misses << " late";
    if (config.shed && w.downshifted != 0)
      std::cout << ", " << w.downshifted << " down-shifted";
    std::cout << ", rolling digest " << moldable::fmt_digest(w.rolling_digest)
              << "\n";
  };
  const auto on_error = [](const moldable::engine::StreamError& e) {
    std::cerr << "skipping malformed record " << e.ordinal;
    if (e.tag != 0) std::cerr << " from session " << e.tag;
    std::cerr << " (stream line " << e.line << "): " << e.message << "\n";
  };

  // Ingestion source: a socket listener, a watched directory, or stdin — the
  // serve loop itself is identical over all three (that is the point of
  // engine::InstanceSource).
  std::unique_ptr<moldable::net::SocketServer> server;
  std::unique_ptr<moldable::net::WatchDirSource> watcher;
  std::unique_ptr<moldable::engine::IstreamSource> stdin_source;
  moldable::engine::InstanceSource* source = nullptr;
  if (!opt.listen.address.empty()) {
    server = std::make_unique<moldable::net::SocketServer>(opt.listen);
    server->start();
    source = server.get();
    g_listen_fd.store(server->listen_socket_fd());
    std::signal(SIGINT, handle_drain_signal);
    std::signal(SIGTERM, handle_drain_signal);
    std::cout << "listening on " << server->endpoint();
    if (opt.listen.expected_sessions != 0)
      std::cout << " (draining after " << opt.listen.expected_sessions << " session(s))";
    std::cout << "\n" << std::flush;  // scripts poll for this line / the port file
  } else if (!opt.watch.dir.empty()) {
    watcher = std::make_unique<moldable::net::WatchDirSource>(opt.watch);
    source = watcher.get();
    std::cout << "watching " << opt.watch.dir << "\n" << std::flush;
  } else {
    stdin_source = std::make_unique<moldable::engine::IstreamSource>(std::cin);
    source = stdin_source.get();
  }

  // --record captures the session as served: the configured (instrumented)
  // run is the one recorded; the --verify reference run below deliberately
  // serves un-instrumented so the record holds exactly one session.
  std::ofstream record_file;
  std::unique_ptr<moldable::traffic::StreamRecorder> recorder;
  StreamConfig serve_config = config;
  if (!opt.record.empty()) {
    record_file.open(opt.record, std::ios::trunc);
    if (!record_file)
      throw std::runtime_error("cannot open --record file " + opt.record);
    recorder = std::make_unique<moldable::traffic::StreamRecorder>(record_file, config);
    serve_config = recorder->instrument(config);
  }
  if (server) {
    // Chain result routing behind whatever on_served is already installed
    // (the recorder's latency capture): each outcome goes back to its
    // originating session as a framed (session, index) message.
    moldable::net::SocketServer* raw_server = server.get();
    auto prev = serve_config.on_served;
    serve_config.on_served = [raw_server, prev](std::size_t index, std::uint64_t tag,
                                                bool ok, double queue_seconds,
                                                double compute_seconds) {
      if (prev) prev(index, tag, ok, queue_seconds, compute_seconds);
      raw_server->publish(index, tag, ok, queue_seconds, compute_seconds);
    };
    // Shed records route back the same way, as per-record REJECT frames with
    // the certificate spelled out in the reason text (framing.hpp grammar).
    auto prev_shed = serve_config.on_shed;
    serve_config.on_shed = [raw_server, prev_shed](
                               std::size_t index, std::uint64_t tag,
                               const moldable::engine::ShedOutcome& shed) {
      if (prev_shed) prev_shed(index, tag, shed);
      const std::string reason =
          "shed index=" + std::to_string(index) + " class=" +
          (shed.sla_class.empty() ? std::string("default") : shed.sla_class) +
          " omega=" + moldable::util::fmt(shed.omega) +
          " budget=" + moldable::util::fmt(shed.budget);
      raw_server->publish_shed(index, tag, reason);
    };
    // Down-shifts send no frame of their own (the record's RESULT still
    // follows), but the per-session tally feeds the SUMMARY counters.
    auto prev_down = serve_config.on_downshift;
    serve_config.on_downshift = [raw_server, prev_down](std::uint64_t tag) {
      if (prev_down) prev_down(tag);
      raw_server->note_downshift(tag);
    };
  }

  StreamResult result;
  if (opt.verify) {
    // stdin cannot rewind, so --verify buffers the whole stream and serves
    // it twice in-process: once as configured, once on 1 thread without the
    // memo — so a memo that served the wrong outcome diverges here too.
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    const std::string text = buffer.str();
    std::istringstream first(text);
    result = solver.run(first, serve_config, on_window, on_error);
    StreamConfig reference = config;
    reference.threads = 1;
    reference.memo = false;
    std::istringstream second(text);
    const StreamResult re = solver.run(second, reference);
    if (re.rolling_digest != result.rolling_digest) {
      std::cerr << "DETERMINISM VIOLATION: threads="
                << (config.threads == 0 ? std::string("hw") : std::to_string(config.threads))
                << " rolling digest differs from the memo-free threads=1 reference\n";
      return 1;
    }
    std::cout << "determinism: OK (rolling digest matches the memo-free single-threaded "
                 "reference)\n";
  } else {
    result = solver.run(*source, serve_config, on_window, on_error);
  }
  if (server) {
    // The serve loop drained (every session at EOF): flush each session's
    // SUMMARY frame, close the connections, and report the tallies. Disarm
    // the drain handler first — finish() closes the fd, and a late signal
    // must not shutdown() whatever the kernel reuses that number for.
    g_listen_fd.store(-1);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    server->finish();
    for (const auto& s : server->session_counters()) {
      std::cout << "session " << s.id << ": " << s.records << " record(s), "
                << s.malformed << " malformed, " << s.results << " result(s) ("
                << s.solved << " solved, " << s.failed << " failed)";
      if (s.shed != 0) std::cout << ", " << s.shed << " shed";
      if (s.down_shifted != 0) std::cout << ", " << s.down_shifted << " down-shifted";
      std::cout << (s.write_failed ? " [client vanished]" : "") << "\n";
    }
    const moldable::net::ServerCounters totals = server->counters();
    std::cout << "sessions: " << totals.accepted << " completed, " << totals.rejected
              << " rejected (cap " << opt.listen.max_sessions << ")";
    if (totals.shed != 0) std::cout << ", " << totals.shed << " record(s) shed";
    if (totals.down_shifted != 0)
      std::cout << ", " << totals.down_shifted << " down-shifted";
    std::cout << "\n";
  }
  if (watcher)
    std::cout << "watch: " << watcher->files_served() << " file(s) served over "
              << watcher->rescans() << " rescan(s)\n";
  if (recorder) {
    recorder->finalize(result);
    record_file.close();
    std::cout << "record: session captured to " << opt.record << "\n";
  }

  for (const auto& line : result.preamble) std::cout << "source: " << line << "\n";
  std::cout << "stream: " << result.windows << " window(s), " << result.instances
            << " instance(s) (" << result.solved << " solved, " << result.failed
            << " failed, " << result.malformed << " malformed) in "
            << moldable::util::fmt(result.wall_seconds, 3) << " s ("
            << (config.threads == 0 ? std::string("hw") : std::to_string(config.threads))
            << " threads)\n";
  if (config.race)
    std::cout << "race: " << result.cancelled_attempts
              << " cancelled attempt(s) (early-cancel; deterministic)\n";
  if (config.memo)
    print_memo_line(result.memo_hits, result.memo_misses, result.memo_evictions,
                    config.memo_capacity);
  if (!config.class_deadlines.empty())
    std::cout << "deadlines: " << result.deadline_misses
              << " miss(es) across all deadline classes\n";
  if (config.shed || config.adapt) {
    // Both counters are digest-covered determinism obligations — identical
    // at any --threads, re-derived bit-exact on replay.
    std::cout << "policy: " << result.shed
              << " shed (certificate-backed), " << result.downshifted
              << " down-shifted\n";
    for (const auto& p : result.priors) {
      std::cout << "priors: "
                << (p.sla_class.empty() ? std::string("default") : p.sla_class)
                << ":";
      for (const auto& [variant, score] : p.ranked)
        std::cout << ' ' << config.variants[variant] << '='
                  << moldable::util::fmt(score);
      std::cout << "\n";
    }
  }

  if (!result.per_class.empty()) {
    moldable::util::Table table({"class", "count", "solved", "failed", "shed",
                                 "deadline-ms", "misses", "queue-p50-ms",
                                 "queue-p99-ms", "compute-p50-ms", "compute-p90-ms",
                                 "compute-p99-ms", "compute-max-ms"});
    for (const auto& c : result.per_class) {
      table.add_row({c.sla_class, std::to_string(c.count), std::to_string(c.solved),
                     std::to_string(c.failed), std::to_string(c.shed),
                     c.deadline_seconds > 0
                         ? moldable::util::fmt(c.deadline_seconds * 1e3)
                         : std::string("-"),
                     std::to_string(c.deadline_misses),
                     moldable::util::fmt(c.queue.p50 * 1e3),
                     moldable::util::fmt(c.queue.p99 * 1e3),
                     moldable::util::fmt(c.compute.p50 * 1e3),
                     moldable::util::fmt(c.compute.p90 * 1e3),
                     moldable::util::fmt(c.compute.p99 * 1e3),
                     moldable::util::fmt(c.compute.max * 1e3)});
    }
    if (opt.csv)
      table.print_csv(std::cout);
    else
      table.print(std::cout);
  }
  std::cout << "rolling digest: " << moldable::fmt_digest(result.rolling_digest) << "\n";
  return result.failed == 0 ? 0 : 1;
}

int run_replay(const Options& opt) {
  const unsigned threads = opt.config.threads;
  const moldable::traffic::ReplayFile file =
      moldable::traffic::load_record_file(opt.replay);
  std::cout << "replaying " << opt.replay << ": " << file.counters.instances
            << " instance(s), recorded digest "
            << moldable::fmt_digest(file.rolling_digest)
            << " (" << (threads == 0 ? std::string("hw") : std::to_string(threads))
            << " threads)\n";
  for (const auto& line : file.source_preamble) std::cout << "source: " << line << "\n";

  const moldable::traffic::ReplayReport report =
      moldable::traffic::replay(file, threads);
  if (!report.ok) {
    std::cerr << "REPLAY DIVERGENCE: " << report.mismatches.size()
              << " mismatch(es) against the recording:\n";
    for (const auto& m : report.mismatches) std::cerr << "  " << m << "\n";
    return 1;
  }
  const moldable::engine::StreamResult& r = report.result;
  std::cout << "replay: OK — rolling digest " << moldable::fmt_digest(r.rolling_digest)
            << " and all counters match the recording\n"
            << "replay: " << r.instances << " instance(s) (" << r.solved << " solved, "
            << r.failed << " failed), memo " << r.memo_hits << "/" << r.memo_misses
            << " (-" << r.memo_evictions << "), " << r.cancelled_attempts
            << " cancelled, " << r.deadline_misses << " deadline miss(es)\n";
  if (r.shed != 0 || r.downshifted != 0)
    std::cout << "replay: policy re-derived " << r.shed << " shed, " << r.downshifted
              << " down-shifted (matches the recording)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options opt;
    cli::FlagTable flags = make_flags(opt);
    flags.parse(argc, argv);
    const bool listen = !opt.listen.address.empty();
    const bool watch = !opt.watch.dir.empty();
    const bool portfolio = !opt.config.variants.empty();
    if (opt.config.race && !portfolio) {
      std::cerr << "--race needs a --portfolio to race (a single solver has "
                   "no peers to cancel)\n";
      return 2;
    }
    if (listen && watch) {
      std::cerr << "--listen and --watch are both ingestion sources; pick one\n";
      return 2;
    }
    if ((listen || watch) && opt.verify) {
      std::cerr << "--verify buffers stdin to serve it twice; a socket or "
                   "watched-dir stream cannot rewind. Use --record and replay "
                   "the session instead\n";
      return 2;
    }
    if ((listen || watch) && !opt.input.empty()) {
      std::cerr << "--listen/--watch are serve-mode sources; they cannot be "
                   "combined with --input\n";
      return 2;
    }
    opt.serve = opt.serve || listen || watch;
    if (!opt.replay.empty()) {
      if (opt.serve || !opt.input.empty() || !opt.record.empty()) {
        std::cerr << "--replay re-serves a recorded session; it cannot be "
                     "combined with --serve, --listen, --watch, --input, or "
                     "--record\n";
        return 2;
      }
      if (flags.given_count() > (flags.given("--threads") ? 2u : 1u))
        std::cerr << "warning: --replay takes every serve flag from the record "
                     "file; only --threads applies\n";
      return run_replay(opt);
    }
    if (!opt.record.empty() && !opt.serve) {
      std::cerr << "--record captures a serve session; it requires --serve\n";
      return 2;
    }
    if (opt.serve && !opt.input.empty()) {
      std::cerr << "--serve reads records from stdin; it cannot be combined with "
                   "--input (pipe the files in instead: cat DIR/* | ... --serve)\n";
      return 2;
    }
    if (opt.serve && opt.config.shed && opt.config.class_deadlines.empty()) {
      std::cerr << "--shed needs at least one --deadline class (shedding is "
                   "certified against the class deadline budget)\n";
      return 2;
    }
    if (opt.serve && opt.config.adapt && !portfolio) {
      std::cerr << "--adapt learns per-class variant priors; it needs a "
                   "--portfolio to reorder\n";
      return 2;
    }
    flags.warn_inactive({{kSynthetic, !opt.serve && opt.input.empty()},
                         {kServe, opt.serve},
                         {kListen, listen},
                         {kWatch, watch},
                         {kPortfolio, portfolio},
                         {kSingleSolver, !portfolio}});
    if (opt.serve) return run_serve(opt);
    const std::vector<moldable::jobs::Instance> batch =
        opt.input.empty() ? make_synthetic_batch(opt) : load_input_batch(opt.input);
    return run_batch(opt, batch);
  } catch (const std::exception& e) {
    std::cerr << "batch_service: " << e.what() << "\n";
    return 2;
  }
}
