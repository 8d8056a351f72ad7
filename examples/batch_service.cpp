// batch_service: throughput-oriented driver over the engine layer.
//
// Three batch sources:
//   * synthetic (default): round-robin over the generator families;
//   * --input dir/        : replay real instance files (jobs/io.hpp format);
//                           malformed files are skipped with a diagnostic;
//   * --serve             : serve a continuous record stream from stdin
//                           through engine::StreamSolver — arrival-ordered
//                           micro-batches (--window/--max-inflight), live
//                           per-window stats, a rolling digest, per-SLA-
//                           class latency splits, clean drain at EOF.
//
// Serve mode also runs over network-native sources (engine::InstanceSource
// implementations from src/net): --listen ADDR multiplexes concurrent socket
// clients into one merged stream (framed per-session results, admission cap,
// per-session counters; see src/net/socket_server.hpp), and --watch DIR
// serves instance files dropped into a directory under a served-file ledger
// (see src/net/watch_dir.hpp). The solve pipeline — windowing, memo, racing,
// record/replay — is identical over stdin, socket, and watch-dir input.
//
// One solver front-end, engine::PortfolioSolver, in batch and serve mode:
//   * portfolio     (--portfolio a,b,c) races every named variant per
//     instance and keeps the best valid schedule (per-variant win counts and
//     quality gaps in the stats; --tie-break order makes the win table
//     reproducible under exact ties);
//   * single solver (--algorithm A, default auto) is the one-variant
//     portfolio {A}: `--algorithm A` and `--portfolio A` print one digest.
//
// --race (portfolio only) overlaps each instance's variants on a nested
// worker pool (--race-width lanes) with cooperative early-cancel: a variant
// completing at the instance's certified lower bound cancels its slower
// peers, cutting the heavy tail without changing a single output byte —
// the digest is bitwise identical to sequential portfolio mode.
//
// --memo turns on the execution core's digest-keyed memoization: duplicate
// instances (within a batch, or across serve windows) reuse the prior
// outcome, with hit/miss counts reported. Digests are unchanged by design.
// --memo-capacity N bounds the store under deterministic LRU eviction, and
// --window-history K caps the retained per-window stats — together they make
// an endless --serve session run in bounded memory (per-class latency
// percentiles are streaming sketches unless --raw-samples lifts the bound).
// --deadline CLASS=SECONDS gives an SLA class a relative deadline: its
// instances jump the reorder buffer, and late completions are counted per
// class, per window, and stream-wide.
//
// --shed closes the control loop on those deadlines: at admission, each
// deadline-class instance's certified lower bound (the Ludwig–Tiwari
// estimator of src/core) is compared against its deadline budget, and an
// instance that provably cannot finish in time is refused with a
// certificate-backed shed outcome — counted per class and stream-wide,
// surfaced to socket clients as a per-record "shed ..." REJECT frame, and
// mixed into the rolling digest (the shed set is part of the determinism
// contract and must replay bit-exact). Admitted-but-late instances race
// only the historically cheapest variant (down-shift). --adapt reorders
// each portfolio race from a per-SLA-class prior table learned from
// win/cancel tallies in the serial finalize pass — wall-clock only; the
// winner and the digest are unchanged by construction.
//
// Latency columns split per-instance time into queue (batch submission ->
// shard pickup, steady clock) and compute (pure solve) so percentiles stay
// meaningful when worker threads oversubscribe the machine.
//
// The result digest is a pure function of the input and the solver config:
//
//   ./batch_service --instances 100 --threads 1
//   ./batch_service --instances 100 --threads 8
//
// must print the same digest — and the serve-mode rolling digest obeys the
// same contract for a fixed input stream and window size. `--verify`
// re-solves on 1 thread without the memo, in-process (buffering stdin first
// in serve mode), and fails loudly when the digests diverge — so it also
// catches a memo that served the wrong outcome.
//
// --record FILE (serve mode) captures the session as a replayable record:
// the exact served stream plus the serve config, per-instance latencies,
// the rolling digest, and every deterministic counter. --replay FILE
// re-serves a recorded session (at any --threads — the determinism
// contract says the count must not matter) and fails loudly if the digest
// or any counter diverges from the recording.
#include <sys/socket.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
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
#include "src/util/table.hpp"

namespace {

using moldable::engine::AlgorithmRegistry;
using moldable::engine::PortfolioConfig;
using moldable::engine::PortfolioResult;
using moldable::engine::PortfolioSolver;
using moldable::engine::StreamConfig;
using moldable::engine::StreamResult;
using moldable::engine::StreamSolver;
using moldable::engine::TieBreak;

struct Options {
  std::size_t instances = 100;
  std::size_t jobs = 64;
  moldable::procs_t machines = 1024;
  std::string algorithm = "auto";
  std::string portfolio;  // comma-separated variant list; empty = single solver
  std::string input;      // directory of instance files; empty = synthetic
  double eps = 0.1;
  unsigned threads = 0;  // 0 = hardware concurrency
  std::uint64_t seed = 42;
  bool csv = false;
  bool verify = false;
  bool serve = false;           // stream records from stdin
  std::string listen;           // serve records from socket clients (net layer)
  std::size_t listen_sessions = 0;  // listen: drain after N sessions; 0 = endless
  std::size_t max_sessions = 64;    // listen: admission cap on concurrent sessions
  std::string port_file;            // listen: publish the bound TCP port here
  std::string watch;                // serve records from files dropped in a dir
  std::string watch_ledger;         // watch: served-file ledger path override
  unsigned watch_poll_ms = 200;     // watch: rescan period while idle
  std::size_t watch_idle_exit = 0;  // watch: exit after K empty rescans; 0 = never
  std::string record;           // serve: write a replayable session record
  std::string replay;           // re-serve a recorded session and check it
  std::size_t window = 16;      // serve: micro-batch size
  std::size_t max_inflight = 4; // serve: reorder horizon in windows
  bool memo = false;            // digest-keyed memoization
  std::size_t memo_capacity = 0;   // LRU bound on the memo store; 0 = unbounded
  std::size_t window_history = 0;  // serve: retained window stats/errors; 0 = all
  bool raw_samples = false;        // serve: exact per-class percentiles
  std::map<std::string, double> deadlines;  // serve: --deadline CLASS=SECONDS
  bool shed = false;   // serve: certificate-backed admission shedding
  bool adapt = false;  // serve: adaptive variant priors reorder race lanes
  TieBreak tie_break = TieBreak::kWallTime;
  bool race = false;           // portfolio: overlap variants per instance
  unsigned race_width = 0;     // lanes per raced instance; 0 = one per variant
  bool algorithm_set = false;  // --algorithm given explicitly
  bool synthetic_set = false;  // any of --instances/--jobs/--machines/--seed given
  bool window_set = false;     // --window/--max-inflight given
  bool serve_only_set = false; // --window-history/--raw-samples/--deadline given
  bool tie_break_set = false;  // --tie-break given
};

void usage(const char* argv0) {
  std::cout << "usage: " << argv0 << " [options]\n"
            << "  --instances N   synthetic batch size (default 100)\n"
            << "  --jobs N        jobs per synthetic instance (default 64)\n"
            << "  --machines M    synthetic machine count (default 1024)\n"
            << "  --input DIR     replay instance files from DIR instead of\n"
            << "                  generating synthetically (bad files skipped)\n"
            << "  --serve         serve a stream of instance records from stdin\n"
            << "                  (concatenated io-format records) in arrival-\n"
            << "                  ordered micro-batches; drains at EOF\n"
            << "  --listen ADDR   serve records arriving over a socket instead of\n"
            << "                  stdin (HOST:PORT, :PORT, PORT, or unix:PATH;\n"
            << "                  TCP port 0 = kernel-chosen). Concurrent client\n"
            << "                  sessions merge into one stream; each gets its\n"
            << "                  results back as framed (session, index) messages\n"
            << "  --listen-sessions N  listen: stop accepting after N sessions and\n"
            << "                  drain (0 = serve until killed, the default)\n"
            << "  --max-sessions N  listen: admission cap on concurrent sessions;\n"
            << "                  clients over the cap get a named REJECT frame\n"
            << "                  (default 64)\n"
            << "  --port-file F   listen: write the bound TCP port to F (atomic\n"
            << "                  rename) — how scripts learn a port-0 choice\n"
            << "  --watch DIR     serve instance files dropped into DIR (rename-\n"
            << "                  into-place; .tmp/.part/dotfiles skipped); a\n"
            << "                  served-file ledger makes restarts not double-\n"
            << "                  serve\n"
            << "  --watch-ledger F  watch: ledger path (default DIR/.moldable-served)\n"
            << "  --watch-poll-ms N  watch: rescan period while idle (default 200)\n"
            << "  --watch-idle-exit K  watch: exit after K consecutive empty\n"
            << "                  rescans (0 = watch forever, the default)\n"
            << "  --record FILE   serve: capture the session (stream + config +\n"
            << "                  latencies + digests + counters) as a replayable\n"
            << "                  record file\n"
            << "  --replay FILE   re-serve a recorded session and assert the\n"
            << "                  rolling digest and every deterministic counter\n"
            << "                  match the recording (honours --threads; all\n"
            << "                  other serve flags come from the record)\n"
            << "  --window N      serve: instances per micro-batch (default 16)\n"
            << "  --max-inflight K  serve: reorder horizon in windows (default 4)\n"
            << "  --algorithm A   registry solver name (default auto); known:";
  for (const auto& n : AlgorithmRegistry::global().names()) std::cout << ' ' << n;
  std::cout << "\n  --portfolio A,B race the named variants per instance and\n"
            << "                  keep the best valid schedule\n"
            << "  --race          portfolio: run the variants of each instance\n"
            << "                  concurrently with cooperative early-cancel\n"
            << "                  (a completion at the certified lower bound\n"
            << "                  cancels the slower peers). Wall-clock only:\n"
            << "                  digests are identical to sequential mode\n"
            << "  --race-width W  concurrent variant lanes per raced instance\n"
            << "                  (implies --race; 0 = one lane per variant,\n"
            << "                  the default; total threads = threads x W)\n"
            << "  --tie-break M   portfolio winner under exact makespan ties:\n"
            << "                  wall (fastest, default) or order (first in\n"
            << "                  portfolio order — reproducible win counts)\n"
            << "  --memo          reuse outcomes of duplicate instances\n"
            << "                  (digest-keyed; reports hit/miss counts)\n"
            << "  --memo-capacity N  bound the memo store to N outcomes under\n"
            << "                  deterministic LRU eviction (implies --memo;\n"
            << "                  0 = unbounded, the default)\n"
            << "  --window-history K  serve: retain only the last K windows'\n"
            << "                  stats and error diagnostics (0 = all); with\n"
            << "                  --memo-capacity this bounds an endless serve\n"
            << "                  session's memory\n"
            << "  --deadline C=S  serve: give SLA class C a relative deadline of\n"
            << "                  S seconds — its instances jump the reorder\n"
            << "                  buffer and late completions count as deadline\n"
            << "                  misses (repeatable; C 'default' = unlabelled)\n"
            << "  --raw-samples   serve: exact per-class percentiles from raw\n"
            << "                  samples instead of bounded sketches\n"
            << "  --shed          serve: refuse instances whose certified lower\n"
            << "                  bound proves their class deadline unmeetable\n"
            << "                  (needs --deadline; shed decisions are part of\n"
            << "                  the digest and replay bit-exact); admitted-but-\n"
            << "                  late instances race only the cheapest variant\n"
            << "  --adapt         serve: reorder each portfolio race from per-\n"
            << "                  class priors learned from win/cancel tallies\n"
            << "                  (needs --portfolio; wall-clock only — winners\n"
            << "                  and digests are unchanged)\n"
            << "  --eps E         approximation parameter in (0,1] (default 0.1)\n"
            << "  --threads T     worker threads, 0 = hardware (default 0)\n"
            << "  --seed S        base RNG seed for synthetic batches (default 42)\n"
            << "  --csv           emit the stats table as CSV\n"
            << "  --verify        re-solve on 1 thread without the memo and\n"
            << "                  compare digests\n";
}

// Numeric option parsing: the stoXX family throws std::invalid_argument /
// std::out_of_range on malformed text, which used to escape parse() and
// abort via the top-level handler with an unhelpful message. Every numeric
// flag now funnels through these helpers so a bad value exits 2 with the
// flag named, like every other usage error.
[[noreturn]] void bad_numeric(const std::string& arg, const char* kind,
                              const std::string& text) {
  std::cerr << arg << " needs " << kind << ", got '" << text << "'\n";
  std::exit(2);
}

std::uint64_t parse_count(const std::string& arg, const std::string& text) {
  try {
    if (text.empty() || text[0] == '-')  // stoull silently wraps negatives
      throw std::invalid_argument("negative");
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(text, &pos);
    if (pos != text.size()) throw std::invalid_argument("trailing junk");
    return v;
  } catch (const std::exception&) {
    bad_numeric(arg, "a non-negative integer", text);
  }
}

unsigned parse_unsigned(const std::string& arg, const std::string& text) {
  const std::uint64_t v = parse_count(arg, text);
  if (v > std::numeric_limits<unsigned>::max())
    bad_numeric(arg, "a non-negative integer", text);
  return static_cast<unsigned>(v);
}

double parse_real(const std::string& arg, const std::string& text) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument("trailing junk");
    return v;
  } catch (const std::exception&) {
    bad_numeric(arg, "a number", text);
  }
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--instances") { opt.instances = parse_count(arg, value()); opt.synthetic_set = true; }
    else if (arg == "--jobs") { opt.jobs = parse_count(arg, value()); opt.synthetic_set = true; }
    else if (arg == "--machines") {
      opt.machines = static_cast<moldable::procs_t>(parse_count(arg, value()));
      opt.synthetic_set = true;
    }
    else if (arg == "--algorithm") { opt.algorithm = value(); opt.algorithm_set = true; }
    else if (arg == "--portfolio") {
      opt.portfolio = value();
      if (opt.portfolio.empty()) {  // don't silently fall back to single-solver
        std::cerr << "empty --portfolio spec\n";
        std::exit(2);
      }
    }
    else if (arg == "--input") {
      opt.input = value();
      if (opt.input.empty()) {  // don't silently fall back to synthetic batches
        std::cerr << "empty --input directory\n";
        std::exit(2);
      }
    }
    else if (arg == "--serve") opt.serve = true;
    else if (arg == "--listen") {
      opt.listen = value();
      if (opt.listen.empty()) {
        std::cerr << "empty --listen address\n";
        std::exit(2);
      }
    }
    else if (arg == "--listen-sessions") opt.listen_sessions = parse_count(arg, value());
    else if (arg == "--max-sessions") opt.max_sessions = parse_count(arg, value());
    else if (arg == "--port-file") {
      opt.port_file = value();
      if (opt.port_file.empty()) {
        std::cerr << "empty --port-file path\n";
        std::exit(2);
      }
    }
    else if (arg == "--watch") {
      opt.watch = value();
      if (opt.watch.empty()) {
        std::cerr << "empty --watch directory\n";
        std::exit(2);
      }
    }
    else if (arg == "--watch-ledger") opt.watch_ledger = value();
    else if (arg == "--watch-poll-ms") opt.watch_poll_ms = parse_unsigned(arg, value());
    else if (arg == "--watch-idle-exit") opt.watch_idle_exit = parse_count(arg, value());
    else if (arg == "--record") {
      opt.record = value();
      if (opt.record.empty()) {
        std::cerr << "empty --record path\n";
        std::exit(2);
      }
    }
    else if (arg == "--replay") {
      opt.replay = value();
      if (opt.replay.empty()) {
        std::cerr << "empty --replay path\n";
        std::exit(2);
      }
    }
    else if (arg == "--race") opt.race = true;
    else if (arg == "--race-width") {
      opt.race_width = parse_unsigned(arg, value());
      opt.race = true;  // a width without racing would be inert
    }
    else if (arg == "--window") { opt.window = parse_count(arg, value()); opt.window_set = true; }
    else if (arg == "--max-inflight") { opt.max_inflight = parse_count(arg, value()); opt.window_set = true; }
    else if (arg == "--memo") opt.memo = true;
    else if (arg == "--memo-capacity") {
      opt.memo_capacity = parse_count(arg, value());
      opt.memo = true;  // a capacity without memoization would be inert
    }
    else if (arg == "--window-history") { opt.window_history = parse_count(arg, value()); opt.serve_only_set = true; }
    else if (arg == "--raw-samples") { opt.raw_samples = true; opt.serve_only_set = true; }
    else if (arg == "--shed") { opt.shed = true; opt.serve_only_set = true; }
    else if (arg == "--adapt") { opt.adapt = true; opt.serve_only_set = true; }
    else if (arg == "--deadline") {
      const std::string spec = value();
      const std::size_t eq = spec.find('=');
      if (eq == 0 || eq == std::string::npos || eq + 1 == spec.size()) {
        std::cerr << "--deadline needs CLASS=SECONDS, got '" << spec << "'\n";
        std::exit(2);
      }
      // A NaN deadline would make every lateness comparison silently false
      // and an infinite or negative one is operator error either way: only
      // finite, non-negative budgets are meaningful.
      const double seconds = parse_real(arg, spec.substr(eq + 1));
      if (!std::isfinite(seconds) || seconds < 0) {
        std::cerr << "--deadline SECONDS must be finite and non-negative, got '"
                  << spec << "'\n";
        std::exit(2);
      }
      opt.deadlines[spec.substr(0, eq)] = seconds;
      opt.serve_only_set = true;
    }
    else if (arg == "--tie-break") {
      const std::string mode = value();
      if (mode == "wall") opt.tie_break = TieBreak::kWallTime;
      else if (mode == "order") opt.tie_break = TieBreak::kPortfolioOrder;
      else {
        std::cerr << "--tie-break must be 'wall' or 'order', got '" << mode << "'\n";
        std::exit(2);
      }
      opt.tie_break_set = true;
    }
    else if (arg == "--eps") opt.eps = parse_real(arg, value());
    else if (arg == "--threads") opt.threads = parse_unsigned(arg, value());
    else if (arg == "--seed") { opt.seed = parse_count(arg, value()); opt.synthetic_set = true; }
    else if (arg == "--csv") opt.csv = true;
    else if (arg == "--verify") opt.verify = true;
    else if (arg == "--help" || arg == "-h") { usage(argv[0]); std::exit(0); }
    else {
      std::cerr << "unknown option " << arg << "\n";
      usage(argv[0]);
      std::exit(2);
    }
  }
  return opt;
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

std::string fmt_digest(std::uint64_t digest) {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(digest));
  return hex;
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
  // A single --algorithm is the one-variant portfolio.
  PortfolioConfig config;
  config.variants = opt.portfolio.empty()
                        ? std::vector<std::string>{opt.algorithm}
                        : moldable::engine::parse_portfolio_spec(opt.portfolio);
  config.eps = opt.eps;
  config.threads = opt.threads;
  config.tie_break = opt.tie_break;
  config.race = opt.race;
  config.race_width = opt.race_width;

  const PortfolioSolver solver;
  moldable::engine::exec::MemoStore<moldable::engine::PortfolioOutcome> memo(
      opt.memo_capacity);
  const PortfolioResult result = solver.solve(batch, config, opt.memo ? &memo : nullptr);

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
  if (opt.race)
    std::cout << "race: " << result.cancelled_attempts
              << " cancelled attempt(s) (early-cancel; deterministic)\n";
  if (opt.memo)
    print_memo_line(result.memo_hits, result.memo_misses, memo.evictions(),
                    opt.memo_capacity);
  std::cout << "batch: " << result.solved << " solved, " << result.failed << " failed in "
            << moldable::util::fmt(result.wall_seconds, 3) << " s ("
            << (opt.threads == 0 ? std::string("hw") : std::to_string(opt.threads))
            << " threads)\ndigest: " << fmt_digest(result.digest()) << "\n";
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
      std::cerr << "DETERMINISM VIOLATION: threads=" << opt.threads
                << " digest differs from threads=1\n";
      return 1;
    }
    std::cout << "determinism: OK (digest matches single-threaded reference)\n";
  }
  return result.failed == 0 ? 0 : 1;
}

StreamConfig make_stream_config(const Options& opt) {
  StreamConfig config;
  config.window = opt.window;
  config.max_inflight = opt.max_inflight;
  config.algorithm = opt.algorithm;
  if (!opt.portfolio.empty())
    config.variants = moldable::engine::parse_portfolio_spec(opt.portfolio);
  config.eps = opt.eps;
  config.threads = opt.threads;
  config.memo = opt.memo;
  config.memo_capacity = opt.memo_capacity;
  config.window_history = opt.window_history;
  config.raw_samples = opt.raw_samples;
  config.class_deadlines = opt.deadlines;
  config.shed = opt.shed;
  config.adapt = opt.adapt;
  config.tie_break = opt.tie_break;
  config.race = opt.race;
  config.race_width = opt.race_width;
  return config;
}

int run_serve(const Options& opt) {
  const StreamConfig config = make_stream_config(opt);
  const StreamSolver solver;

  const auto on_window = [&](const moldable::engine::WindowStats& w) {
    std::cout << "window " << w.index << ": " << w.instances << " inst, " << w.solved
              << " solved, " << w.failed << " failed in "
              << moldable::util::fmt(w.wall_seconds * 1e3) << " ms";
    if (opt.memo) {
      std::cout << ", memo " << w.memo_hits << "/" << w.memo_misses;
      if (w.memo_evictions != 0) std::cout << " (-" << w.memo_evictions << ")";
    }
    if (!opt.deadlines.empty()) std::cout << ", " << w.deadline_misses << " late";
    if (opt.shed && w.downshifted != 0)
      std::cout << ", " << w.downshifted << " down-shifted";
    std::cout << ", rolling digest " << fmt_digest(w.rolling_digest) << "\n";
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
  if (!opt.listen.empty()) {
    moldable::net::SocketServerConfig net_config;
    net_config.address = opt.listen;
    net_config.max_sessions = opt.max_sessions;
    net_config.expected_sessions = opt.listen_sessions;
    net_config.port_file = opt.port_file;
    server = std::make_unique<moldable::net::SocketServer>(net_config);
    server->start();
    source = server.get();
    g_listen_fd.store(server->listen_socket_fd());
    std::signal(SIGINT, handle_drain_signal);
    std::signal(SIGTERM, handle_drain_signal);
    std::cout << "listening on " << server->endpoint();
    if (opt.listen_sessions != 0)
      std::cout << " (draining after " << opt.listen_sessions << " session(s))";
    std::cout << "\n" << std::flush;  // scripts poll for this line / the port file
  } else if (!opt.watch.empty()) {
    moldable::net::WatchDirConfig watch_config;
    watch_config.dir = opt.watch;
    watch_config.ledger = opt.watch_ledger;
    watch_config.poll_ms = opt.watch_poll_ms;
    watch_config.idle_exit_scans = opt.watch_idle_exit;
    watcher = std::make_unique<moldable::net::WatchDirSource>(watch_config);
    source = watcher.get();
    std::cout << "watching " << opt.watch << "\n" << std::flush;
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
                << (opt.threads == 0 ? std::string("hw") : std::to_string(opt.threads))
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
              << " rejected (cap " << opt.max_sessions << ")";
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
            << (opt.threads == 0 ? std::string("hw") : std::to_string(opt.threads))
            << " threads)\n";
  if (opt.race)
    std::cout << "race: " << result.cancelled_attempts
              << " cancelled attempt(s) (early-cancel; deterministic)\n";
  if (opt.memo)
    print_memo_line(result.memo_hits, result.memo_misses, result.memo_evictions,
                    opt.memo_capacity);
  if (!opt.deadlines.empty())
    std::cout << "deadlines: " << result.deadline_misses
              << " miss(es) across all deadline classes\n";
  if (opt.shed || opt.adapt) {
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
  std::cout << "rolling digest: " << fmt_digest(result.rolling_digest) << "\n";
  return result.failed == 0 ? 0 : 1;
}

int run_replay(const Options& opt) {
  const moldable::traffic::ReplayFile file =
      moldable::traffic::load_record_file(opt.replay);
  std::cout << "replaying " << opt.replay << ": " << file.counters.instances
            << " instance(s), recorded digest " << fmt_digest(file.rolling_digest)
            << " (" << (opt.threads == 0 ? std::string("hw") : std::to_string(opt.threads))
            << " threads)\n";
  for (const auto& line : file.source_preamble) std::cout << "source: " << line << "\n";

  const moldable::traffic::ReplayReport report =
      moldable::traffic::replay(file, opt.threads);
  if (!report.ok) {
    std::cerr << "REPLAY DIVERGENCE: " << report.mismatches.size()
              << " mismatch(es) against the recording:\n";
    for (const auto& m : report.mismatches) std::cerr << "  " << m << "\n";
    return 1;
  }
  const moldable::engine::StreamResult& r = report.result;
  std::cout << "replay: OK — rolling digest " << fmt_digest(r.rolling_digest)
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
    Options opt = parse(argc, argv);  // --listen/--watch flip serve below
    if (!opt.portfolio.empty() && opt.algorithm_set)
      std::cerr << "warning: --algorithm is ignored when --portfolio is given "
                   "(add it to the portfolio list to race it)\n";
    if (opt.tie_break_set && opt.portfolio.empty())
      std::cerr << "warning: --tie-break only affects --portfolio mode\n";
    if (opt.race && opt.portfolio.empty()) {
      std::cerr << "--race needs a --portfolio to race (a single solver has "
                   "no peers to cancel)\n";
      return 2;
    }
    if (!opt.listen.empty() && !opt.watch.empty()) {
      std::cerr << "--listen and --watch are both ingestion sources; pick one\n";
      return 2;
    }
    if ((!opt.listen.empty() || !opt.watch.empty()) && opt.verify) {
      std::cerr << "--verify buffers stdin to serve it twice; a socket or "
                   "watched-dir stream cannot rewind. Use --record and replay "
                   "the session instead\n";
      return 2;
    }
    if ((!opt.listen.empty() || !opt.watch.empty()) && !opt.input.empty()) {
      std::cerr << "--listen/--watch are serve-mode sources; they cannot be "
                   "combined with --input\n";
      return 2;
    }
    if (opt.listen.empty() &&
        (opt.listen_sessions != 0 || opt.max_sessions != 64 || !opt.port_file.empty()))
      std::cerr << "warning: --listen-sessions/--max-sessions/--port-file only "
                   "affect --listen mode\n";
    if (opt.watch.empty() &&
        (!opt.watch_ledger.empty() || opt.watch_poll_ms != 200 ||
         opt.watch_idle_exit != 0))
      std::cerr << "warning: --watch-ledger/--watch-poll-ms/--watch-idle-exit "
                   "only affect --watch mode\n";
    if (!opt.listen.empty() || !opt.watch.empty()) opt.serve = true;
    if (!opt.replay.empty()) {
      if (opt.serve || !opt.input.empty() || !opt.record.empty()) {
        std::cerr << "--replay re-serves a recorded session; it cannot be "
                     "combined with --serve, --listen, --watch, --input, or "
                     "--record\n";
        return 2;
      }
      if (opt.window_set || opt.serve_only_set || opt.memo || opt.race ||
          opt.tie_break_set || !opt.portfolio.empty() || opt.algorithm_set ||
          opt.synthetic_set)
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
    if (opt.serve) {
      if (opt.synthetic_set)
        std::cerr << "warning: --instances/--jobs/--machines/--seed are ignored "
                     "in --serve mode (instances come from stdin)\n";
      if (opt.shed && opt.deadlines.empty()) {
        std::cerr << "--shed needs at least one --deadline class (shedding is "
                     "certified against the class deadline budget)\n";
        return 2;
      }
      if (opt.adapt && opt.portfolio.empty()) {
        std::cerr << "--adapt learns per-class variant priors; it needs a "
                     "--portfolio to reorder\n";
        return 2;
      }
      return run_serve(opt);
    }
    if (opt.window_set)
      std::cerr << "warning: --window/--max-inflight only affect --serve mode\n";
    if (opt.serve_only_set)
      std::cerr << "warning: --window-history/--raw-samples/--deadline/--shed/"
                   "--adapt only affect --serve mode\n";
    if (!opt.input.empty() && opt.synthetic_set)
      std::cerr << "warning: --instances/--jobs/--machines/--seed are ignored "
                   "when --input is given (the batch comes from the files)\n";
    const std::vector<moldable::jobs::Instance> batch =
        opt.input.empty() ? make_synthetic_batch(opt) : load_input_batch(opt.input);
    return run_batch(opt, batch);
  } catch (const std::exception& e) {
    std::cerr << "batch_service: " << e.what() << "\n";
    return 2;
  }
}
