#include "src/traffic/replay.hpp"

#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/engine/exec_core.hpp"
#include "src/engine/portfolio.hpp"
#include "src/jobs/io.hpp"
#include "src/util/cli.hpp"
#include "src/util/common.hpp"

namespace moldable::traffic {

namespace {

constexpr char kHeaderSentinel[] = "# moldable-record v3";
constexpr char kEndSentinel[] = "# moldable-record-end v1";
constexpr char kCloseSentinel[] = "# moldable-record-close v1";

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("record: " + what);
}

/// Record formats whose digests no longer replay, each with the change
/// that retired it.
struct RetiredVersion {
  const char* version;
  const char* why;
};
constexpr RetiredVersion kRetired[] = {
    {"v1",
     "single-solver (--algorithm) digests changed in v2, when every solver "
     "became a one-variant portfolio"},
    {"v2",
     "the dual solvers' digests changed in v3, when the dual search began "
     "probing (1+eps) omega first"},
};

/// Splits "key=value" tokens of a frame line body into ordered pairs.
std::vector<std::pair<std::string, std::string>> split_kv(const std::string& body,
                                                          const char* line_kind) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string_view tok : util::cli::words(body)) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string_view::npos || eq == 0)
      fail(std::string("malformed ") + line_kind + " token '" + std::string(tok) +
           "' (expected key=value)");
    out.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
  }
  return out;
}

/// Runs a strict util::cli value parser over a record value, naming the
/// key when the value is refused.
template <class Parse>
auto parse_value(Parse parse, std::string_view v, const std::string& what) {
  try {
    return parse(v);
  } catch (const util::cli::BadValue&) {
    fail("invalid " + what + " value '" + std::string(v) + "'");
  }
}

std::size_t parse_size(std::string_view v, const std::string& what) {
  return parse_value(util::cli::parse_count<std::size_t>, v, what);
}

/// A digest as fmt_digest writes it: hex digits only, no sign or prefix.
std::uint64_t parse_hex(std::string_view v, const std::string& what) {
  std::uint64_t r = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), r, 16);
  if (ec != std::errc() || ptr != v.data() + v.size())
    fail("invalid " + what + " value '" + std::string(v) + "'");
  return r;
}

double parse_num(std::string_view v, const std::string& what) {
  return parse_value(util::cli::parse_real, v, what);
}

/// The `# serve ...` line: every StreamConfig knob that shapes the
/// deterministic outcome, in a fixed order so recordings diff cleanly.
std::string serve_line(const engine::StreamConfig& c) {
  std::ostringstream os;
  os << "# serve window=" << c.window << " max-inflight=" << c.max_inflight
     << " eps=" << fmt_num(c.eps) << " algorithm=" << c.algorithm
     << " memo=" << (c.memo ? 1 : 0) << " memo-capacity=" << c.memo_capacity
     << " window-history=" << c.window_history
     << " raw-samples=" << (c.raw_samples ? 1 : 0)
     << " tie-break=" << (c.tie_break == engine::TieBreak::kWallTime ? "wall" : "order")
     << " shed=" << (c.shed ? 1 : 0) << " adapt=" << (c.adapt ? 1 : 0);
  return os.str();
}

void apply_serve_kv(engine::StreamConfig& c, const std::string& key,
                    const std::string& value) {
  if (key == "window") c.window = parse_size(value, key);
  else if (key == "max-inflight") c.max_inflight = parse_size(value, key);
  else if (key == "eps") c.eps = parse_num(value, key);
  else if (key == "algorithm") c.algorithm = value;
  else if (key == "memo") c.memo = parse_size(value, key) != 0;
  else if (key == "memo-capacity") c.memo_capacity = parse_size(value, key);
  else if (key == "window-history") c.window_history = parse_size(value, key);
  else if (key == "raw-samples") c.raw_samples = parse_size(value, key) != 0;
  else if (key == "tie-break") {
    if (value == "wall") c.tie_break = engine::TieBreak::kWallTime;
    else if (value == "order") c.tie_break = engine::TieBreak::kPortfolioOrder;
    else fail("unknown tie-break '" + value + "' (expected wall|order)");
  } else if (key == "race") {
    // `race` and `race-width` come from builds that had a concurrent race
    // mode, which never changed an outcome: still checked, then discarded.
    parse_size(value, key);
  } else if (key == "race-width") {
    parse_value(util::cli::parse_count<unsigned>, value, key);
  } else if (key == "shed") c.shed = parse_size(value, key) != 0;
  else if (key == "adapt") c.adapt = parse_size(value, key) != 0;
  else fail("unknown serve-config key '" + key + "'");
}

std::string counters_line(const RecordedCounters& c) {
  std::ostringstream os;
  os << "# served instances=" << c.instances << " solved=" << c.solved
     << " failed=" << c.failed << " memo-hits=" << c.memo_hits
     << " memo-misses=" << c.memo_misses << " memo-evictions=" << c.memo_evictions
     << " cancelled=" << c.cancelled_attempts
     << " deadline-misses=" << c.deadline_misses << " shed=" << c.shed
     << " downshifted=" << c.downshifted;
  return os.str();
}

void apply_counter_kv(RecordedCounters& c, const std::string& key,
                      const std::string& value) {
  const std::size_t v = parse_size(value, "served " + key);
  if (key == "instances") c.instances = v;
  else if (key == "solved") c.solved = v;
  else if (key == "failed") c.failed = v;
  else if (key == "memo-hits") c.memo_hits = v;
  else if (key == "memo-misses") c.memo_misses = v;
  else if (key == "memo-evictions") c.memo_evictions = v;
  else if (key == "cancelled") c.cancelled_attempts = v;
  else if (key == "deadline-misses") c.deadline_misses = v;
  else if (key == "shed") c.shed = v;
  else if (key == "downshifted") c.downshifted = v;
  else fail("unknown served counter '" + key + "'");
}

}  // namespace

StreamRecorder::StreamRecorder(std::ostream& os, const engine::StreamConfig& config)
    : os_(&os), records_digest_(engine::detail::kFnvOffsetBasis) {
  os << kHeaderSentinel << '\n' << serve_line(config) << '\n';
  if (!config.variants.empty()) {
    os << "# portfolio";
    for (std::size_t i = 0; i < config.variants.size(); ++i)
      os << (i ? "," : " ") << config.variants[i];
    os << '\n';
  }
  for (const auto& [name, seconds] : config.class_deadlines)
    os << "# deadline " << (name.empty() ? "default" : name) << '='
       << fmt_num(seconds) << '\n';
  if (!os) throw std::runtime_error("record: write failed on header");
}

engine::StreamConfig StreamRecorder::instrument(engine::StreamConfig config) {
  auto prev_admit = std::move(config.on_admit);
  config.on_admit = [this, prev_admit = std::move(prev_admit)](
                        const jobs::Instance& inst) {
    const std::string text = jobs::to_text(inst);
    engine::detail::fnv1a_mix(records_digest_, text.data(), text.size());
    *os_ << text;
    if (!*os_) throw std::runtime_error("record: write failed on record body");
    if (prev_admit) prev_admit(inst);
  };
  auto prev_flush = std::move(config.on_flush);
  config.on_flush = [this, prev_flush = std::move(prev_flush)]() {
    // Flush markers are part of the record sequence: replay must re-derive
    // the same flush-driven window cuts, so the marker line goes into the
    // body (and its digest) exactly where it happened.
    static constexpr char kFlushLine[] = "moldable-flush v1\n";
    engine::detail::fnv1a_mix(records_digest_, kFlushLine, sizeof(kFlushLine) - 1);
    *os_ << kFlushLine;
    if (!*os_) throw std::runtime_error("record: write failed on flush marker");
    if (prev_flush) prev_flush();
  };
  auto prev_served = std::move(config.on_served);
  config.on_served = [this, prev_served = std::move(prev_served)](
                         std::size_t index, std::uint64_t tag, bool ok,
                         double queue_s, double compute_s) {
    // The tag (a socket session id) is deliberately not recorded: replay is
    // a single serial re-serve of the merged order, with no sessions left
    // to route to — and tags never enter any digest or counter.
    latencies_.emplace_back(index, queue_s, compute_s);
    if (prev_served) prev_served(index, tag, ok, queue_s, compute_s);
  };
  auto prev_shed = std::move(config.on_shed);
  config.on_shed = [this, prev_shed = std::move(prev_shed)](
                       std::size_t index, std::uint64_t tag,
                       const engine::ShedOutcome& shed) {
    // A shed record consumed a stream-global index but has no latency (it
    // was never served); a 0 0 placeholder keeps the trailer's latency
    // table gap-free in index order, which load_record enforces. The shed
    // decision itself is NOT stored — replay re-derives it from the body
    // and the digest proves it landed identically.
    latencies_.emplace_back(index, 0.0, 0.0);
    if (prev_shed) prev_shed(index, tag, shed);
  };
  return config;
}

void StreamRecorder::finalize(const engine::StreamResult& result) {
  if (finalized_) throw std::logic_error("record: finalize called twice");
  finalized_ = true;
  std::ostream& os = *os_;
  os << kEndSentinel << '\n';
  for (const std::string& line : result.preamble) os << "# source " << line << '\n';
  // Served order is index order (the serve loop assigns stream-global
  // indices as it accounts outcomes), so the table is already sorted.
  for (const auto& [index, queue_s, compute_s] : latencies_)
    os << "# latency " << index << ' ' << fmt_num(queue_s) << ' '
       << fmt_num(compute_s) << '\n';
  RecordedCounters c;
  c.instances = result.instances;
  c.solved = result.solved;
  c.failed = result.failed;
  c.memo_hits = result.memo_hits;
  c.memo_misses = result.memo_misses;
  c.memo_evictions = result.memo_evictions;
  c.cancelled_attempts = result.cancelled_attempts;
  c.deadline_misses = result.deadline_misses;
  c.shed = result.shed;
  c.downshifted = result.downshifted;
  os << counters_line(c) << '\n';
  os << "# records-digest " << fmt_digest(records_digest_) << '\n';
  os << "# rolling-digest " << fmt_digest(result.rolling_digest) << '\n';
  os << kCloseSentinel << '\n';
  os.flush();
  if (!os) throw std::runtime_error("record: write failed on trailer");
}

ReplayFile load_record(std::istream& is) {
  ReplayFile file;
  std::string line;

  // Header: the first non-blank line must be the sentinel — anything else
  // is not a record file, and the caller deserves to hear that, not a
  // digest mismatch three stages later.
  bool saw_header = false;
  while (std::getline(is, line)) {
    const std::string t = trim(line);
    if (t.empty()) continue;
    for (const RetiredVersion& v : kRetired)
      if (t == std::string("# moldable-record ") + v.version)
        fail(std::string("record format ") + v.version + " is no longer replayable: " + v.why +
             "; re-record the session");
    if (t != kHeaderSentinel)
      fail(std::string("not a record file (expected '") + kHeaderSentinel +
           "' first, got '" + t.substr(0, 40) + "')");
    saw_header = true;
    break;
  }
  if (!saw_header) fail("empty input (expected a record file)");

  // Config frame: `# serve` (required), `# portfolio`, `# deadline`.
  bool saw_serve = false;
  bool empty_body = false;  // a zero-record stream ends right after the frame
  std::string body_first_line;  // first record line, read past the frame
  while (std::getline(is, line)) {
    const std::string t = trim(line);
    if (t.empty()) continue;
    if (t == kEndSentinel) {
      empty_body = true;
      break;
    }
    if (t.rfind("# serve ", 0) == 0) {
      for (const auto& [k, v] : split_kv(t.substr(8), "serve-config"))
        apply_serve_kv(file.config, k, v);
      saw_serve = true;
    } else if (t.rfind("# portfolio ", 0) == 0) {
      try {
        file.config.variants = engine::parse_portfolio_spec(t.substr(12));
      } catch (const std::invalid_argument& e) {
        fail(e.what());
      }
    } else if (t.rfind("# deadline ", 0) == 0) {
      const std::string kv = t.substr(11);
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0)
        fail("malformed deadline line '" + t + "' (expected CLASS=SECONDS)");
      file.config.class_deadlines[kv.substr(0, eq)] =
          parse_num(kv.substr(eq + 1), "deadline");
    } else if (t[0] == '#') {
      fail("unexpected comment in config frame: '" + t.substr(0, 60) + "'");
    } else {
      body_first_line = line;  // the record body begins
      break;
    }
  }
  if (!saw_serve)
    fail(std::string("truncated record file: no '# serve' config line (was the "
                     "recording serve interrupted?)"));

  // Body: verbatim record lines up to the end sentinel. The recorder only
  // writes canonical record text here, so any comment other than the
  // sentinel means the file was edited or spliced.
  bool saw_end = empty_body;
  std::uint64_t body_digest = engine::detail::kFnvOffsetBasis;
  const auto take_body_line = [&](const std::string& raw) {
    const std::string t = trim(raw);
    if (t == kEndSentinel) {
      saw_end = true;
      return;
    }
    if (!t.empty() && t[0] == '#')
      fail("unexpected comment inside record body: '" + t.substr(0, 60) + "'");
    if (t.empty()) return;  // blank lines carry nothing; the digest skips them
    file.body += raw;
    file.body += '\n';
    engine::detail::fnv1a_mix(body_digest, raw.data(), raw.size());
    const char nl = '\n';
    engine::detail::fnv1a_mix(body_digest, &nl, 1);
  };
  if (!body_first_line.empty()) take_body_line(body_first_line);
  while (!saw_end && std::getline(is, line)) take_body_line(line);
  if (!saw_end)
    fail(std::string("truncated record file: missing '") + kEndSentinel +
         "' (was the recording serve interrupted?)");

  // Trailer: latencies, counters, digests, close sentinel.
  bool saw_counters = false, saw_records_digest = false, saw_rolling = false;
  bool saw_close = false;
  while (std::getline(is, line)) {
    const std::string t = trim(line);
    if (t.empty()) continue;
    if (t == kCloseSentinel) {
      saw_close = true;
      break;
    }
    if (t.rfind("# source ", 0) == 0) {
      file.source_preamble.push_back(t.substr(9));
    } else if (t.rfind("# latency ", 0) == 0) {
      const std::vector<std::string_view> w = util::cli::words(t);  // # latency i q c
      if (w.size() != 5) fail("malformed latency line '" + t + "'");
      const std::size_t index = parse_size(w[2], "latency index");
      if (index != file.latencies.size())
        fail("latency table gap: expected index " +
             std::to_string(file.latencies.size()) + ", got " +
             std::to_string(index));
      file.latencies.emplace_back(parse_num(w[3], "latency queue"),
                                  parse_num(w[4], "latency compute"));
    } else if (t.rfind("# served ", 0) == 0) {
      for (const auto& [k, v] : split_kv(t.substr(9), "served"))
        apply_counter_kv(file.counters, k, v);
      saw_counters = true;
    } else if (t.rfind("# records-digest ", 0) == 0) {
      file.records_digest = parse_hex(trim(t.substr(17)), "records-digest");
      saw_records_digest = true;
    } else if (t.rfind("# rolling-digest ", 0) == 0) {
      file.rolling_digest = parse_hex(trim(t.substr(17)), "rolling-digest");
      saw_rolling = true;
    } else {
      fail("unexpected line in trailer: '" + t.substr(0, 60) + "'");
    }
  }
  if (!saw_close || !saw_counters || !saw_records_digest || !saw_rolling)
    fail(std::string("truncated record file: incomplete trailer (missing ") +
         (!saw_counters          ? "'# served' counters"
          : !saw_records_digest ? "'# records-digest'"
          : !saw_rolling        ? "'# rolling-digest'"
                                : "the close sentinel") +
         " — was the recording serve interrupted?)");

  if (body_digest != file.records_digest)
    fail("corrupted record file: body digest mismatch (trailer says " +
         fmt_digest(file.records_digest) + ", body hashes to " +
         fmt_digest(body_digest) + ") — the record bytes were altered after recording");
  if (file.latencies.size() != file.counters.instances + file.counters.shed)
    fail("corrupted record file: " + std::to_string(file.latencies.size()) +
         " latency entries for " + std::to_string(file.counters.instances) +
         " served + " + std::to_string(file.counters.shed) + " shed instances");
  return file;
}

ReplayFile load_record_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail("cannot open '" + path + "'");
  try {
    return load_record(is);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " [" + path + "]");
  }
}

ReplayReport replay(const ReplayFile& file, unsigned threads,
                    const engine::AlgorithmRegistry& registry) {
  engine::StreamConfig config = file.config;
  config.threads = threads;
  config.replay_latencies = &file.latencies;

  std::istringstream body(file.body);
  const engine::StreamSolver solver(registry);
  ReplayReport report;
  report.result = solver.run(body, config);

  const auto check = [&report](const char* what, std::uint64_t recorded,
                               std::uint64_t replayed, bool hex = false) {
    if (recorded == replayed) return;
    const auto fmt = [hex](std::uint64_t v) {
      return hex ? fmt_digest(v) : std::to_string(v);
    };
    report.mismatches.push_back(std::string(what) + ": recorded " +
                                fmt(recorded) + ", replay produced " +
                                fmt(replayed));
  };
  const engine::StreamResult& r = report.result;
  check("rolling digest", file.rolling_digest, r.rolling_digest, /*hex=*/true);
  check("instances", file.counters.instances, r.instances);
  check("solved", file.counters.solved, r.solved);
  check("failed", file.counters.failed, r.failed);
  check("memo hits", file.counters.memo_hits, r.memo_hits);
  check("memo misses", file.counters.memo_misses, r.memo_misses);
  check("memo evictions", file.counters.memo_evictions, r.memo_evictions);
  check("cancelled attempts", file.counters.cancelled_attempts, r.cancelled_attempts);
  check("deadline misses", file.counters.deadline_misses, r.deadline_misses);
  check("shed", file.counters.shed, r.shed);
  check("downshifted", file.counters.downshifted, r.downshifted);
  if (r.malformed != 0)
    report.mismatches.push_back("replay hit " + std::to_string(r.malformed) +
                                " malformed record(s) in a canonical body");
  report.ok = report.mismatches.empty();
  return report;
}

}  // namespace moldable::traffic
