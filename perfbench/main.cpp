// serve_bench: the serve-level benchmark program. See perfbench/NOTES.md.
//
//   serve_bench --workload NAME --seed N --seconds S --trace 0|1
//               --server PATH/batch_service --work-dir DIR [--smoke]
//
// --trace 0 times repeated identical passes for S seconds and prints the
// end-to-end metrics; --trace 1 prints the per-layer metrics of a separate
// traced run. Both check every output and exit 1 when a check fails. The
// last stdout line is the JSON result; the line before it ("diag ...")
// carries the noise diagnostics.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "inproc.hpp"
#include "listen.hpp"
#include "src/engine/policy.hpp"
#include "src/jobs/io.hpp"
#include "src/sched/validator.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string server;
  std::string work_dir = ".";
};

using MetricNames = std::vector<std::pair<std::string, std::string>>;  // name, unit

// BENCHMARK.json lists exactly these names and units, in this order.
const MetricNames kEndToEnd = {
    {"arrivals_per_s", "1/s"},    {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
    {"interactive_p99_ms", "ms"}, {"answered_frac", "1"},   {"admitted_frac", "1"},
    {"ratio_mean", "1"},          {"setup_s", "s"},         {"peak_rss_mb", "MiB"},
};
// The registry variants the workloads call, for registry.solve_us.<variant>.
const std::vector<std::string> kVariants = {"lt-2approx", "mrt", "algorithm1",
                                            "algorithm3-linear", "auto"};

MetricNames per_layer_names() {
  MetricNames names = {
      {"jobs.ingest_us", "us"},          {"engine.loop_us", "us"},
      {"engine.window_ms_p50", "ms"},    {"engine.window_ms_p99", "ms"},
      {"engine.buffer_wait_ms_p50", "ms"}, {"engine.buffer_wait_ms_p99", "ms"},
      {"exec.queue_ms_p99", "ms"},       {"exec.worker_busy_frac", "1"},
      {"exec.speedup_vs_t1", "1"},       {"exec.memo_hit_frac", "1"},
      {"registry.solve_us_p50", "us"},   {"registry.solve_us_p99", "us"},
      {"registry.calls_per_arrival", "1"},
  };
  for (const std::string& v : kVariants) names.push_back({"registry.solve_us." + v, "us"});
  const MetricNames rest = {
      {"portfolio.cancelled_frac", "1"}, {"policy.omega_us", "us"},
      {"policy.shed", "count"},          {"sched.validate_us", "us"},
      {"net.welcome_ms_p50", "ms"},      {"net.welcome_ms_p99", "ms"},
      {"net.server_ms_p50", "ms"},       {"net.server_ms_p99", "ms"},
      {"net.edge_ms_p50", "ms"},         {"net.edge_ms_p99", "ms"},
      {"net.generator_late_ms_p99", "ms"}, {"traffic.generate_us", "us"},
      {"trace.overhead_frac", "1"},
  };
  names.insert(names.end(), rest.begin(), rest.end());
  return names;
}

/// What one pass contributes to the result. Passes are reduced to this as
/// they finish, so the benchmark's own memory does not grow with the pass
/// count (the peak RSS metric would see it).
struct PassStats {
  double rate = 0;         ///< records answered per second of pass wall time
  double setup_s = 0;
  double generate_us = 0;  ///< storm generation per arrival
  double rss_mb = 0;
  double p50_ms = 0, p99_ms = 0, interactive_p99_ms = 0;
};

struct Report {
  std::map<std::string, double> metrics;
  std::vector<std::string> failures;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::ostringstream diag;  // `, "key": value` pairs
  bool have_digest = false;
  std::uint64_t digest = 0;
  unsigned digest_threads = 0;

  void check(bool ok, const std::string& what) {
    if (!ok && failures.size() < 16) failures.push_back(what);
  }
};

// ------------------------------------------------------------ output checks

/// Checks one in-process pass and reduces it to its statistics: every record
/// answered exactly once, nothing malformed or failed, and the rolling
/// digest equal to that of every other pass of the run, at any thread count.
PassStats record(Report& r, const InprocPass& p, const std::string& label) {
  const moldable::engine::StreamResult& s = p.result;
  r.check(p.yielded == p.arrivals, label + ": source yielded " + std::to_string(p.yielded) +
                                       " of " + std::to_string(p.arrivals) + " records");
  r.check(s.instances + s.shed == p.arrivals, label + ": instances + shed != records");
  r.check(s.malformed == 0, label + ": malformed records");
  r.check(s.failed == 0, label + ": failed instances");
  r.check(p.answered == p.arrivals && p.answered_twice == 0,
          label + ": records not answered exactly once");
  r.attempted += p.arrivals;
  r.failed += s.failed + s.malformed + (p.arrivals - std::min(p.arrivals, p.answered)) +
              p.answered_twice;
  if (!r.have_digest) {
    r.have_digest = true;
    r.digest = s.rolling_digest;
    r.digest_threads = p.threads;
  }
  r.check(s.rolling_digest == r.digest, label + ": rolling digest at threads " +
                                            std::to_string(p.threads) + " differs from threads " +
                                            std::to_string(r.digest_threads));
  return PassStats{p.rate(),
                   p.setup_s,
                   p.generate_s / double(std::max<std::size_t>(p.arrivals, 1)) * 1e6,
                   p.peak_rss_mb,
                   quantile(p.latency_ms, 0.5),
                   quantile(p.latency_ms, 0.99),
                   quantile(p.interactive_ms, 0.99)};
}

/// Checks one socket pass: every record answered by exactly one RESULT or
/// shed REJECT frame, and every SUMMARY balanced (see listen.cpp).
PassStats record(Report& r, const ListenPass& p) {
  for (const std::string& m : p.error_messages) r.check(false, "listen: " + m);
  r.check(p.errors == 0, "listen: " + std::to_string(p.errors) + " error(s)");
  r.check(p.latency_ms.size() == p.records, "listen: records without a latency sample");
  r.attempted += p.records;
  r.failed += p.errors;
  return PassStats{p.rate(),
                   p.setup_s,
                   p.generate_s / double(std::max<std::size_t>(p.records, 1)) * 1e6,
                   p.peak_rss_mb,
                   quantile(p.latency_ms, 0.5),
                   quantile(p.latency_ms, 0.99),
                   quantile(p.interactive_ms, 0.99)};
}

double best(const std::vector<PassStats>& passes, double PassStats::*field, bool higher) {
  double b = higher ? 0 : std::numeric_limits<double>::infinity();
  for (const PassStats& p : passes) b = higher ? std::max(b, p.*field) : std::min(b, p.*field);
  return std::isfinite(b) ? b : 0;
}

double median_of(const std::vector<PassStats>& passes, double PassStats::*field) {
  std::vector<double> values;
  for (const PassStats& p : passes) values.push_back(p.*field);
  return median(std::move(values));
}

/// Noise diagnostics: pass count, median pass rate, best/median.
void diag_passes(Report& r, const std::string& label, const std::vector<PassStats>& passes) {
  const double med = median_of(passes, &PassStats::rate);
  r.diag << ", \"" << label << "_passes\": " << passes.size() << ", \"" << label
         << "_median_per_s\": " << med << ", \"" << label
         << "_best_over_median\": " << (med > 0 ? best(passes, &PassStats::rate, true) / med : 0);
}

/// Mean of makespan / certified lower bound over the captured schedules.
double ratio_mean(const InprocPass& capture) {
  double sum = 0;
  std::size_t n = 0;
  for (const CapturedSolve& c : capture.spans.captured) {
    const double lb = moldable::engine::certified_lower_bound(c.instance);
    if (!(lb > 0) || !std::isfinite(lb)) continue;
    sum += c.makespan / lb;
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0;
}

/// Best-of-3 microseconds per call of `fn` over `count` items.
template <typename F>
double per_call_us(std::size_t count, F fn) {
  if (count == 0) return 0;
  double b = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < count; ++i) fn(i);
    b = std::min(b, seconds_since(t0));
  }
  return b / static_cast<double>(count) * 1e6;
}

std::vector<moldable::jobs::Instance> storm_instances(const Workload& w) {
  const Storm storm = generate_storm(w.storm);
  std::istringstream in(storm.text);
  moldable::jobs::InstanceStreamReader reader(in);
  std::vector<moldable::jobs::Instance> out;
  moldable::jobs::StreamRecord record;
  while (reader.next(record))
    if (record.ok && !record.flush) out.push_back(record.instance);
  return out;
}

// ------------------------------------------------------------- end to end

void end_to_end(const Workload& w, const Options& o, Report& r) {
  const unsigned threads = w.serve.threads;
  std::vector<PassStats> passes;
  std::size_t shed = 0;
  const Clock::time_point start = Clock::now();
  while (passes.size() < 2 || seconds_since(start) < o.seconds) {
    const InprocPass p = run_inproc_pass(w, {threads, false, false}, nullptr);
    shed += p.result.shed;
    passes.push_back(record(r, p, "timed pass"));
  }
  const double records = double(std::max<std::size_t>(r.attempted, 1));
  r.metrics["answered_frac"] = 1.0 - double(r.failed) / records;
  r.metrics["admitted_frac"] = 1.0 - double(shed) / records;

  // Untimed: one traced pass (schedules for ratio_mean) and, when the timed
  // passes ran on several threads, one pass on a single thread. Both must
  // reproduce the timed passes' digest.
  TracedRegistry registry;
  const InprocPass capture = run_inproc_pass(w, {threads, true, true}, &registry);
  record(r, capture, "traced pass");
  r.metrics["ratio_mean"] = ratio_mean(capture);
  if (threads != 1) record(r, run_inproc_pass(w, {1, false, false}, nullptr), "threads-1 pass");

  // Every figure is the best pass: the host's slow stretches only ever make
  // a pass worse, so the best pass is the one they disturbed least.
  r.metrics["arrivals_per_s"] = best(passes, &PassStats::rate, true);
  r.metrics["latency_p50_ms"] = best(passes, &PassStats::p50_ms, false);
  r.metrics["latency_p99_ms"] = best(passes, &PassStats::p99_ms, false);
  r.metrics["interactive_p99_ms"] = best(passes, &PassStats::interactive_p99_ms, false);
  r.metrics["setup_s"] = best(passes, &PassStats::setup_s, false);
  r.metrics["peak_rss_mb"] = best(passes, &PassStats::rss_mb, false);
  r.diag << ", \"setup_median_s\": " << median_of(passes, &PassStats::setup_s)
         << ", \"peak_rss_median_mb\": " << median_of(passes, &PassStats::rss_mb);
  diag_passes(r, "timed", passes);
}

// ---------------------------------------------------------------- per layer

/// Records offered and shed REJECT frames of one socket pass.
struct SocketShed {
  std::size_t records = 0;
  std::size_t shed = 0;
};

/// The loopback leg: the workload's storm (or its first kPassSeconds of
/// sessions) through `batch_service --listen`, measured at the client. Fills
/// the net.* metrics and returns each pass's shed count for the cross-check
/// against the in-process serve.
std::vector<SocketShed> socket_leg(const Workload& w, const Options& o, double seconds,
                                   Report& r) {
  std::map<std::string, double>& m = r.metrics;
  std::vector<ListenPass> passes;
  std::vector<PassStats> stats;
  std::vector<SocketShed> shed;
  const Clock::time_point start = Clock::now();
  do {
    passes.push_back(run_listen_pass(w, o.server, o.work_dir));
    stats.push_back(record(r, passes.back()));
    shed.push_back({passes.back().records, passes.back().shed});
  } while (seconds_since(start) < seconds);
  const auto best_q = [&](std::vector<double> ListenPass::*samples, double q) {
    double b = std::numeric_limits<double>::infinity();
    for (const ListenPass& p : passes) b = std::min(b, quantile(p.*samples, q));
    return b;
  };
  m["net.welcome_ms_p50"] = best_q(&ListenPass::welcome_ms, 0.5);
  m["net.welcome_ms_p99"] = best_q(&ListenPass::welcome_ms, 0.99);
  m["net.server_ms_p50"] = best_q(&ListenPass::server_ms, 0.5);
  m["net.server_ms_p99"] = best_q(&ListenPass::server_ms, 0.99);
  m["net.edge_ms_p50"] = best_q(&ListenPass::edge_ms, 0.5);
  m["net.edge_ms_p99"] = best_q(&ListenPass::edge_ms, 0.99);
  // Lateness checks the generator, so the worst pass counts. A generator
  // that fell behind opened sessions late, and net.edge_ms, timed from the
  // due time, includes that delay: flag the run.
  double late = 0;
  for (const ListenPass& p : passes) late = std::max(late, quantile(p.late_ms, 0.99));
  m["net.generator_late_ms_p99"] = late;
  const bool behind = late > kLateLimitMs;
  if (behind)
    std::cerr << "warning: the loopback generator fell behind its schedule (late p99 " << late
              << " ms > " << kLateLimitMs << " ms); net.* figures include client backlog\n";
  r.diag << ", \"socket_generator_behind\": " << (behind ? "true" : "false")
         << ", \"socket_sessions_per_s\": " << kSessionsPerSecond
         << ", \"socket_records_per_pass\": " << passes.front().records;
  diag_passes(r, "socket", stats);
  return shed;
}

void per_layer(const Workload& w, const Options& o, Report& r) {
  const unsigned threads = w.serve.threads;
  std::map<std::string, double>& m = r.metrics;
  for (const auto& [name, unit] : per_layer_names()) m[name] = 0;

  const std::vector<SocketShed> socket_shed = socket_leg(w, o, 0.3 * o.seconds, r);
  const double budget = 0.7 * o.seconds;

  // Arms served round robin, one pass each per round, so every arm sees the
  // same host conditions: untraced at the workload's thread count, at 1 and
  // at 4 threads, and traced. The fastest traced pass gives the spans.
  struct Arm {
    unsigned threads;
    bool traced;
    std::vector<PassStats> stats;
  };
  std::vector<Arm> arms = {{threads, false, {}}};
  for (const unsigned t : {1u, 4u})
    if (t != threads) arms.push_back({t, false, {}});
  arms.push_back({threads, true, {}});
  TracedRegistry registry;
  InprocPass fastest;
  const Clock::time_point start = Clock::now();
  do {
    for (Arm& arm : arms) {
      InprocPass p = run_inproc_pass(w, {arm.threads, arm.traced, false}, &registry);
      arm.stats.push_back(record(r, p, arm.traced ? "traced pass" : "pass"));
      if (arm.traced && p.rate() > fastest.rate()) fastest = std::move(p);
    }
  } while (seconds_since(start) < budget);
  const InprocPass capture = run_inproc_pass(w, {threads, true, true}, &registry);
  record(r, capture, "capture pass");

  const auto best_rate = [&](unsigned t, bool traced) {
    for (const Arm& arm : arms)
      if (arm.threads == t && arm.traced == traced) return best(arm.stats, &PassStats::rate, true);
    return 0.0;
  };
  const InprocPass& t = fastest;
  const double records = static_cast<double>(std::max<std::size_t>(t.yielded, 1));
  double solve_s = 0;
  for (const auto& [name, v] : t.spans.variants) solve_s += v.seconds;

  m["jobs.ingest_us"] = t.next_s / records * 1e6;
  m["engine.loop_us"] = (t.wall_s - t.next_s - t.window_s) / records * 1e6;
  m["engine.window_ms_p50"] = quantile(t.window_ms, 0.5);
  m["engine.window_ms_p99"] = quantile(t.window_ms, 0.99);
  m["engine.buffer_wait_ms_p50"] = quantile(t.buffer_wait_ms, 0.5);
  m["engine.buffer_wait_ms_p99"] = quantile(t.buffer_wait_ms, 0.99);
  m["exec.queue_ms_p99"] = quantile(t.queue_ms, 0.99);
  m["exec.worker_busy_frac"] = t.window_s > 0 ? solve_s / (t.window_s * threads) : 0;
  const double t1 = best_rate(1, false);
  m["exec.speedup_vs_t1"] = t1 > 0 ? best_rate(4, false) / t1 : 0;
  const moldable::engine::StreamResult& s = capture.result;
  const std::size_t lookups = s.memo_hits + s.memo_misses;
  m["exec.memo_hit_frac"] = lookups ? double(s.memo_hits) / double(lookups) : 0;
  m["registry.solve_us_p50"] = quantile(t.spans.call_us, 0.5);
  m["registry.solve_us_p99"] = quantile(t.spans.call_us, 0.99);
  m["registry.calls_per_arrival"] = double(t.spans.call_us.size()) / records;
  for (const std::string& v : kVariants) {
    const auto it = t.spans.variants.find(v);
    if (it != t.spans.variants.end())
      m["registry.solve_us." + v] = it->second.seconds / double(it->second.calls) * 1e6;
  }
  const double planned = double(capture.spans.call_us.size() + s.cancelled_attempts);
  m["portfolio.cancelled_frac"] = planned > 0 ? double(s.cancelled_attempts) / planned : 0;
  // A shed is a per-record certificate, so a socket pass sheds exactly the
  // in-process sheds among the records it offered.
  for (const SocketShed& p : socket_shed) {
    const auto in_prefix = std::count_if(capture.shed_tags.begin(), capture.shed_tags.end(),
                                         [&](std::uint64_t tag) { return tag <= p.records; });
    r.check(p.shed == static_cast<std::size_t>(in_prefix),
            "listen: " + std::to_string(p.shed) + " shed over the socket, " +
                std::to_string(in_prefix) + " in process among the same " +
                std::to_string(p.records) + " records");
  }
  m["policy.shed"] = static_cast<double>(s.shed);

  const std::vector<moldable::jobs::Instance> instances = storm_instances(w);
  double omega_sum = 0;
  m["policy.omega_us"] = per_call_us(instances.size(), [&](std::size_t i) {
    omega_sum += moldable::engine::certified_lower_bound(instances[i]);
  });
  r.check(omega_sum > 0, "certified lower bounds are not positive");
  const std::vector<CapturedSolve>& solves = capture.spans.captured;
  std::size_t invalid = 0;
  m["sched.validate_us"] = per_call_us(solves.size(), [&](std::size_t i) {
    if (!moldable::sched::validate(solves[i].schedule, solves[i].instance).ok) ++invalid;
  });
  r.check(invalid == 0, "a returned schedule failed validation");

  double generate_us = std::numeric_limits<double>::infinity();
  for (const Arm& arm : arms)
    generate_us = std::min(generate_us, best(arm.stats, &PassStats::generate_us, false));
  m["traffic.generate_us"] = generate_us;
  const double untraced = best_rate(threads, false);
  m["trace.overhead_frac"] = untraced > 0 ? 1 - best_rate(threads, true) / untraced : 0;

  r.diag << ", \"ratio_mean\": " << ratio_mean(capture);
  for (const Arm& arm : arms)
    diag_passes(r, std::string(arm.traced ? "traced" : "untraced") + "_t" +
                       std::to_string(arm.threads),
                arm.stats);
}

// ------------------------------------------------------------------- output

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") o.workload = value();
    else if (arg == "--seed") o.seed = std::stoull(value());
    else if (arg == "--seconds") o.seconds = std::stod(value());
    else if (arg == "--trace") o.trace = value() != "0";
    else if (arg == "--smoke") o.smoke = true;
    else if (arg == "--server") o.server = value();
    else if (arg == "--work-dir") o.work_dir = value();
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const Workload w = make_workload(o.workload, o.seed, o.smoke);
    if (o.server.empty()) throw std::invalid_argument("--server is required");
    Report r;
    const Clock::time_point start = Clock::now();
    if (o.trace)
      per_layer(w, o, r);
    else
      end_to_end(w, o, r);

    for (const std::string& f : r.failures) std::cerr << "check failed: " << f << "\n";
    std::cout << "diag {\"workload\": \"" << w.name << "\", \"seed\": " << w.seed
              << ", \"trace\": " << (o.trace ? 1 : 0)
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"run_s\": " << seconds_since(start) << r.diag.str() << "}\n";
    const bool correct = r.failures.empty();
    std::ostringstream json;
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << std::max<std::size_t>(r.attempted, 1)
         << ", \"failed\": " << r.failed << ", \"metrics\": {";
    const MetricNames names = o.trace ? per_layer_names() : kEndToEnd;
    for (std::size_t i = 0; i < names.size(); ++i)
      json << (i ? ", " : "") << "\"" << names[i].first
           << "\": {\"value\": " << number(r.metrics[names[i].first]) << ", \"unit\": \""
           << names[i].second << "\"}";
    json << "}}";
    std::cout << json.str() << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "serve_bench: " << e.what() << "\n";
    return 2;
  }
}
