#include "inproc.hpp"

#include <malloc.h>

#include <istream>
#include <mutex>
#include <streambuf>
#include <utility>

#include "src/engine/instance_source.hpp"

namespace perfbench {

namespace engine = moldable::engine;
namespace jobs = moldable::jobs;

struct TracedRegistry::Sink {
  std::mutex mu;
  bool capture = false;
  std::vector<std::string> names;
  std::vector<VariantTime> per_variant;  // indexed like names
  SolveSpans spans;
};

TracedRegistry::TracedRegistry() : sink_(std::make_shared<Sink>()) {
  const engine::AlgorithmRegistry& base = engine::AlgorithmRegistry::global();
  for (const std::string& name : base.names()) {
    const std::size_t slot = sink_->names.size();
    sink_->names.push_back(name);
    sink_->per_variant.emplace_back();
    engine::SolverFn fn = base.at(name);
    registry_.add(
        name,
        [fn = std::move(fn), slot, sink = sink_](const jobs::Instance& instance,
                                                 const engine::SolverConfig& config) {
          const auto t0 = Clock::now();
          const auto record = [&](const moldable::core::ScheduleResult* r) {
            const double s = seconds_since(t0);
            std::lock_guard<std::mutex> lock(sink->mu);
            sink->spans.call_us.push_back(s * 1e6);
            ++sink->per_variant[slot].calls;
            sink->per_variant[slot].seconds += s;
            if (r && sink->capture)
              sink->spans.captured.push_back({instance, r->schedule, r->makespan});
          };
          try {
            moldable::core::ScheduleResult r = fn(instance, config);
            record(&r);
            return r;
          } catch (...) {
            record(nullptr);
            throw;
          }
        },
        base.caps(name));
  }
}

void TracedRegistry::begin(bool capture) {
  std::lock_guard<std::mutex> lock(sink_->mu);
  sink_->capture = capture;
  sink_->spans = SolveSpans{};
  for (VariantTime& v : sink_->per_variant) v = VariantTime{};
}

SolveSpans TracedRegistry::drain() {
  std::lock_guard<std::mutex> lock(sink_->mu);
  for (std::size_t i = 0; i < sink_->names.size(); ++i)
    if (sink_->per_variant[i].calls != 0)
      sink_->spans.variants[sink_->names[i]] = sink_->per_variant[i];
  sink_->capture = false;
  return std::exchange(sink_->spans, SolveSpans{});
}

namespace {

/// Read-only streambuf over bytes the caller owns: the serve loop reads the
/// storm like a pipe, without a copy into an istringstream.
class ByteBuf : public std::streambuf {
 public:
  explicit ByteBuf(const std::string& bytes) {
    char* begin = const_cast<char*>(bytes.data());  // never written: get area only
    setg(begin, begin, begin + bytes.size());
  }
};

/// Wraps the real source: tags each record with its ordinal (1-based) and
/// stamps when it was yielded; traced passes also time next() itself.
class StampingSource : public engine::InstanceSource {
 public:
  StampingSource(engine::InstanceSource& inner, InprocPass& pass, bool traced)
      : inner_(inner), pass_(pass), traced_(traced) {}

  bool next(jobs::StreamRecord& record) override {
    Clock::time_point t0{};
    if (traced_ || !started_) t0 = Clock::now();
    if (!started_) {
      started_ = true;
      first_next = t0;
    }
    const bool more = inner_.next(record);
    const Clock::time_point t1 = Clock::now();
    if (traced_) pass_.next_s += seconds_between(t0, t1);
    if (more && !record.flush) {
      record.tag = ++pass_.yielded;
      yielded_at.push_back(t1);
      interactive.push_back(record.ok && record.instance.sla_class() == "interactive");
      answered.push_back(false);
    }
    return more;
  }

  std::vector<std::string> preamble() const override { return inner_.preamble(); }

  Clock::time_point first_next{};
  std::vector<Clock::time_point> yielded_at;  // by tag - 1
  std::vector<bool> interactive;
  std::vector<bool> answered;

 private:
  engine::InstanceSource& inner_;
  InprocPass& pass_;
  bool traced_;
  bool started_ = false;
};

}  // namespace

InprocPass run_inproc_pass(const Workload& workload, const PassOptions& options,
                           TracedRegistry* traced) {
  const bool trace = options.traced || options.capture;
  InprocPass pass;
  pass.threads = options.threads;

  malloc_trim(0);  // start every pass from the same heap footprint
  const Clock::time_point setup_start = Clock::now();
  Storm storm = generate_storm(workload.storm);
  pass.generate_s = storm.generate_s;
  pass.arrivals = storm.arrivals;

  ByteBuf buf(storm.text);
  std::istream input(&buf);
  engine::IstreamSource source(input);
  StampingSource stamping(source, pass, trace);
  stamping.yielded_at.reserve(storm.arrivals);
  pass.latency_ms.reserve(storm.arrivals);

  engine::StreamConfig config = workload.serve;
  config.threads = options.threads;
  const auto answer = [&](std::uint64_t tag, double queue_s, double compute_s, bool served) {
    const Clock::time_point now = Clock::now();
    if (tag == 0 || tag > stamping.yielded_at.size()) {
      ++pass.answered_twice;  // an answer for a record never yielded
      return;
    }
    const std::size_t i = tag - 1;
    if (stamping.answered[i]) {
      ++pass.answered_twice;
      return;
    }
    stamping.answered[i] = true;
    ++pass.answered;
    const double sojourn = seconds_between(stamping.yielded_at[i], now);
    pass.latency_ms.push_back(sojourn * 1e3);
    if (stamping.interactive[i]) pass.interactive_ms.push_back(sojourn * 1e3);
    if (trace && served) {
      pass.buffer_wait_ms.push_back((sojourn - queue_s - compute_s) * 1e3);
      pass.queue_ms.push_back(queue_s * 1e3);
    }
  };
  config.on_served = [&](std::size_t, std::uint64_t tag, bool, double queue_s,
                         double compute_s) { answer(tag, queue_s, compute_s, true); };
  config.on_shed = [&](std::size_t, std::uint64_t tag, const engine::ShedOutcome&) {
    answer(tag, 0, 0, false);
    if (trace) pass.shed_tags.push_back(tag);
  };
  engine::StreamSolver::WindowCallback on_window;
  if (trace)
    on_window = [&](const engine::WindowStats& w) {
      pass.window_s += w.wall_seconds;
      pass.window_ms.push_back(w.wall_seconds * 1e3);
    };

  if (trace) traced->begin(options.capture);
  const engine::StreamSolver solver(trace ? traced->registry()
                                          : engine::AlgorithmRegistry::global());
  reset_peak_rss();  // the peak below covers the serve loop, not generation
  pass.result = solver.run(stamping, config, on_window);
  const Clock::time_point end = Clock::now();
  pass.peak_rss_mb = peak_rss_mb();
  if (trace) pass.spans = traced->drain();

  pass.setup_s = seconds_between(setup_start, stamping.first_next);
  pass.wall_s = seconds_between(stamping.first_next, end);
  return pass;
}

}  // namespace perfbench
