// traffic_gen: storm generator for the serve-mode stream format.
//
// Emits an inhomogeneous-Poisson workload — arrival times from a rate
// curve (flash crowd, diurnal, piecewise steps, or constant), a weighted
// SLA class mix, and Pareto-sized instances from the generator families —
// as concatenated io-format records on stdout, ready to pipe:
//
//   ./traffic_gen --curve flash --seed 7 | ./batch_service --serve
//
// The stream is a pure function of the flags: same flags, same bytes. The
// manifest header repeats the flags and the trailer carries the arrival
// count and record digest, so a storm can be regenerated (or checked)
// anywhere from its first few lines. A one-line summary goes to stderr.
//
// --connect ADDR turns the generator into a serving client: the same storm
// bytes go over a socket to `batch_service --listen` instead of stdout, the
// write side is half-closed (the protocol's end-of-stream), and the framed
// responses are consumed off the read side — WELCOME (session id), one
// RESULT per record, a SUMMARY trailer, or a named REJECT when the server's
// admission cap is hit. Exit status checks the round trip: every arrival
// sent must come back as a result.
#include <sys/socket.h>

#include <cstdint>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/jobs/generators.hpp"
#include "src/net/fd_io.hpp"
#include "src/net/framing.hpp"
#include "src/traffic/traffic_gen.hpp"
#include "src/util/cli.hpp"
#include "src/util/common.hpp"

namespace {

namespace cli = moldable::util::cli;

using moldable::traffic::TrafficConfig;
using moldable::traffic::TrafficGenerator;
using moldable::traffic::TrafficSummary;

struct Options {
  TrafficConfig config;
  std::string connect;  // empty = stream to stdout
};

cli::FlagTable make_flags(Options& opt) {
  TrafficConfig& c = opt.config;
  return cli::FlagTable("[options]  (stream goes to stdout)", {
      {"--curve", "SPEC",
       "rate curve NAME or NAME:k=v,... (default flash), NAME\n"
       "one of flash, diurnal, steps, const",
       "", cli::text(c.curve)},
      {"--seed", "S", "manifest seed; the whole storm derives from it (default 1)", "",
       cli::count(c.seed)},
      {"--horizon", "T", "generate arrivals in [0, T] (default 120)", "", cli::real(c.horizon)},
      {"--max-arrivals", "N", "stop after N arrivals (0 = horizon only)", "",
       cli::count(c.max_arrivals)},
      {"--classes", "SPEC",
       "weighted SLA mix name=weight,... (default\n"
       "interactive=0.5,batch=0.3,default=0.2)",
       "", [&c](const std::string& v) { c.classes = moldable::traffic::parse_class_mix(v); }},
      {"--pareto-alpha", "A", "job-count tail index (default 1.5; smaller = heavier)", "",
       cli::real(c.pareto_alpha)},
      {"--jobs-min", "N", "minimum job count / Pareto scale (default 1)", "",
       cli::count(c.jobs_min)},
      {"--jobs-cap", "N", "job-count cap (default 64)", "", cli::count(c.jobs_cap)},
      {"--machines", "M", "machine count per instance (default 32)", "",
       cli::count_at_most(c.machines, moldable::jobs::kMaxMachines, "2^62")},
      {"--families", "A,B", "generator families (default amdahl,powerlaw,comm,mixed)", "",
       [&c](const std::string& v) {
         c.families.clear();
         std::istringstream list(v);
         std::string name;
         while (std::getline(list, name, ','))
           if (!name.empty()) c.families.push_back(moldable::jobs::family_from_name(name));
         if (c.families.empty()) throw cli::BadValue("needs at least one family name");
       }},
      {"--dup-every", "K", "every Kth arrival repeats one fixed instance (0 = off)", "",
       cli::count(c.duplicate_every)},
      {"--memcap", "C",
       "per-machine memory capacity stamped on every instance\n"
       "(0 = no memory axis, the default)",
       "", cli::real(c.memory_capacity)},
      {"--mem-min", "A", "log-uniform footprint lower bound (default 1)", "",
       cli::real(c.mem_min)},
      {"--mem-max", "B", "log-uniform footprint upper bound (default 1; 0 < A <= B)", "",
       cli::real(c.mem_max)},
      {"--connect", "ADDR",
       "send the storm to a `batch_service --listen` server and\n"
       "exit 0 only if every arrival is answered",
       "", cli::text(opt.connect)},
  });
}

/// Everything the response-reader thread learns from the server's frames;
/// read by the main thread only after join() (which is the synchronization).
struct SessionOutcome {
  std::uint64_t session = 0;  // WELCOME
  std::size_t results = 0;
  std::size_t solved = 0;
  std::size_t shed = 0;  // per-record "shed ..." REJECTs (session continues)
  bool rejected = false;
  std::string reject_reason;
  bool summary_seen = false;
  moldable::net::SummaryFrame summary;
  std::string protocol_error;  // decoder poison / truncated final frame
};

void read_responses(int fd, SessionOutcome& out) {
  moldable::net::FrameDecoder decoder;
  char buf[16 * 1024];
  moldable::net::Frame frame;
  for (;;) {
    const long n = moldable::net::read_some(fd, buf, sizeof(buf));
    if (n <= 0) break;  // server closed (or hard error after close) — done
    decoder.feed(buf, static_cast<std::size_t>(n));
    while (decoder.next(frame)) {
      switch (frame.type) {
        case moldable::net::FrameType::kWelcome:
          out.session = moldable::net::decode_welcome(frame).session;
          break;
        case moldable::net::FrameType::kResult: {
          const moldable::net::ResultFrame r = moldable::net::decode_result(frame);
          ++out.results;
          if (r.ok) ++out.solved;
          break;
        }
        case moldable::net::FrameType::kReject: {
          const moldable::net::RejectFrame r = moldable::net::decode_reject(frame);
          // Reason-code grammar (framing.hpp): "shed ..." rejects ONE record
          // with a lower-bound certificate and the session continues — it
          // answers an arrival exactly like a RESULT frame. Anything else
          // (e.g. "session-cap: ...") is fatal for the whole connection.
          if (r.reason.rfind("shed ", 0) == 0) {
            ++out.shed;
          } else {
            out.rejected = true;
            out.reject_reason = r.reason;
          }
          break;
        }
        case moldable::net::FrameType::kSummary:
          out.summary_seen = true;
          out.summary = moldable::net::decode_summary(frame);
          break;
      }
    }
    if (decoder.failed()) {
      out.protocol_error = decoder.error();
      return;
    }
  }
  if (decoder.pending_bytes() != 0)
    out.protocol_error = "connection closed mid-frame (" +
                         std::to_string(decoder.pending_bytes()) +
                         " byte(s) of a truncated frame)";
}

int run_connect(const Options& opt) {
  const TrafficGenerator generator(opt.config);
  moldable::net::ScopedFd fd = moldable::net::dial(opt.connect);

  // Responses stream back while the storm is still being sent — a reader
  // thread keeps the socket drained so a large session can't deadlock on
  // two full kernel buffers.
  SessionOutcome outcome;
  std::thread reader(read_responses, fd.get(), std::ref(outcome));

  moldable::net::FdOutBuf obuf(fd.get());
  std::ostream os(&obuf);
  TrafficSummary summary{};
  bool write_ok = true;
  try {
    summary = generator.write(os);
    os.flush();
    write_ok = os.good();
  } catch (...) {
    write_ok = false;
  }
  // Half-close: the protocol's end-of-stream marker. The server serves the
  // tail of the stream and replies with the remaining results + SUMMARY.
  ::shutdown(fd.get(), SHUT_WR);
  reader.join();

  if (outcome.rejected) {
    std::cerr << "traffic_gen: rejected by " << opt.connect << ": "
              << outcome.reject_reason << "\n";
    return 1;
  }
  if (!outcome.protocol_error.empty()) {
    std::cerr << "traffic_gen: protocol error: " << outcome.protocol_error << "\n";
    return 1;
  }
  if (!write_ok) {
    std::cerr << "traffic_gen: write failed to " << opt.connect << "\n";
    return 1;
  }
  std::cerr << "traffic_gen: session " << outcome.session << ": sent "
            << summary.arrivals << " arrival(s), received " << outcome.results
            << " result(s) (" << outcome.solved << " solved), " << outcome.shed
            << " shed\n";
  if (!outcome.summary_seen) {
    std::cerr << "traffic_gen: server closed without a SUMMARY frame\n";
    return 1;
  }
  // Every arrival must be answered — by a RESULT or a per-record shed
  // REJECT. The SUMMARY's `results` counts RESULT frames only, and its
  // `shed` counter must agree with the REJECT frames the client saw.
  if (outcome.results + outcome.shed != summary.arrivals ||
      outcome.summary.records != summary.arrivals ||
      outcome.summary.results != outcome.results ||
      outcome.summary.shed != outcome.shed) {
    std::cerr << "traffic_gen: result mismatch: summary reports "
              << outcome.summary.records << " record(s) / " << outcome.summary.results
              << " result(s) / " << outcome.summary.shed << " shed; client saw "
              << outcome.results << " result(s) + " << outcome.shed << " shed for "
              << summary.arrivals << " arrival(s)\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options opt;
    make_flags(opt).parse(argc, argv);
    if (!opt.connect.empty()) return run_connect(opt);
    const TrafficGenerator generator(opt.config);
    const TrafficSummary summary = generator.write(std::cout);
    std::cout.flush();
    if (!std::cout) {
      std::cerr << "traffic_gen: write failed on stdout\n";
      return 1;
    }
    std::cerr << "traffic_gen: " << summary.arrivals << " arrival(s), curve "
              << generator.curve().spec() << ", seed " << opt.config.seed
              << ", stream digest " << moldable::fmt_digest(summary.stream_digest)
              << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "traffic_gen: " << e.what() << "\n";
    return 2;
  }
}
