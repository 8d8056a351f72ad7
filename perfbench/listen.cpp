#include "listen.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/jobs/generators.hpp"
#include "src/net/fd_io.hpp"
#include "src/net/framing.hpp"
#include "src/util/prng.hpp"

extern char** environ;

namespace perfbench {

namespace net = moldable::net;

namespace {

constexpr std::size_t kMaxSessionRecords = 16;
constexpr std::size_t kMaxConnections = 4;

/// The offered prefix of the storm, grouped into sessions.
struct Plan {
  std::vector<bool> interactive;  ///< by record, storm order
  struct Session {
    double due = 0;  ///< seconds after the schedule starts
    std::size_t first = 0, count = 0;
    std::string text;  ///< the session's records, as sent
  };
  std::vector<Session> sessions;
};

Plan make_plan(const Workload& w, const std::string& storm) {
  // The storm split into records, comments dropped.
  std::vector<std::string> records;
  Plan plan;
  std::istringstream in(storm);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == "moldable-instance v1") {
      records.emplace_back();
      plan.interactive.push_back(false);
    }
    if (records.empty()) continue;
    if (line == "class interactive") plan.interactive.back() = true;
    records.back() += line;
    records.back() += '\n';
  }
  // Session sizes: Pareto(alpha 1.5, scale 1) clamped to [1, max]. Due
  // times: exponential gaps at kSessionsPerSecond, up to kPassSeconds.
  moldable::util::Prng sizes(moldable::jobs::derive_seed(w.seed, 0x5e55));
  moldable::util::Prng gaps(moldable::jobs::derive_seed(w.seed, 0x71e5));
  double due = 0;
  for (std::size_t first = 0; first < records.size();) {
    due += -std::log(1.0 - gaps.uniform01()) / kSessionsPerSecond;
    if (due >= kPassSeconds) break;
    const double u = 1.0 - sizes.uniform01();  // (0, 1]
    const double draw = std::floor(std::pow(u, -1.0 / 1.5));
    const std::size_t size = static_cast<std::size_t>(
        std::clamp(draw, 1.0, static_cast<double>(kMaxSessionRecords)));
    Plan::Session session{due, first, std::min(size, records.size() - first), {}};
    for (std::size_t r = 0; r < session.count; ++r) session.text += records[first + r];
    first += session.count;
    plan.sessions.push_back(std::move(session));
  }
  return plan;
}

/// `batch_service` flags for `config` (flags from docs/OPERATIONS.md only).
std::vector<std::string> server_flags(const moldable::engine::StreamConfig& config) {
  std::vector<std::string> flags = {"--threads", std::to_string(config.threads),
                                    "--window", std::to_string(config.window),
                                    "--max-inflight", std::to_string(config.max_inflight)};
  const auto add = [&](std::string flag, std::string value) {
    flags.push_back(std::move(flag));
    flags.push_back(std::move(value));
  };
  if (config.variants.empty()) {
    add("--algorithm", config.algorithm);
  } else {
    std::string portfolio;
    for (const std::string& v : config.variants) portfolio += (portfolio.empty() ? "" : ",") + v;
    add("--portfolio", portfolio);
  }
  if (config.tie_break == moldable::engine::TieBreak::kPortfolioOrder) add("--tie-break", "order");
  if (config.memo) add("--memo-capacity", std::to_string(config.memo_capacity));
  if (config.window_history != 0) add("--window-history", std::to_string(config.window_history));
  for (const auto& [sla_class, seconds] : config.class_deadlines) {
    std::ostringstream deadline;
    deadline << sla_class << '=' << seconds;
    add("--deadline", deadline.str());
  }
  if (config.shed) flags.push_back("--shed");
  return flags;
}

struct Server {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

Server spawn_server(const Workload& w, const std::string& binary, const std::string& work_dir,
                    std::size_t sessions) {
  const std::string port_file = work_dir + "/listen.port";
  ::unlink(port_file.c_str());
  std::vector<std::string> args = {binary, "--listen", "127.0.0.1:0", "--port-file",
                                   port_file, "--listen-sessions", std::to_string(sessions)};
  const std::vector<std::string> flags = server_flags(w.serve);
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
  const std::string err_log = work_dir + "/listen.stderr";
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, err_log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  Server server;
  const int rc = posix_spawn(&server.pid, binary.c_str(), &actions, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0)
    throw std::runtime_error("cannot spawn " + binary + ": " + std::strerror(rc));

  const Clock::time_point start = Clock::now();
  while (true) {
    std::ifstream in(port_file);
    unsigned port = 0;
    if (in >> port && port != 0 && port < 65536) {
      server.port = static_cast<std::uint16_t>(port);
      return server;
    }
    int status = 0;
    if (::waitpid(server.pid, &status, WNOHANG) == server.pid)
      throw std::runtime_error("server exited before publishing its port (see " + err_log + ")");
    if (seconds_since(start) > 10) {
      ::kill(server.pid, SIGKILL);
      ::waitpid(server.pid, &status, 0);
      throw std::runtime_error("server did not publish its port within 10 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

/// Waits for the drained server to exit; returns its peak RSS in MiB, or a
/// negative value when it had to be killed or exited non-zero.
double reap_server(pid_t pid, double timeout_s) {
  const Clock::time_point start = Clock::now();
  int status = 0;
  rusage usage{};
  while (true) {
    const pid_t r = ::wait4(pid, &status, WNOHANG, &usage);
    if (r == pid) break;
    if (r < 0) return -1;
    if (seconds_since(start) > timeout_s) {
      ::kill(pid, SIGKILL);
      ::wait4(pid, &status, 0, &usage);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Answer {
  std::uint64_t index = 0;
  Clock::time_point at;
  double server_s = -1;  ///< queue + compute; negative for a shed REJECT
};

struct Conn {
  net::ScopedFd fd;
  std::size_t session = 0;
  Clock::time_point opened;
  bool welcomed = false;
  bool summarized = false;
  net::FrameDecoder decoder;
  std::vector<Answer> answers;
};

class Client {
 public:
  Client(const Plan& plan, std::uint16_t port, ListenPass& pass)
      : plan_(plan), server_(net::parse_address("127.0.0.1:" + std::to_string(port))),
        pass_(pass) {}

  void run(double timeout_s) {
    start_ = Clock::now();
    last_frame_ = start_;
    std::size_t next = 0;
    std::vector<Conn> conns;
    std::vector<pollfd> fds;
    while (next < plan_.sessions.size() || !conns.empty()) {
      Clock::time_point now = Clock::now();
      while (next < plan_.sessions.size() && conns.size() < kMaxConnections &&
             now >= due_at(next)) {
        open(next++, conns);
        now = Clock::now();
      }
      if (seconds_since(start_) > timeout_s) {
        fail("pass timed out with " + std::to_string(conns.size()) + " open session(s)");
        for (Conn& c : conns) abandon(c);
        for (; next < plan_.sessions.size(); ++next) abandon_session(next);
        break;
      }
      timespec wait{0, 50'000'000};  // re-check the pass timeout at least every 50 ms
      if (next < plan_.sessions.size() && conns.size() < kMaxConnections) {
        const double until = std::max(0.0, seconds_between(Clock::now(), due_at(next)));
        if (until < 0.05) wait = {0, static_cast<long>(until * 1e9)};
      }
      fds.clear();
      for (const Conn& c : conns) fds.push_back({c.fd.get(), POLLIN, 0});
      const int ready = ::ppoll(fds.data(), fds.size(), &wait, nullptr);
      if (ready < 0 && errno != EINTR) {
        fail(std::string("poll: ") + std::strerror(errno));
        continue;
      }
      for (std::size_t i = 0; i < conns.size(); ++i)
        if (fds[i].revents != 0) receive(conns[i]);
      conns.erase(std::remove_if(conns.begin(), conns.end(),
                                 [](const Conn& c) { return !c.fd.valid(); }),
                  conns.end());
    }
    pass_.wall_s = seconds_between(start_, last_frame_);
  }

 private:
  Clock::time_point due_at(std::size_t s) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(plan_.sessions[s].due));
  }

  void fail(std::string message) {
    ++pass_.errors;
    if (pass_.error_messages.size() < 8) pass_.error_messages.push_back(std::move(message));
  }

  void abandon_session(std::size_t s) {
    pass_.records += plan_.sessions[s].count;
    pass_.errors += plan_.sessions[s].count;
  }

  void abandon(Conn& c) {
    abandon_session(c.session);
    c.fd.reset();
  }

  void open(std::size_t s, std::vector<Conn>& conns) {
    Conn c;
    c.session = s;
    c.opened = Clock::now();
    pass_.late_ms.push_back(seconds_between(due_at(s), c.opened) * 1e3);
    ++pass_.sessions;
    try {
      c.fd = net::dial(server_);
    } catch (const std::exception& e) {
      fail(e.what());
      abandon(c);
      return;
    }
    const int one = 1;
    ::setsockopt(c.fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    conns.push_back(std::move(c));
  }

  /// Sends the session's records once WELCOME has arrived, then half-closes.
  /// A session is at most 16 records, well within the loopback send buffer.
  void send_records(Conn& c) {
    const std::string& text = plan_.sessions[c.session].text;
    if (!net::send_all(c.fd.get(), text.data(), text.size())) {
      fail(std::string("send: ") + std::strerror(errno));
      abandon(c);
      return;
    }
    ::shutdown(c.fd.get(), SHUT_WR);  // end of this session's stream
  }

  void receive(Conn& c) {
    char buf[65536];
    while (c.fd.valid()) {
      const ssize_t n = ::recv(c.fd.get(), buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        c.decoder.feed(buf, static_cast<std::size_t>(n));
        net::Frame f;
        while (c.fd.valid() && c.decoder.next(f)) frame(c, f);
        if (c.decoder.failed()) {
          fail("session " + std::to_string(c.session) + ": " + c.decoder.error());
          abandon(c);
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return;
      // EOF or error: the server closes after SUMMARY, nothing else is legal.
      if (!c.summarized || c.decoder.pending_bytes() != 0) {
        fail("session " + std::to_string(c.session) + " closed before SUMMARY");
        abandon(c);
        return;
      }
      c.fd.reset();
    }
  }

  void frame(Conn& c, const net::Frame& f) {
    const Clock::time_point now = Clock::now();
    last_frame_ = now;
    try {
      if (f.type == net::FrameType::kWelcome && !c.welcomed) {
        net::decode_welcome(f);
        c.welcomed = true;
        pass_.welcome_ms.push_back(seconds_between(c.opened, now) * 1e3);
        send_records(c);
      } else if (f.type == net::FrameType::kResult && c.welcomed) {
        const net::ResultFrame r = net::decode_result(f);
        c.answers.push_back({r.index, now, r.queue_seconds + r.compute_seconds});
        if (!r.ok) fail("record failed (index " + std::to_string(r.index) + ")");
      } else if (f.type == net::FrameType::kReject) {
        // Only a per-record shed ("shed index=N ...") leaves the session open.
        const net::RejectFrame r = net::decode_reject(f);
        const std::size_t at = r.reason.find("index=");
        if (r.session == 0 || r.reason.rfind("shed ", 0) != 0 || at == std::string::npos)
          throw std::runtime_error("rejected: " + r.reason);
        c.answers.push_back({std::stoull(r.reason.substr(at + 6)), now, -1});
      } else if (f.type == net::FrameType::kSummary && c.welcomed) {
        c.summarized = true;
        settle(c, net::decode_summary(f));
      } else {
        throw std::runtime_error("unexpected frame type " +
                                 std::to_string(static_cast<int>(f.type)));
      }
    } catch (const std::exception& e) {
      fail("session " + std::to_string(c.session) + ": " + e.what());
      abandon(c);
    }
  }

  /// Matches a finished session's answers to its records and checks its
  /// SUMMARY. Indices are stream-global and assigned in admission order, so
  /// the session's k-th smallest index answers its k-th record.
  void settle(Conn& c, const net::SummaryFrame& summary) {
    const Plan::Session& session = plan_.sessions[c.session];
    std::sort(c.answers.begin(), c.answers.end(),
              [](const Answer& a, const Answer& b) { return a.index < b.index; });
    std::size_t frames_shed = 0;
    for (std::size_t k = 0; k < c.answers.size(); ++k) {
      const Answer& a = c.answers[k];
      if (k > 0 && a.index == c.answers[k - 1].index) fail("index answered twice");
      if (a.server_s < 0) ++frames_shed;
      if (k >= session.count) continue;
      const double latency = seconds_between(due_at(c.session), a.at) * 1e3;
      pass_.latency_ms.push_back(latency);
      if (plan_.interactive[session.first + k]) pass_.interactive_ms.push_back(latency);
      if (a.server_s >= 0) {
        pass_.server_ms.push_back(a.server_s * 1e3);
        pass_.edge_ms.push_back(latency - a.server_s * 1e3);
      }
    }
    const std::size_t frames_results = c.answers.size() - frames_shed;
    pass_.records += session.count;
    pass_.results += frames_results;
    pass_.shed += frames_shed;
    if (c.answers.size() < session.count) pass_.errors += session.count - c.answers.size();
    pass_.errors += summary.malformed;
    if (summary.records != session.count || summary.records != summary.results + summary.shed ||
        summary.results != summary.solved + summary.failed ||
        summary.results != frames_results || summary.shed != frames_shed ||
        c.answers.size() != session.count)
      fail("session " + std::to_string(c.session) + " SUMMARY does not balance");
  }

  const Plan& plan_;
  const net::Address server_;
  ListenPass& pass_;
  Clock::time_point start_;
  Clock::time_point last_frame_;
};

}  // namespace

ListenPass run_listen_pass(const Workload& workload, const std::string& server_binary,
                           const std::string& work_dir) {
  ListenPass pass;
  const Clock::time_point setup_start = Clock::now();
  Storm storm = generate_storm(workload.storm);
  pass.generate_s = storm.generate_s;
  const double generation = seconds_since(setup_start);
  const Plan plan = make_plan(workload, storm.text);

  const Clock::time_point spawn_start = Clock::now();
  const Server server = spawn_server(workload, server_binary, work_dir, plan.sessions.size());
  pass.setup_s = generation + seconds_since(spawn_start);

  Client client(plan, server.port, pass);
  try {
    client.run(kPassSeconds + 60);
  } catch (...) {
    ::kill(server.pid, SIGKILL);  // never leave a server behind
    reap_server(server.pid, 10);
    throw;
  }
  pass.peak_rss_mb = reap_server(server.pid, 30);
  if (pass.peak_rss_mb < 0) {
    ++pass.errors;
    pass.error_messages.push_back("server did not exit cleanly after draining");
    pass.peak_rss_mb = 0;
  }
  return pass;
}

}  // namespace perfbench
