#include "src/net/socket_server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <istream>
#include <stdexcept>
#include <utility>

#include "src/net/framing.hpp"

namespace moldable::net {

namespace {

SummaryFrame summary_of(const SessionCounters& tally) {
  SummaryFrame summary;
  summary.session = tally.id;
  summary.records = tally.records;
  summary.malformed = tally.malformed;
  summary.results = tally.results;
  summary.solved = tally.solved;
  summary.failed = tally.failed;
  summary.shed = tally.shed;
  summary.down_shifted = tally.down_shifted;
  return summary;
}

}  // namespace

SocketServer::SocketServer(SocketServerConfig config) : config_(std::move(config)) {
  address_ = parse_address(config_.address);
  if (config_.max_sessions == 0)
    throw std::invalid_argument("socket server: max_sessions must be >= 1");
}

SocketServer::~SocketServer() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (finished_ && !accept_thread_.joinable()) return;  // clean finish() path
    aborting_ = true;
    // Unblock readers parked in read(2) and half-open clients: a socket
    // shutdown makes every blocked syscall on the fd return immediately.
    for (auto& session : sessions_)
      if (session->fd.valid()) ::shutdown(session->fd.get(), SHUT_RDWR);
    stop_accepting_ = true;
    if (listen_fd_.valid()) ::shutdown(listen_fd_.get(), SHUT_RDWR);
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  outbox_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& session : sessions_) {
    if (session->reader.joinable()) session->reader.join();
    if (session->writer.joinable()) session->writer.join();
  }
}

void SocketServer::start() {
  if (started_) throw std::runtime_error("socket server: start() called twice");
  listen_fd_ = listen_on(address_);
  if (!address_.unix_domain) port_ = local_port(listen_fd_.get());
  if (!config_.port_file.empty())
    write_file_atomic(config_.port_file, std::to_string(port_) + "\n");
  started_ = true;
  accept_thread_ = std::thread(&SocketServer::accept_loop, this);
}

std::string SocketServer::endpoint() const { return format_address(address_, port_); }

void SocketServer::accept_loop() {
  for (;;) {
    const int raw = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (raw < 0) {
      if (errno == EINTR || errno == ECONNABORTED) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stop_accepting_) break;
        continue;
      }
      break;  // listener shut down, or a hard accept failure — stop cleanly
    }
    ScopedFd conn(raw);

    Session* session = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stop_accepting_ || aborting_) break;  // conn closes via ScopedFd
      if (active_sessions_ >= config_.max_sessions) {
        ++totals_.rejected;
        // Rejected pre-admission: session id 0, named reason, then close —
        // the connection never touches the merged stream.
      } else {
        sessions_.push_back(std::make_unique<Session>());
        session = sessions_.back().get();
        session->id = next_session_id_++;
        session->tally.id = session->id;
        session->fd = std::move(conn);
        ++totals_.accepted;
        ++active_sessions_;
        enqueue_frame(*session, encode(WelcomeFrame{session->id}));
      }
    }
    if (session == nullptr) {
      const std::string reject = encode(RejectFrame{
          0, "session-cap: " + std::to_string(config_.max_sessions) +
                 " concurrent sessions already admitted"});
      send_all(conn.get(), reject.data(), reject.size());  // best effort
      continue;                                            // conn closes here
    }
    session->reader = std::thread(&SocketServer::reader_loop, this, std::ref(*session));
    session->writer = std::thread(&SocketServer::writer_loop, this, std::ref(*session));

    if (config_.expected_sessions != 0 &&
        totals_.accepted >= config_.expected_sessions)
      break;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accept_done_ = true;
  }
  queue_cv_.notify_all();
}

void SocketServer::reader_loop(Session& session) {
  FdInBuf buf(session.fd.get());
  std::istream is(&buf);
  jobs::InstanceStreamReader reader(is);
  jobs::StreamRecord record;
  while (reader.next(record)) {
    std::unique_lock<std::mutex> lock(mutex_);
    space_cv_.wait(lock,
                   [&] { return queue_.size() < kQueueCapacity || aborting_; });
    if (aborting_) break;
    record.tag = session.id;
    record.ordinal = merged_ordinal_++;  // stream-wide, not per-session
    if (record.ok) {
      ++session.tally.records;
      ++totals_.records;
    } else {
      ++session.tally.malformed;
      ++totals_.malformed;
    }
    queue_.push_back(std::move(record));
    flush_armed_ = true;  // traffic since the last flush marker
    lock.unlock();
    queue_cv_.notify_one();
    record = jobs::StreamRecord{};
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    session.reader_done = true;
    session.preamble = reader.preamble();
    --active_sessions_;  // frees an admission slot for the next connection
    maybe_complete_session(session);  // 0-record (or fully-served) session
  }
  queue_cv_.notify_all();
}

void SocketServer::writer_loop(Session& session) {
  const int fd = session.fd.get();
  for (;;) {
    std::string frame;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      outbox_cv_.wait(lock, [&] {
        return aborting_ || !session.outbox.empty() || session.close_after_drain;
      });
      if (aborting_) return;
      if (session.outbox.empty()) {
        // close_after_drain with the backlog flushed: this is the session's
        // clean end (its SUMMARY is already on the wire), so the writer
        // delivers the close itself — a client of an endless listener must
        // see EOF now, not when the server eventually finishes. The fd
        // object stays owned by the session until finish()/~, so this never
        // races a kernel fd-number reuse.
        ::shutdown(fd, SHUT_RDWR);
        return;
      }
      frame = std::move(session.outbox.front());
      session.outbox.pop_front();
    }
    if (!send_all(fd, frame.data(), frame.size())) {
      // The client vanished (EPIPE/ECONNRESET). Its remaining frames are
      // undeliverable — drop them; the serve itself is unaffected.
      std::lock_guard<std::mutex> lock(mutex_);
      session.tally.write_failed = true;
      session.outbox.clear();
    }
  }
}

void SocketServer::enqueue_frame(Session& session, std::string frame) {
  if (session.tally.write_failed) return;
  session.outbox.push_back(std::move(frame));
  outbox_cv_.notify_all();  // each writer re-checks its own session's outbox
}

void SocketServer::maybe_complete_session(Session& session) {
  // results + shed == records is exactly "every admitted record answered":
  // records is final once the reader is at EOF, malformed records never
  // produce an answer, and publish()/publish_shed() are the only answer
  // producers (a RESULT frame or a per-record shed REJECT respectively). A
  // client of an endless listener therefore gets its SUMMARY (and the
  // close) as soon as its own work is done, not when the server eventually
  // drains.
  if (session.summary_sent || !session.reader_done) return;
  if (session.tally.results + session.tally.shed != session.tally.records) return;
  enqueue_frame(session, encode(summary_of(session.tally)));
  session.summary_sent = true;
  session.close_after_drain = true;
  outbox_cv_.notify_all();
}

bool SocketServer::next(jobs::StreamRecord& record) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto ready = [&] {
    return !queue_.empty() || aborting_ ||
           (active_sessions_ == 0 && (accept_done_ || flush_armed_));
  };
  // A connected session that sends nothing keeps active_sessions_ above 0,
  // so the all-drained marker below would never fire while it stays. Once
  // records were pushed since the last marker, a queue that stays empty
  // for kIdleFlushInterval therefore earns a marker too.
  const bool idle = flush_armed_ && !queue_cv_.wait_for(lock, kIdleFlushInterval, ready);
  if (!idle) queue_cv_.wait(lock, ready);
  if (!queue_.empty()) {
    record = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    space_cv_.notify_one();
    return true;
  }
  if (aborting_) return false;
  // The merged queue went idle, or every connected session has drained but
  // the listener stays open: emit one flush marker so the serve loop cuts
  // its reorder buffer now — a client's tail records must not wait for
  // some other session's traffic. Armed only by record pushes, so a quiet
  // listener emits exactly one marker per quiet period, then blocks here.
  if (flush_armed_ && (idle || !accept_done_)) {
    flush_armed_ = false;
    record = jobs::StreamRecord{};
    record.flush = true;
    record.ordinal = merged_ordinal_;  // informational; flush consumes none
    return true;
  }
  return false;  // drained: accepting over, every reader at EOF
}

std::vector<std::string> SocketServer::preamble() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const auto& session : sessions_)  // vector order == session-id order
    for (const std::string& line : session->preamble)
      out.push_back("[session " + std::to_string(session->id) + "] " + line);
  return out;
}

void SocketServer::publish(std::size_t index, std::uint64_t tag, bool ok,
                           double queue_seconds, double compute_seconds) {
  if (tag == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (tag > sessions_.size()) return;  // unknown tag (e.g. a replayed stream)
  Session& session = *sessions_[tag - 1];
  ++session.tally.results;
  if (ok)
    ++session.tally.solved;
  else
    ++session.tally.failed;
  ++totals_.results;
  enqueue_frame(session,
                encode(ResultFrame{tag, static_cast<std::uint64_t>(index), ok,
                                   queue_seconds, compute_seconds}));
  maybe_complete_session(session);
}

void SocketServer::publish_shed(std::size_t index, std::uint64_t tag,
                                const std::string& reason) {
  (void)index;  // the reason text names the index; the frame layout is fixed
  if (tag == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (tag > sessions_.size()) return;  // unknown tag (e.g. a replayed stream)
  Session& session = *sessions_[tag - 1];
  ++session.tally.shed;
  ++totals_.shed;
  enqueue_frame(session, encode(RejectFrame{tag, reason}));
  maybe_complete_session(session);
}

void SocketServer::note_downshift(std::uint64_t tag) {
  if (tag == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (tag > sessions_.size()) return;  // unknown tag (e.g. a replayed stream)
  ++sessions_[tag - 1]->tally.down_shifted;
  ++totals_.down_shifted;
}

void SocketServer::shutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stop_accepting_) return;
  stop_accepting_ = true;
  // A shutdown on the listening socket makes a blocked accept(2) return
  // immediately — the accept loop then exits without racing on fd reuse.
  if (listen_fd_.valid()) ::shutdown(listen_fd_.get(), SHUT_RDWR);
}

void SocketServer::finish() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (finished_) return;
    finished_ = true;
  }
  shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& session : sessions_) {
      // Most sessions completed individually (SUMMARY sent the moment their
      // last result published); this catches the stragglers — e.g. a
      // session with a write_failed tally whose completion was skipped.
      if (!session->summary_sent) {
        enqueue_frame(*session, encode(summary_of(session->tally)));
        session->summary_sent = true;
      }
      session->close_after_drain = true;
    }
  }
  outbox_cv_.notify_all();
  for (auto& session : sessions_) {
    if (session->writer.joinable()) session->writer.join();
    // After the writer flushed (or gave up on) the backlog, a full shutdown
    // unblocks a reader that is somehow still parked in read(2).
    if (session->fd.valid()) ::shutdown(session->fd.get(), SHUT_RDWR);
    if (session->reader.joinable()) session->reader.join();
    session->fd.reset();
  }
  listen_fd_.reset();
  if (address_.unix_domain) ::unlink(address_.path.c_str());
}

ServerCounters SocketServer::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totals_;
}

std::vector<SessionCounters> SocketServer::session_counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SessionCounters> out;
  out.reserve(sessions_.size());
  for (const auto& session : sessions_) out.push_back(session->tally);
  return out;
}

}  // namespace moldable::net
