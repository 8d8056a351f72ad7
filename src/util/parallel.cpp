#include "src/util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <system_error>
#include <vector>

namespace moldable::util {

namespace {

/// One parallel_for call: its body, its index cursor, and the helpers that
/// took a seat in it. Lives on the caller's stack; the seat counts are
/// guarded by the pool's mutex.
struct Call {
  Call() = default;
  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;

  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> cursor{0};
  std::vector<std::exception_ptr> errors;  ///< [0] the caller, then helpers by seat
  std::size_t open_seats = 0;              ///< helpers still welcome
  std::size_t seated = 0;                  ///< helpers that joined
  std::size_t working = 0;                 ///< joined helpers not yet done
  std::condition_variable done;            ///< signalled when working drops to 0

  void work(std::size_t seat) {
    try {
      for (;;) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        (*body)(i);
      }
    } catch (...) {
      errors[seat] = std::current_exception();
    }
  }
};

/// The helper threads every call shares. A call with open seats waits in
/// `open_`; an idle helper takes the oldest open seat, works until the
/// call's cursor runs out, and goes back to waiting.
class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void run(Call& call, std::size_t helpers) {
    std::unique_lock<std::mutex> lock(mu_);
    while (threads_.size() < helpers) {
      try {
        threads_.emplace_back([this] { serve(); });
      } catch (const std::system_error&) {
        break;  // no thread to spare: run with the helpers there are
      }
    }
    call.open_seats = std::min(helpers, threads_.size());
    if (call.open_seats > 0) open_.push_back(&call);
    lock.unlock();
    wake_.notify_all();
    call.work(0);
    lock.lock();
    // The cursor is spent: close the remaining seats, then wait for the
    // helpers already seated.
    if (call.open_seats > 0) open_.erase(std::find(open_.begin(), open_.end(), &call));
    call.open_seats = 0;
    call.done.wait(lock, [&] { return call.working == 0; });
  }

 private:
  void serve() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      wake_.wait(lock, [&] { return stop_ || !open_.empty(); });
      if (open_.empty()) return;  // stopping, and no call is waiting
      Call& call = *open_.front();
      const std::size_t seat = ++call.seated;
      ++call.working;
      if (--call.open_seats == 0) open_.pop_front();
      lock.unlock();
      call.work(seat);
      lock.lock();
      // Signalled under the lock: the caller cannot return, and destroy
      // `call`, before this thread has let go of it.
      if (--call.working == 0) call.done.notify_one();
    }
  }

  std::mutex mu_;  // guards open_, stop_, threads_ and every Call's seat counts
  std::condition_variable wake_;
  std::deque<Call*> open_;  ///< calls with open seats, oldest first
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  unsigned threads) {
  const std::size_t participants = std::min<std::size_t>(std::max(1u, threads), n);
  if (participants <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  static Pool pool;  // started by the first call that needs it, joined at exit
  Call call;
  call.body = &body;
  call.n = n;
  call.errors.resize(participants);
  pool.run(call, participants - 1);
  for (const std::exception_ptr& e : call.errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace moldable::util
