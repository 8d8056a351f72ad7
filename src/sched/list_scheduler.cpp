#include "src/sched/list_scheduler.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace moldable::sched {

Schedule list_schedule(const jobs::Instance& instance, const std::vector<procs_t>& allotment,
                       const std::vector<std::size_t>& order_in) {
  const std::size_t n = instance.size();
  const procs_t m = instance.machines();
  if (allotment.size() != n)
    throw std::invalid_argument("list_schedule: allotment size mismatch");
  for (std::size_t j = 0; j < n; ++j)
    if (allotment[j] < 1 || allotment[j] > m)
      throw std::invalid_argument("list_schedule: allotment out of [1, m]");

  std::vector<std::size_t> order = order_in;
  if (order.empty()) {
    order.resize(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
  } else if (order.size() != n) {
    throw std::invalid_argument("list_schedule: order size mismatch");
  }

  // Waiting list in order; compacted lazily via the `started` flags.
  std::vector<char> started(n, 0);
  std::size_t waiting = n;

  // Min-heap of (end time, procs) for running jobs.
  using Running = std::pair<double, procs_t>;
  std::priority_queue<Running, std::vector<Running>, std::greater<>> running;

  Schedule s;
  procs_t free = m;
  double now = 0;

  while (waiting > 0) {
    // Start every waiting job (in list order) that fits right now. A single
    // pass suffices per wake-up because `free` only shrinks within the pass.
    bool any = true;
    while (any) {
      any = false;
      for (std::size_t pos = 0; pos < order.size() && free > 0; ++pos) {
        const std::size_t j = order[pos];
        if (started[j]) continue;
        if (allotment[j] <= free) {
          const double dur = instance.job(j).time(allotment[j]);
          s.add({j, now, allotment[j], dur});
          running.emplace(now + dur, allotment[j]);
          free -= allotment[j];
          started[j] = 1;
          --waiting;
          any = true;
        }
      }
    }
    if (waiting == 0) break;
    // Advance to the next completion; release everything ending then.
    check_invariant(!running.empty(), "list_schedule: deadlock with jobs waiting");
    now = running.top().first;
    while (!running.empty() &&
           running.top().first <= now + kRelTol * std::max(1.0, now)) {
      free += running.top().second;
      running.pop();
    }
  }
  return s;
}

}  // namespace moldable::sched
