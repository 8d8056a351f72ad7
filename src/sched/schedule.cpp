#include "src/sched/schedule.hpp"

#include <algorithm>
#include <numeric>

namespace moldable::sched {

double Schedule::makespan() const {
  double end = 0;
  for (const auto& a : assignments_) end = std::max(end, a.start + a.duration);
  return end;
}

double Schedule::total_work() const {
  double w = 0;
  for (const auto& a : assignments_) w += static_cast<double>(a.procs) * a.duration;
  return w;
}

procs_t Schedule::peak_procs() const {
  // Event sweep: +procs at start, -procs at end; ends sort before starts at
  // equal times so back-to-back jobs on the same processor do not double
  // count.
  struct Event {
    double t;
    procs_t delta;
  };
  std::vector<Event> ev;
  ev.reserve(assignments_.size() * 2);
  for (const auto& a : assignments_) {
    ev.push_back({a.start, a.procs});
    ev.push_back({a.start + a.duration, -a.procs});
  }
  std::sort(ev.begin(), ev.end(), [](const Event& x, const Event& y) {
    if (x.t != y.t) return x.t < y.t;
    return x.delta < y.delta;  // releases first
  });
  procs_t cur = 0, peak = 0;
  for (const auto& e : ev) {
    cur += e.delta;
    peak = std::max(peak, cur);
  }
  return peak;
}

std::vector<std::vector<procs_t>> assign_processors(const Schedule& s, procs_t m) {
  // Process start events in time order, releasing finished jobs first.
  struct Pending {
    double end;
    std::size_t idx;  // assignment index
  };
  std::vector<std::size_t> order(s.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto& as = s.assignments();
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return as[a].start < as[b].start;
  });

  std::vector<std::vector<procs_t>> result(s.size());
  // This helper materializes one index per processor, so it is meant for
  // moderate scale; the core algorithms never call it. Refuse machine counts
  // where Theta(m) memory is clearly unintended.
  if (m > (procs_t{1} << 22))
    throw std::invalid_argument("assign_processors: m too large for explicit numbering");
  // Free processors as a sorted set implemented with a vector used as a
  // stack: indices are interchangeable, so order does not matter.
  std::vector<procs_t> free_list;
  free_list.reserve(static_cast<std::size_t>(std::min<procs_t>(m, 1 << 20)));
  for (procs_t p = m; p-- > 0;) free_list.push_back(p);

  // Min-heap of running assignments by end time.
  auto cmp = [](const Pending& a, const Pending& b) { return a.end > b.end; };
  std::vector<Pending> heap;

  for (std::size_t idx : order) {
    const auto& a = as[idx];
    // Release everything that finished by (or at) this start.
    while (!heap.empty() && heap.front().end <= a.start + kRelTol * std::max(1.0, a.start)) {
      std::pop_heap(heap.begin(), heap.end(), cmp);
      const Pending done = heap.back();
      heap.pop_back();
      for (procs_t p : result[done.idx]) free_list.push_back(p);
    }
    check_invariant(static_cast<procs_t>(free_list.size()) >= a.procs,
                    "assign_processors: capacity-infeasible schedule");
    result[idx].reserve(static_cast<std::size_t>(a.procs));
    for (procs_t i = 0; i < a.procs; ++i) {
      result[idx].push_back(free_list.back());
      free_list.pop_back();
    }
    heap.push_back({a.start + a.duration, idx});
    std::push_heap(heap.begin(), heap.end(), cmp);
  }
  return result;
}

}  // namespace moldable::sched
