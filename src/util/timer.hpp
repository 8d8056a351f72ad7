// Steady-clock stopwatch behind the engine's batch, window and attempt
// timings and the benches' best-of-R minima.
#pragma once

#include <chrono>

namespace moldable::util {

class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Elapsed seconds since construction / last reset.
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace moldable::util
