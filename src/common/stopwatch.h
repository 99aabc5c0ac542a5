// Wall-clock stopwatch used by the benchmark harnesses.

#ifndef FAIRHMS_COMMON_STOPWATCH_H_
#define FAIRHMS_COMMON_STOPWATCH_H_

#include <chrono>

namespace fairhms {

/// Monotonic wall-clock timer. Starts on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the timer.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time in milliseconds since construction / last Reset().
  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace fairhms

#endif  // FAIRHMS_COMMON_STOPWATCH_H_
