// Wall-clock sections around calls into the library's layers.
//
// Every timed layer call in the benchmark goes through a Section. A Section
// always measures its elapsed time (the end-to-end metrics need those
// figures), and when the run is traced it also records a span — name,
// start, end and the span that was open when it started — in memory. The
// per-layer report is computed from the spans after the measured rounds:
// a layer's self time is its span's duration minus the part covered by its
// child spans.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

class Tracer {
 public:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;  ///< index of the enclosing span, -1 at top level
  };

  void set_recording(bool on) { recording_ = on; }
  [[nodiscard]] bool recording() const { return recording_; }

  /// Opens a span; returns its index, or -1 when not recording.
  int open(const char* name, Clock::time_point start);
  void close(int index, Clock::time_point end);

  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }

  /// Self time (ms) of every recorded span, grouped by span name.
  [[nodiscard]] std::map<std::string, std::vector<double>> self_times_ms()
      const;

 private:
  bool recording_ = false;
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Times one layer call. stop() (or the destructor) ends the section.
class Section {
 public:
  Section(Tracer& tracer, const char* name)
      : tracer_(tracer), start_(Clock::now()) {
    span_ = tracer_.open(name, start_);
  }
  ~Section() {
    if (!stopped_) stop();
  }
  Section(const Section&) = delete;
  Section& operator=(const Section&) = delete;

  /// Ends the section and returns its wall time in ms.
  double stop() {
    const Clock::time_point end = Clock::now();
    if (!stopped_) {
      tracer_.close(span_, end);
      stopped_ = true;
      elapsed_ms_ = ms_between(start_, end);
    }
    return elapsed_ms_;
  }

 private:
  Tracer& tracer_;
  Clock::time_point start_;
  int span_ = -1;
  bool stopped_ = false;
  double elapsed_ms_ = 0.0;
};

}  // namespace perfbench
