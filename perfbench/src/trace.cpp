#include "trace.hpp"

namespace perfbench {

int Tracer::open(const char* name, Clock::time_point start) {
  if (!recording_) return -1;
  spans_.push_back(Span{name, start, start, current_});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int index, Clock::time_point end) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = end;
  current_ = spans_[static_cast<std::size_t>(index)].parent;
}

std::map<std::string, std::vector<double>> Tracer::self_times_ms() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] +=
          ms_between(span.start, span.end);
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name].push_back(
        ms_between(spans_[i].start, spans_[i].end) - child_ms[i]);
  }
  return out;
}

}  // namespace perfbench
