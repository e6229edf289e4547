#include "layers.hpp"

#include <algorithm>

namespace fedbench {

void SelfTimes::add(const SelfTimes& other) {
  for (const auto& [kind, s] : other.by_kind) by_kind[kind] += s;
  spans += other.spans;
}

double SelfTimes::get(const std::string& kind) const {
  const auto it = by_kind.find(kind);
  return it != by_kind.end() ? it->second : 0.0;
}

double SelfTimes::total() const {
  double sum = 0.0;
  for (const auto& [kind, s] : by_kind) sum += s;
  return sum;
}

SelfTimes self_times(std::vector<abdhfl::obs::TraceEvent> events) {
  // Parents first: earlier start, and on a tie the longer span encloses.
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return a.time != b.time ? a.time < b.time : a.duration > b.duration;
  });
  struct Open {
    double end;
    double children;
    const abdhfl::obs::TraceEvent* event;
  };
  SelfTimes out;
  std::vector<Open> stack;
  const auto close = [&](const Open& open) {
    out.by_kind[open.event->kind] += open.event->duration - open.children;
  };
  for (const auto& ev : events) {
    if (ev.duration <= 0.0) continue;  // instantaneous events carry no time
    while (!stack.empty() && ev.time >= stack.back().end) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().children += ev.duration;
    stack.push_back({ev.time + ev.duration, 0.0, &ev});
    ++out.spans;
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return out;
}

}  // namespace fedbench
