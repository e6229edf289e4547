#pragma once
// Per-layer self time from one thread's spans.
//
// Every span the benchmark reads was recorded on the single benchmark thread
// by an RAII obs::Span, so the spans nest strictly by time.  A span's self
// time is its duration minus the durations of the spans directly inside it;
// the self times of all spans then partition the top-level spans exactly.
// Nesting is recovered from the timestamps rather than from parent ids,
// because the program deliberately detaches some spans (round roots such as
// subtree_agg/global_agg) from the thread-local parent stack.

#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace fedbench {

struct SelfTimes {
  std::map<std::string, double> by_kind;  // span kind -> self seconds
  std::size_t spans = 0;

  void add(const SelfTimes& other);
  [[nodiscard]] double get(const std::string& kind) const;
  [[nodiscard]] double total() const;
};

[[nodiscard]] SelfTimes self_times(std::vector<abdhfl::obs::TraceEvent> events);

}  // namespace fedbench
