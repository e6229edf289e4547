// Compares two compact bench JSON artifacts (bench_micro --bench-json=...)
// entry by entry and prints per-metric deltas, so a perf regression (or the
// win a PR claims) is visible as one table instead of two JSON files.
//
//   ./bench_diff BASELINE.json NEW.json
//
// Entries are matched by "name"; every numeric field the two sides share
// (median_ns plus any user counters — bytes_wire, bytes_round, ...) is
// reported as `base -> new (ratio)`.  Entries present on only one side are
// listed as added/removed.  The host_* fields (the machine and build a row
// was measured on) are not diffed; when the two files name different hosts
// (CPU model or CPU count) one warning says so, since their timings do not
// compare.  The tool is report-only: it exits 0 whenever
// both files parse, regardless of how bad the deltas look — CI runs it as a
// non-blocking annotation, thresholds stay with the humans reading it.
//
// The reader accepts exactly what MicroJsonReporter::write() emits: a JSON
// array with one flat object per line.  It is not a general JSON parser
// (jsonl_lite.hpp does the per-line work).

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "jsonl_lite.hpp"

namespace {

using abdhfl::tools::JsonObject;
using abdhfl::tools::parse_flat_object;

using BenchFile = std::map<std::string, JsonObject>;  // name -> fields

bool load_bench_json(const std::string& path, BenchFile& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Reduce the array syntax to the per-line objects jsonl_lite parses:
    // strip surrounding whitespace, the bracket lines, and trailing commas.
    std::size_t begin = line.find_first_not_of(" \t\r");
    std::size_t end = line.find_last_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    std::string body = line.substr(begin, end - begin + 1);
    if (body == "[" || body == "]") continue;
    if (!body.empty() && body.back() == ',') body.pop_back();
    std::string error;
    auto object = parse_flat_object(body, error);
    if (!object) {
      std::fprintf(stderr, "bench_diff: %s:%zu: %s\n", path.c_str(), line_no,
                   error.c_str());
      return false;
    }
    const auto name = object->find("name");
    if (name == object->end() || !name->second.is_string) {
      std::fprintf(stderr, "bench_diff: %s:%zu: entry without a \"name\"\n",
                   path.c_str(), line_no);
      return false;
    }
    out[name->second.text] = std::move(*object);
  }
  return true;
}

/// Metric keys worth diffing: numeric, not identity/shape/host metadata.
bool diffable(const std::string& key, const JsonObject& fields) {
  static const std::set<std::string> skip = {"name", "op", "n", "d", "threads",
                                            "repetitions"};
  const auto it = fields.find(key);
  return it != fields.end() && !it->second.is_string && skip.count(key) == 0 &&
         key.rfind("host_", 0) != 0;
}

/// The host a file was measured on — CPU model and CPU count of its first
/// entry that records them.
std::string host_of(const BenchFile& file) {
  for (const auto& entry : file) {
    const JsonObject& fields = entry.second;
    const auto cpu = fields.find("host_cpu");
    const auto nproc = fields.find("host_nproc");
    if (cpu != fields.end() && nproc != fields.end()) {
      return cpu->second.text + ", " + nproc->second.text + " cpus";
    }
  }
  return "not recorded";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: bench_diff BASELINE.json NEW.json\n");
    return 2;
  }
  BenchFile base, next;
  if (!load_bench_json(argv[1], base) || !load_bench_json(argv[2], next)) return 2;

  const std::string base_host = host_of(base);
  const std::string next_host = host_of(next);
  if (base_host != next_host) {
    std::printf("bench_diff: warning: different hosts (base: %s; new: %s), timings do "
                "not compare\n",
                base_host.c_str(), next_host.c_str());
  }

  std::printf("%-44s %-16s %14s %14s %8s\n", "benchmark", "metric", "base", "new",
              "ratio");
  std::size_t compared = 0;
  for (const auto& [name, base_fields] : base) {
    const auto match = next.find(name);
    if (match == next.end()) {
      std::printf("%-44s removed (baseline only)\n", name.c_str());
      continue;
    }
    for (const auto& [key, value] : base_fields) {
      if (!diffable(key, base_fields) || !diffable(key, match->second)) continue;
      const double b = value.number();
      const double n = match->second.at(key).number();
      const double ratio = b != 0.0 ? n / b : 0.0;
      std::printf("%-44s %-16s %14.6g %14.6g %7.3fx\n", name.c_str(), key.c_str(), b,
                  n, ratio);
      ++compared;
    }
  }
  for (const auto& entry : next) {
    if (base.find(entry.first) == base.end()) {
      std::printf("%-44s added (not in baseline)\n", entry.first.c_str());
    }
  }
  std::printf("bench_diff: %zu metric(s) compared across %zu/%zu entries\n", compared,
              base.size(), next.size());
  return 0;
}
