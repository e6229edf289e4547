// fedbench — end-to-end federation benchmark (see README.md).
//
//   fedbench --workload NAME --seed N --seconds S --trace 0|1
//            [--git-sha SHA] [--src-digest HEX]
//
// One process runs one pinned workload on one thread over a MeteredLoopback:
// the real node classes (RootNode + AggregatorNode/VirtualDeviceHost trees,
// or a TopClusterNode committee over WorkerNodes), no sockets.  It first runs
// the workload's reference (run_hier_reference for trees, an unfailed live
// run for the committee), then runs whole federations back to back until S
// seconds have passed, checking every one bitwise against the reference
// outside its timed window.  With --trace 1 every other federation runs with
// a TraceBuffer attached and the per-layer self times come from those.
//
// Output: a human-readable report (provenance, config, every metric with its
// unit and sample count, checks, the exact-count guard, the traced layer
// table), then as the LAST line one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// carrying the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// attempted/failed count rounds: a round fails when it does not complete
// before the deadline, and every round of a federation whose check fails.

#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "layers.hpp"
#include "metered_loopback.hpp"
#include "net/hier/aggregator.hpp"
#include "net/hier/reference.hpp"
#include "net/hier/roles.hpp"
#include "net/node.hpp"
#include "net/top_cluster.hpp"
#include "obs/trace.hpp"
#include "topology/plan.hpp"
#include "util/stats.hpp"

namespace {

namespace net = abdhfl::net;
namespace hier = abdhfl::net::hier;
namespace obs = abdhfl::obs;
using fedbench::MeteredLoopback;
using fedbench::Role;
using fedbench::SelfTimes;

// A federation that has not finished by then is abandoned (its unfinished
// rounds count as failed); keeps every run well inside the 180 s limit.
constexpr double kFederationDeadlineS = 40.0;
// Nodes' own round deadline; a round slower than this counts as failed.
constexpr double kRoundDeadlineS = 20.0;
// Idle sleep of the pump loop when a poll delivered nothing (committee
// timers only: tree runs drain in one poll).
constexpr auto kIdleSleep = std::chrono::microseconds(200);
constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;
// round_ms_p90 needs 100 samples to have 10 beyond it; an untraced run keeps
// going past --seconds, by at most kOverrunS, until it has them.
constexpr std::size_t kMinTimedRounds = 100;
constexpr double kOverrunS = 30.0;

double now() { return hier::wall_now(); }

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  net::FederationConfig config;  // config.rounds = rounds per federation
  double target_accuracy = 0.0;  // time_to_target_s threshold
  bool committee = false;
};

net::FederationConfig base_config(std::uint64_t seed) {
  net::FederationConfig c;
  c.seed = seed;
  c.cluster_rule = "trimmed_mean";
  c.root_rule = "median";
  c.round_timeout_s = kRoundDeadlineS;
  c.join_timeout_s = kRoundDeadlineS;
  return c;
}

// The wide model shared by wide-dense and committee-q8: 16x16 digits, one
// hidden layer of 256 (d = 68,362 parameters).
void wide_model(net::FederationConfig& c) {
  c.image_side = 16;
  c.hidden = {256};
  c.local_iters = 2;
  c.batch = 8;
  c.samples_per_class = 50;
  c.test_samples_per_class = 50;
}

bool make_workload(const std::string& name, std::uint64_t seed, Workload& w) {
  w.name = name;
  w.config = base_config(seed);
  net::FederationConfig& c = w.config;
  if (name == "vdev-train") {
    c.tree = "2,2,25";
    c.image_side = 8;
    c.hidden = {16};
    c.local_iters = 8;
    c.batch = 16;
    c.samples_per_class = 100;
    c.test_samples_per_class = 50;
    c.rounds = 40;
    w.target_accuracy = 0.30;
    return true;
  }
  if (name == "wide-dense") {
    c.tree = "16,4";
    wide_model(c);
    c.rounds = 21;
    w.target_accuracy = 0.60;
    return true;
  }
  if (name == "committee-q8") {
    wide_model(c);
    c.top_cluster = 3;
    c.workers = 4;
    c.devices_per_worker = 4;
    c.quantize_bits = 8;
    // test_top_cluster's timing: one thread runs every node, so a training
    // burst inside a poll drain delays keepalives by the burst length.
    c.heartbeat_s = 0.01;
    c.election_min_s = 0.25;
    c.election_max_s = 0.40;
    c.rounds = 20;
    w.target_accuracy = 0.60;
    w.committee = true;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// One federation

struct FederationRun {
  bool finished = false;  // every node done before the deadline
  bool correct = false;   // bitwise equal to the reference
  std::string detail;     // first failed check
  double t0 = 0.0;        // construction begins
  double start = 0.0;     // start() called on every node
  double pump_s = 0.0;    // start() .. all done
  std::vector<double> round_ends;
  std::vector<double> accuracy;
  std::vector<float> global;
  std::size_t rounds = 0;
  net::TransportStats stats;
  std::array<std::uint64_t, MeteredLoopback::kKinds> frames{};
  std::array<std::uint64_t, MeteredLoopback::kKinds> bytes{};
  std::uint64_t backlog_max = 0;
  std::uint64_t commits = 0;
  std::uint64_t elections = 0;
  std::uint64_t terms = 0;
  double failover_s = -1.0;
  bool traced = false;
  SelfTimes layers;

  [[nodiscard]] double build_s() const { return start - t0; }
  [[nodiscard]] double setup_s() const { return round_ends.empty() ? 0.0 : round_ends[0] - t0; }
  [[nodiscard]] double join_s() const { return setup_s() - build_s(); }
  /// Rounds timed: every round after round 0, whose end closes the set-up.
  [[nodiscard]] std::vector<double> round_s() const {
    std::vector<double> out;
    for (std::size_t r = 1; r < round_ends.size(); ++r) {
      out.push_back(round_ends[r] - round_ends[r - 1]);
    }
    return out;
  }
  [[nodiscard]] double timed_s() const {
    return round_ends.size() < 2 ? 0.0 : round_ends.back() - round_ends.front();
  }
  /// First round whose accuracy reaches `target`; rounds when never.
  [[nodiscard]] std::size_t rounds_to_target(double target) const {
    for (std::size_t r = 0; r < accuracy.size(); ++r) {
      if (accuracy[r] >= target) return r;
    }
    return accuracy.size();
  }
};

struct Reference {
  std::vector<float> global;
  std::vector<double> accuracy;
  std::vector<std::vector<float>> leaf_models;
  double wall_s = 0.0;
  bool ok = false;
};

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The pump loop every federation runs: drain the loopback, drive the nodes'
// timers, sleep only when nothing was delivered.  In a traced run the idle
// work and the sleeps get spans of their own, so the spans tile the loop.
bool pump(MeteredLoopback& transport, const std::function<void()>& idle,
          const std::function<bool()>& done) {
  obs::TraceBuffer* sink = transport.trace_sink();
  const double deadline = now() + kFederationDeadlineS;
  while (!done()) {
    if (now() >= deadline) return false;
    const std::size_t delivered = transport.poll(0.0);
    {
      obs::Span span(sink, "bench.idle");
      idle();
    }
    if (delivered == 0) {
      obs::Span span(sink, "bench.wait");
      std::this_thread::sleep_for(kIdleSleep);
    }
  }
  return true;
}

void collect(const MeteredLoopback& transport, FederationRun& out) {
  out.round_ends = transport.round_ends();
  out.stats = transport.stats();
  out.frames = transport.frames_by_kind();
  out.bytes = transport.bytes_by_kind();
  out.backlog_max = transport.backlog_max();
}

FederationRun run_tree(const Workload& w, const Reference& ref, obs::TraceBuffer* sink) {
  const net::FederationConfig& config = w.config;
  abdhfl::topology::HierSpec spec;
  (void)abdhfl::topology::parse_tree_spec(config.tree, spec);
  FederationRun out;
  out.traced = sink != nullptr;
  out.t0 = now();
  MeteredLoopback transport;
  transport.set_trace(sink);
  net::RootNode root(config, transport);
  std::vector<std::unique_ptr<hier::AggregatorNode>> aggs;
  for (std::size_t level = 1; level < spec.process_levels(); ++level) {
    for (std::size_t i = 0; i < spec.nodes_at(level); ++i) {
      aggs.push_back(
          std::make_unique<hier::AggregatorNode>(config, level, i, transport, transport));
    }
  }
  transport.set_role(net::kRootId, Role::kRoot);
  for (auto& agg : aggs) {
    transport.set_role(agg->id(), agg->leaf_head() ? Role::kLeafHead : Role::kMid);
  }
  out.start = now();
  {
    obs::Span span(sink, "bench.idle");
    root.start();
    for (auto& agg : aggs) agg->start();
  }
  out.finished = pump(
      transport,
      [&] {
        root.on_idle();
        for (auto& agg : aggs) agg->on_idle();
      },
      [&] {
        return root.done() && std::all_of(aggs.begin(), aggs.end(),
                                          [](const auto& a) { return a->done(); });
      });
  out.pump_s = now() - out.start;

  // Outside the timed window from here on.
  collect(transport, out);
  const net::RootResult& result = root.result();
  out.accuracy = result.round_accuracy;
  out.global = result.global_model;
  out.rounds = result.rounds_run;
  if (!out.finished || out.rounds != config.rounds) {
    out.detail = "did not finish all rounds";
    return out;
  }
  if (!bitwise_equal(out.global, ref.global)) {
    out.detail = "global model differs from run_hier_reference";
    return out;
  }
  if (out.accuracy != ref.accuracy) {
    out.detail = "per-round accuracy differs from run_hier_reference";
    return out;
  }
  std::size_t leaf = 0;
  for (auto& agg : aggs) {
    if (agg->failed()) {
      out.detail = "an aggregator failed";
      return out;
    }
    if (!agg->leaf_head()) continue;
    if (leaf >= ref.leaf_models.size() || !bitwise_equal(agg->model(), ref.leaf_models[leaf])) {
      out.detail = "leaf-head model " + std::to_string(leaf) + " differs from reference";
      return out;
    }
    ++leaf;
  }
  out.correct = leaf == ref.leaf_models.size();
  if (!out.correct) out.detail = "leaf-head count differs from reference";
  return out;
}

// `ref` null: this IS the unfailed reference run (no kill, self-consistency
// checks only).
FederationRun run_committee(const Workload& w, const Reference* ref, obs::TraceBuffer* sink) {
  const net::FederationConfig& config = w.config;
  FederationRun out;
  out.traced = sink != nullptr;
  out.t0 = now();
  MeteredLoopback transport;
  transport.set_trace(sink);
  std::vector<std::unique_ptr<net::TopClusterNode>> tops;
  for (std::size_t t = 0; t < config.top_cluster; ++t) {
    tops.push_back(std::make_unique<net::TopClusterNode>(config, t, transport));
    transport.set_role(net::top_node_id(t), Role::kTop);
  }
  std::vector<std::unique_ptr<net::WorkerNode>> workers;
  for (std::size_t i = 0; i < config.workers; ++i) {
    workers.push_back(std::make_unique<net::WorkerNode>(config, i, transport));
    transport.set_role(net::worker_node_id(i), Role::kWorker);
  }
  transport.set_leader_probe([&tops](net::NodeId id) {
    return tops[id - net::kTopIdBase]->is_leader();
  });
  const bool kill = ref != nullptr;
  const std::size_t kill_round = config.rounds / 2;
  if (kill) transport.arm_kill(kill_round);
  const auto alive = [&](std::size_t t) {
    return !transport.killed() || transport.victim() != net::top_node_id(t);
  };
  out.start = now();
  {
    obs::Span span(sink, "bench.idle");
    for (auto& top : tops) top->start();
    for (auto& worker : workers) worker->start();
  }
  out.finished = pump(
      transport,
      [&] {
        // A killed member's process is gone: never driven again.
        for (std::size_t t = 0; t < tops.size(); ++t) {
          if (alive(t)) tops[t]->on_idle();
        }
        for (auto& worker : workers) worker->on_idle();
      },
      [&] {
        for (std::size_t t = 0; t < tops.size(); ++t) {
          if (alive(t) && !tops[t]->done()) return false;
        }
        return std::all_of(workers.begin(), workers.end(),
                           [](const auto& wk) { return wk->done(); });
      });
  out.pump_s = now() - out.start;

  // Outside the timed window from here on.
  collect(transport, out);
  std::vector<const net::TopClusterNode*> survivors;
  for (std::size_t t = 0; t < tops.size(); ++t) {
    if (alive(t)) survivors.push_back(tops[t].get());
  }
  const net::TopClusterNode& first = *survivors.front();
  out.accuracy = first.result().round_accuracy;
  out.global = first.result().global_model;
  out.rounds = first.result().rounds_run;
  out.commits = first.commit_index();
  out.terms = first.term();
  for (const auto* top : survivors) out.elections = std::max(out.elections, top->elections_seen());
  if (transport.killed() && transport.round_ends().size() > kill_round + 1) {
    out.failover_s = transport.round_ends()[kill_round + 1] - transport.kill_time();
  }

  if (!out.finished || out.rounds != config.rounds) {
    out.detail = "did not finish all rounds";
    return out;
  }
  if (kill && !transport.killed()) {
    out.detail = "the leader was never killed";
    return out;
  }
  for (const auto& worker : workers) {
    if (!worker->done() || worker->failed()) {
      out.detail = "a worker failed";
      return out;
    }
  }
  for (const auto* top : survivors) {
    if (top->commit_index() != first.commit_index() ||
        !bitwise_equal(top->result().global_model, out.global) ||
        top->result().round_accuracy != out.accuracy) {
      out.detail = "survivors disagree on the committed global";
      return out;
    }
  }
  if (ref != nullptr) {
    if (!bitwise_equal(out.global, ref->global)) {
      out.detail = "committed global differs from the unfailed run";
      return out;
    }
    if (out.accuracy != ref->accuracy) {
      out.detail = "per-round accuracy differs from the unfailed run";
      return out;
    }
  }
  out.correct = true;
  return out;
}

Reference make_reference(const Workload& w) {
  Reference ref;
  const double t0 = now();
  if (w.committee) {
    const FederationRun run = run_committee(w, nullptr, nullptr);
    ref.global = run.global;
    ref.accuracy = run.accuracy;
    ref.ok = run.correct;
  } else {
    hier::HierReferenceResult r = hier::run_hier_reference(w.config);
    ref.global = std::move(r.global_model);
    ref.accuracy = std::move(r.round_accuracy);
    ref.leaf_models = std::move(r.leaf_models);
    ref.ok = r.rounds_run == w.config.rounds;
  }
  ref.wall_s = now() - t0;
  return ref;
}

FederationRun run_federation(const Workload& w, const Reference& ref, bool traced) {
  std::unique_ptr<obs::TraceBuffer> buffer;
  if (traced) buffer = std::make_unique<obs::TraceBuffer>(kTraceCapacity);
  FederationRun run =
      w.committee ? run_committee(w, &ref, buffer.get()) : run_tree(w, ref, buffer.get());
  if (buffer) {
    run.layers = fedbench::self_times(buffer->snapshot());
    if (buffer->dropped() != 0) {
      std::fprintf(stderr, "fedbench: trace buffer dropped %llu spans\n",
                   static_cast<unsigned long long>(buffer->dropped()));
    }
  }
  return run;
}

// ---------------------------------------------------------------------------
// Provenance

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---------------------------------------------------------------------------
// Statistics and output

double median(std::vector<double> xs) {
  return xs.empty() ? 0.0 : abdhfl::util::percentile(xs, 50.0);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t n;
};

void print_metric(const Metric& m) {
  std::printf("metric %-32s %14.6f %-8s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(), m.n);
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    // A failed federation can leave a ratio undefined; keep the line valid
    // JSON (such a run reports correct = false anyway).
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), value, metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

// Counts that a deterministic program repeats exactly on every federation of
// one seed.  Timer-driven committee traffic (votes, heartbeats, the acks they
// trigger) is excluded: its amount follows wall-clock timeouts by design.
struct ExactCounts {
  std::uint64_t data_frames = 0;  // ModelUpdate + PartialModel + Membership + Status
  std::uint64_t data_bytes = 0;
  std::uint64_t commits = 0;
  std::size_t rounds_to_target = 0;

  bool operator==(const ExactCounts&) const = default;
};

ExactCounts exact_counts(const FederationRun& run, double target) {
  ExactCounts c;
  for (const net::MsgKind kind : {net::MsgKind::kModelUpdate, net::MsgKind::kPartialModel,
                                  net::MsgKind::kMembership, net::MsgKind::kStatusRequest,
                                  net::MsgKind::kStatusReply}) {
    const auto i = static_cast<std::size_t>(kind) - 1;
    c.data_frames += run.frames[i];
    c.data_bytes += run.bytes[i];
  }
  c.commits = run.commits;
  c.rounds_to_target = run.rounds_to_target(target);
  return c;
}

void print_layer_table(const Workload& w, const std::vector<const FederationRun*>& traced) {
  SelfTimes total;
  double wall = 0.0;
  std::size_t rounds = 0;
  for (const auto* run : traced) {
    total.add(run->layers);
    wall += run->pump_s;
    rounds += run->rounds;
  }
  std::vector<std::pair<std::string, double>> rows(total.by_kind.begin(), total.by_kind.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("\ntraced self time, %s (%zu federations, %zu rounds, %zu spans)\n",
              w.name.c_str(), traced.size(), rounds, total.spans);
  std::printf("  %-20s %12s %8s\n", "span", "ms/round", "share");
  for (const auto& [kind, s] : rows) {
    std::printf("  %-20s %12.4f %7.2f%%\n", kind.c_str(), 1e3 * s / static_cast<double>(rounds),
                100.0 * s / wall);
  }
  std::printf("  %-20s %12.4f %7.2f%%  (traced wall %.3f s)\n", "sum",
              1e3 * total.total() / static_cast<double>(rounds), 100.0 * total.total() / wall,
              wall);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else if (key == "--src-digest") {
      args.src_digest = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

std::string join_sizes(const std::vector<std::size_t>& xs) {
  std::string out;
  for (std::size_t i = 0; i < xs.size(); ++i) out += (i ? "," : "") + std::to_string(xs[i]);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: fedbench --workload vdev-train|wide-dense|committee-q8 --seed N "
                 "--seconds S --trace 0|1 [--git-sha SHA] [--src-digest HEX]\n");
    return 2;
  }
  Workload w;
  if (!make_workload(args.workload, args.seed, w)) {
    std::fprintf(stderr, "fedbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const net::FederationConfig& c = w.config;

  std::printf("fedbench workload=%s seed=%llu seconds=%g trace=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("provenance nproc=%d cpu=\"%s\" compiler=\"g++ %s\" flags=\"%s\" "
              "build_type=%s native=%s git=%s src_digest=%s\n",
              online_cpus(), cpu_model().c_str(), __VERSION__, FEDBENCH_CXX_FLAGS,
              FEDBENCH_BUILD_TYPE, FEDBENCH_NATIVE, args.git_sha.c_str(),
              args.src_digest.c_str());
  const std::size_t params = net::build_federation_data(c).init_params.size();
  std::printf("config %s=%s image_side=%zu hidden=%s params=%zu local_iters=%zu batch=%zu "
              "samples_per_class=%zu test_samples_per_class=%zu lr=%g alpha=%g "
              "cluster_rule=%s root_rule=%s quantize_bits=%u rounds=%zu "
              "target_accuracy=%g%s\n",
              w.committee ? "committee" : "tree",
              w.committee ? (std::to_string(c.top_cluster) + "x" + std::to_string(c.workers) +
                             "x" + std::to_string(c.devices_per_worker))
                                .c_str()
                          : c.tree.c_str(),
              c.image_side, join_sizes(c.hidden).c_str(), params, c.local_iters, c.batch,
              c.samples_per_class, c.test_samples_per_class, c.learning_rate, c.alpha,
              c.cluster_rule.c_str(), c.root_rule.c_str(), unsigned{c.quantize_bits},
              c.rounds, w.target_accuracy,
              w.committee ? (" kill_leader_after_round=" + std::to_string(c.rounds / 2)).c_str()
                          : "");
  std::fflush(stdout);

  // Reference first, outside every timed window.
  const Reference ref = make_reference(w);
  std::printf("reference %s: %.3f s, final accuracy %.4f%s\n",
              w.committee ? "unfailed live run" : "run_hier_reference", ref.wall_s,
              ref.accuracy.empty() ? 0.0 : ref.accuracy.back(), ref.ok ? "" : " (FAILED)");
  std::printf("reference accuracy by round:");
  for (const double a : ref.accuracy) std::printf(" %.3f", a);
  std::printf("\n");

  // Measure: whole federations back to back until the budget is spent and,
  // untraced, until round_ms_p90 has kMinTimedRounds samples.  A traced run
  // alternates untraced and traced federations.
  std::vector<FederationRun> runs;
  const double budget_end = now() + args.seconds;
  std::size_t n_plain = 0;
  std::size_t n_traced = 0;
  std::size_t timed_rounds = 0;
  const auto more = [&] {
    if (n_plain == 0 || (args.trace && n_traced == 0)) return true;
    const double t = now();
    if (t < budget_end) return true;
    return !args.trace && timed_rounds < kMinTimedRounds && t < budget_end + kOverrunS;
  };
  while (more()) {
    const bool traced = args.trace && n_traced < n_plain;
    runs.push_back(run_federation(w, ref, traced));
    ++(traced ? n_traced : n_plain);
    if (!traced) timed_rounds += runs.back().round_s().size();
  }

  // Checks and failure accounting.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = ref.ok;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const FederationRun& run = runs[i];
    attempted += c.rounds;
    std::uint64_t lost = c.rounds - std::min(run.rounds, c.rounds);
    for (const double s : run.round_s()) lost += s > kRoundDeadlineS ? 1 : 0;
    if (!run.correct || !ref.ok) lost = c.rounds;
    failed += std::min<std::uint64_t>(lost, c.rounds);
    correct = correct && run.correct;
    std::printf("check federation %zu%s: %s%s (round_ms_p50 %.3f, setup_s %.4f)\n", i,
                run.traced ? " (traced)" : "",
                run.correct ? "bitwise equal to the reference" : "FAILED: ",
                run.correct ? "" : run.detail.c_str(), 1e3 * median(run.round_s()),
                run.setup_s());
  }

  // Exact-count guard: one seed, so every federation must repeat the counts.
  const ExactCounts expect = exact_counts(runs.front(), w.target_accuracy);
  bool deterministic = true;
  for (const auto& run : runs) {
    deterministic = deterministic && exact_counts(run, w.target_accuracy) == expect;
  }
  const double R = static_cast<double>(c.rounds);
  std::printf("guard data_frames_per_round=%.4f data_bytes_per_round=%.1f "
              "commits_per_round=%.4f rounds_to_target=%zu: %s\n",
              static_cast<double>(expect.data_frames) / R,
              static_cast<double>(expect.data_bytes) / R, static_cast<double>(expect.commits) / R,
              expect.rounds_to_target,
              deterministic ? "repeated exactly" : "NONDETERMINISTIC across federations");
  correct = correct && deterministic;
  if (!deterministic) {
    for (const auto& run : runs) {
      const ExactCounts got = exact_counts(run, w.target_accuracy);
      std::printf("  counts frames=%llu bytes=%llu commits=%llu rounds_to_target=%zu\n",
                  static_cast<unsigned long long>(got.data_frames),
                  static_cast<unsigned long long>(got.data_bytes),
                  static_cast<unsigned long long>(got.commits), got.rounds_to_target);
    }
  }

  std::vector<const FederationRun*> plain;
  std::vector<const FederationRun*> traced;
  for (const auto& run : runs) (run.traced ? traced : plain).push_back(&run);
  const auto rounds_per_s = [](const std::vector<const FederationRun*>& set) {
    double rounds = 0.0;
    double seconds = 0.0;
    for (const auto* run : set) {
      rounds += static_cast<double>(run->round_s().size());
      seconds += run->timed_s();
    }
    return seconds > 0.0 ? rounds / seconds : 0.0;
  };

  // Time to target and failover are printed with the end-to-end metrics but
  // are not bounded: rounds-to-target moves with the seed (README.md).
  std::vector<double> ttt;
  std::vector<double> failover;
  for (const auto* run : plain) {
    const std::size_t r = run->rounds_to_target(w.target_accuracy);
    if (r < run->round_ends.size()) ttt.push_back(run->round_ends[r] - run->start);
    if (run->failover_s >= 0.0) failover.push_back(run->failover_s);
  }

  std::vector<Metric> e2e;
  {
    std::vector<double> round_ms;
    std::vector<double> setup;
    std::vector<double> wire;
    for (const auto* run : plain) {
      for (const double s : run->round_s()) round_ms.push_back(1e3 * s);
      setup.push_back(run->setup_s());
      wire.push_back(static_cast<double>(run->stats.bytes_sent) / R / 1e6);
    }
    const std::size_t n_rounds = round_ms.size();
    e2e.push_back({"rounds_per_s", rounds_per_s(plain), "1/s", n_rounds});
    e2e.push_back({"round_ms_p50", median(round_ms), "ms", n_rounds});
    e2e.push_back({"round_ms_p90",
                   round_ms.empty() ? 0.0 : abdhfl::util::percentile(round_ms, 90.0), "ms",
                   n_rounds});
    const std::vector<double>& accuracy = plain.front()->accuracy;
    e2e.push_back({"final_accuracy", accuracy.empty() ? 0.0 : accuracy.back(), "fraction",
                   plain.size()});
    e2e.push_back({"setup_s", median(setup), "s", setup.size()});
    e2e.push_back({"wire_mb_per_round", median(wire), "MB", wire.size()});
    e2e.push_back({"peak_rss_mb", peak_rss_mib(), "MiB", 1});
    std::printf("\nend-to-end (%zu untraced federations of %zu rounds; round 0 is set-up)\n",
                plain.size(), c.rounds);
    for (const auto& m : e2e) print_metric(m);
    print_metric({"time_to_target_s", median(ttt), "s", ttt.size()});
    if (w.committee) print_metric({"failover_s", median(failover), "s", failover.size()});
    print_metric({"failed_frac", static_cast<double>(failed) / static_cast<double>(attempted),
                  "fraction", attempted});
    if (n_rounds < kMinTimedRounds) {
      std::printf("note: round_ms_p90 rests on %zu rounds; %zu put 10 samples beyond it\n",
                  n_rounds, kMinTimedRounds);
    }
  }

  std::vector<Metric> layer;
  if (args.trace) {
    print_layer_table(w, traced);
    SelfTimes t;
    double wall = 0.0;
    double rounds = 0.0;
    std::vector<double> build;
    std::vector<double> join;
    for (const auto* run : traced) {
      t.add(run->layers);
      wall += run->pump_s;
      rounds += static_cast<double>(run->rounds);
      build.push_back(run->build_s());
      join.push_back(run->join_s());
    }
    // The self times partition the pump loop; a shortfall means dropped spans
    // or untraced work, and the per-layer numbers cannot be trusted.
    const double coverage = wall > 0.0 ? t.total() / wall : 0.0;
    const bool covered = std::abs(coverage - 1.0) <= 0.05;
    std::printf("trace coverage %.4f of traced wall time: %s\n", coverage,
                covered ? "within 5%" : "OUTSIDE 5%");
    correct = correct && covered;
    const auto ms = [&](std::initializer_list<const char*> kinds) {
      double s = 0.0;
      for (const char* k : kinds) s += t.get(k);
      return rounds > 0.0 ? 1e3 * s / rounds : 0.0;
    };
    const FederationRun& f = *traced.front();
    const auto per_round = [&](std::uint64_t x) { return static_cast<double>(x) / R; };
    const auto kind_frames = [&](std::initializer_list<net::MsgKind> kinds) {
      std::uint64_t n = 0;
      for (const auto k : kinds) n += f.frames[static_cast<std::size_t>(k) - 1];
      return per_round(n);
    };
    std::uint64_t frames = 0;
    for (const auto n : f.frames) frames += n;
    const double untraced_rps = rounds_per_s(plain);
    const double traced_rps = rounds_per_s(traced);
    std::vector<double> plain_pump;
    for (const auto* run : plain) plain_pump.push_back(run->pump_s);
    layer = {
        {"core.train_ms", ms({"bench.device", "train"}), "ms", traced.size()},
        {"hier.head_ms", ms({"bench.leaf_head", "bench.mid", "bench.worker", "worker_round"}),
         "ms", traced.size()},
        {"agg.fold_ms", ms({"subtree_agg", "global_agg"}), "ms", traced.size()},
        {"hier.merge_ms", ms({"merge"}), "ms", traced.size()},
        {"net.root_ms", ms({"bench.root", "bench.leader", "bench.follower"}), "ms",
         traced.size()},
        {"net.send_ms", ms({"bench.send", "net_send"}), "ms", traced.size()},
        {"net.poll_ms", ms({"bench.poll", "net_recv"}), "ms", traced.size()},
        {"pump.idle_ms", ms({"bench.idle", "bench.wait"}), "ms", traced.size()},
        {"trace.coverage", coverage, "ratio", traced.size()},
        {"trace.overhead", untraced_rps > 0.0 ? traced_rps / untraced_rps : 0.0, "ratio",
         traced.size()},
        {"net.frames_per_round", per_round(frames), "count", 1},
        {"net.update_frames_per_round", kind_frames({net::MsgKind::kModelUpdate}), "count", 1},
        {"net.partial_frames_per_round", kind_frames({net::MsgKind::kPartialModel}), "count", 1},
        {"net.control_frames_per_round",
         kind_frames({net::MsgKind::kMembership, net::MsgKind::kStatusRequest,
                      net::MsgKind::kStatusReply}),
         "count", 1},
        {"net.raft_frames_per_round",
         kind_frames({net::MsgKind::kVoteRequest, net::MsgKind::kVoteReply,
                      net::MsgKind::kAppendEntries, net::MsgKind::kHeartbeat}),
         "count", 1},
        {"net.wire_bytes_per_round", per_round(f.stats.bytes_sent), "bytes", 1},
        {"net.raw_bytes_per_round", per_round(f.stats.bytes_sent_raw), "bytes", 1},
        {"net.compression_ratio",
         f.stats.bytes_sent > 0 ? static_cast<double>(f.stats.bytes_sent_raw) /
                                      static_cast<double>(f.stats.bytes_sent)
                                : 0.0,
         "ratio", 1},
        {"net.decode_errors", static_cast<double>(f.stats.decode_errors), "count", 1},
        {"net.peer_losses", static_cast<double>(f.stats.peer_losses), "count", 1},
        {"net.backlog_bytes_max", static_cast<double>(f.backlog_max), "bytes", 1},
        {"consensus.commits_per_round", per_round(f.commits), "count", 1},
        {"consensus.elections", static_cast<double>(f.elections), "count", 1},
        {"consensus.terms", static_cast<double>(f.terms), "count", 1},
        {"consensus.wasted_terms",
         static_cast<double>(f.terms - std::min(f.terms, f.elections)), "count", 1},
        {"quality.time_to_target_s", median(ttt), "s", ttt.size()},
        {"quality.rounds_to_target", static_cast<double>(expect.rounds_to_target), "count", 1},
        {"setup.build_s", median(build), "s", build.size()},
        {"setup.join_s", median(join), "s", join.size()},
        {"reference_s", ref.wall_s, "s", 1},
        {"dist_overhead", ref.wall_s > 0.0 ? median(plain_pump) / ref.wall_s : 0.0, "ratio",
         plain_pump.size()},
    };
    std::printf("\nper-layer (traced federations: %zu; per round = over %g rounds)\n",
                traced.size(), rounds);
    for (const auto& m : layer) print_metric(m);
    if (w.committee) {
      std::printf("split leader %.4f ms, follower %.4f ms per round\n",
                  ms({"bench.leader"}), ms({"bench.follower"}));
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(args.trace ? layer : e2e).c_str());
  return 0;
}
