// Standalone federation node: one process of an ABD-HFL tree over real TCP
// sockets (src/net).  Every process rebuilds the same data and initial model
// from --seed, so the federation's result is comparable with the in-process
// runners.
//
// Classic 2-level quickstart:
//
//   terminal 1:  ./abdhfl_node --role root --port 9400 --workers 1
//   terminal 2:  ./abdhfl_node --role worker --index 0 --port 9400
//
// N-level tree (README "Running a 4-level tree"): the SAME binary sits at
// any depth.  --tree describes the whole tree ("1,1,1000" = root, one mid
// aggregator, one leaf head multiplexing 1000 virtual devices); every
// interior process runs --role aggregator with its --level and --index, a
// leaf head hosts its slice of virtual devices over an in-process loopback
// instead of spawning device processes:
//
//   terminal 1:  ./abdhfl_node --role root       --tree 1,1,1000 --port 9400
//   terminal 2:  ./abdhfl_node --role aggregator --tree 1,1,1000 --level 1
//                  --index 0 --port 9400 --listen-port 9401
//   terminal 3:  ./abdhfl_node --role aggregator --tree 1,1,1000 --level 2
//                  --index 0 --port 9401
//
// Leader-rotation top cluster (README "Surviving a leader failure"): N
// co-equal tops replace the single root; top t listens on port+t, workers
// dial all of them.  Killing the leader mid-round re-elects and the round
// resumes bitwise:
//
//   terminal 1:  ./abdhfl_node --role top --index 0 --top-cluster 3 --port 9400
//   terminal 2:  ./abdhfl_node --role top --index 1 --top-cluster 3 --port 9400
//   terminal 3:  ./abdhfl_node --role top --index 2 --top-cluster 3 --port 9400
//   terminal 4:  ./abdhfl_node --role worker --index 0 --top-cluster 3 --port 9400
//
// The root waits for all expected joins (or --join-timeout), runs --rounds
// global rounds, prints the per-round accuracy, and exits once every child
// said goodbye.  Children that die mid-run degrade the federation instead of
// wedging it; with --rejoin-grace a collector instead holds the round open
// for an evicted child, which is what makes a mid-tier kill + --resume run
// bitwise identical to an uninterrupted one.
//
// With --checkpoint-dir every process snapshots its state per round into its
// own subdirectory (root/, worker-<i>/, agg-<level>-<index>/); restarting a
// killed process with --resume added restores the latest snapshot and
// rejoins the federation mid-training instead of retraining from round 0
// (README "Crash recovery").

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "ckpt/store.hpp"
#include "net/hier/aggregator.hpp"
#include "net/loopback.hpp"
#include "net/node.hpp"
#include "net/tcp.hpp"
#include "net/top_cluster.hpp"
#include "obs/blackbox.hpp"
#include "obs/obs.hpp"
#include "obs/record.hpp"
#include "obs/trace.hpp"
#include "topology/plan.hpp"
#include "util/cli.hpp"

namespace {

abdhfl::net::FederationConfig config_from_cli(abdhfl::util::Cli& cli) {
  abdhfl::net::FederationConfig config;
  config.seed = static_cast<std::uint64_t>(cli.integer("seed", 17, "RNG seed"));
  config.workers = static_cast<std::size_t>(
      cli.integer("workers", 2, "cluster leaders the root waits for (2-level)"));
  config.devices_per_worker = static_cast<std::size_t>(
      cli.integer("devices-per-worker", 2, "bottom devices each worker trains"));
  config.tree = cli.str(
      "tree", "", "N-level tree spec A,B,...,V (last entry = virtual devices per "
                  "leaf head; empty = classic 2-level)");
  config.rounds = static_cast<std::size_t>(cli.integer("rounds", 4, "global rounds"));
  config.local_iters = static_cast<std::size_t>(
      cli.integer("local-iters", 8, "SGD iterations per device round"));
  config.batch = static_cast<std::size_t>(cli.integer("batch", 16, "mini-batch size"));
  config.learning_rate = cli.real("lr", 0.05, "SGD learning rate");
  config.alpha = cli.real("alpha", 0.5, "Eq. 1 correction factor");
  config.samples_per_class = static_cast<std::size_t>(
      cli.integer("samples-per-class", 12, "training samples per digit class"));
  config.cluster_rule = cli.str("cluster-rule", "trimmed_mean", "BRA rule at workers");
  config.root_rule = cli.str("root-rule", "median", "BRA rule at the root");
  config.quantize_bits = static_cast<std::uint8_t>(
      cli.integer("quantize-bits", 0, "link codec: 0 = raw float32, 1..8 = quantized"));
  const std::string compress = cli.str(
      "compress", "", "codec spec: topk:K, delta, or topk:K,delta (negotiated per link)");
  if (!abdhfl::net::apply_compress_spec(compress, config)) {
    std::fprintf(stderr, "invalid --compress spec '%s'\n", compress.c_str());
    std::exit(2);
  }
  config.top_cluster = static_cast<std::size_t>(cli.integer(
      "top-cluster", 0,
      "leader-rotation committee size (0 = classic single root; DESIGN.md §15)"));
  config.initial_workers = static_cast<std::size_t>(cli.integer(
      "initial-workers", 0, "join gate: workers the root waits for (0 = --workers)"));
  config.heartbeat_s = cli.real("heartbeat", 0.05, "top-cluster leader keepalive (s)");
  config.election_min_s =
      cli.real("election-min", 0.25, "top-cluster election timeout lower bound (s)");
  config.election_max_s =
      cli.real("election-max", 0.5, "top-cluster election timeout upper bound (s)");
  config.join_timeout_s = cli.real("join-timeout", 20.0, "root's wait for joins (s)");
  config.round_timeout_s = cli.real("round-timeout", 60.0, "root's wait per round (s)");
  config.rejoin_grace_s = cli.real(
      "rejoin-grace", 0.0, "hold a round open this long for an evicted child (s)");
  config.poll_interval_s = cli.real(
      "poll-interval", 0.05,
      "idle poll tick (s); under the epoll reactor this is only the upper bound "
      "on a quiet poll's sleep, not a latency floor");
  return config;
}

// Committee members and workers may start in any order: keep dialing until
// the peer's listener is up or the budget runs out.
bool dial_with_retry(abdhfl::net::TcpTransport& transport, abdhfl::net::NodeId peer,
                     const std::string& host, std::uint16_t port, double budget_s) {
  const double end = abdhfl::net::hier::wall_now() + budget_s;
  for (;;) {
    if (transport.connect_peer(peer, host, port)) return true;
    if (abdhfl::net::hier::wall_now() >= end) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

void print_traffic(const abdhfl::net::TransportStats& stats) {
  std::printf("traffic: %llu frames / %llu bytes sent, %llu frames / %llu bytes "
              "received, %llu retries, %llu peer losses\n",
              static_cast<unsigned long long>(stats.frames_sent),
              static_cast<unsigned long long>(stats.bytes_sent),
              static_cast<unsigned long long>(stats.frames_received),
              static_cast<unsigned long long>(stats.bytes_received),
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(stats.peer_losses));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace abdhfl;

  util::Cli cli(argc, argv);
  const std::string role = cli.str("role", "root", "root | worker | aggregator");
  const auto index = static_cast<std::size_t>(
      cli.integer("index", 0, "sibling index (worker / aggregator role)"));
  const auto level = static_cast<std::size_t>(
      cli.integer("level", 1, "tree level (aggregator role; 1 = under the root)"));
  const std::string host =
      cli.str("host", "127.0.0.1", "parent's address (worker / aggregator role)");
  const auto port = static_cast<std::uint16_t>(cli.integer(
      "port", 9400, "parent's TCP port (root role: own listen port, 0 = ephemeral)"));
  const auto listen_port = static_cast<std::uint16_t>(cli.integer(
      "listen-port", 0, "own listen port for child links (mid-level aggregator)"));
  const double deadline = cli.real("deadline", 600.0, "overall wall-clock budget (s)");
  net::FederationConfig config = config_from_cli(cli);
  const auto obs_opts = obs::declare_cli(cli);
  const auto ckpt_opts = ckpt::declare_cli(cli);
  const auto bb_opts = obs::blackbox::declare_cli(cli);
  if (!cli.finish()) return 0;

  // Resolve this process's node id up front: the flight recorder, trace
  // buffer and checkpoint directory are all keyed on it.
  topology::HierSpec spec;
  const bool tree_mode = !config.tree.empty();
  if (tree_mode && !topology::parse_tree_spec(config.tree, spec)) {
    std::fprintf(stderr, "invalid --tree spec '%s'\n", config.tree.c_str());
    return 2;
  }
  net::NodeId self = net::kRootId;
  if (role == "worker") {
    self = net::worker_node_id(index);
  } else if (role == "top") {
    if (config.top_cluster == 0 || index >= config.top_cluster) {
      std::fprintf(stderr, "--role top requires --top-cluster N with --index < N\n");
      return 2;
    }
    self = net::top_node_id(index);
  } else if (role == "aggregator") {
    if (!tree_mode) {
      std::fprintf(stderr, "--role aggregator requires --tree\n");
      return 2;
    }
    if (level == 0 || level >= spec.process_levels() ||
        index >= spec.nodes_at(level)) {
      std::fprintf(stderr, "--level %zu --index %zu is outside tree '%s'\n", level,
                   index, config.tree.c_str());
      return 2;
    }
    self = topology::HierPlan(spec).node_id(level, index);
  }

  // Flight recorder + crash handlers + (with --stall-after) the stall
  // watchdog, armed under this process's node id (DESIGN.md §13).
  obs::blackbox::arm(bb_opts, self);

  obs::Recorder recorder;
  obs::TraceBuffer trace;
  trace.set_node(self);
  obs::Recorder* rec = obs_opts.active() ? &recorder : nullptr;
  config.trace = !obs_opts.trace_out.empty();  // stamp trace contexts on frames

  // Per-node store: each process owns its own snapshot directory, so one
  // --checkpoint-dir can serve a whole single-host federation.
  std::unique_ptr<ckpt::Store> store;
  if (ckpt_opts.active()) {
    std::string subdir = "/root";
    if (role == "worker") {
      subdir = "/worker-" + std::to_string(index);
    } else if (role == "aggregator") {
      subdir = "/agg-" + std::to_string(level) + "-" + std::to_string(index);
    }
    store = std::make_unique<ckpt::Store>(ckpt_opts.dir + subdir, 3, rec);
  }

  if (role == "root") {
    net::TcpTransport transport(net::kRootId);
    const std::uint16_t bound = transport.listen(port);
    if (obs_opts.active()) transport.set_trace(&trace);
    const std::size_t expected = tree_mode ? spec.branching.front() : config.workers;
    std::printf("root: listening on port %u, waiting for %zu %s\n", bound, expected,
                tree_mode ? "aggregator(s)" : "worker(s)");
    std::fflush(stdout);

    net::RootNode root(config, transport, rec, store.get(), ckpt_opts.every,
                       ckpt_opts.resume);
    if (root.resume_round() > 0) {
      std::printf("root: resumed from checkpoint at round %zu\n", root.resume_round());
    }
    root.start();
    const bool finished = net::pump_until(
        transport, [&] { root.on_idle(); return root.done(); }, deadline,
        config.poll_interval_s);
    const net::RootResult& result = root.result();

    std::printf("\n%-7s %-10s\n", "round", "accuracy");
    for (std::size_t r = 0; r < result.round_accuracy.size(); ++r) {
      std::printf("%-7zu %-10.4f\n", r + 1, result.round_accuracy[r]);
    }
    std::printf("\nfinal accuracy %.4f  (%zu/%zu rounds, %zu joined, %zu lost)\n",
                result.final_accuracy, result.rounds_run, config.rounds,
                result.workers_joined, result.workers_lost);
    print_traffic(transport.stats());
    if (rec != nullptr) transport.record_traffic(*rec, result.rounds_run);
    obs::write_outputs(obs_opts, recorder, obs_opts.active() ? &trace : nullptr);
    return finished && result.rounds_run > 0 ? 0 : 1;
  }

  if (role == "top") {
    // Committee member `index` of a leader-rotation top cluster: listens on
    // port+index, dials every lower-ranked member (one TCP link per committee
    // pair), and expects workers to dial all of us.
    net::TcpTransport transport(self);
    const std::uint16_t bound =
        transport.listen(static_cast<std::uint16_t>(port + index));
    if (obs_opts.active()) transport.set_trace(&trace);
    for (std::size_t s = 0; s < index; ++s) {
      const net::NodeId peer = net::top_node_id(s);
      transport.set_peer_link_class(peer, net::kTopLinkClass);
      if (!dial_with_retry(transport, peer, host,
                           static_cast<std::uint16_t>(port + s),
                           config.join_timeout_s)) {
        std::fprintf(stderr, "top %zu: cannot reach committee member %zu at %s:%u\n",
                     index, s, host.c_str(),
                     static_cast<unsigned>(port + s));
        return 1;
      }
    }
    std::printf("top %zu (node %u): listening on port %u, committee of %zu\n", index,
                self, bound, config.top_cluster);
    std::fflush(stdout);

    net::TopClusterNode top(config, index, transport, rec);
    top.start();
    const bool finished = net::pump_until(
        transport, [&] { top.on_idle(); return top.done(); }, deadline,
        config.poll_interval_s);
    const net::RootResult& result = top.result();

    std::printf("\n%-7s %-10s\n", "round", "accuracy");
    for (std::size_t r = 0; r < result.round_accuracy.size(); ++r) {
      std::printf("%-7zu %-10.4f\n", r + 1, result.round_accuracy[r]);
    }
    std::printf("\nfinal accuracy %.4f  (%zu/%zu rounds, %zu joined, %zu lost)\n",
                result.final_accuracy, result.rounds_run, config.rounds,
                result.workers_joined, result.workers_lost);
    std::printf("consensus: term %llu, leader %u%s, commit index %llu, "
                "%llu election(s)\n",
                static_cast<unsigned long long>(top.term()), top.leader(),
                top.is_leader() ? " (me)" : "",
                static_cast<unsigned long long>(top.commit_index()),
                static_cast<unsigned long long>(top.elections_seen()));
    print_traffic(transport.stats());
    if (rec != nullptr) transport.record_traffic(*rec, result.rounds_run);
    obs::write_outputs(obs_opts, recorder, obs_opts.active() ? &trace : nullptr);
    return finished && result.rounds_run > 0 ? 0 : 1;
  }

  if (role == "aggregator") {
    const topology::HierPlan plan(spec);
    const bool leaf = level == spec.process_levels() - 1;
    net::TcpTransport transport(self);
    if (obs_opts.active()) transport.set_trace(&trace);
    std::uint16_t bound = 0;
    if (!leaf) bound = transport.listen(listen_port);
    transport.set_peer_link_class(plan.parent_of(self),
                                  static_cast<std::uint32_t>(level));
    if (!transport.connect_peer(plan.parent_of(self), host, port)) {
      std::fprintf(stderr, "aggregator %zu/%zu: cannot reach parent at %s:%u\n", level,
                   index, host.c_str(), port);
      return 1;
    }
    net::LoopbackTransport loopback;  // the leaf head's virtual-device fabric
    // Same sink as the socket transport: the device round trip must stay in
    // the round's trace or the causal chain breaks at the loopback hop.
    if (obs_opts.active()) loopback.set_trace(&trace);

    net::hier::AggregatorNode node(config, level, index, transport,
                                   leaf ? static_cast<net::Transport&>(loopback)
                                        : static_cast<net::Transport&>(transport),
                                   rec, store.get(), ckpt_opts.every,
                                   ckpt_opts.resume);
    if (leaf) {
      std::printf("aggregator %zu/%zu (node %u): leaf head, parent %s:%u, "
                  "%zu virtual device(s)\n",
                  level, index, node.id(), host.c_str(), port,
                  node.device_host()->count());
    } else {
      std::printf("aggregator %zu/%zu (node %u): listening on port %u, parent %s:%u, "
                  "%zu child(ren)\n",
                  level, index, node.id(), bound, host.c_str(), port,
                  plan.children_of(node.id()));
    }
    if (node.resume_round() > 0) {
      std::printf("aggregator %zu/%zu: resumed from checkpoint at round %zu\n", level,
                  index, node.resume_round());
    }
    std::fflush(stdout);
    node.start();
    // Two fabrics, one loop: block on the TCP reactor for up to the idle
    // tick, then drain the loopback dry — a device round trip (disseminate,
    // train, reply, fold) completes within one iteration.
    const double end = net::hier::wall_now() + deadline;
    bool finished = false;
    while (net::hier::wall_now() < end) {
      transport.poll(config.poll_interval_s);
      if (leaf) {
        while (loopback.poll(0.0) > 0) {
        }
      }
      node.on_idle();
      if (node.done()) {
        finished = true;
        break;
      }
    }
    std::printf("aggregator %zu/%zu: %s after %zu round(s)\n", level, index,
                node.failed() ? "FAILED" : "finished", node.rounds_run());
    print_traffic(transport.stats());
    if (rec != nullptr) transport.record_traffic(*rec, node.rounds_run());
    obs::write_outputs(obs_opts, recorder, obs_opts.active() ? &trace : nullptr);
    return finished && !node.failed() ? 0 : 1;
  }

  if (role != "worker") {
    std::fprintf(stderr,
                 "unknown --role '%s' (expected root, worker, top or aggregator)\n",
                 role.c_str());
    return 2;
  }

  net::TcpTransport transport(net::worker_node_id(index));
  if (obs_opts.active()) transport.set_trace(&trace);
  if (config.top_cluster > 0) {
    // Top-cluster mode: dial EVERY committee member (top t listens on
    // port+t) — the join broadcast and a later leader change both need a
    // live link to whichever member currently leads.
    for (std::size_t t = 0; t < config.top_cluster; ++t) {
      const net::NodeId peer = net::top_node_id(t);
      transport.set_peer_link_class(peer, net::kLeaderLinkClass);
      if (!dial_with_retry(transport, peer, host,
                           static_cast<std::uint16_t>(port + t),
                           config.join_timeout_s)) {
        std::fprintf(stderr, "worker %zu: cannot reach top %zu at %s:%u\n", index, t,
                     host.c_str(), static_cast<unsigned>(port + t));
        return 1;
      }
    }
    std::printf("worker %zu: connected to %zu top(s) at %s:%u.., %zu device(s)\n",
                index, config.top_cluster, host.c_str(), port,
                config.devices_per_worker);
  } else {
    transport.set_peer_link_class(net::kRootId, net::kLeaderLinkClass);
    if (!transport.connect_peer(net::kRootId, host, port)) {
      std::fprintf(stderr, "worker %zu: cannot reach root at %s:%u\n", index,
                   host.c_str(), port);
      return 1;
    }
    std::printf("worker %zu: connected to %s:%u, %zu device(s)\n", index, host.c_str(),
                port, config.devices_per_worker);
  }
  std::fflush(stdout);

  net::WorkerNode worker(config, index, transport, rec, store.get(),
                         ckpt_opts.every, ckpt_opts.resume);
  if (worker.resume_round() > 0) {
    std::printf("worker %zu: resumed from checkpoint at round %zu\n", index,
                worker.resume_round());
  }
  worker.start();
  const bool finished = net::pump_until(
      transport, [&] { worker.on_idle(); return worker.done(); }, deadline,
      config.poll_interval_s);
  std::printf("worker %zu: %s after %zu round(s)\n", index,
              worker.failed() ? "FAILED" : "finished", worker.rounds_run());
  if (rec != nullptr) transport.record_traffic(*rec, worker.rounds_run());
  obs::write_outputs(obs_opts, recorder, obs_opts.active() ? &trace : nullptr);
  return finished && !worker.failed() ? 0 : 1;
}
