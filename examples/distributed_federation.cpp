// Distributed federation: the same 2-level ABD-HFL run three ways.
//
//   1. reference — the transport-free hier reference runner on the flat
//      "W,D" tree spec (net::hier::run_hier_reference);
//   2. loopback  — RootNode + WorkerNodes in one process over the loopback
//      transport, every model crossing the codec as real encoded frames;
//   3. tcp       — the same nodes as separate OS processes (fork) exchanging
//      frames over localhost sockets.
//
// The run asserts the paper-level invariants the transport must preserve:
// the loopback global model is BITWISE equal to the reference (framing adds
// zero arithmetic), and the TCP federation lands within 1pp of it.  With
// --kill-worker one TCP worker dies mid-run; the root must degrade through
// the peer-loss/churn path and still finish with the remaining quorum.
// Adding --checkpoint-dir turns the kill into a recovery drill: the dead
// worker's process is respawned with --resume semantics, restores its last
// snapshot, and must rejoin the running federation (workers_rejoined == 1)
// instead of retraining from round 0 — the CI crash-recovery smoke.
//
// With --trace-dir DIR every TCP process (root + each worker) writes its own
// distributed-tracing span file (trace-root.jsonl, trace-worker<i>.jsonl)
// that tools/trace_merge joins into one causal tree per round — the CI
// tracing smoke.
//
// With --crash-worker-hard the sacrificial worker dies by a genuine SIGSEGV
// mid-round instead of a silent _exit; paired with --blackbox-dir the
// flight-recorder crash handler must leave a decodable .abbx postmortem
// behind (tools/blackbox_dump) — the CI crash-postmortem smoke.
//
// With --tree SPEC the demo switches to the N-level hierarchy (DESIGN.md
// §14): the transport-free hier reference runner against the same tree built
// from one RootNode plus an AggregatorNode per interior/leaf process, all on
// one loopback transport with the leaf heads multiplexing their virtual
// devices — and the global model, every leaf head's model and every
// per-round accuracy must come out bitwise identical.  With a lossy
// --compress spec the tree must instead complete every round with no
// failed aggregator, as the flat mode's lossy runs must.
//
//   ./distributed_federation [--rounds 3] [--workers 3] [--kill-worker]
//                            [--crash-worker-hard] [--blackbox-dir crash]
//                            [--checkpoint-dir ckpts] [--metrics-out dist.jsonl]
//                            [--trace-dir traces]
//   ./distributed_federation --tree 2,2,2 --rounds 3   # N-level loopback tree

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

#include "ckpt/store.hpp"
#include "net/hier/aggregator.hpp"
#include "net/hier/reference.hpp"
#include "net/loopback.hpp"
#include "net/node.hpp"
#include "net/tcp.hpp"
#include "net/top_cluster.hpp"
#include "topology/plan.hpp"
#include "obs/blackbox.hpp"
#include "obs/obs.hpp"
#include "obs/record.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"

namespace {

using namespace abdhfl;

// The transport-free reference: the N-level reference runner on the flat
// "W,D" spec of this 2-level federation.
net::hier::HierReferenceResult run_reference(net::FederationConfig config) {
  config.tree = std::to_string(config.workers) + "," +
                std::to_string(config.devices_per_worker);
  return net::hier::run_hier_reference(config);
}

// One process, one loopback transport, all nodes: frames are encoded,
// queued, decoded — the codec path of a socket run without the sockets.
net::RootResult run_loopback(const net::FederationConfig& config, obs::Recorder* rec,
                             obs::TraceBuffer* trace) {
  net::LoopbackTransport transport;
  if (trace != nullptr) transport.set_trace(trace);
  net::RootNode root(config, transport, rec);
  std::vector<std::unique_ptr<net::WorkerNode>> workers;
  for (std::size_t w = 0; w < config.workers; ++w) {
    workers.push_back(std::make_unique<net::WorkerNode>(config, w, transport, rec));
  }
  root.start();
  for (auto& worker : workers) worker->start();
  net::pump_until(transport, [&] { root.on_idle(); return root.done(); }, 300.0);
  if (rec != nullptr) transport.record_traffic(*rec, root.result().rounds_run);
  return root.result();
}

// Worker child process: never returns.  Exits via _exit so the parent's
// stdio buffers (duplicated by fork) are not flushed twice; with
// die_after_round >= 0 the process vanishes mid-run without a goodbye —
// the crash the root's churn path must absorb.  A non-empty ckpt_dir makes
// the worker snapshot per round (and restore first when resume is set), so
// a respawned process continues where the crashed one stopped.
[[noreturn]] void worker_process(const net::FederationConfig& config, std::size_t index,
                                 std::uint16_t port, long die_after_round,
                                 const std::string& ckpt_dir, bool resume,
                                 const std::string& trace_dir = std::string(),
                                 bool crash_hard = false,
                                 const obs::blackbox::Options& bb =
                                     obs::blackbox::Options{}) {
  // Arm the flight recorder with this process's own node id (post-fork, so
  // the crash handler and the dump path belong to the worker, not the root).
  obs::blackbox::arm(bb, net::worker_node_id(index));
  net::TcpTransport transport(net::worker_node_id(index));
  transport.set_peer_link_class(net::kRootId, net::kLeaderLinkClass);
  std::unique_ptr<obs::TraceBuffer> wtrace;
  if (!trace_dir.empty()) {
    wtrace = std::make_unique<obs::TraceBuffer>();
    wtrace->set_node(net::worker_node_id(index));
    transport.set_trace(wtrace.get());
  }
  if (!transport.connect_peer(net::kRootId, "127.0.0.1", port)) _exit(3);
  std::unique_ptr<ckpt::Store> store;
  if (!ckpt_dir.empty()) store = std::make_unique<ckpt::Store>(ckpt_dir);
  net::WorkerNode worker(config, index, transport, nullptr, store.get(),
                         /*checkpoint_every=*/1, resume);
  if (resume && worker.resume_round() == 0) _exit(4);  // no snapshot found
  worker.start();
  const bool finished = net::pump_until(
      transport,
      [&] {
        worker.on_idle();
        if (die_after_round >= 0 &&
            worker.rounds_run() >= static_cast<std::size_t>(die_after_round)) {
          if (crash_hard) {
            // A genuine wild write mid-round: the blackbox crash handler must
            // dump the ring before the process dies with SIGSEGV.
            volatile int* null_page = nullptr;
            *null_page = 42;
            ::raise(SIGSEGV);  // in case the store was somehow survivable
          }
          _exit(0);  // simulated crash: no leave, socket torn down by the kernel
        }
        return worker.done();
      },
      300.0);
  if (wtrace != nullptr) {
    std::ofstream out(trace_dir + "/trace-worker" + std::to_string(index) + ".jsonl");
    out << obs::trace_to_jsonl(wtrace->snapshot()) << obs::trace_summary_jsonl(*wtrace);
  }
  _exit(finished && !worker.failed() ? 0 : 2);
}

struct TcpOutcome {
  net::RootResult result;
  bool children_ok = true;
  bool respawned = false;      // recovery mode: replacement was launched
  bool respawn_ok = false;     // ... and finished the run cleanly
};

TcpOutcome run_tcp(const net::FederationConfig& config, bool kill_worker,
                   const std::string& ckpt_dir, obs::Recorder* rec,
                   const std::string& trace_dir = std::string(),
                   bool crash_hard = false,
                   const obs::blackbox::Options& bb = obs::blackbox::Options{}) {
  const bool sacrifice = kill_worker || crash_hard;
  net::TcpTransport transport(net::kRootId);
  const std::uint16_t port = transport.listen(0);
  obs::TraceBuffer root_trace;
  if (!trace_dir.empty()) {
    root_trace.set_node(net::kRootId);
    transport.set_trace(&root_trace);
  }
  const bool recovery = kill_worker && !ckpt_dir.empty();
  auto worker_dir = [&](std::size_t w) {
    return ckpt_dir.empty() ? std::string()
                            : ckpt_dir + "/worker-" + std::to_string(w);
  };

  std::vector<pid_t> children;
  for (std::size_t w = 0; w < config.workers; ++w) {
    // Worker 0 is the sacrificial one in --kill-worker / --crash-worker-hard
    // mode: it dies right after merging the first global model.
    const long die_after = sacrifice && w == 0 ? 1 : -1;
    const pid_t pid = fork();
    if (pid == 0) {
      worker_process(config, w, port, die_after, worker_dir(w), false, trace_dir,
                     crash_hard, bb);
    }
    children.push_back(pid);
  }
  // Armed after the fork loop so the children never inherit the root's
  // watchdog thread handle or dump path.
  obs::blackbox::arm(bb, net::kRootId);

  std::unique_ptr<ckpt::Store> root_store;
  if (!ckpt_dir.empty()) root_store = std::make_unique<ckpt::Store>(ckpt_dir + "/root");
  net::RootNode root(config, transport, rec, root_store.get());
  root.start();

  // Recovery drill: once the sacrificial worker's corpse is reapable,
  // respawn it with resume semantics — it must restore its snapshot and
  // rejoin the federation the root kept running.
  TcpOutcome out;
  pid_t replacement = -1;
  net::pump_until(
      transport,
      [&] {
        root.on_idle();
        if (recovery && !out.respawned) {
          int status = 0;
          if (waitpid(children[0], &status, WNOHANG) == children[0]) {
            out.respawned = true;
            children[0] = -1;  // reaped here; skip it in the wait loop below
            replacement = fork();
            if (replacement == 0) {
              worker_process(config, 0, port, -1, worker_dir(0), true,
                             std::string(), false, bb);
            }
          }
        }
        return root.done();
      },
      300.0);
  if (rec != nullptr) transport.record_traffic(*rec, root.result().rounds_run);
  if (!trace_dir.empty()) {
    std::ofstream tout(trace_dir + "/trace-root.jsonl");
    tout << obs::trace_to_jsonl(root_trace.snapshot())
         << obs::trace_summary_jsonl(root_trace);
  }

  out.result = root.result();
  for (std::size_t w = 0; w < children.size(); ++w) {
    if (children[w] < 0) continue;
    int status = 0;
    waitpid(children[w], &status, 0);
    const bool sacrificed = sacrifice && w == 0;
    if (!sacrificed && (!WIFEXITED(status) || WEXITSTATUS(status) != 0)) {
      out.children_ok = false;
    }
  }
  if (replacement > 0) {
    // The replacement normally exits right after the root (its leave closed
    // the link).  If the rejoin raced the end of the run it would wait for a
    // round that never comes — bound that with a grace period so a timing
    // failure shows up as a failed assertion, not a wedged run.
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 300 && !reaped; ++i) {
      reaped = waitpid(replacement, &status, WNOHANG) == replacement;
      if (!reaped) ::usleep(50 * 1000);
    }
    if (!reaped) {
      ::kill(replacement, SIGKILL);
      waitpid(replacement, &status, 0);
    }
    out.respawn_ok = reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  return out;
}

// N-level tree mode: the hier reference runner vs the same tree as live
// nodes — one RootNode + an AggregatorNode per interior and leaf process,
// all on one loopback transport (leaf heads multiplex their virtual devices
// over the same fabric).  Bitwise identity, level by level.
int run_tree_mode(const net::FederationConfig& config, obs::Recorder* rec) {
  topology::HierSpec spec;
  if (!topology::parse_tree_spec(config.tree, spec) || spec.process_levels() < 2) {
    std::fprintf(stderr, "invalid --tree spec '%s'\n", config.tree.c_str());
    return 2;
  }
  std::size_t processes = 1;
  for (std::size_t l = 1; l < spec.process_levels(); ++l) processes += spec.nodes_at(l);
  std::printf("hierarchical federation: tree %s (%zu processes, %zu devices), %zu rounds\n\n",
              config.tree.c_str(), processes,
              spec.leaf_heads() * spec.devices_per_leaf(), config.rounds);

  const auto reference = net::hier::run_hier_reference(config);
  std::printf("reference (no transport):    accuracy %.4f\n", reference.final_accuracy);

  net::LoopbackTransport transport;
  net::RootNode root(config, transport, rec);
  std::vector<std::unique_ptr<net::hier::AggregatorNode>> aggs;
  for (std::size_t level = 1; level < spec.process_levels(); ++level) {
    for (std::size_t i = 0; i < spec.nodes_at(level); ++i) {
      aggs.push_back(std::make_unique<net::hier::AggregatorNode>(config, level, i,
                                                                 transport, transport,
                                                                 rec));
    }
  }
  root.start();
  for (auto& agg : aggs) agg->start();
  const bool finished = net::pump_until(
      transport,
      [&] {
        root.on_idle();
        for (auto& agg : aggs) agg->on_idle();
        bool all_done = root.done();
        for (auto& agg : aggs) all_done = all_done && agg->done();
        return all_done;
      },
      300.0, config.poll_interval_s);
  if (rec != nullptr) transport.record_traffic(*rec, root.result().rounds_run);

  const net::RootResult& result = root.result();
  std::printf("loopback  (1 process):       accuracy %.4f\n", result.final_accuracy);
  bool ok = finished && result.rounds_run == config.rounds;
  for (auto& agg : aggs) ok = ok && !agg->failed();
  // The flat mode's rule: a dense uncompressed codec must be bitwise the
  // reference; top-k, delta and quantization transform the values on the
  // wire, so there every round completing with no failed aggregator is the
  // invariant.
  const bool lossless = config.topk == 0 && !config.delta && config.quantize_bits == 0;
  if (!lossless) {
    std::printf("tree vs reference:           %+.4f accuracy (lossy codec)%s\n",
                result.final_accuracy - reference.final_accuracy,
                ok ? "" : "  FAILED to complete");
    return ok ? 0 : 1;
  }
  const bool global_bitwise =
      result.global_model.size() == reference.global_model.size() &&
      std::memcmp(result.global_model.data(), reference.global_model.data(),
                  reference.global_model.size() * sizeof(float)) == 0;
  bool leaves_bitwise = true;
  std::size_t leaf = 0;
  for (auto& agg : aggs) {
    if (!agg->leaf_head()) continue;
    leaves_bitwise = leaves_bitwise && leaf < reference.leaf_models.size() &&
                     agg->model() == reference.leaf_models[leaf];
    ++leaf;
  }
  ok = ok && global_bitwise && leaves_bitwise &&
       result.round_accuracy == reference.round_accuracy;
  std::printf("tree vs reference:           global %s, %zu leaf model(s) %s\n",
              global_bitwise ? "bitwise equal" : "MISMATCH", leaf,
              leaves_bitwise ? "bitwise equal" : "MISMATCH");
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Leader-rotation top-cluster mode (--top-cluster N [--kill-leader]): N top
// processes + the worker processes over real TCP.  With --kill-leader the
// parent SIGKILLs the elected leader the moment round 1 has committed; the
// survivors must re-elect, resume the stalled round, and land the final
// model BITWISE on the transport-free reference (the replicated model log is
// what makes that possible).
// ---------------------------------------------------------------------------

bool dial_retry(net::TcpTransport& transport, net::NodeId peer, std::uint16_t port,
                double budget_s) {
  const double end = net::hier::wall_now() + budget_s;
  for (;;) {
    if (transport.connect_peer(peer, "127.0.0.1", port)) return true;
    if (net::hier::wall_now() >= end) return false;
    ::usleep(50 * 1000);
  }
}

void write_file_bytes(const std::string& path, const void* data, std::size_t bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

[[noreturn]] void top_process(const net::FederationConfig& config, std::size_t t,
                              std::uint16_t base_port, const std::string& out_dir,
                              const std::string& trace_dir) {
  net::TcpTransport transport(net::top_node_id(t));
  transport.listen(static_cast<std::uint16_t>(base_port + t));
  std::unique_ptr<obs::TraceBuffer> ttrace;
  if (!trace_dir.empty()) {
    ttrace = std::make_unique<obs::TraceBuffer>();
    ttrace->set_node(net::top_node_id(t));
    transport.set_trace(ttrace.get());
  }
  for (std::size_t s = 0; s < t; ++s) {
    const net::NodeId peer = net::top_node_id(s);
    transport.set_peer_link_class(peer, net::kTopLinkClass);
    if (!dial_retry(transport, peer, static_cast<std::uint16_t>(base_port + s), 10.0)) {
      _exit(3);
    }
  }
  obs::Recorder recorder;
  net::TopClusterNode top(config, t, transport, &recorder);
  top.start();
  const bool finished = net::pump_until(
      transport, [&] { top.on_idle(); return top.done(); }, 300.0,
      config.poll_interval_s);
  const net::RootResult& result = top.result();
  if (!out_dir.empty()) {
    const std::string tag = std::to_string(t);
    write_file_bytes(out_dir + "/model-top" + tag + ".bin",
                     result.global_model.data(),
                     result.global_model.size() * sizeof(float));
    std::ofstream summary(out_dir + "/summary-top" + tag + ".txt");
    summary << "term " << top.term() << "\n"
            << "elections " << top.elections_seen() << "\n"
            << "rounds " << result.rounds_run << "\n"
            << "commit " << top.commit_index() << "\n"
            << "leader " << (top.is_leader() ? 1 : 0) << "\n";
    std::ofstream metrics(out_dir + "/consensus-top" + tag + ".jsonl");
    metrics << recorder.to_jsonl();
  }
  if (ttrace != nullptr) {
    std::ofstream out(trace_dir + "/trace-top" + std::to_string(t) + ".jsonl");
    out << obs::trace_to_jsonl(ttrace->snapshot()) << obs::trace_summary_jsonl(*ttrace);
  }
  _exit(finished && result.rounds_run == config.rounds ? 0 : 2);
}

[[noreturn]] void cluster_worker_process(const net::FederationConfig& config,
                                         std::size_t w, std::uint16_t base_port,
                                         const std::string& trace_dir) {
  net::TcpTransport transport(net::worker_node_id(w));
  std::unique_ptr<obs::TraceBuffer> wtrace;
  if (!trace_dir.empty()) {
    wtrace = std::make_unique<obs::TraceBuffer>();
    wtrace->set_node(net::worker_node_id(w));
    transport.set_trace(wtrace.get());
  }
  for (std::size_t t = 0; t < config.top_cluster; ++t) {
    const net::NodeId peer = net::top_node_id(t);
    transport.set_peer_link_class(peer, net::kLeaderLinkClass);
    if (!dial_retry(transport, peer, static_cast<std::uint16_t>(base_port + t), 10.0)) {
      _exit(3);
    }
  }
  net::WorkerNode worker(config, w, transport);
  worker.start();
  const bool finished = net::pump_until(
      transport, [&] { worker.on_idle(); return worker.done(); }, 300.0,
      config.poll_interval_s);
  if (wtrace != nullptr) {
    std::ofstream out(trace_dir + "/trace-worker" + std::to_string(w) + ".jsonl");
    out << obs::trace_to_jsonl(wtrace->snapshot()) << obs::trace_summary_jsonl(*wtrace);
  }
  _exit(finished && !worker.failed() ? 0 : 2);
}

// Probe a top's status as a passive observer; round is -1 when no reply
// arrived within the timeout.  The reply names the committee's current
// leader — which the kill drill needs, because the cold-start election over
// real TCP is a race (rank 0 dials nobody, so its staggered first attempt
// fails until the others' links come up) and any member may hold the lease.
struct TopStatus {
  long round = -1;
  net::NodeId leader = net::kStatusNoParent;
  std::uint64_t term = 0;
};

TopStatus probe_status(net::TcpTransport& observer, net::NodeId target,
                       double timeout_s) {
  static std::uint32_t probe_seq = 0;
  TopStatus status;
  observer.register_node(net::kObserverIdBase, [&](net::WireMessage& msg) {
    if (msg.kind == net::MsgKind::kStatusReply) {
      const auto& reply = std::get<net::StatusReply>(msg.payload);
      status.round = static_cast<long>(reply.round);
      status.leader = reply.leader;
      status.term = reply.term;
    }
  });
  net::StatusRequest request;
  request.probe = ++probe_seq;
  request.wall_ns = obs::wall_clock_ns();
  if (observer.send({net::kObserverIdBase, target, 0}, request) != net::SendStatus::kOk) {
    return status;
  }
  net::pump_until(observer, [&] { return status.round >= 0; }, timeout_s, 0.02);
  return status;
}

int run_top_cluster_mode(net::FederationConfig config, bool kill_leader,
                         std::string out_dir, const std::string& trace_dir) {
  std::printf("top-cluster federation: committee of %zu, %zu workers x %zu devices, "
              "%zu rounds%s\n\n",
              config.top_cluster, config.workers, config.devices_per_worker,
              config.rounds, kill_leader ? ", leader killed mid-round" : "");
  const auto reference = run_reference(config);
  std::printf("reference (no transport):    accuracy %.4f\n", reference.final_accuracy);

  if (out_dir.empty()) out_dir = "topcluster-out";
  ::mkdir(out_dir.c_str(), 0755);  // EEXIST is fine
  // Stride the pid so two drills launched back-to-back (near-consecutive
  // pids, e.g. parallel ctest) land their committee port ranges far apart.
  const auto base_port =
      static_cast<std::uint16_t>(9700 + (::getpid() * 41) % 523);

  std::vector<pid_t> tops;
  for (std::size_t t = 0; t < config.top_cluster; ++t) {
    const pid_t pid = fork();
    if (pid == 0) top_process(config, t, base_port, out_dir, trace_dir);
    tops.push_back(pid);
  }
  std::vector<pid_t> workers;
  for (std::size_t w = 0; w < config.workers; ++w) {
    const pid_t pid = fork();
    if (pid == 0) cluster_worker_process(config, w, base_port, trace_dir);
    workers.push_back(pid);
  }

  // The kill drill: probe a follower until it reports a committed round AND
  // names the current leader, then SIGKILL the leader's process.  The probe
  // target is the highest rank — it dials every lower-ranked top at startup,
  // so it is the member most likely to know the leader early, and killing
  // the leader never takes the probe's own link down with it.
  bool killed = false;
  std::size_t killed_index = 0;
  std::uint64_t killed_term = 0;
  if (kill_leader) {
    const std::size_t probe_rank = config.top_cluster - 1;
    net::TcpTransport observer(net::kObserverIdBase);
    observer.set_peer_link_class(net::top_node_id(probe_rank), net::kLeaderLinkClass);
    if (dial_retry(observer, net::top_node_id(probe_rank), base_port, 10.0)) {
      const double end = net::hier::wall_now() + 120.0;
      while (net::hier::wall_now() < end) {
        const TopStatus status =
            probe_status(observer, net::top_node_id(probe_rank), 2.0);
        if (status.round >= 1 && status.leader >= net::top_node_id(0) &&
            status.leader < net::top_node_id(config.top_cluster)) {
          killed_index = status.leader - net::top_node_id(0);
          killed_term = status.term;
          ::kill(tops[killed_index], SIGKILL);
          killed = true;
          break;
        }
        ::usleep(100 * 1000);
      }
    }
    if (!killed) {
      std::fprintf(stderr, "kill-leader: never saw round 1 and a known leader\n");
    }
  }

  bool children_ok = true;
  for (std::size_t t = 0; t < tops.size(); ++t) {
    int status = 0;
    waitpid(tops[t], &status, 0);
    const bool sacrificed = killed && t == killed_index;
    if (!sacrificed && (!WIFEXITED(status) || WEXITSTATUS(status) != 0)) {
      children_ok = false;
    }
  }
  for (const pid_t pid : workers) {
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) children_ok = false;
  }

  // Every SURVIVOR must hold the reference model bitwise and agree on the
  // consensus outcome; with --kill-leader at least one re-election must have
  // happened (term >= 2 on every survivor).
  bool models_bitwise = true;
  bool terms_ok = true;
  std::uint64_t max_term = 0;
  for (std::size_t t = 0; t < config.top_cluster; ++t) {
    if (killed && t == killed_index) continue;
    const std::string tag = std::to_string(t);
    const auto model = read_file_bytes(out_dir + "/model-top" + tag + ".bin");
    const bool bitwise =
        model.size() == reference.global_model.size() * sizeof(float) &&
        std::memcmp(model.data(), reference.global_model.data(), model.size()) == 0;
    models_bitwise = models_bitwise && bitwise;
    std::ifstream summary(out_dir + "/summary-top" + tag + ".txt");
    std::string key;
    std::uint64_t term = 0, elections = 0, rounds = 0, commit = 0, is_leader = 0;
    while (summary >> key) {
      if (key == "term") summary >> term;
      else if (key == "elections") summary >> elections;
      else if (key == "rounds") summary >> rounds;
      else if (key == "commit") summary >> commit;
      else if (key == "leader") summary >> is_leader;
    }
    if (term > max_term) max_term = term;
    // A genuine re-election moves every survivor PAST the term the dead
    // leader held — ">= 2" alone could be satisfied by a noisy cold start.
    terms_ok = terms_ok && rounds == config.rounds && (!killed || term > killed_term);
    std::printf("top %zu: term %llu, %llu election(s), %llu round(s), commit %llu  "
                "model %s\n",
                t, static_cast<unsigned long long>(term),
                static_cast<unsigned long long>(elections),
                static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(commit),
                bitwise ? "bitwise equal" : "MISMATCH");
  }

  const bool ok = children_ok && models_bitwise && terms_ok && (!kill_leader || killed);
  std::printf("\ntop-cluster vs reference:    %s (term %llu%s)\n",
              ok ? "bitwise equal on every survivor" : "FAILED",
              static_cast<unsigned long long>(max_term),
              killed ? ", leader killed and re-elected" : "");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  net::FederationConfig config;
  config.seed = static_cast<std::uint64_t>(cli.integer("seed", 17, "RNG seed"));
  config.workers =
      static_cast<std::size_t>(cli.integer("workers", 3, "cluster leaders"));
  config.devices_per_worker = static_cast<std::size_t>(
      cli.integer("devices-per-worker", 2, "devices each worker trains"));
  config.rounds = static_cast<std::size_t>(cli.integer("rounds", 3, "global rounds"));
  config.samples_per_class = static_cast<std::size_t>(
      cli.integer("samples-per-class", 12, "training samples per digit class"));
  config.local_iters =
      static_cast<std::size_t>(cli.integer("local-iters", 8, "SGD iters per round"));
  config.tree = cli.str(
      "tree", "", "N-level branching spec (e.g. 2,2,2): run the hierarchy demo instead");
  config.top_cluster = static_cast<std::size_t>(cli.integer(
      "top-cluster", 0,
      "leader-rotation committee size: run the top-cluster demo instead (0 = off)"));
  const bool kill_leader = cli.boolean(
      "kill-leader", false, "SIGKILL the elected leader mid-round (top-cluster mode)");
  const std::string consensus_dir = cli.str(
      "consensus-dir", "",
      "top-cluster mode: write per-top model/summary/metrics artifacts here "
      "(\"\" = ./topcluster-out)");
  config.poll_interval_s =
      cli.real("poll-interval", config.poll_interval_s, "idle poll tick (s)");
  const std::string compress = cli.str(
      "compress", "", "codec spec: topk:K, delta, or topk:K,delta (lossy paths)");
  const bool kill_worker =
      cli.boolean("kill-worker", false, "kill one TCP worker mid-run (churn demo)");
  const bool crash_hard = cli.boolean(
      "crash-worker-hard", false,
      "SIGSEGV one TCP worker mid-round; its blackbox crash dump must survive "
      "(pair with --blackbox-dir)");
  const bool skip_tcp = cli.boolean("skip-tcp", false, "run only reference + loopback");
  const std::string trace_dir = cli.str(
      "trace-dir", "", "write per-process TCP trace JSONL files here (\"\" = off)");
  const auto obs_opts = obs::declare_cli(cli);
  const auto ckpt_opts = ckpt::declare_cli(cli);
  const auto bb_opts = obs::blackbox::declare_cli(cli);
  if (!cli.finish()) return 0;
  if (!net::apply_compress_spec(compress, config)) {
    std::fprintf(stderr, "invalid --compress spec '%s'\n", compress.c_str());
    return 2;
  }
  if (!trace_dir.empty()) {
    config.trace = true;  // negotiate trace contexts on every TCP link
    ::mkdir(trace_dir.c_str(), 0755);  // EEXIST is fine
  }

  obs::Recorder recorder;
  obs::TraceBuffer trace;
  obs::Recorder* rec = obs_opts.active() ? &recorder : nullptr;

  if (!config.tree.empty()) {
    const int rc = run_tree_mode(config, rec);
    obs::write_outputs(obs_opts, recorder, nullptr);
    return rc;
  }

  if (config.top_cluster > 0) {
    return run_top_cluster_mode(config, kill_leader, consensus_dir, trace_dir);
  }

  std::printf("distributed federation: %zu workers x %zu devices, %zu rounds\n\n",
              config.workers, config.devices_per_worker, config.rounds);

  const auto reference = run_reference(config);
  std::printf("reference (no transport):    accuracy %.4f\n", reference.final_accuracy);

  const net::RootResult loop = run_loopback(config, rec, rec ? &trace : nullptr);
  std::printf("loopback  (1 process):       accuracy %.4f\n", loop.final_accuracy);
  // A dense uncompressed codec adds zero arithmetic, so the loopback run
  // must be bitwise the reference.  Top-k and delta transform the values on
  // the wire — there the invariant is convergence, not identity.
  const bool lossless = config.topk == 0 && !config.delta && config.quantize_bits == 0;
  bool bitwise = true;
  if (lossless) {
    bitwise = loop.global_model.size() == reference.global_model.size() &&
              std::memcmp(loop.global_model.data(), reference.global_model.data(),
                          reference.global_model.size() * sizeof(float)) == 0;
    std::printf("loopback vs reference:       %s\n",
                bitwise ? "bitwise equal" : "MISMATCH");
  } else {
    // Lossy codec: the invariant is that the federation still completes; how
    // much accuracy the compression costs is the experiment, not a failure.
    const double gap = loop.final_accuracy - reference.final_accuracy;
    bitwise = loop.rounds_run == config.rounds;
    std::printf("loopback vs reference:       %+.4f accuracy (lossy codec)%s\n", gap,
                bitwise ? "" : "  FAILED to complete");
  }

  bool tcp_ok = true;
  if (!skip_tcp) {
    const TcpOutcome tcp =
        run_tcp(config, kill_worker, ckpt_opts.dir, rec, trace_dir, crash_hard, bb_opts);
    std::printf("tcp       (%zu processes):    accuracy %.4f  (%zu joined, %zu lost)\n",
                config.workers + 1, tcp.result.final_accuracy, tcp.result.workers_joined,
                tcp.result.workers_lost);
    if (crash_hard) {
      // Crash-forensics drill: the federation must complete through the
      // degradation path AND the segfaulted worker's flight-recorder dump
      // must exist on disk (the postmortem CI feeds it to blackbox_dump).
      tcp_ok = tcp.children_ok && tcp.result.rounds_run == config.rounds &&
               tcp.result.workers_lost >= 1;
      bool dump_found = true;
      if (!bb_opts.dir.empty()) {
        const std::string dump = bb_opts.dir + "/blackbox-node" +
                                 std::to_string(net::worker_node_id(0)) + ".abbx";
        dump_found = ::access(dump.c_str(), R_OK) == 0;
        tcp_ok = tcp_ok && dump_found;
      }
      std::printf("crash-worker-hard (SIGSEGV): %s  (dump %s)\n",
                  tcp_ok ? "completed" : "FAILED",
                  dump_found ? "written" : "MISSING");
    } else if (kill_worker && ckpt_opts.active()) {
      // Crash-recovery drill: the run must complete, the sacrificed worker
      // must have been lost AND re-admitted (its replacement restored the
      // checkpoint and rejoined mid-training), and the replacement process
      // must finish the remaining rounds cleanly.
      tcp_ok = tcp.children_ok && tcp.respawned && tcp.respawn_ok &&
               tcp.result.rounds_run == config.rounds &&
               tcp.result.workers_lost == 1 && tcp.result.workers_rejoined == 1;
      std::printf("crash recovery (resume):     %s  (%zu rejoined)\n",
                  tcp_ok ? "completed" : "FAILED", tcp.result.workers_rejoined);
    } else if (kill_worker) {
      // The federation must complete through the degradation path: all
      // rounds run, exactly the sacrificed worker lost.
      tcp_ok = tcp.children_ok && tcp.result.rounds_run == config.rounds &&
               tcp.result.workers_lost == 1;
      std::printf("kill-worker churn path:      %s\n", tcp_ok ? "completed" : "FAILED");
    } else if (lossless) {
      const double gap = tcp.result.final_accuracy - reference.final_accuracy;
      tcp_ok = tcp.children_ok && tcp.result.rounds_run == config.rounds &&
               gap > -0.01 && gap < 0.01;
      std::printf("tcp vs reference:            %+.4f (|gap| < 0.01 required)\n", gap);
    } else {
      const double gap = tcp.result.final_accuracy - reference.final_accuracy;
      tcp_ok = tcp.children_ok && tcp.result.rounds_run == config.rounds;
      std::printf("tcp vs reference:            %+.4f accuracy (lossy codec)%s\n", gap,
                  tcp_ok ? "" : "  FAILED to complete");
    }
  }

  obs::write_outputs(obs_opts, recorder, obs_opts.active() ? &trace : nullptr);
  return bitwise && tcp_ok ? 0 : 1;
}
