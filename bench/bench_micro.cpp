// Experiment E8 — micro-benchmarks of the substrate hot paths:
// aggregation-rule cost scaling (Krum is O(n^2 d); median O(n d log n);
// GeoMed iterations; clipping passes), the dense GEMM kernel, event-kernel
// throughput, and the synthetic-digit generator.
//
// The kernel-layer before/after pairs live here too: BM_Dot vs BM_DotRef,
// BM_Distance vs BM_DistanceRef, BM_Gemm vs BM_GemmNaive (the *Ref/Naive
// variants are the pre-kernel-layer scalar paths, kept in the library for
// exactly this comparison), and BM_Aggregate's third argument is the
// aggregator thread fan-out (1 = serial).  At startup the binary asserts
// that serial and 8-thread aggregation agree bitwise before timing anything.
//
// Run via google-benchmark:  ./bench_micro [--benchmark_filter=...]
// JSON export for EXPERIMENTS.md: --benchmark_out=micro.json
//                                 --benchmark_out_format=json
// Compact CI artifact:            --bench-json=BENCH_micro.json
//   (one entry per benchmark: op, n/d/threads parsed from the name, median
//   per-iteration nanoseconds across repetitions, and the host_* fields
//   naming the machine and build it ran on — the file CI uploads so perf
//   drift is visible without parsing google-benchmark's full schema).

#include <benchmark/benchmark.h>
#include <sched.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "agg/aggregator.hpp"
#include "consensus/voting.hpp"
#include "data/synth_digits.hpp"
#include "net/wire.hpp"
#include "nn/quantize.hpp"
#include "sim/simulator.hpp"
#include "tensor/kernels.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace {

using namespace abdhfl;

std::vector<agg::ModelVec> make_updates(std::size_t n, std::size_t dim,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<agg::ModelVec> updates(n, agg::ModelVec(dim));
  for (auto& u : updates) {
    for (float& v : u) v = static_cast<float>(rng.normal());
  }
  return updates;
}

void BM_Aggregate(benchmark::State& state, const std::string& rule) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto threads = static_cast<std::size_t>(state.range(2));
  const auto updates = make_updates(n, dim, 99);
  auto agg = agg::make_aggregator(rule, 0.25, threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agg->aggregate(updates));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}

void RegisterAggBenches() {
  for (const char* rule :
       {"mean", "krum", "multikrum", "median", "trimmed_mean", "geomed",
        "centered_clip", "norm_filter"}) {
    auto* bench = benchmark::RegisterBenchmark(
        (std::string("BM_Aggregate/") + rule).c_str(),
        [rule = std::string(rule)](benchmark::State& state) {
          BM_Aggregate(state, rule);
        });
    // Third arg: aggregator thread fan-out (serial baseline vs pool).
    bench->Args({8, 1000, 1})->Args({32, 1000, 1})->Args({8, 10000, 1})->Args(
        {32, 10000, 1});
    if (std::strcmp(rule, "median") == 0 || std::strcmp(rule, "trimmed_mean") == 0) {
      // fedbench wide-dense's folds: n = 4 leaf heads, n = 16 at the root.
      bench->Args({4, 68362, 1})->Args({16, 68362, 1});
    }
    if (std::strcmp(rule, "mean") != 0) {
      bench->Args({8, 100000, 1})
          ->Args({32, 100000, 1})
          ->Args({8, 100000, 8})
          ->Args({32, 100000, 8});
    }
  }
}

/// Parallel aggregation must be bitwise-identical to serial — checked once
/// before any timing so a determinism regression fails loudly here instead
/// of silently skewing results.
void CheckParallelDeterminism() {
  const auto updates = make_updates(16, 40000, 123);
  for (const char* rule :
       {"krum", "multikrum", "median", "trimmed_mean", "geomed", "autogm",
        "centered_clip", "norm_filter"}) {
    const auto serial = agg::make_aggregator(rule, 0.25, 1)->aggregate(updates);
    const auto parallel = agg::make_aggregator(rule, 0.25, 8)->aggregate(updates);
    if (serial.size() != parallel.size() ||
        std::memcmp(serial.data(), parallel.data(),
                    serial.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "FATAL: %s parallel != serial (bitwise)\n", rule);
      std::abort();
    }
  }
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  tensor::Matrix a(n, n), b(n, n), c;
  a.init_he_uniform(rng);
  b.init_he_uniform(rng);
  for (auto _ : state) {
    tensor::gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  tensor::Matrix a(n, n), b(n, n), c;
  a.init_he_uniform(rng);
  b.init_he_uniform(rng);
  for (auto _ : state) {
    tensor::gemm_naive(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) * n * n);
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

std::vector<float> make_vec(std::size_t dim, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(dim);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

void BM_Dot(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto a = make_vec(dim, 21), b = make_vec(dim, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::kern::dot(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_Dot)->Arg(1000)->Arg(100000);

void BM_DotRef(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto a = make_vec(dim, 21), b = make_vec(dim, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::kern::dot_ref(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_DotRef)->Arg(1000)->Arg(100000);

void BM_Distance(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto a = make_vec(dim, 23), b = make_vec(dim, 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tensor::kern::distance_squared(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_Distance)->Arg(1000)->Arg(100000);

void BM_DistanceRef(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto a = make_vec(dim, 23), b = make_vec(dim, 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tensor::kern::distance_squared_ref(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_DistanceRef)->Arg(1000)->Arg(100000);

void BM_EventKernel(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < events; ++i) {
      sim.schedule_at(static_cast<double>(i % 97), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventKernel)->Arg(1000)->Arg(10000);

void BM_SynthDigits(benchmark::State& state) {
  data::SynthConfig config;
  config.samples_per_class = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    util::Rng rng(7);
    benchmark::DoNotOptimize(data::generate_synth_digits(config, rng));
  }
}
BENCHMARK(BM_SynthDigits)->Arg(10)->Arg(50);

void BM_VotingConsensus(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto updates = make_updates(n, 1000, 13);
  consensus::VotingConsensus voting;
  const std::vector<bool> byz(n, false);
  util::Rng rng(3);
  auto eval = [](std::size_t, const agg::ModelVec& m) {
    return static_cast<double>(m[0]);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(voting.agree(updates, eval, byz, rng));
  }
}
BENCHMARK(BM_VotingConsensus)->Arg(4)->Arg(16);

// BM_Quantize is the quantize+dequantize round trip; the /encode and
// /decode rows time each half alone.
std::vector<float> quantize_input(const benchmark::State& state) {
  util::Rng rng(11);
  std::vector<float> params(static_cast<std::size_t>(state.range(0)));
  for (float& v : params) v = static_cast<float>(rng.normal());
  return params;
}

void BM_Quantize(benchmark::State& state) {
  const auto params = quantize_input(state);
  const auto bits = static_cast<std::uint8_t>(state.range(1));
  for (auto _ : state) {
    auto q = nn::quantize(params, bits);
    benchmark::DoNotOptimize(nn::dequantize(q));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(params.size() * sizeof(float)));
}
BENCHMARK(BM_Quantize)->Args({10000, 8})->Args({10000, 4})->Args({100000, 8});

void BM_QuantizeEncode(benchmark::State& state) {
  const auto params = quantize_input(state);
  const auto bits = static_cast<std::uint8_t>(state.range(1));
  for (auto _ : state) benchmark::DoNotOptimize(nn::quantize(params, bits));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(params.size() * sizeof(float)));
}
BENCHMARK(BM_QuantizeEncode)
    ->Name("BM_Quantize/encode")
    ->Args({10000, 8})
    ->Args({10000, 4})
    ->Args({100000, 8})
    ->Args({100000, 4});

void BM_QuantizeDecode(benchmark::State& state) {
  const auto params = quantize_input(state);
  const auto q = nn::quantize(params, static_cast<std::uint8_t>(state.range(1)));
  for (auto _ : state) benchmark::DoNotOptimize(nn::dequantize(q));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(params.size() * sizeof(float)));
}
BENCHMARK(BM_QuantizeDecode)
    ->Name("BM_Quantize/decode")
    ->Args({10000, 8})
    ->Args({10000, 4})
    ->Args({100000, 8})
    ->Args({100000, 4});

// --- src/net wire codec hot path (DESIGN.md §11) ---------------------------
// The before/after pairs the zero-copy PR is gated on: BM_WireDecode's
// "dense_copy" is the legacy materializing decode_frame, "dense_view" the
// FrameView + model_update_params span path.  BM_WireRound models one root
// round at n workers (encode at every worker, decode at the root) and
// reports the codec's wire bytes next to the dense-equivalent bytes as
// counters, so BENCH_wire.json carries bytes/round and rounds/sec directly.

struct WireMode {
  bool topk10 = false;    // top-k sparsification with k = d/10
  std::uint8_t bits = 0;  // quantize_bits
  bool delta = false;     // delta-vs-last-round (links warmed before timing)
  bool view = false;      // decode through the zero-copy span path
};

net::ModelUpdate make_update(std::size_t d, std::uint64_t seed) {
  net::ModelUpdate update;
  update.sender = 5;
  update.level = 1;
  update.samples = 160;
  update.params = make_vec(d, seed);
  return update;
}

net::Codec wire_codec(const WireMode& mode, std::size_t d) {
  net::Codec codec;
  if (mode.topk10) codec.topk = static_cast<std::uint32_t>(d < 10 ? 1 : d / 10);
  codec.quantize_bits = mode.bits;
  codec.delta = mode.delta;
  return codec;
}

void BM_WireEncode(benchmark::State& state, const WireMode& mode) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const net::Payload payload{make_update(d, 31)};
  const net::Codec codec = wire_codec(mode, d);
  const net::Envelope env{5, 0, 2};
  net::CodecState tx;
  net::EncodedParts parts;
  if (codec.delta) {  // warm the link so every timed frame is a real delta
    net::encode_frame_parts(env, payload, codec, &tx, parts);
    parts.commit_tx(tx);
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    net::encode_frame_parts(env, payload, codec, &tx, parts);
    bytes = parts.size();
    benchmark::DoNotOptimize(parts.head.data());
  }
  state.counters["bytes_wire"] = static_cast<double>(bytes);
  state.counters["bytes_raw"] = static_cast<double>(net::encoded_size(payload));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d));
}

void BM_WireDecode(benchmark::State& state, const WireMode& mode) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const net::Codec codec = wire_codec(mode, d);
  const auto frame = net::encode_frame({5, 0, 2}, make_update(d, 31), codec);
  std::vector<float> scratch;
  double sink = 0.0;
  if (mode.view) {
    for (auto _ : state) {
      const net::FrameView view = net::FrameView::parse(frame);
      const auto params = net::model_update_params(view, nullptr, scratch);
      sink += params[d - 1];
    }
  } else {
    for (auto _ : state) {
      net::WireMessage msg = net::decode_frame(frame);
      sink += std::get<net::ModelUpdate>(msg.payload).params[d - 1];
    }
  }
  benchmark::DoNotOptimize(sink);
  state.counters["bytes_wire"] = static_cast<double>(frame.size());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d));
}

void BM_WireRound(benchmark::State& state, const WireMode& mode) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = static_cast<std::size_t>(state.range(1));
  const net::Codec codec = wire_codec(mode, d);
  std::vector<net::Payload> payloads;
  payloads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) payloads.emplace_back(make_update(d, 100 + i));
  std::vector<net::CodecState> tx(n), rx(n);
  net::EncodedParts parts;
  std::vector<std::uint8_t> frame;
  std::vector<float> scratch;
  if (codec.delta) {  // first round seeds every link's base out of band
    for (std::size_t i = 0; i < n; ++i) {
      const net::Envelope env{static_cast<net::NodeId>(i + 1), 0, 1};
      net::encode_frame_parts(env, payloads[i], codec, &tx[i], parts);
      parts.commit_tx(tx[i]);
      frame = parts.concat();
      (void)net::decode_frame(frame, &rx[i]);
    }
  }
  std::uint64_t bytes_round = 0;
  double sink = 0.0;
  for (auto _ : state) {
    bytes_round = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const net::Envelope env{static_cast<net::NodeId>(i + 1), 0, 2};
      net::encode_frame_parts(env, payloads[i], codec, &tx[i], parts);
      parts.commit_tx(tx[i]);
      frame = parts.concat();
      bytes_round += frame.size();
      if (mode.view) {
        const net::FrameView view = net::FrameView::parse(frame);
        net::CodecState* rs = codec.delta ? &rx[i] : nullptr;
        const auto params = net::model_update_params(view, rs, scratch);
        sink += params[0];
      } else {
        net::WireMessage msg =
            codec.delta ? net::decode_frame(frame, &rx[i]) : net::decode_frame(frame);
        sink += std::get<net::ModelUpdate>(msg.payload).params[0];
      }
    }
  }
  benchmark::DoNotOptimize(sink);
  state.counters["bytes_round"] = static_cast<double>(bytes_round);
  state.counters["bytes_round_raw"] =
      static_cast<double>(n) * static_cast<double>(net::encoded_size(payloads[0]));
  state.counters["rounds_per_sec"] =
      benchmark::Counter(1.0, benchmark::Counter::kIsIterationInvariantRate);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n * d));
}

void RegisterWireBenches() {
  struct Named {
    const char* name;
    WireMode mode;
  };
  const std::vector<Named> encodes = {
      {"BM_WireEncode/dense", {}},
      {"BM_WireEncode/q8", {.bits = 8}},
      {"BM_WireEncode/q4", {.bits = 4}},
      {"BM_WireEncode/topk10", {.topk10 = true}},
      {"BM_WireEncode/topk10_delta", {.topk10 = true, .delta = true}},
  };
  const std::vector<Named> decodes = {
      {"BM_WireDecode/dense_copy", {}},
      {"BM_WireDecode/dense_view", {.view = true}},
      {"BM_WireDecode/q8", {.bits = 8}},
      {"BM_WireDecode/q4", {.bits = 4}},
      {"BM_WireDecode/topk10", {.topk10 = true}},
  };
  const std::vector<Named> rounds = {
      {"BM_WireRound/dense_copy", {}},
      {"BM_WireRound/dense_view", {.view = true}},
      {"BM_WireRound/q8", {.bits = 8, .view = true}},
      {"BM_WireRound/topk10", {.topk10 = true, .view = true}},
      {"BM_WireRound/topk10_delta", {.topk10 = true, .delta = true, .view = true}},
  };
  for (const auto& e : encodes) {
    benchmark::RegisterBenchmark(e.name, [mode = e.mode](benchmark::State& s) {
      BM_WireEncode(s, mode);
    })->Arg(10000)->Arg(100000);
  }
  for (const auto& e : decodes) {
    benchmark::RegisterBenchmark(e.name, [mode = e.mode](benchmark::State& s) {
      BM_WireDecode(s, mode);
    })->Arg(10000)->Arg(100000);
  }
  for (const auto& e : rounds) {
    benchmark::RegisterBenchmark(e.name, [mode = e.mode](benchmark::State& s) {
      BM_WireRound(s, mode);
    })->Args({64, 10000})->Args({64, 100000});
  }
}

/// The machine and build a row was measured on: online CPUs, CPU model,
/// compiler, build flags and git sha (the fields fedbench's provenance line
/// prints).  Timings from two different hosts do not compare.
struct HostInfo {
  int nproc = 0;
  std::string cpu = "unknown";
  std::string compiler = std::string("g++ ") + __VERSION__;
  std::string flags = BENCH_MICRO_CXX_FLAGS;
  std::string git = "unknown";
};

HostInfo probe_host() {
  HostInfo host;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) host.nproc = CPU_COUNT(&set);
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned int regs[12] = {};
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    const std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    if (first != std::string::npos) host.cpu = s.substr(first);
  }
#endif
  // The sha of the checkout the binary was built from, read at run time so
  // a rebuild without reconfiguring cannot stamp a stale one; "-dirty"
  // marks uncommitted changes on top of it.
  if (FILE* pipe = ::popen("git -C \"" BENCH_MICRO_SOURCE_DIR
                           "\" describe --always --dirty --abbrev=40 2>/dev/null",
                           "r")) {
    char line[80] = {};
    if (std::fgets(line, sizeof line, pipe) != nullptr) {
      std::string sha(line);
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
      if (!sha.empty()) host.git = sha;
    }
    ::pclose(pipe);
  }
  return host;
}

/// `text` as a JSON string literal.
std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

/// Console reporter that additionally accumulates per-run timings so main()
/// can write the compact BENCH_micro.json artifact.  Benchmark names follow
/// "<op>[/<rule>]/<n>/<d>/<threads>" with a variable number of numeric args;
/// the non-numeric prefix is the op and the numeric tail maps to n/d/threads
/// (missing positions default to 0/0/1).
class MicroJsonReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string op;
    std::int64_t n = 0;
    std::int64_t d = 0;
    std::int64_t threads = 1;
    std::vector<double> ns_per_iter;  // one sample per repetition
    std::map<std::string, double> counters;  // user counters, first repetition
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || !run.aggregate_name.empty() ||
          run.iterations == 0) {
        continue;
      }
      Entry& e = entries_[run.benchmark_name()];
      if (e.op.empty()) parse_name(run.benchmark_name(), e);
      e.ns_per_iter.push_back(run.real_accumulated_time /
                              static_cast<double>(run.iterations) * 1e9);
      if (e.counters.empty()) {
        for (const auto& [name, counter] : run.counters) {
          e.counters[name] = counter.value;
        }
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  /// Writes the accumulated entries as a JSON array.  Returns false when the
  /// file cannot be opened.
  [[nodiscard]] bool write(const std::string& path, const HostInfo& host) const {
    std::ofstream out(path);
    if (!out) return false;
    out.precision(12);
    out << "[\n";
    bool first = true;
    for (const auto& [name, e] : entries_) {
      std::vector<double> xs = e.ns_per_iter;
      std::sort(xs.begin(), xs.end());
      const double median = xs.empty() ? 0.0
                            : xs.size() % 2 == 1
                                ? xs[xs.size() / 2]
                                : 0.5 * (xs[xs.size() / 2 - 1] + xs[xs.size() / 2]);
      if (!first) out << ",\n";
      first = false;
      out << "  {\"name\": \"" << name << "\", \"op\": \"" << e.op
          << "\", \"n\": " << e.n << ", \"d\": " << e.d
          << ", \"threads\": " << e.threads << ", \"median_ns\": " << median
          << ", \"repetitions\": " << xs.size();
      for (const auto& [key, value] : e.counters) {
        out << ", \"" << key << "\": " << value;
      }
      out << ", \"host_nproc\": " << host.nproc << ", \"host_cpu\": " << json_string(host.cpu)
          << ", \"host_compiler\": " << json_string(host.compiler)
          << ", \"host_flags\": " << json_string(host.flags)
          << ", \"host_git\": " << json_string(host.git) << "}";
    }
    out << "\n]\n";
    return out.good();
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }

 private:
  static void parse_name(const std::string& name, Entry& e) {
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= name.size()) {
      const std::size_t slash = name.find('/', start);
      parts.push_back(name.substr(start, slash - start));
      if (slash == std::string::npos) break;
      start = slash + 1;
    }
    std::vector<std::int64_t> args;
    std::string op;
    for (const std::string& part : parts) {
      char* end = nullptr;
      const long long v = std::strtoll(part.c_str(), &end, 10);
      const bool numeric = !part.empty() && end != nullptr && *end == '\0';
      if (numeric && !op.empty()) {
        args.push_back(v);
      } else {
        op = op.empty() ? part : op + "/" + part;
      }
    }
    e.op = op;
    if (!args.empty()) e.n = args[0];
    if (args.size() > 1) e.d = args[1];
    if (args.size() > 2) e.threads = args[2];
  }

  std::map<std::string, Entry> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  // Extract our --bench-json=PATH flag before google-benchmark sees (and
  // rejects) it.
  std::string bench_json;
  int kept_argc = 1;
  for (int a = 1; a < argc; ++a) {
    constexpr const char* kFlag = "--bench-json=";
    if (std::strncmp(argv[a], kFlag, std::strlen(kFlag)) == 0) {
      bench_json = argv[a] + std::strlen(kFlag);
    } else {
      argv[kept_argc++] = argv[a];
    }
  }
  argc = kept_argc;

  CheckParallelDeterminism();
  RegisterAggBenches();
  RegisterWireBenches();
  benchmark::Initialize(&argc, argv);
  MicroJsonReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!bench_json.empty()) {
    if (reporter.empty() || !reporter.write(bench_json, probe_host())) {
      std::fprintf(stderr, "bench_micro: failed to write %s\n", bench_json.c_str());
      return 1;
    }
    std::printf("bench_micro: wrote %s\n", bench_json.c_str());
  }
  return 0;
}
