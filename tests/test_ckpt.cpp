// Tests for src/ckpt: container encode/decode round-trips, corruption
// rejection (flipped bytes, truncation, forged chunk counts that must not
// drive allocations), the store's atomic-install/retention/fallback
// behaviour, the background writer under load, and the headline guarantee —
// bit-identical resume.  A run of R rounds must equal "run to R/2, halt,
// resume to R" bytewise for all four runners (hfl, vanilla, async,
// pipeline), and a federation of net nodes must survive a killed-and-
// restarted worker rejoining from its snapshot over loopback and TCP.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/container.hpp"
#include "ckpt/state.hpp"
#include "ckpt/store.hpp"
#include "core/async_runner.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "data/partition.hpp"
#include "data/synth_digits.hpp"
#include "net/loopback.hpp"
#include "net/node.hpp"
#include "net/tcp.hpp"
#include "net/top_cluster.hpp"
#include "topology/tree.hpp"

namespace abdhfl {
namespace {

namespace fs = std::filesystem;

// Fresh per-test scratch directory under the system temp dir.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("abdhfl_ckpt_" + name);
  fs::remove_all(dir);
  return dir.string();
}

ckpt::Container make_snapshot(std::uint64_t round) {
  ckpt::Container c;
  c.producer = "test";
  c.round = round;
  ckpt::PayloadWriter w;
  std::vector<float> params(32);
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i] = static_cast<float>(round) + 0.25f * static_cast<float>(i);
  }
  w.f32vec(params);
  c.chunks.push_back({ckpt::kTagParams, w.take()});
  return c;
}

// Newest entry of a store's MANIFEST ("<file> <round>" lines, oldest first).
std::pair<std::string, std::uint64_t> newest_manifest_entry(const std::string& dir) {
  std::ifstream manifest(fs::path(dir) / "MANIFEST");
  std::string name;
  std::uint64_t round = 0;
  std::string last_name;
  std::uint64_t last_round = 0;
  while (manifest >> name >> round) {
    last_name = name;
    last_round = round;
  }
  return {last_name, last_round};
}

std::size_t snapshot_file_count(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".abck") ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Container format.

TEST(Container, RoundTripAllPayloadTypes) {
  ckpt::Container c;
  c.producer = "round_trip";
  c.round = 41;

  ckpt::PayloadWriter w;
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.u64(0x1122334455667788ull);
  w.f32(1.5f);
  w.f64(-2.25);
  w.f32vec(std::vector<float>{1.0f, -0.0f, 3e-8f});
  w.f64vec(std::vector<double>{9.75, -1e300});
  w.u64vec(std::vector<std::uint64_t>{1, 2, 3});
  w.u32vec(std::vector<std::uint32_t>{0, 0xFFFFFFFFu});
  w.str("hello snapshot");
  c.chunks.push_back({ckpt::fourcc("MIXD"), w.take()});
  c.chunks.push_back({ckpt::kTagParams, {}});  // empty payload is legal

  const auto bytes = ckpt::encode_container(c);
  const auto out = ckpt::decode_container(bytes);

  EXPECT_EQ(out.version, ckpt::kVersion);
  EXPECT_EQ(out.producer, "round_trip");
  EXPECT_EQ(out.round, 41u);
  ASSERT_EQ(out.chunks.size(), 2u);
  EXPECT_EQ(out.find(ckpt::kTagParams)->payload.size(), 0u);
  EXPECT_EQ(out.find(ckpt::fourcc("LOST")), nullptr);
  EXPECT_THROW((void)out.require(ckpt::fourcc("LOST")), ckpt::CkptError);

  ckpt::PayloadReader r(out.require(ckpt::fourcc("MIXD")).payload);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x1122334455667788ull);
  EXPECT_EQ(r.f32(), 1.5f);
  EXPECT_EQ(r.f64(), -2.25);
  EXPECT_EQ(r.f32vec(), (std::vector<float>{1.0f, -0.0f, 3e-8f}));
  EXPECT_EQ(r.f64vec(), (std::vector<double>{9.75, -1e300}));
  EXPECT_EQ(r.u64vec(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.u32vec(), (std::vector<std::uint32_t>{0, 0xFFFFFFFFu}));
  EXPECT_EQ(r.str(), "hello snapshot");
  EXPECT_EQ(r.remaining(), 0u);
  r.expect_done();
}

TEST(Container, EmptyVectorsRoundTrip) {
  // A zero count reads back as an empty vector (whose data() may be null)
  // without copying anything.
  ckpt::PayloadWriter w;
  w.f32vec({});
  w.f64vec({});
  w.u64vec({});
  w.u32vec({});
  w.str("");
  const auto bytes = w.take();
  ckpt::PayloadReader r(bytes);
  EXPECT_TRUE(r.f32vec().empty());
  EXPECT_TRUE(r.f64vec().empty());
  EXPECT_TRUE(r.u64vec().empty());
  EXPECT_TRUE(r.u32vec().empty());
  EXPECT_EQ(r.str(), "");
  r.expect_done();
}

TEST(Container, FlippedByteAnywhereIsRejected) {
  const auto good = ckpt::encode_container(make_snapshot(3));
  // Header, producer, chunk header, payload, footer: a flip anywhere must
  // fail the whole-file CRC.
  for (const std::size_t at : {std::size_t{0}, std::size_t{9}, std::size_t{25},
                               good.size() / 2, good.size() - 1}) {
    auto bad = good;
    bad[at] ^= 0x40;
    EXPECT_THROW((void)ckpt::decode_container(bad), ckpt::CkptError) << "at=" << at;
  }
}

TEST(Container, TruncationAnywhereIsRejected) {
  const auto good = ckpt::encode_container(make_snapshot(3));
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{17},
                                 good.size() / 2, good.size() - 1}) {
    const std::vector<std::uint8_t> cut(
        good.begin(), good.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)ckpt::decode_container(cut), ckpt::CkptError) << "keep=" << keep;
  }
}

// Patch the chunk-count field and refresh the CRC footer so the forgery is
// only catchable by the bounds discipline, not the checksum.
std::vector<std::uint8_t> forge_chunk_count(std::vector<std::uint8_t> bytes,
                                            std::uint32_t count,
                                            std::size_t producer_len) {
  const std::size_t off = 4 + 4 + 4 + producer_len + 8;
  std::memcpy(bytes.data() + off, &count, sizeof count);
  const std::uint32_t crc =
      ckpt::crc32({bytes.data(), bytes.size() - sizeof(std::uint32_t)});
  std::memcpy(bytes.data() + bytes.size() - sizeof crc, &crc, sizeof crc);
  return bytes;
}

TEST(Container, ForgedChunkCountCannotDriveAllocation) {
  const auto c = make_snapshot(3);
  const auto good = ckpt::encode_container(c);

  // Over the registry cap: rejected by the count bound itself.
  EXPECT_THROW(
      (void)ckpt::decode_container(forge_chunk_count(good, 0xFFFFFFF0u, c.producer.size())),
      ckpt::CkptError);
  // Within the cap but far beyond the bytes present: rejected against the
  // remaining length, never sized into an allocation.
  EXPECT_THROW(
      (void)ckpt::decode_container(forge_chunk_count(good, ckpt::kMaxChunks, c.producer.size())),
      ckpt::CkptError);
}

TEST(Container, ForgedProducerLengthIsBounded) {
  auto bad = ckpt::encode_container(make_snapshot(1));
  const std::uint32_t huge = 0x7FFFFFFFu;
  std::memcpy(bad.data() + 8, &huge, sizeof huge);
  const std::uint32_t crc = ckpt::crc32({bad.data(), bad.size() - sizeof(std::uint32_t)});
  std::memcpy(bad.data() + bad.size() - sizeof crc, &crc, sizeof crc);
  EXPECT_THROW((void)ckpt::decode_container(bad), ckpt::CkptError);
}

// ---------------------------------------------------------------------------
// Store: atomic install, retention, corruption fallback, background writer.

TEST(Store, RetentionKeepsLastK) {
  const auto dir = fresh_dir("retention");
  ckpt::Store store(dir, /*keep_last=*/2);
  for (std::uint64_t round = 0; round < 5; ++round) {
    store.save_now(round, ckpt::encode_container(make_snapshot(round)));
  }
  EXPECT_EQ(store.installs(), 5u);
  EXPECT_EQ(snapshot_file_count(dir), 2u);
  EXPECT_EQ(newest_manifest_entry(dir).second, 4u);

  const auto latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->round, 4u);
  EXPECT_EQ(store.corrupt_skipped(), 0u);
}

TEST(Store, FallsBackToPreviousGenerationOnCorruption) {
  const auto dir = fresh_dir("fallback_flip");
  ckpt::Store store(dir, 3);
  store.save_now(7, ckpt::encode_container(make_snapshot(7)));
  store.save_now(8, ckpt::encode_container(make_snapshot(8)));

  // Flip one byte in the middle of the newest snapshot on disk.
  const auto [newest, round] = newest_manifest_entry(dir);
  ASSERT_EQ(round, 8u);
  const fs::path victim = fs::path(dir) / newest;
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(victim) / 2));
    char byte = 0;
    f.seekg(f.tellp());
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(static_cast<std::streamoff>(fs::file_size(victim) / 2));
    f.write(&byte, 1);
  }

  const auto latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->round, 7u);  // previous generation
  EXPECT_EQ(store.corrupt_skipped(), 1u);
}

TEST(Store, FallsBackToPreviousGenerationOnTruncation) {
  const auto dir = fresh_dir("fallback_trunc");
  ckpt::Store store(dir, 3);
  store.save_now(1, ckpt::encode_container(make_snapshot(1)));
  store.save_now(2, ckpt::encode_container(make_snapshot(2)));

  const auto [newest, round] = newest_manifest_entry(dir);
  ASSERT_EQ(round, 2u);
  fs::resize_file(fs::path(dir) / newest, 11);

  const auto latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->round, 1u);
  EXPECT_EQ(store.corrupt_skipped(), 1u);
}

TEST(Store, AllGenerationsCorruptYieldsNothing) {
  const auto dir = fresh_dir("all_corrupt");
  ckpt::Store store(dir, 3);
  store.save_now(1, ckpt::encode_container(make_snapshot(1)));
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".abck") fs::resize_file(entry.path(), 4);
  }
  EXPECT_FALSE(store.load_latest().has_value());
  EXPECT_EQ(store.corrupt_skipped(), 1u);
}

TEST(Store, RestartedStoreContinuesSequence) {
  const auto dir = fresh_dir("restart");
  {
    ckpt::Store store(dir, 3);
    store.save_now(0, ckpt::encode_container(make_snapshot(0)));
    store.save_now(1, ckpt::encode_container(make_snapshot(1)));
  }
  // A new Store on the same directory (a restarted process) must read the
  // manifest, keep installing after the existing sequence, and load the
  // newest generation across the restart boundary.
  ckpt::Store store(dir, 3);
  auto latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->round, 1u);

  store.save_now(2, ckpt::encode_container(make_snapshot(2)));
  latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->round, 2u);
  EXPECT_EQ(snapshot_file_count(dir), 3u);
}

TEST(Store, BackgroundWriterDrainsUnderLoad) {
  const auto dir = fresh_dir("stress");
  ckpt::Store store(dir, /*keep_last=*/4);
  const std::uint64_t staged = 64;
  for (std::uint64_t round = 0; round < staged; ++round) {
    store.save(round, ckpt::encode_container(make_snapshot(round)));
  }
  store.flush();

  // Every staged snapshot was either installed or superseded before the
  // writer picked it up — none may be silently dropped.
  EXPECT_EQ(store.installs() + store.replaced(), staged);
  EXPECT_GE(store.installs(), 1u);
  EXPECT_LE(snapshot_file_count(dir), 4u);

  // The newest staged snapshot always survives (flush waits for the slot).
  const auto latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->round, staged - 1);
  ckpt::PayloadReader r(latest->require(ckpt::kTagParams).payload);
  const auto params = r.f32vec();
  ASSERT_EQ(params.size(), 32u);
  EXPECT_EQ(params[0], static_cast<float>(staged - 1));
}

// ---------------------------------------------------------------------------
// Bit-identical resume: hfl + vanilla via the scenario driver.

core::ScenarioConfig small_scenario() {
  core::ScenarioConfig config;
  config.samples_per_class = 12;
  config.test_samples_per_class = 6;
  config.image_side = 8;
  config.hidden = {8};
  config.levels = 3;
  config.cluster_size = 2;
  config.top_nodes = 2;  // 8 devices
  config.learn.rounds = 4;
  config.learn.local_iters = 2;
  config.learn.batch = 8;
  config.seed = 5;
  return config;
}

TEST(Resume, HflAndVanillaBitIdentical) {
  const auto config = small_scenario();
  const auto full = core::run_scenario(config);
  ASSERT_EQ(full.abdhfl.accuracy_per_round.size(), 4u);

  const auto hfl_dir = fresh_dir("resume_hfl");
  const auto van_dir = fresh_dir("resume_vanilla");
  {
    ckpt::Store hfl_store(hfl_dir, 3);
    ckpt::Store van_store(van_dir, 3);
    auto halted = config;
    halted.checkpoint_hfl = &hfl_store;
    halted.checkpoint_vanilla = &van_store;
    halted.halt_after_rounds = 2;
    (void)core::run_scenario(halted);
  }

  ckpt::Store hfl_store(hfl_dir, 3);
  ckpt::Store van_store(van_dir, 3);
  auto resumed_config = config;
  resumed_config.checkpoint_hfl = &hfl_store;
  resumed_config.checkpoint_vanilla = &van_store;
  resumed_config.resume = true;
  const auto resumed = core::run_scenario(resumed_config);

  // Bytewise equality of the final parameters, and exact equality of every
  // per-round accuracy: 4 rounds == 2 + halt + resume + 2.
  EXPECT_EQ(resumed.abdhfl.final_model, full.abdhfl.final_model);
  EXPECT_EQ(resumed.vanilla.final_model, full.vanilla.final_model);
  EXPECT_EQ(resumed.abdhfl.accuracy_per_round, full.abdhfl.accuracy_per_round);
  EXPECT_EQ(resumed.vanilla.accuracy_per_round, full.vanilla.accuracy_per_round);
  EXPECT_EQ(resumed.abdhfl.final_accuracy, full.abdhfl.final_accuracy);
  EXPECT_EQ(resumed.vanilla.final_accuracy, full.vanilla.final_accuracy);
}

TEST(Resume, CorruptLatestSnapshotResumesFromPreviousRound) {
  // Flip a byte in the newest hfl snapshot: resume must fall back to the
  // round-0 generation and still converge to the same bitwise final model
  // (it simply retrains round 1).
  const auto config = small_scenario();
  const auto full = core::run_scenario(config, /*run_vanilla=*/false);

  const auto dir = fresh_dir("resume_corrupt");
  {
    ckpt::Store store(dir, 3);
    auto halted = config;
    halted.checkpoint_hfl = &store;
    halted.halt_after_rounds = 2;
    (void)core::run_scenario(halted, /*run_vanilla=*/false);
  }
  const auto [newest, round] = newest_manifest_entry(dir);
  ASSERT_EQ(round, 1u);
  {
    const fs::path victim = fs::path(dir) / newest;
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(victim) - 9));
    const char byte = 0x5A;
    f.write(&byte, 1);
  }

  ckpt::Store store(dir, 3);
  auto resumed_config = config;
  resumed_config.checkpoint_hfl = &store;
  resumed_config.resume = true;
  const auto resumed = core::run_scenario(resumed_config, /*run_vanilla=*/false);
  EXPECT_EQ(store.corrupt_skipped(), 1u);
  EXPECT_EQ(resumed.abdhfl.final_model, full.abdhfl.final_model);
  EXPECT_EQ(resumed.abdhfl.accuracy_per_round, full.abdhfl.accuracy_per_round);
}

// ---------------------------------------------------------------------------
// Bit-identical resume: async runner.

struct AsyncFixture {
  topology::HflTree tree = topology::build_ecsm(3, 2, 2);  // 8 devices
  std::vector<data::Dataset> shards;
  data::Dataset test_set;
  std::vector<data::Dataset> validation;
  nn::Mlp prototype;

  AsyncFixture() {
    util::Rng rng(21);
    data::SynthConfig synth;
    synth.samples_per_class = 16;
    const auto pool = data::generate_synth_digits(synth, rng);
    shards = data::partition_iid(pool, tree.num_devices(), rng);
    synth.samples_per_class = 8;
    test_set = data::generate_synth_digits(synth, rng);
    validation = data::partition_iid(test_set, 2, rng);
    prototype = nn::make_mlp(pool.dim(), {8}, 10, rng);
  }
};

core::AsyncHflConfig async_config() {
  core::AsyncHflConfig config;
  config.rounds = 4;
  config.flag_level = 1;
  config.learn.local_iters = 2;
  config.learn.batch = 8;
  return config;
}

TEST(Resume, AsyncBitIdentical) {
  AsyncFixture fx;
  core::AsyncHflRunner full_runner(fx.tree, fx.shards, fx.test_set, fx.validation,
                                   fx.prototype, async_config(), {}, 31);
  const auto full = full_runner.run();
  ASSERT_EQ(full.rounds.size(), 4u);

  const auto dir = fresh_dir("resume_async");
  {
    ckpt::Store store(dir, 3);
    auto halted = async_config();
    halted.checkpoint = &store;
    halted.halt_after_globals = 2;
    AsyncFixture fx2;
    core::AsyncHflRunner runner(fx2.tree, fx2.shards, fx2.test_set, fx2.validation,
                                fx2.prototype, halted, {}, 31);
    (void)runner.run();
  }

  ckpt::Store store(dir, 3);
  auto resumed_config = async_config();
  resumed_config.checkpoint = &store;
  resumed_config.resume = true;
  AsyncFixture fx3;
  core::AsyncHflRunner runner(fx3.tree, fx3.shards, fx3.test_set, fx3.validation,
                              fx3.prototype, resumed_config, {}, 31);
  const auto resumed = runner.run();

  ASSERT_EQ(resumed.rounds.size(), full.rounds.size());
  for (std::size_t i = 0; i < full.rounds.size(); ++i) {
    EXPECT_EQ(resumed.rounds[i].round, full.rounds[i].round) << "i=" << i;
    EXPECT_EQ(resumed.rounds[i].t_formed, full.rounds[i].t_formed) << "i=" << i;
    EXPECT_EQ(resumed.rounds[i].accuracy, full.rounds[i].accuracy) << "i=" << i;
    EXPECT_EQ(resumed.rounds[i].mean_staleness, full.rounds[i].mean_staleness)
        << "i=" << i;
  }
  EXPECT_EQ(resumed.final_accuracy, full.final_accuracy);
  EXPECT_EQ(resumed.total_time, full.total_time);
}

// ---------------------------------------------------------------------------
// Bit-identical resume: pipeline timing simulation.

TEST(Resume, PipelineBitIdentical) {
  const auto tree = topology::build_ecsm(3, 2, 2);
  const core::DelayRegime regime;
  const auto full =
      core::simulate_pipeline(tree, core::make_pipeline_config(regime, 6, 1), 7);
  ASSERT_EQ(full.rounds.size(), 6u);

  const auto dir = fresh_dir("resume_pipeline");
  {
    ckpt::Store store(dir, 3);
    auto halted = core::make_pipeline_config(regime, 6, 1);
    halted.checkpoint = &store;
    halted.halt_after_rounds = 3;
    (void)core::simulate_pipeline(tree, halted, 7);
  }

  ckpt::Store store(dir, 3);
  auto resumed_config = core::make_pipeline_config(regime, 6, 1);
  resumed_config.checkpoint = &store;
  resumed_config.resume = true;
  const auto resumed = core::simulate_pipeline(tree, resumed_config, 7);

  ASSERT_EQ(resumed.rounds.size(), full.rounds.size());
  for (std::size_t i = 0; i < full.rounds.size(); ++i) {
    EXPECT_EQ(resumed.rounds[i].sigma_w, full.rounds[i].sigma_w) << "i=" << i;
    EXPECT_EQ(resumed.rounds[i].sigma_pg, full.rounds[i].sigma_pg) << "i=" << i;
    EXPECT_EQ(resumed.rounds[i].sigma, full.rounds[i].sigma) << "i=" << i;
    EXPECT_EQ(resumed.rounds[i].nu, full.rounds[i].nu) << "i=" << i;
    EXPECT_EQ(resumed.rounds[i].staleness, full.rounds[i].staleness) << "i=" << i;
    EXPECT_EQ(resumed.rounds[i].t_global, full.rounds[i].t_global) << "i=" << i;
    EXPECT_EQ(resumed.rounds[i].late_arrivals, full.rounds[i].late_arrivals)
        << "i=" << i;
  }
  EXPECT_EQ(resumed.total_time, full.total_time);
  EXPECT_EQ(resumed.mean_nu, full.mean_nu);
  EXPECT_EQ(resumed.mean_staleness, full.mean_staleness);
  EXPECT_EQ(resumed.synchronous_time, full.synchronous_time);
}

// ---------------------------------------------------------------------------
// Federation resume over loopback: run R rounds with snapshots, then restart
// every node with --resume semantics for 2R rounds; the final global model
// must equal the uninterrupted 2R-round run bytewise.

net::FederationConfig fed_config(std::size_t rounds) {
  net::FederationConfig config;
  config.seed = 23;
  config.workers = 2;
  config.devices_per_worker = 1;
  config.rounds = rounds;
  config.local_iters = 2;
  config.batch = 8;
  config.hidden = {8};
  config.samples_per_class = 6;
  config.test_samples_per_class = 4;
  return config;
}

struct LoopbackRun {
  net::RootResult result;
  std::vector<std::size_t> worker_resume_rounds;
};

LoopbackRun run_loopback(const net::FederationConfig& config,
                         ckpt::Store* root_store,
                         const std::vector<ckpt::Store*>& worker_stores,
                         bool resume) {
  net::LoopbackTransport transport;
  net::RootNode root(config, transport, nullptr, root_store, 1, resume);
  std::vector<std::unique_ptr<net::WorkerNode>> workers;
  for (std::size_t w = 0; w < config.workers; ++w) {
    workers.push_back(std::make_unique<net::WorkerNode>(
        config, w, transport, nullptr,
        worker_stores.empty() ? nullptr : worker_stores[w], 1, resume));
  }
  root.start();
  for (auto& worker : workers) worker->start();

  bool done = false;
  for (int i = 0; i < 200000 && !done; ++i) {
    transport.poll(0.0);
    root.on_idle();
    for (auto& worker : workers) worker->on_idle();
    done = root.done();
    for (auto& worker : workers) done = done && worker->done();
  }
  EXPECT_TRUE(done);

  LoopbackRun run;
  run.result = root.result();
  run.worker_resume_rounds.push_back(root.resume_round());
  for (auto& worker : workers) run.worker_resume_rounds.push_back(worker->resume_round());
  return run;
}

TEST(Federation, LoopbackResumeBitIdentical) {
  const auto uninterrupted = run_loopback(fed_config(4), nullptr, {}, false);
  ASSERT_EQ(uninterrupted.result.rounds_run, 4u);

  const auto root_dir = fresh_dir("loop_root");
  const auto w0_dir = fresh_dir("loop_w0");
  const auto w1_dir = fresh_dir("loop_w1");
  {
    // First half: 2 rounds with every node snapshotting.
    ckpt::Store root_store(root_dir, 3);
    ckpt::Store w0_store(w0_dir, 3);
    ckpt::Store w1_store(w1_dir, 3);
    const auto half = run_loopback(fed_config(2), &root_store,
                                   {&w0_store, &w1_store}, false);
    ASSERT_EQ(half.result.rounds_run, 2u);
  }

  // Second half: every node restarts from its snapshot and runs to round 4.
  ckpt::Store root_store(root_dir, 3);
  ckpt::Store w0_store(w0_dir, 3);
  ckpt::Store w1_store(w1_dir, 3);
  const auto resumed = run_loopback(fed_config(4), &root_store,
                                    {&w0_store, &w1_store}, true);

  // Every node picked up at round 2, no round-0 retraining.
  EXPECT_EQ(resumed.worker_resume_rounds, (std::vector<std::size_t>{2, 2, 2}));
  ASSERT_EQ(resumed.result.rounds_run, 4u);
  ASSERT_EQ(resumed.result.global_model.size(),
            uninterrupted.result.global_model.size());
  EXPECT_EQ(std::memcmp(resumed.result.global_model.data(),
                        uninterrupted.result.global_model.data(),
                        resumed.result.global_model.size() * sizeof(float)),
            0);
  EXPECT_EQ(resumed.result.round_accuracy, uninterrupted.result.round_accuracy);
  EXPECT_EQ(resumed.result.final_accuracy, uninterrupted.result.final_accuracy);
}

TEST(Federation, RootResumesSnapshotCarryingLegacyTopologyChunk) {
  // Root snapshots of older builds carry a TOPO topology-mirror chunk that
  // nothing reads any more: the root must skip it and resume bitwise.
  const auto uninterrupted = run_loopback(fed_config(4), nullptr, {}, false);
  const auto root_dir = fresh_dir("legacy_root");
  const auto w0_dir = fresh_dir("legacy_w0");
  const auto w1_dir = fresh_dir("legacy_w1");
  {
    ckpt::Store root_store(root_dir, 3);
    ckpt::Store w0_store(w0_dir, 3);
    ckpt::Store w1_store(w1_dir, 3);
    (void)run_loopback(fed_config(2), &root_store, {&w0_store, &w1_store}, false);
    auto snap = root_store.load_latest();
    ASSERT_TRUE(snap.has_value());
    ckpt::PayloadWriter topo;  // an empty tree in the old encoding
    topo.u64(0);
    snap->chunks.push_back({ckpt::fourcc("TOPO"), topo.take()});
    root_store.save_now(snap->round, ckpt::encode_container(*snap));
  }

  ckpt::Store root_store(root_dir, 3);
  ckpt::Store w0_store(w0_dir, 3);
  ckpt::Store w1_store(w1_dir, 3);
  const auto resumed = run_loopback(fed_config(4), &root_store,
                                    {&w0_store, &w1_store}, true);
  EXPECT_EQ(resumed.worker_resume_rounds, (std::vector<std::size_t>{2, 2, 2}));
  ASSERT_EQ(resumed.result.global_model.size(),
            uninterrupted.result.global_model.size());
  EXPECT_EQ(std::memcmp(resumed.result.global_model.data(),
                        uninterrupted.result.global_model.data(),
                        resumed.result.global_model.size() * sizeof(float)),
            0);
}

TEST(Federation, RestoredRootWaitsForEveryExpectedJoin) {
  // A restored root starts a fresh join phase: one of two expected joins is
  // not enough for the starting gun, or over TCP the late joiner would miss
  // the resumed round.
  const auto root_dir = fresh_dir("gate_root");
  {
    ckpt::Store root_store(root_dir, 3);
    (void)run_loopback(fed_config(2), &root_store, {}, false);
  }
  ckpt::Store root_store(root_dir, 3);
  net::LoopbackTransport transport;
  net::RootNode root(fed_config(4), transport, nullptr, &root_store, 1, true);
  ASSERT_EQ(root.resume_round(), 2u);
  std::map<net::NodeId, std::vector<std::uint64_t>> echoes;  // child -> rounds
  for (std::size_t w = 0; w < 2; ++w) {
    const net::NodeId id = net::worker_node_id(w);
    transport.register_node(id, [&echoes, id](net::WireMessage& msg) {
      if (msg.kind == net::MsgKind::kMembership) echoes[id].push_back(msg.env.round);
    });
  }
  root.start();
  const auto join_and_pump = [&](std::size_t w) {
    net::Membership join;
    join.event = net::Membership::Event::kJoin;
    join.device = net::worker_node_id(w);
    join.cluster = static_cast<std::uint32_t>(w);
    join.subtree_samples = 1;
    EXPECT_EQ(transport.send({net::worker_node_id(w), net::kRootId, 0}, join),
              net::SendStatus::kOk);
    for (int i = 0; i < 10; ++i) {
      transport.poll(0.0);
      root.on_idle();
    }
  };

  join_and_pump(0);
  EXPECT_TRUE(echoes.empty());
  join_and_pump(1);
  using Rounds = std::vector<std::uint64_t>;
  EXPECT_EQ(echoes[net::worker_node_id(0)], Rounds{2});
  EXPECT_EQ(echoes[net::worker_node_id(1)], Rounds{2});
}

TEST(Federation, CheckpointStoreNeedsACommitteeOfOne) {
  // A larger committee replicates its state through the log; a store handed
  // to one of its members is a configuration error.
  auto config = fed_config(2);
  config.top_cluster = 3;
  ckpt::Store store(fresh_dir("committee_store"), 3);
  net::LoopbackTransport transport;
  EXPECT_THROW(net::TopClusterNode(config, 0, transport, nullptr, &store),
               std::invalid_argument);
  config.top_cluster = 1;
  EXPECT_NO_THROW(net::TopClusterNode(config, 0, transport, nullptr, &store));
}

// ---------------------------------------------------------------------------
// Kill/resume over real TCP: a worker "dies" mid-training (its transport
// closes unannounced, its node state is destroyed), then a fresh WorkerNode
// restores the same snapshot directory and rejoins the running federation
// without retraining from round 0.

TEST(Federation, TcpKilledWorkerResumesFromSnapshotAndRejoins) {
  // 6 rounds, kill after 2: the surviving worker's in-flight updates can
  // close at most one more round before the root processes the revived
  // worker's join, so the rejoin always lands mid-training (the re-admission
  // path refuses workers once the final round entered kFinishing).
  auto config = fed_config(6);

  net::RetryPolicy fast;
  fast.max_attempts = 3;
  fast.initial_backoff_s = 0.01;
  fast.max_backoff_s = 0.05;
  fast.send_timeout_s = 2.0;
  fast.connect_timeout_s = 1.0;

  net::TcpTransport root_transport(net::kRootId, fast);
  const auto port = root_transport.listen(0);
  ASSERT_GT(port, 0);
  net::RootNode root(config, root_transport);
  root.start();

  const auto w0_dir = fresh_dir("tcp_w0");
  auto w0_store = std::make_unique<ckpt::Store>(w0_dir, 3);
  auto w0_transport = std::make_unique<net::TcpTransport>(net::worker_node_id(0), fast);
  ASSERT_TRUE(w0_transport->connect_peer(net::kRootId, "127.0.0.1", port));
  auto w0 = std::make_unique<net::WorkerNode>(config, 0, *w0_transport, nullptr,
                                              w0_store.get(), 1, false);
  w0->start();

  net::TcpTransport w1_transport(net::worker_node_id(1), fast);
  ASSERT_TRUE(w1_transport.connect_peer(net::kRootId, "127.0.0.1", port));
  net::WorkerNode w1(config, 1, w1_transport, nullptr);
  w1.start();

  auto pump = [&](std::vector<net::TcpTransport*> transports,
                  const std::function<bool()>& done, int max_iters = 20000) {
    for (int i = 0; i < max_iters && !done(); ++i) {
      root_transport.poll(0.005);
      root.on_idle();
      for (auto* t : transports) t->poll(0.005);
      if (w0) w0->on_idle();
      w1.on_idle();
    }
    return done();
  };

  // Let worker 0 merge (and snapshot) two rounds, then kill it: unannounced
  // socket close plus destruction of all in-memory state.
  ASSERT_TRUE(pump({w0_transport.get(), &w1_transport},
                   [&] { return w0->rounds_run() >= 2; }));
  w0_transport->close();
  w0.reset();
  w0_transport.reset();
  w0_store.reset();  // the restarted process opens the directory fresh
  ASSERT_TRUE(pump({&w1_transport}, [&] { return root.result().workers_lost == 1; }));

  // Restart: fresh transport, fresh store on the same directory, resume on.
  ckpt::Store revived_store(w0_dir, 3);
  net::TcpTransport revived_transport(net::worker_node_id(0), fast);
  ASSERT_TRUE(revived_transport.connect_peer(net::kRootId, "127.0.0.1", port));
  net::WorkerNode revived(config, 0, revived_transport, nullptr, &revived_store, 1,
                          true);
  EXPECT_GE(revived.resume_round(), 2u);  // no round-0 retraining
  revived.start();

  // root.done() requires a kLeave from every live worker, so the workers are
  // necessarily done first — pumping to it alone keeps a failed rejoin from
  // burning the whole iteration budget before the assertions below fire.
  ASSERT_TRUE(pump({&revived_transport, &w1_transport}, [&] {
    revived.on_idle();
    return root.done();
  }));

  EXPECT_TRUE(revived.done());
  EXPECT_TRUE(w1.done());
  EXPECT_FALSE(revived.failed());
  EXPECT_FALSE(w1.failed());
  EXPECT_EQ(root.result().rounds_run, 6u);
  EXPECT_EQ(root.result().workers_joined, 2u);
  EXPECT_EQ(root.result().workers_lost, 1u);
  EXPECT_EQ(root.result().workers_rejoined, 1u);
  EXPECT_EQ(root.result().round_accuracy.size(), 6u);
  root_transport.close();
  w1_transport.close();
  revived_transport.close();
}

}  // namespace
}  // namespace abdhfl
