// Unit tests for src/util: RNG, statistics, tables, CLI, logging, thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace abdhfl::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowIsUniformAndInRange) {
  Rng rng(9);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 14000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c, 2000, 300);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.between(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.normal();
  EXPECT_NEAR(mean(xs), 0.0, 0.03);
  EXPECT_NEAR(stddev(xs), 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(15);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.exponential(2.0);
  EXPECT_NEAR(mean(xs), 0.5, 0.02);
}

TEST(Rng, LognormalPositive) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(19);
  const auto sample = rng.sample_indices(50, 20);
  ASSERT_EQ(sample.size(), 20u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (std::size_t idx : sample) EXPECT_LT(idx, 50u);
}

TEST(Rng, SampleIndicesAll) {
  Rng rng(21);
  const auto sample = rng.sample_indices(5, 5);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(31);
  Rng child = a.split();
  // The child stream should not track the parent's subsequent output.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == child()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, StateRoundTrip) {
  Rng a(41);
  for (int i = 0; i < 17; ++i) (void)a();  // advance off the seed state
  const auto saved = a.state();
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 32; ++i) expected.push_back(a());

  Rng b(999);  // different seed; set_state must fully overwrite it
  b.set_state(saved);
  for (std::uint64_t want : expected) EXPECT_EQ(b(), want);
  // And the restored stream keeps matching through derived draws.
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  EXPECT_DOUBLE_EQ(a.normal(), b.normal());
}

TEST(Rng, SetStateClearsSpareNormal) {
  // normal() caches the second value of each Marsaglia pair.  That cache is
  // not part of state(), so restoring mid-pair must discard it: two
  // generators with the same state produce the same stream regardless of
  // whether a spare was pending when set_state ran.
  Rng a(43);
  Rng b(43);
  (void)a.normal();  // a now holds a spare; b does not
  const auto s = a.state();
  a.set_state(s);
  b.set_state(s);
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(a.normal(), b.normal());
}

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, EmptyAndSingleInputs) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(variance({}), 0.0);
  const std::vector<double> one = {3.0};
  EXPECT_EQ(variance(one), 0.0);
  EXPECT_EQ(ci95_halfwidth(one), 0.0);
}

TEST(Stats, MedianOddEven) {
  const std::vector<double> odd = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median_of(odd), 3.0);
  const std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median_of(even), 2.5);
  EXPECT_THROW(median_of({}), std::invalid_argument);
}

TEST(Stats, SummarizeBundle) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const auto s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_EQ(s.n, 3u);
}

TEST(Stats, PointwiseMeanAndCi) {
  const std::vector<std::vector<double>> series = {{1.0, 2.0}, {3.0, 4.0}};
  const auto m = pointwise_mean(series);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m[0], 2.0);
  EXPECT_DOUBLE_EQ(m[1], 3.0);
  const auto ci = pointwise_ci95(series);
  EXPECT_GT(ci[0], 0.0);
}

TEST(Stats, PointwiseRaggedThrows) {
  const std::vector<std::vector<double>> ragged = {{1.0, 2.0}, {3.0}};
  EXPECT_THROW(pointwise_mean(ragged), std::invalid_argument);
}

TEST(Stats, PercentileInterpolatesLinearly) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), median_of(xs));
  // Rank 0.75 between the 1st and 2nd order statistics.
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 1.75);
}

TEST(Stats, PercentileSingleElementAndErrors) {
  const std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(one, 99.0), 7.0);
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_THROW(percentile(xs, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 100.5), std::invalid_argument);
}

TEST(Stats, PercentileOrFallsBackInsteadOfThrowing) {
  EXPECT_DOUBLE_EQ(percentile_or({}, 50.0, -1.0), -1.0);
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile_or(xs, -1.0, -2.0), -2.0);
  EXPECT_DOUBLE_EQ(percentile_or(xs, 100.5, -2.0), -2.0);
}

TEST(Stats, PercentileOrMatchesPercentileOnValidInput) {
  const std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(percentile_or(one, 0.0, -1.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile_or(one, 100.0, -1.0), 7.0);
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile_or(xs, 0.0, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_or(xs, 100.0, -1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile_or(xs, 50.0, -1.0), percentile(xs, 50.0));
}

TEST(Table, TextAndArity) {
  Table t({"a", "b"});
  t.add_row({"1", "22"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  const auto text = t.to_text();
  EXPECT_NE(text.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, CsvEscaping) {
  Table t({"x"});
  t.add_row({"a,b \"quoted\""});
  const auto csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b \"\"quoted\"\"\""), std::string::npos);
}

TEST(Table, Formatting) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::pct(0.5781, 2), "57.81%");
}

TEST(Cli, ParsesFormsAndDefaults) {
  const char* argv[] = {"prog", "--alpha=0.5", "--count", "7", "--flag"};
  Cli cli(5, argv);
  EXPECT_DOUBLE_EQ(cli.real("alpha", 0.1, ""), 0.5);
  EXPECT_EQ(cli.integer("count", 1, ""), 7);
  EXPECT_TRUE(cli.boolean("flag", false, ""));
  EXPECT_EQ(cli.str("missing", "dflt", ""), "dflt");
  EXPECT_TRUE(cli.finish());
}

TEST(Cli, BadBooleanThrows) {
  const char* argv[] = {"prog", "--b=maybe"};
  Cli cli(2, argv);
  EXPECT_THROW((void)cli.boolean("b", false, ""), std::invalid_argument);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t i) {
                                   if (i == 50) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(5, 5, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, SubmitReturnsFuture) {
  ThreadPool pool(1);
  auto fut = pool.submit([] {});
  fut.wait();
  SUCCEED();
}

TEST(ThreadPool, SingleWorkerPoolRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(0, 64, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPool, SingleElementRangeRunsInline) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(10, 11, [&](std::size_t i) {
    EXPECT_EQ(i, 10u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPool, ParallelRangesPartitionIsBalanced) {
  ThreadPool pool(3);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_ranges(
      5, 105,
      [&](std::size_t lo, std::size_t hi) {
        std::lock_guard lock(m);
        chunks.emplace_back(lo, hi);
      },
      7);
  ASSERT_EQ(chunks.size(), 7u);
  std::sort(chunks.begin(), chunks.end());
  std::size_t expected_lo = 5, min_len = 100, max_len = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expected_lo);  // contiguous, gap-free cover of [5, 105)
    expected_lo = hi;
    min_len = std::min(min_len, hi - lo);
    max_len = std::max(max_len, hi - lo);
  }
  EXPECT_EQ(expected_lo, 105u);
  EXPECT_LE(max_len - min_len, 1u);  // chunk sizes differ by at most one
}

TEST(ThreadPool, ExceptionMidRangeStillCompletesAndPropagates) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(0, 1000,
                                 [&](std::size_t i) {
                                   ran.fetch_add(1);
                                   if (i == 500) throw std::runtime_error("mid");
                                 }),
               std::runtime_error);
  // The pool must be fully drained and reusable after the throw.
  std::atomic<int> after{0};
  pool.parallel_for(0, 100, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 100);
  EXPECT_GT(ran.load(), 0);
}

TEST(ThreadPool, NestedParallelForFromWorkerCompletes) {
  // parallel_for from inside a parallel_for body (i.e. from worker threads).
  // The caller of the inner loop participates in executing its chunks, so
  // this must complete even when every worker is busy with the outer loop.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    pool.parallel_for(0, 16, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPool, SubmitFromWorkerWithoutWaitingIsSafe) {
  // Fire-and-forget submission from a worker is fine (the deadlock hazard
  // documented in thread_pool.hpp is submit + future::wait from a worker).
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  std::vector<std::future<void>> futs;
  std::mutex m;
  pool.parallel_for(0, 4, [&](std::size_t) {
    auto f = pool.submit([&] { inner.fetch_add(1); });
    std::lock_guard lock(m);
    futs.push_back(std::move(f));
  });
  for (auto& f : futs) f.wait();  // safe: waited from the non-worker caller
  EXPECT_EQ(inner.load(), 4);
}

TEST(ThreadPool, StatsCountTasksAndTime) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 8; ++i) {
    futs.push_back(pool.submit([&] { ran.fetch_add(1); }));
  }
  for (auto& f : futs) f.wait();
  const auto stats = pool.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GE(stats.queue_peak, 1u);
  EXPECT_GE(stats.wait_seconds, 0.0);
  EXPECT_GE(stats.busy_seconds, 0.0);
  EXPECT_EQ(ran.load(), 8);

  // A caller that waited on every future reads exact totals: the counters
  // must not trail the futures.  The window is a few instructions wide, so
  // it takes many fresh pools to hit it.
  std::size_t short_reads = 0;
  for (int round = 0; round < 20000; ++round) {
    ThreadPool small(2);
    std::vector<std::future<void>> waits;
    for (int i = 0; i < 8; ++i) waits.push_back(small.submit([] {}));
    for (auto& f : waits) f.wait();
    const auto s = small.stats();
    if (s.submitted != 8u || s.completed != 8u) ++short_reads;
  }
  EXPECT_EQ(short_reads, 0u);
}

TEST(Log, LevelParsingAndNames) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_THROW(parse_log_level("loud"), std::invalid_argument);
  EXPECT_STREQ(level_name(LogLevel::kError), "ERROR");
}

TEST(Log, ConcurrentWritersEmitWholeLines) {
  // vlog formats the entire message and emits it with one fwrite to the
  // unbuffered stderr stream, so lines from concurrent pool workers must
  // never interleave.  Every captured line has exactly one prefix and the
  // full "worker W line L" body.
  constexpr int kThreads = 8;
  constexpr int kLines = 50;
  testing::internal::CaptureStderr();
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t] {
        for (int i = 0; i < kLines; ++i) LOG_ERROR("worker %d line %d", t, i);
      });
    }
    for (auto& th : threads) th.join();
  }
  const std::string captured = testing::internal::GetCapturedStderr();

  std::istringstream in(captured);
  std::string line;
  int count = 0;
  while (std::getline(in, line)) {
    ++count;
    EXPECT_EQ(line.rfind("[ERROR test_util.cpp:", 0), 0u) << line;
    EXPECT_NE(line.find("] worker "), std::string::npos) << line;
    EXPECT_NE(line.find(" line "), std::string::npos) << line;
    // Exactly one message per line: a second '[' would mean interleaving.
    EXPECT_EQ(line.find('[', 1), std::string::npos) << line;
  }
  EXPECT_EQ(count, kThreads * kLines);
}

TEST(Log, LongMessageSurvivesHeapFallback) {
  // Messages longer than vlog's stack buffer are reformatted on the heap;
  // the tail must not be truncated.
  testing::internal::CaptureStderr();
  const std::string payload(2000, 'x');
  LOG_ERROR("%s-end", payload.c_str());
  const std::string captured = testing::internal::GetCapturedStderr();
  EXPECT_NE(captured.find(payload + "-end\n"), std::string::npos);
}

}  // namespace
}  // namespace abdhfl::util
