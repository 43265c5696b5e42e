#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace icrowd {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Internal("boom").message(), "boom");
}

TEST(StatusTest, ToStringIncludesCodeNameAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

Status FailsThenPropagates() {
  ICROWD_RETURN_NOT_OK(Status::OutOfRange("inner"));
  return Status::Internal("should not reach");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  Status s = FailsThenPropagates();
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(s.message(), "inner");
}

// ---------------------------------------------------------------- Result --

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

Result<std::string> Doubler(int x) {
  ICROWD_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return std::string(static_cast<size_t>(v), 'x');
}

TEST(ResultTest, AssignOrReturnMacroOnSuccess) {
  auto r = Doubler(3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "xxx");
}

TEST(ResultTest, AssignOrReturnMacroOnError) {
  auto r = Doubler(0);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveValueOrDieMovesOutOwnership) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  std::unique_ptr<int> v = r.MoveValueOrDie();
  EXPECT_EQ(*v, 7);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, Deterministic) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Uniform(), b.Uniform());
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(0, 4));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(4);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, BetaInUnitIntervalAndRoughMean) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    double b = rng.Beta(2.0, 3.0);
    EXPECT_GT(b, 0.0);
    EXPECT_LT(b, 1.0);
    sum += b;
  }
  EXPECT_NEAR(sum / n, 2.0 / 5.0, 0.02);  // mean of Beta(2,3)
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(6);
  std::vector<double> weights = {0.0, 3.0, 1.0};
  int counts[3] = {0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.75, 0.02);
}

TEST(RngTest, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(7);
  std::vector<double> weights = {0.0, 0.0, 0.0};
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.WeightedIndex(weights));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(8);
  auto sample = rng.SampleWithoutReplacement(10, 7);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(sample.size(), 7u);
  EXPECT_EQ(unique.size(), 7u);
  for (size_t s : sample) EXPECT_LT(s, 10u);
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(9);
  auto sample = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, GeometricAtLeastOne) {
  Rng rng(10);
  for (int i = 0; i < 200; ++i) EXPECT_GE(rng.Geometric(20.0), 1);
  EXPECT_EQ(rng.Geometric(0.5), 1);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(11);
  Rng b = a.Fork();
  // Streams should differ from the parent's continued stream.
  bool any_diff = false;
  for (int i = 0; i < 20; ++i) {
    if (a.Uniform() != b.Uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// ------------------------------------------------------------- MathUtil --

TEST(MathUtilTest, MeanAndStdDev) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0, 4.0}), 3.0);
  EXPECT_DOUBLE_EQ(StdDev({5.0}), 0.0);
  EXPECT_NEAR(StdDev({2.0, 4.0}), 1.0, 1e-12);
}

TEST(MathUtilTest, ClampProbabilityKeepsOpenInterval) {
  EXPECT_DOUBLE_EQ(ClampProbability(-0.5), 1e-6);
  EXPECT_DOUBLE_EQ(ClampProbability(1.5), 1.0 - 1e-6);
  EXPECT_DOUBLE_EQ(ClampProbability(0.4), 0.4);
  EXPECT_DOUBLE_EQ(ClampProbability(0.0, 0.02), 0.02);
}

TEST(MathUtilTest, LogSumExpMatchesDirectComputation) {
  std::vector<double> xs = {std::log(0.2), std::log(0.3), std::log(0.5)};
  EXPECT_NEAR(LogSumExp(xs), std::log(1.0), 1e-12);
}

TEST(MathUtilTest, LogSumExpHandlesLargeMagnitudes) {
  // Direct exp would overflow; the stable version must not.
  EXPECT_NEAR(LogSumExp({1000.0, 1000.0}), 1000.0 + std::log(2.0), 1e-9);
  EXPECT_NEAR(LogSumExp({-1000.0, -1000.0}), -1000.0 + std::log(2.0), 1e-9);
}

// LogSumExp as it stood when it took a std::vector: kept as the
// bit-identity oracle for the span and initializer_list forms.
double VectorLogSumExp(const std::vector<double>& xs) {
  if (xs.empty()) return -std::numeric_limits<double>::infinity();
  double max = *std::max_element(xs.begin(), xs.end());
  if (!std::isfinite(max)) return max;
  double acc = 0.0;
  for (double x : xs) acc += std::exp(x - max);
  return max + std::log(acc);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(MathUtilTest, LogSumExpFormsMatchVectorFormBitForBit) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {
      -inf, -1e308, -1000.0, -745.2, -1.0, -1e-300, -0.0, 0.0, 1e-300,
      0.1, std::log(0.3), 1.0, 1.0 + 1e-15, 709.7, 1000.0, 1e308, inf};
  Rng rng(17);
  std::vector<double> sweep = values;
  for (int k = 0; k < 200; ++k) sweep.push_back(rng.Uniform(-50.0, 50.0));
  for (double a : sweep) {
    for (double b : values) {
      const double want = VectorLogSumExp({a, b});
      ASSERT_TRUE(SameBits(LogSumExp({a, b}), want)) << a << ", " << b;
      const std::vector<double> pair = {a, b};
      ASSERT_TRUE(SameBits(LogSumExp(pair), want)) << a << ", " << b;
      ASSERT_TRUE(SameBits(LogSumExp({a, a}), VectorLogSumExp({a, a}))) << a;
      const std::vector<double> triple = {b, a, b};
      ASSERT_TRUE(SameBits(LogSumExp(triple), VectorLogSumExp(triple)))
          << a << ", " << b;
    }
  }
  EXPECT_TRUE(SameBits(LogSumExp(std::vector<double>()),
                       VectorLogSumExp(std::vector<double>())));
  EXPECT_TRUE(SameBits(LogSumExp({}), VectorLogSumExp({})));
}

TEST(MathUtilTest, BetaVarianceMatchesFormula) {
  // Beta(1,1) is uniform: variance 1/12.
  EXPECT_NEAR(BetaVariance(1, 1), 1.0 / 12.0, 1e-12);
  // More observations -> smaller variance.
  EXPECT_LT(BetaVariance(10, 10), BetaVariance(2, 2));
}

TEST(MathUtilTest, ForEachSubsetEnumeratesBinomialCount) {
  int count = 0;
  ForEachSubset(5, 3, [&](const std::vector<size_t>& s) {
    EXPECT_EQ(s.size(), 3u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    ++count;
  });
  EXPECT_EQ(count, 10);  // C(5,3)
}

TEST(MathUtilTest, ForEachSubsetDegenerateCases) {
  int count = 0;
  ForEachSubset(3, 0, [&](const std::vector<size_t>&) { ++count; });
  EXPECT_EQ(count, 1);  // the empty subset
  count = 0;
  ForEachSubset(2, 3, [&](const std::vector<size_t>&) { ++count; });
  EXPECT_EQ(count, 0);  // k > n
}

TEST(MajorityAccuracyTest, SingleWorker) {
  EXPECT_NEAR(MajorityAccuracy({0.8}), 0.8, 1e-12);
}

TEST(MajorityAccuracyTest, ThreeIdenticalWorkersClosedForm) {
  // P(majority of 3 iid p) = 3p^2(1-p) + p^3.
  double p = 0.7;
  double expected = 3 * p * p * (1 - p) + p * p * p;
  EXPECT_NEAR(MajorityAccuracy({p, p, p}), expected, 1e-12);
}

TEST(MajorityAccuracyTest, MatchesBruteForceEnumeration) {
  std::vector<double> p = {0.9, 0.6, 0.7, 0.55, 0.8};
  // Brute force over all 2^5 outcomes.
  double expected = 0.0;
  for (int mask = 0; mask < 32; ++mask) {
    int correct = __builtin_popcount(mask);
    if (correct < 3) continue;
    double prob = 1.0;
    for (int i = 0; i < 5; ++i) {
      prob *= (mask >> i & 1) ? p[i] : 1.0 - p[i];
    }
    expected += prob;
  }
  EXPECT_NEAR(MajorityAccuracy(p), expected, 1e-12);
}

TEST(MajorityAccuracyTest, PerfectAndUselessWorkers) {
  EXPECT_NEAR(MajorityAccuracy({1.0, 1.0, 1.0}), 1.0, 1e-12);
  EXPECT_NEAR(MajorityAccuracy({0.0, 0.0, 0.0}), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(MajorityAccuracy({}), 0.0);
}

TEST(MajorityAccuracyTest, MonotoneInWorkerAccuracy) {
  double low = MajorityAccuracy({0.6, 0.6, 0.6});
  double high = MajorityAccuracy({0.6, 0.9, 0.6});
  EXPECT_GT(high, low);
}

// ----------------------------------------------------------- StringUtil --

TEST(StringUtilTest, SplitDropsEmptyPieces) {
  EXPECT_EQ(SplitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitString("", ',').empty());
  EXPECT_EQ(SplitString(",x,", ','), (std::vector<std::string>{"x"}));
}

TEST(StringUtilTest, JoinRoundTrips) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"only"}, ","), "only");
}

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("MiXeD 123"), "mixed 123");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  hi there \t\n"), "hi there");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace("x"), "x");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("icrowd", "ic"));
  EXPECT_FALSE(StartsWith("ic", "icrowd"));
  EXPECT_TRUE(EndsWith("table4.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "table4.csv"));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.87349, 3), "0.873");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
}

TEST(StringUtilTest, ParseIntAcceptsExactlyOneInRangeInteger) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt("-7"), -7);
  EXPECT_EQ(*ParseInt("65535", 0, 65535), 65535);
  for (const char* bad : {"", "abc", "4x", " 4", "4 ", "+4", "1e3",
                          "99999999999999999999"}) {
    Result<int64_t> parsed = ParseInt(bad);
    EXPECT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_FALSE(ParseInt("65536", 0, 65535).ok());
  EXPECT_FALSE(ParseInt("-1", 0, 65535).ok());
}

TEST(StringUtilTest, ParseUintRefusesNegativesInsteadOfWrapping) {
  EXPECT_EQ(*ParseUint("0"), 0u);
  EXPECT_EQ(*ParseUint("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(ParseUint("-1").ok());
  EXPECT_FALSE(ParseUint("18446744073709551616").ok());
  EXPECT_FALSE(ParseUint("").ok());
  EXPECT_FALSE(ParseUint("9", 8).ok());
}

TEST(StringUtilTest, ParseDoubleAcceptsFiniteNumbersOnly) {
  EXPECT_DOUBLE_EQ(*ParseDouble("0.8"), 0.8);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e-3"), -1e-3);
  EXPECT_DOUBLE_EQ(*ParseDouble("3"), 3.0);
  for (const char* bad : {"", "x", "0.8.1", "nan", "inf", "1e999"}) {
    EXPECT_FALSE(ParseDouble(bad).ok()) << "'" << bad << "'";
  }
}

// ------------------------------------------------------------ Stopwatch --

TEST(StopwatchTest, MeasuresNonNegativeMonotoneTime) {
  Stopwatch sw;
  double t1 = sw.ElapsedSeconds();
  double t2 = sw.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  EXPECT_NEAR(sw.ElapsedMillis(), sw.ElapsedSeconds() * 1e3, 1.0);
}

TEST(StopwatchTest, ElapsedGrowsAcrossRealWork) {
  Stopwatch sw;
  double before = sw.ElapsedSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  double after = sw.ElapsedSeconds();
  EXPECT_GE(after - before, 0.004)
      << "steady clock must advance at least the slept duration";
}

TEST(StopwatchTest, RestartResetsTheOrigin) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  double before_restart = sw.ElapsedSeconds();
  sw.Restart();
  double after_restart = sw.ElapsedSeconds();
  EXPECT_LT(after_restart, before_restart);
  EXPECT_GE(after_restart, 0.0);
}

TEST(StopwatchTest, UnitConversionsAgree) {
  Stopwatch sw;
  double seconds = sw.ElapsedSeconds();
  EXPECT_GE(sw.ElapsedMicros(), seconds * 1e6);
  EXPECT_GE(sw.ElapsedMillis(), seconds * 1e3);
}

// ----------------------------------------------------------- ThreadPool --

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  ThreadPool::ParallelFor(hits.size(), 4,
                          [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroAndSingleThread) {
  ThreadPool::ParallelFor(0, 4, [](size_t) { FAIL(); });
  int sum = 0;
  ThreadPool::ParallelFor(5, 1, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 10);
}

TEST(ThreadPoolTest, InstanceParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  // The pool stays usable for further rounds.
  std::atomic<int> counter{0};
  pool.ParallelFor(3, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, InstanceParallelForWithFewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, InstanceParallelForZeroCountRunsNothing) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(ThreadPoolTest, InstanceParallelForPropagatesTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [](size_t i) {
                         if (i == 17) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // A failed round neither deadlocks Wait() nor poisons the pool.
  std::atomic<int> counter{0};
  pool.ParallelFor(10, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, StaticParallelForPropagatesTaskException) {
  EXPECT_THROW(ThreadPool::ParallelFor(
                   64, 4,
                   [](size_t i) {
                     if (i == 5) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPoolTest, WaitRethrowsSubmittedTaskExceptionWithoutDeadlock) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The error is consumed: the next Wait() is clean and tasks still run.
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, OnlyFirstExceptionIsRethrown) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  pool.Wait();  // all later errors were dropped, not queued for replay
}

TEST(ThreadPoolTest, SubmitDuringInFlightWaitIsAwaited) {
  // A task submitted while Wait() is already blocked must finish before
  // that Wait() returns (the simulator relies on this when a refresh task
  // fans out follow-up work).
  ThreadPool pool(2);
  std::atomic<int> stage{0};
  pool.Submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pool.Submit([&] { stage.fetch_add(10); });
    stage.fetch_add(1);
  });
  pool.Wait();
  EXPECT_EQ(stage.load(), 11);
}

// -------------------------------------------------------------- Logging --

TEST(LoggingTest, LevelFilterRoundTrips) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below-threshold logging must be a no-op (no crash, no output check).
  ICROWD_LOG(Debug) << "dropped " << 42;
  SetLogLevel(before);
}

}  // namespace
}  // namespace icrowd
