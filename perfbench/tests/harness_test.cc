// Tests of the benchmark's measurement plumbing (src/harness.h).
// Run: python3 perfbench/run.py --self-test

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "harness.h"

namespace perfbench {
namespace {

Metric M(const char* name, double value, const char* unit) {
  Metric m;
  m.name = name;
  m.value = value;
  m.unit = unit;
  return m;
}

Samples OneTo(size_t n) {
  Samples s;
  // Reverse order: percentiles must not depend on insertion order.
  for (size_t i = n; i >= 1; --i) s.Add(static_cast<double>(i));
  return s;
}

TEST(PercentileRule, NearestRank) {
  const Samples s = OneTo(100);
  EXPECT_EQ(s.Percentile(50), 50);
  EXPECT_EQ(s.Percentile(99), 99);
  EXPECT_EQ(s.Percentile(100), 100);
  EXPECT_EQ(s.Median(), 50);
  EXPECT_EQ(Samples().Median(), 0);
}

TEST(PercentileRule, P99NeedsTenSamplesBeyond) {
  const Tail tail = OneTo(1000).TailAt(99);
  EXPECT_EQ(tail.percentile, 99);
  EXPECT_EQ(tail.value, 990);
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(PercentileRule, FallsBackToHighestSupportedPercentile) {
  const Tail tail = OneTo(500).TailAt(99);
  EXPECT_EQ(tail.beyond, kTailBeyond);
  EXPECT_DOUBLE_EQ(tail.percentile, 98);
  EXPECT_EQ(tail.value, 490);

  const Tail odd = OneTo(37).TailAt(99);
  EXPECT_EQ(odd.beyond, kTailBeyond);
  EXPECT_EQ(odd.value, 27);
  EXPECT_NEAR(odd.percentile, 100.0 * 27 / 37, 1e-12);
}

TEST(PercentileRule, TinySamplesReportTheMedian) {
  const Tail tail = OneTo(8).TailAt(99);
  EXPECT_EQ(tail.percentile, 50);
  EXPECT_EQ(tail.value, 4);
  // 19 samples would leave 10 beyond rank 9 (47%): below the median, so
  // the median is reported instead.
  EXPECT_EQ(OneTo(19).TailAt(99).percentile, 50);
}

TEST(Spans, SelfTimeSubtractsChildren) {
  Tracer t;
  const int root = t.Add("run", -1, 0, 100, 0);
  const int op = t.Add("op", root, 10, 90, 1);
  t.Add("core.select", op, 20, 50, 1);
  t.Add("codec.val_encode", op, 60, 70, 1);
  const std::vector<int64_t> self = t.SelfTimesNs();
  EXPECT_EQ(self[0], 20);  // 100 - 80
  EXPECT_EQ(self[1], 40);  // 80 - 30 - 10
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10);
}

TEST(Spans, OverlappingChildrenCountOnce) {
  Tracer t;
  const int root = t.Add("run", -1, 0, 100, 0);
  t.Add("engine.task", root, 10, 60, 1);
  t.Add("engine.task", root, 40, 80, 2);   // overlaps the first
  t.Add("engine.task", root, 90, 120, 3);  // runs past the parent
  EXPECT_EQ(t.SelfTimesNs()[0], 100 - 70 - 10);
}

TEST(Spans, LayersAndNesting) {
  EXPECT_EQ(LayerOf("core.select"), "core");
  EXPECT_EQ(LayerOf("sim.churn.join"), "sim");
  EXPECT_EQ(LayerOf("op"), "unattributed");

  Tracer t;
  t.SetOp(7);
  const int outer = t.Open("run");
  {
    Tracer::Scope a(&t, "op");
    Tracer::Scope b(&t, "core.select");
  }
  t.Close(outer);
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, 1);
  EXPECT_EQ(t.spans()[2].op, 7u);
  Tracer::Scope none(nullptr, "core.select");  // a null tracer is a no-op
}

// The ROADMAP's attribution gate: per-layer self times plus the
// `unattributed` bucket partition the root spans exactly, and the root
// span covers the wall time measured around it within 1%.
TEST(Spans, LayerSelfTimesSumToTracedWallTime) {
  auto spin = [](int64_t ns) {
    const int64_t until = NowNs() + ns;
    while (NowNs() < until) {
    }
  };
  Tracer t;
  const int64_t w0 = NowNs();
  const int root = t.Open("run");
  for (int op = 1; op <= 20; ++op) {
    t.SetOp(static_cast<uint64_t>(op));
    Tracer::Scope o(&t, "op");
    spin(50'000);
    {
      Tracer::Scope s(&t, "core.select");
      spin(200'000);
      Tracer::Scope c(&t, "codec.val_encode");
      spin(30'000);
    }
    Tracer::Scope a(&t, "apps.query");
    spin(100'000);
  }
  t.Close(root);
  const double wall = static_cast<double>(NowNs() - w0) / 1e9;

  double sum = 0;
  const auto layers = t.LayerSelfSeconds();
  for (const auto& [layer, secs] : layers) sum += secs;
  EXPECT_NEAR(sum, t.RootSeconds(), 1e-9);
  EXPECT_NEAR(t.RootSeconds(), wall, 0.01 * wall);
  ASSERT_EQ(layers.count("unattributed"), 1u);
  EXPECT_GT(layers.at("core"), layers.at("codec"));
  EXPECT_GE(layers.at("unattributed"), 20 * 50e-6);
}

TEST(MetricNames, Validation) {
  for (const char* ok : {"setup_s", "crypto.verify_us", "a", "9x", "x-y.z_1",
                         "op_p99_ms"}) {
    EXPECT_TRUE(ValidMetricName(ok)) << ok;
  }
  for (const char* bad : {"", ".x", "_x", "-x", "a b", "a/b", "a\"b",
                          "caf\xc3\xa9", "a:b"}) {
    EXPECT_FALSE(ValidMetricName(bad)) << bad;
  }
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidUnit("1/s"));
  EXPECT_TRUE(ValidUnit("%"));
  EXPECT_FALSE(ValidUnit(""));
  EXPECT_FALSE(ValidUnit("a b"));
  EXPECT_FALSE(ValidUnit(std::string(17, 'u')));
}

TEST(ResultLine, EmitParseRoundTrip) {
  RunResult r;
  r.correct = true;
  r.attempted = 123456;
  r.failed = 3;
  r.metrics = {M("latency_ms", 1.2034, "ms"),
               M("setup_s", 0.1 + 0.2, "s"),
               M("tiny", 4.9e-300, "count"),
               M("big", 123456789.123456789, "1/s"),
               M("neg", -0.25, "frac")};
  std::string error;
  const std::string line = EmitResult(r, &error);
  ASSERT_FALSE(line.empty()) << error;
  EXPECT_EQ(line.find('\n'), std::string::npos);
  RunResult back;
  ASSERT_TRUE(ParseResult(line, &back, &error)) << error;
  EXPECT_EQ(back.correct, r.correct);
  EXPECT_EQ(back.attempted, r.attempted);
  EXPECT_EQ(back.failed, r.failed);
  ASSERT_EQ(back.metrics.size(), r.metrics.size());
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    EXPECT_EQ(back.metrics[i].name, r.metrics[i].name);
    EXPECT_EQ(back.metrics[i].unit, r.metrics[i].unit);
    EXPECT_EQ(back.metrics[i].value, r.metrics[i].value);  // all 17 digits
  }
  EXPECT_EQ(EmitResult(back, &error), line);
}

TEST(ResultLine, RejectsWhatTheContractForbids) {
  std::string error;
  RunResult r;
  r.attempted = 1;
  r.metrics = {M("x", std::numeric_limits<double>::quiet_NaN(), "ms")};
  EXPECT_TRUE(EmitResult(r, &error).empty());
  r.metrics = {M("x", 1, "ms"), M("x", 2, "ms")};
  EXPECT_TRUE(EmitResult(r, &error).empty());
  r.metrics = {M("bad name", 1, "ms")};
  EXPECT_TRUE(EmitResult(r, &error).empty());

  RunResult out;
  EXPECT_FALSE(ParseResult("{\"correct\": true}", &out, &error));
  EXPECT_FALSE(ParseResult("{\"correct\": true, \"attempted\": 1, "
                           "\"failed\": 0, \"metrics\": {}} trailing",
                           &out, &error));
  EXPECT_TRUE(ParseResult("{\"correct\": false, \"attempted\": 1, "
                          "\"failed\": 1, \"metrics\": {}}",
                          &out, &error));
  EXPECT_FALSE(out.correct);
}

}  // namespace
}  // namespace perfbench
