// Tests of the benchmark's metric arithmetic: span self time, the
// percentile rule with its sample count, ratios that carry their base, the
// least-cost-per-chunk host timing, and host times scaled to the reference
// unit's speed.

#include "perfbench/src/metrics.h"

#include <cmath>

#include <gtest/gtest.h>

#include "hat/client/observer.h"
#include "perfbench/src/reference.h"
#include "perfbench/src/workload.h"

namespace perfbench {
namespace {

using hat::obs::Span;
using hat::obs::SpanKind;

constexpr int kTxn = 0;
constexpr int kCommit = 1;
constexpr int kFlight = 2;
constexpr int kQueueWait = 3;
constexpr int kExecute = 4;
constexpr int kMavAckWait = 5;
constexpr int kWalCommitCount = 0;
constexpr int kAeApplyCount = 1;

Span MakeSpan(uint64_t trace, uint64_t id, uint64_t parent, SpanKind kind,
              uint64_t start, uint64_t end, uint64_t arg = 0) {
  Span s;
  s.trace_id = trace;
  s.span_id = id;
  s.parent_id = parent;
  s.kind = kind;
  s.start_us = start;
  s.end_us = end;
  s.arg = arg;
  return s;
}

TEST(QuantileTest, InterpolatesBetweenRanks) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0 / 3.0), 2);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0);
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3);
}

TEST(CdfQuantileTest, InterpolatesBetweenBuckets) {
  std::vector<std::pair<double, double>> cdf = {{1, 0.25}, {2, 0.5}, {4, 1}};
  EXPECT_DOUBLE_EQ(CdfQuantile(cdf, 0.1), 1);
  EXPECT_DOUBLE_EQ(CdfQuantile(cdf, 0.25), 1);
  EXPECT_DOUBLE_EQ(CdfQuantile(cdf, 0.5), 2);
  EXPECT_DOUBLE_EQ(CdfQuantile(cdf, 0.75), 3);
  EXPECT_DOUBLE_EQ(CdfQuantile(cdf, 1), 4);
  EXPECT_DOUBLE_EQ(CdfQuantile({}, 0.5), 0);
}

TEST(ChunkMinimaTest, LeastCostPerChunkThenMedian) {
  // Chunk 1 was disturbed in the first execution, chunk 2 in the second.
  std::vector<std::vector<double>> series = {{10, 30, 12}, {11, 14, 40}};
  // Minima {10, 14, 12} -> median 12.
  EXPECT_DOUBLE_EQ(MedianOfChunkMinima(series), 12);
  EXPECT_DOUBLE_EQ(MedianOfChunkMinima({{7, 9}}), 8);
  EXPECT_DOUBLE_EQ(MedianOfChunkMinima({}), 0);
}

TEST(ReferenceSpeedTest, ScalesToTheNominalUnitTime) {
  // A host on which the unit takes twice its nominal time runs everything
  // at half speed, so its CPU time reads half.
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(0.5, 2 * kReferenceNominalSeconds), 0.25);
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(0.5, kReferenceNominalSeconds), 0.5);
  // An untimed unit leaves the time as measured.
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(0.5, 0), 0.5);

  Window w;
  w.chunks.resize(2);
  w.chunks[0].cpu_s = 0.2;
  w.chunks[0].reference_s = 2 * kReferenceNominalSeconds;
  w.chunks[0].committed = 100;
  w.chunks[1].cpu_s = 0.1;
  w.chunks[1].reference_s = kReferenceNominalSeconds;
  w.chunks[1].committed = 0;
  EXPECT_DOUBLE_EQ(WindowNormalizedCpuS(w), 0.2);
  std::vector<double> us = CpuUsPerTxnByChunk(w);
  ASSERT_EQ(us.size(), 2u);
  EXPECT_DOUBLE_EQ(us[0], 1000);
  // A chunk that committed nothing has no cost per transaction.
  EXPECT_TRUE(std::isinf(us[1]));
}

TEST(ReferenceSpeedTest, TheUnitFitsInItsOwnArena) {
  // The unit allocates only from its fixed arena, whose upstream throws, so
  // a unit that outgrew it would throw here.
  ReferenceUnit unit;
  EXPECT_GT(unit.Seconds(), 0);
  EXPECT_GT(unit.Seconds(), 0);
}

TEST(PercentileRuleTest, CountsSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 9900), 10u);
  EXPECT_EQ(SamplesBeyond(999, 9900), 9u);
  EXPECT_EQ(SamplesBeyond(100000, 9990), 100u);
  EXPECT_EQ(SamplesBeyond(50, 5000), 25u);
  EXPECT_EQ(SamplesBeyond(1000, 10000), 0u);
}

TEST(PercentileRuleTest, P99NeedsAThousandSamples) {
  EXPECT_TRUE(PercentileReportable(1000, 9900));
  EXPECT_FALSE(PercentileReportable(999, 9900));
  EXPECT_TRUE(PercentileReportable(10000, 9990));
  EXPECT_FALSE(PercentileReportable(9999, 9990));
}

TEST(RatioTest, ReportsItsBase) {
  Ratio r{12345, 807, "notifies", "promotions"};
  EXPECT_NEAR(r.Value(), 15.297, 1e-3);
  EXPECT_EQ(r.Describe(), "15.3 (12345 notifies / 807 promotions)");
}

TEST(RatioTest, EmptyBaseReadsZero) {
  Ratio r{5, 0, "notifies", "promotions"};
  EXPECT_EQ(r.Value(), 0);
  EXPECT_EQ(r.Describe(), "0 (5 notifies / 0 promotions)");
}

TEST(SelfTimeTest, RootMinusUnionOfChildren) {
  // Root [0, 100); commit [60, 100) is a recorded child; two flights from
  // minted (unrecorded) contexts overlap at [10, 30) and [20, 40).
  std::vector<Span> spans = {
      MakeSpan(1, 1, 0, SpanKind::kTxn, 0, 100),
      MakeSpan(1, 2, 1, SpanKind::kCommit, 60, 100),
      MakeSpan(1, 3, 77, SpanKind::kRpcFlight, 10, 30),
      MakeSpan(1, 4, 78, SpanKind::kRpcFlight, 20, 40),
  };
  SelfTimes st = ComputeSelfTimes(spans, 0, 1000);
  EXPECT_EQ(st.committed_txns, 1u);
  // Root covered by [10, 40) and [60, 100): 30 + 40 = 70.
  EXPECT_DOUBLE_EQ(st.self_us[kTxn], 30);
  EXPECT_DOUBLE_EQ(st.self_us[kCommit], 40);
  EXPECT_DOUBLE_EQ(st.self_us[kFlight], 40);
}

TEST(SelfTimeTest, OrphansAreAdoptedByTheInnermostCommit) {
  // A flight, queue wait and execute during commit belong to the commit,
  // not to the root; parallel server spans never adopt each other.
  std::vector<Span> spans = {
      MakeSpan(1, 1, 0, SpanKind::kTxn, 0, 100),
      MakeSpan(1, 2, 1, SpanKind::kCommit, 50, 100),
      MakeSpan(1, 3, 90, SpanKind::kRpcFlight, 50, 60),
      MakeSpan(1, 4, 90, SpanKind::kQueueWait, 60, 70),
      MakeSpan(1, 5, 90, SpanKind::kExecute, 70, 80),
      MakeSpan(1, 6, 91, SpanKind::kRpcFlight, 50, 65),
  };
  SelfTimes st = ComputeSelfTimes(spans, 0, 1000);
  EXPECT_DOUBLE_EQ(st.self_us[kTxn], 50);
  EXPECT_DOUBLE_EQ(st.self_us[kCommit], 20);  // 50 - [50, 80)
  EXPECT_DOUBLE_EQ(st.self_us[kFlight], 25);
  EXPECT_DOUBLE_EQ(st.self_us[kQueueWait], 10);
  EXPECT_DOUBLE_EQ(st.self_us[kExecute], 10);
}

TEST(SelfTimeTest, ChildrenAreClippedToTheParent) {
  // An ack wait running past the transaction's end counts fully as its own
  // self time but only its overlap is taken from the root.
  std::vector<Span> spans = {
      MakeSpan(1, 1, 0, SpanKind::kTxn, 0, 100),
      MakeSpan(1, 2, 1, SpanKind::kMavAckWait, 80, 180),
  };
  SelfTimes st = ComputeSelfTimes(spans, 0, 1000);
  EXPECT_DOUBLE_EQ(st.self_us[kTxn], 80);
  EXPECT_DOUBLE_EQ(st.self_us[kMavAckWait], 100);
  ASSERT_EQ(st.mav_ack_wait_us.size(), 1u);
  EXPECT_DOUBLE_EQ(st.mav_ack_wait_us[0], 100);
}

TEST(SelfTimeTest, OnlyCommittedRootsInTheWindowCount) {
  const auto failed = static_cast<uint64_t>(hat::client::TxnOutcome::kFailed);
  std::vector<Span> spans = {
      MakeSpan(1, 1, 0, SpanKind::kTxn, 0, 100),           // before window
      MakeSpan(2, 2, 0, SpanKind::kTxn, 150, 200, failed),  // not committed
      MakeSpan(3, 3, 0, SpanKind::kTxn, 200, 260),          // counts
      MakeSpan(4, 4, 9, SpanKind::kRpcFlight, 210, 220),    // no root
      MakeSpan(5, 5, 0, SpanKind::kTxn, 300, 400),          // after window
  };
  SelfTimes st = ComputeSelfTimes(spans, 100, 300);
  EXPECT_EQ(st.committed_txns, 1u);
  EXPECT_DOUBLE_EQ(st.self_us[kTxn], 60);
  EXPECT_DOUBLE_EQ(st.self_us[kFlight], 0);
}

TEST(SelfTimeTest, CountsInstantSpansOfCommittedTxns) {
  // WAL commits and AE applies are instants: they are counted, not timed,
  // and only within sampled transactions that committed in the window.
  const auto failed = static_cast<uint64_t>(hat::client::TxnOutcome::kFailed);
  std::vector<Span> spans = {
      MakeSpan(1, 1, 0, SpanKind::kTxn, 0, 100),
      MakeSpan(1, 2, 1, SpanKind::kWalCommit, 40, 40),
      MakeSpan(1, 3, 1, SpanKind::kWalCommit, 60, 60),
      MakeSpan(1, 4, 90, SpanKind::kAeApply, 150, 150),
      MakeSpan(2, 5, 0, SpanKind::kTxn, 0, 100, failed),
      MakeSpan(2, 6, 5, SpanKind::kWalCommit, 50, 50),
  };
  SelfTimes st = ComputeSelfTimes(spans, 0, 1000);
  EXPECT_EQ(st.committed_txns, 1u);
  EXPECT_EQ(st.spans[kWalCommitCount], 2u);
  EXPECT_EQ(st.spans[kAeApplyCount], 1u);
  EXPECT_DOUBLE_EQ(st.self_us[kTxn], 100);
}

TEST(SelfTimeTest, EqualIntervalsDoNotAdoptEachOther) {
  // Two commit-kind spans with identical intervals and unrecorded parents:
  // the later one is adopted by the earlier, never both ways.
  std::vector<Span> spans = {
      MakeSpan(1, 1, 0, SpanKind::kTxn, 0, 100),
      MakeSpan(1, 2, 50, SpanKind::kCommit, 40, 60),
      MakeSpan(1, 3, 51, SpanKind::kCommit, 40, 60),
  };
  SelfTimes st = ComputeSelfTimes(spans, 0, 1000);
  EXPECT_DOUBLE_EQ(st.self_us[kCommit], 20);
  EXPECT_DOUBLE_EQ(st.self_us[kTxn], 80);
}

}  // namespace
}  // namespace perfbench
