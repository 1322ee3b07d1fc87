// Unit tests for hat/common: Status/Result, RNG & distributions, CRC32,
// histograms, codecs, slot tables.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "hat/common/codec.h"
#include "hat/common/crc32.h"
#include "hat/common/histogram.h"
#include "hat/common/result.h"
#include "hat/common/rng.h"
#include "hat/common/slot_table.h"
#include "hat/common/status.h"

namespace hat {
namespace {

// --------------------------- Status / Result ------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("key missing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "key missing");
  EXPECT_EQ(s.ToString(), "NotFound: key missing");
}

TEST(StatusTest, RetryabilityClassification) {
  EXPECT_TRUE(Status::Timeout().IsRetryable());
  EXPECT_TRUE(Status::Unavailable().IsRetryable());
  EXPECT_TRUE(Status::Aborted().IsRetryable());
  EXPECT_FALSE(Status::InternalAbort().IsRetryable());
  EXPECT_FALSE(Status::Corruption("x").IsRetryable());
  EXPECT_FALSE(Status().IsRetryable());
}

TEST(StatusTest, CopiesShareRepresentation) {
  Status a = Status::IoError("disk gone");
  Status b = a;
  EXPECT_EQ(b.message(), "disk gone");
  EXPECT_EQ(b.code(), StatusCode::kIoError);
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 10; c++) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  auto p = std::move(r).value();
  EXPECT_EQ(*p, 5);
}

Result<int> Doubler(Result<int> in) {
  HAT_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_TRUE(Doubler(Status::Timeout()).status().IsTimeout());
}

// --------------------------------- RNG ------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; i++) {
    if (a.NextUint64() == b.NextUint64()) same++;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng rng(10);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; i++) seen.insert(rng.NextBelow(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; i++) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(12);
  for (int i = 0; i < 10000; i++) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; i++) sum += rng.NextExponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(14);
  double sum = 0, sum_sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; i++) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, LognormalMeanMatchesFormula) {
  Rng rng(15);
  double sigma = 0.25;
  double mu = -sigma * sigma / 2;  // unit-mean configuration
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; i++) sum += rng.NextLognormal(mu, sigma);
  EXPECT_NEAR(sum / n, 1.0, 0.02);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(77);
  Rng a = parent.Fork(1);
  Rng b = parent.Fork(2);
  int same = 0;
  for (int i = 0; i < 64; i++) {
    if (a.NextUint64() == b.NextUint64()) same++;
  }
  EXPECT_LT(same, 2);
}

TEST(ZipfianTest, SkewsTowardLowRanks) {
  Rng rng(16);
  ZipfianGenerator zipf(1000, 0.99);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; i++) counts[zipf.Next(rng)]++;
  // Rank 0 should dominate rank 500 heavily.
  EXPECT_GT(counts[0], 100 * std::max(counts[500], 1));
  for (const auto& [rank, n] : counts) EXPECT_LT(rank, 1000u);
}

TEST(ZipfianTest, UniformWhenThetaNearZero) {
  Rng rng(17);
  ZipfianGenerator zipf(100, 0.01);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; i++) counts[zipf.Next(rng)]++;
  EXPECT_LT(counts[0], 4 * counts[50]);
}

// -------------------------------- CRC32 -----------------------------------

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283 (iSCSI test vector).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32c(""), 0u); }

TEST(Crc32Test, DetectsBitFlip) {
  std::string data(100, 'a');
  uint32_t before = Crc32c(data);
  data[50] ^= 1;
  EXPECT_NE(before, Crc32c(data));
}

TEST(Crc32Test, MaskRoundTrips) {
  for (uint32_t v : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(v)), v);
    EXPECT_NE(MaskCrc(v), v);
  }
}

// ------------------------------ Histogram ---------------------------------

TEST(HistogramTest, EmptyIsZeroed) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0);
  EXPECT_EQ(h.Percentile(0.5), 0);
}

TEST(HistogramTest, MeanAndExtremes) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.Record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

TEST(HistogramTest, PercentileWithinResolution) {
  Histogram h;
  for (int i = 1; i <= 10000; i++) h.Record(i);
  // 1% relative resolution.
  EXPECT_NEAR(h.Percentile(0.5), 5000, 5000 * 0.02);
  EXPECT_NEAR(h.Percentile(0.99), 9900, 9900 * 0.02);
  EXPECT_NEAR(h.Percentile(1.0), 10000, 10000 * 0.02);
}

TEST(HistogramTest, MergeEqualsCombinedRecording) {
  Histogram a, b, combined;
  Rng rng(18);
  for (int i = 0; i < 1000; i++) {
    double v = rng.NextExponential(100);
    (i % 2 ? a : b).Record(v);
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.Mean(), combined.Mean(), 1e-9);
  EXPECT_NEAR(a.Percentile(0.9), combined.Percentile(0.9), 1e-9);
}

TEST(HistogramTest, CdfMonotone) {
  Histogram h;
  Rng rng(19);
  for (int i = 0; i < 10000; i++) h.Record(rng.NextLognormal(3, 1));
  auto cdf = h.Cdf();
  ASSERT_FALSE(cdf.empty());
  for (size_t i = 1; i < cdf.size(); i++) {
    EXPECT_GT(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(HistogramTest, StddevOfConstantIsZero) {
  Histogram h;
  for (int i = 0; i < 10; i++) h.Record(42);
  EXPECT_NEAR(h.Stddev(), 0, 1e-6);
}

TEST(HistogramTest, EmptyPercentileIsZeroForAnyQuantile) {
  // Contract: empty histograms read 0 everywhere (never NaN or stale) —
  // the sampler plots windowed p95s and relies on quiet windows being 0.
  Histogram h;
  for (double q : {-1.0, 0.0, 0.25, 0.5, 0.95, 1.0, 2.0}) {
    EXPECT_EQ(h.Percentile(q), 0) << "q=" << q;
  }
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Stddev(), 0);
}

TEST(HistogramTest, DeltaSinceIsolatesTheWindow) {
  Histogram cum;
  for (int i = 0; i < 100; i++) cum.Record(10);
  Histogram snap = cum;  // sampler keeps the previous cumulative snapshot
  for (int i = 0; i < 50; i++) cum.Record(1000);

  Histogram window = cum.DeltaSince(snap);
  EXPECT_EQ(window.count(), 50u);
  // Only the new observations (1000s) are in the window; the old 10s must
  // not leak in. Bucket representatives carry ~1% error.
  EXPECT_NEAR(window.Percentile(0.5), 1000, 1000 * 0.02);
  EXPECT_GT(window.min(), 500);
  EXPECT_NEAR(window.Mean(), 1000, 1000 * 0.02);
}

TEST(HistogramTest, DeltaSinceEmptyWindowIsEmpty) {
  Histogram cum;
  for (int i = 0; i < 7; i++) cum.Record(3.5);
  Histogram window = cum.DeltaSince(cum);
  EXPECT_EQ(window.count(), 0u);
  EXPECT_EQ(window.Percentile(0.95), 0);
}

TEST(HistogramTest, DeltaSinceOfFreshHistogramIsIdentity) {
  Histogram cum;
  for (int i = 1; i <= 1000; i++) cum.Record(i);
  Histogram window = cum.DeltaSince(Histogram());
  EXPECT_EQ(window.count(), cum.count());
  EXPECT_NEAR(window.Percentile(0.95), cum.Percentile(0.95),
              cum.Percentile(0.95) * 0.02);
}

// -------------------------------- Codec -----------------------------------

TEST(CodecTest, FixedRoundTrip) {
  std::string s;
  PutFixed32(&s, 0xdeadbeef);
  PutFixed64(&s, 0x0123456789abcdefULL);
  EXPECT_EQ(DecodeFixed32(s.data()), 0xdeadbeefu);
  EXPECT_EQ(DecodeFixed64(s.data() + 4), 0x0123456789abcdefULL);
}

TEST(CodecTest, VarintRoundTrip) {
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 1ULL << 32,
                     ~0ULL}) {
    std::string s;
    PutVarint64(&s, v);
    std::string_view in(s);
    auto decoded = GetVarint64(&in);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodecTest, VarintTruncatedFails) {
  std::string s;
  PutVarint64(&s, 1ULL << 40);
  s.pop_back();
  std::string_view in(s);
  EXPECT_FALSE(GetVarint64(&in).has_value());
}

TEST(CodecTest, LengthPrefixedRoundTrip) {
  std::string s;
  PutLengthPrefixed(&s, "hello");
  PutLengthPrefixed(&s, "");
  PutLengthPrefixed(&s, std::string(300, 'z'));
  std::string_view in(s);
  EXPECT_EQ(*GetLengthPrefixed(&in), "hello");
  EXPECT_EQ(*GetLengthPrefixed(&in), "");
  EXPECT_EQ(GetLengthPrefixed(&in)->size(), 300u);
  EXPECT_TRUE(in.empty());
}

TEST(CodecTest, LengthPrefixedOverrunFails) {
  std::string s;
  PutVarint32(&s, 100);  // claims 100 bytes, provides none
  std::string_view in(s);
  EXPECT_FALSE(GetLengthPrefixed(&in).has_value());
}

TEST(CodecTest, Int64ValueRoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{42},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(DecodeInt64Value(EncodeInt64Value(v)), v);
  }
}

// Wire-facing varint bounds: every 7-bit-group boundary (2^7k - 1, 2^7k)
// round-trips with the expected canonical length, and the strict decoders
// reject overlong (padded or out-of-width) and truncated encodings.

TEST(CodecTest, Varint64AllGroupBoundaries) {
  for (int k = 1; k <= 9; k++) {
    const uint64_t edge = uint64_t{1} << (7 * k);
    for (uint64_t v : {edge - 1, edge}) {
      std::string s;
      PutVarint64(&s, v);
      EXPECT_EQ(s.size(), static_cast<size_t>(v < edge ? k : k + 1)) << v;
      EXPECT_EQ(s.size(), VarintLength(v)) << v;
      std::string_view in(s);
      auto d = GetVarint64(&in);
      ASSERT_TRUE(d.has_value()) << v;
      EXPECT_EQ(*d, v);
      EXPECT_TRUE(in.empty());
    }
  }
  std::string s;
  PutVarint64(&s, ~0ULL);
  EXPECT_EQ(s.size(), 10u);
  std::string_view in(s);
  EXPECT_EQ(GetVarint64(&in), ~0ULL);
}

TEST(CodecTest, Varint32AllGroupBoundaries) {
  for (int k = 1; k <= 4; k++) {
    const uint64_t edge = uint64_t{1} << (7 * k);
    for (uint64_t v64 : {edge - 1, edge}) {
      const uint32_t v = static_cast<uint32_t>(v64);
      std::string s;
      PutVarint32(&s, v);
      EXPECT_EQ(s.size(), VarintLength(v)) << v;
      std::string_view in(s);
      auto d = GetVarint32(&in);
      ASSERT_TRUE(d.has_value()) << v;
      EXPECT_EQ(*d, v);
      EXPECT_TRUE(in.empty());
    }
  }
  std::string s;
  PutVarint32(&s, ~0u);
  EXPECT_EQ(s.size(), 5u);
  std::string_view in(s);
  EXPECT_EQ(GetVarint32(&in), ~0u);
}

TEST(CodecTest, VarintRejectsOverlongPadding) {
  // 0 encoded in two bytes (80 00), 1 in three (81 80 00): decodable values
  // with non-canonical trailing zero groups must be rejected.
  for (const std::string s :
       {std::string("\x80\x00", 2), std::string("\x81\x80\x00", 3),
        std::string("\xff\x00", 2)}) {
    std::string_view in32(s), in64(s);
    EXPECT_FALSE(GetVarint32(&in32).has_value());
    EXPECT_FALSE(GetVarint64(&in64).has_value());
  }
}

TEST(CodecTest, VarintRejectsOutOfWidthBits) {
  // 5-byte 32-bit varint whose final byte sets bits 32+ (max legal is 0x0f).
  std::string s("\xff\xff\xff\xff\x1f", 5);
  std::string_view in(s);
  EXPECT_FALSE(GetVarint32(&in).has_value());
  std::string ok("\xff\xff\xff\xff\x0f", 5);
  std::string_view in_ok(ok);
  EXPECT_EQ(GetVarint32(&in_ok), ~0u);

  // 10-byte 64-bit varint whose final byte sets bits 64+ (max legal 0x01).
  std::string s64(10, '\xff');
  s64[9] = '\x02';
  std::string_view in64(s64);
  EXPECT_FALSE(GetVarint64(&in64).has_value());
  s64[9] = '\x01';
  std::string_view in64_ok(s64);
  EXPECT_EQ(GetVarint64(&in64_ok), ~0ULL);
}

TEST(CodecTest, VarintRejectsTruncationAtEveryLength) {
  for (uint64_t v : {uint64_t{300}, uint64_t{1} << 21, uint64_t{1} << 42,
                     ~uint64_t{0}}) {
    std::string s;
    PutVarint64(&s, v);
    for (size_t cut = 0; cut < s.size(); cut++) {
      std::string_view in(s.data(), cut);
      EXPECT_FALSE(GetVarint64(&in).has_value()) << v << " cut " << cut;
    }
  }
}

TEST(CodecTest, VarintRejectsTooManyContinuations) {
  std::string s(11, '\x80');  // 11 continuation bytes, never terminates
  std::string_view in32(s), in64(s);
  EXPECT_FALSE(GetVarint32(&in32).has_value());
  EXPECT_FALSE(GetVarint64(&in64).has_value());
}

TEST(CodecTest, Varint32ArrayRoundTrip) {
  std::vector<uint32_t> v = {0, 1, 127, 128, 1u << 20, ~0u};
  std::string s;
  PutVarint32Array(&s, v.data(), v.size());
  std::string_view in(s);
  std::vector<uint32_t> out;
  ASSERT_TRUE(GetVarint32Array(&in, &out));
  EXPECT_EQ(out, v);
  EXPECT_TRUE(in.empty());
}

TEST(CodecTest, Fixed64ArrayRoundTrip) {
  std::vector<uint64_t> v = {0, ~0ULL, 0x0123456789abcdefULL};
  std::string s;
  PutFixed64Array(&s, v.data(), v.size());
  std::string_view in(s);
  std::vector<uint64_t> out;
  ASSERT_TRUE(GetFixed64Array(&in, &out));
  EXPECT_EQ(out, v);
  EXPECT_TRUE(in.empty());
}

TEST(CodecTest, ArraysRejectHostileCounts) {
  std::string s;
  PutVarint32(&s, 1000000);  // claims a million elements, provides none
  std::string_view in32(s), in64(s);
  std::vector<uint32_t> out32;
  std::vector<uint64_t> out64;
  EXPECT_FALSE(GetVarint32Array(&in32, &out32));
  EXPECT_FALSE(GetFixed64Array(&in64, &out64));
  EXPECT_TRUE(out32.empty());
  EXPECT_TRUE(out64.empty());
}

TEST(CodecTest, Int64ValueRejectsWrongSize) {
  EXPECT_FALSE(DecodeInt64Value("short").has_value());
  EXPECT_FALSE(DecodeInt64Value("123456789").has_value());
}

// ------------------------------ SlotTable ---------------------------------

TEST(SlotTableTest, TakenIdsGoStaleAcrossSlotReuse) {
  SlotTable<int> table;
  uint64_t a = table.Insert(1);
  uint64_t b = table.Insert(2);
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  ASSERT_NE(table.Find(a), nullptr);
  EXPECT_EQ(*table.Find(a), 1);
  EXPECT_EQ(table.Take(SlotTable<int>::SlotOf(a)), 1);
  EXPECT_EQ(table.Find(a), nullptr);
  // A free slot matches no id, not even the one it will issue next.
  EXPECT_EQ(table.Find(a + (uint64_t{1} << 32)), nullptr);
  EXPECT_EQ(table.Find(a + (uint64_t{2} << 32)), nullptr);

  uint64_t c = table.Insert(3);  // reuses a's slot
  EXPECT_EQ(SlotTable<int>::SlotOf(c), SlotTable<int>::SlotOf(a));
  EXPECT_NE(c, a);
  EXPECT_EQ(table.Find(a), nullptr);
  ASSERT_NE(table.Find(c), nullptr);
  EXPECT_EQ(*table.Find(c), 3);
  EXPECT_EQ(*table.Find(b), 2);
  EXPECT_EQ(table.Find(0), nullptr);
}

}  // namespace
}  // namespace hat
