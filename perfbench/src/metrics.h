// Metric arithmetic shared by hatbench and its tests: the
// percentile rule, ratios that carry their base, medians, and per-kind span
// self time. Pure functions over plain data; nothing here touches a
// deployment.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hat/obs/trace.h"

namespace perfbench {

/// Linear-interpolated quantile q in [0, 1] of an ascending-sorted sample
/// (rank q * (n - 1), as numpy's default). 0 for an empty sample.
double Quantile(const std::vector<double>& sorted, double q);

/// Quantile q in [0, 1] of a bucketed distribution given as its CDF, one
/// (bucket value, cumulative fraction) point per non-empty bucket in
/// ascending order (hat::Histogram::Cdf()). Interpolates linearly between
/// the two points around q, so the figure follows the counts instead of
/// jumping from one bucket value to the next (Histogram::Percentile reads
/// the same bucket value for most runs). 0 for an empty CDF.
double CdfQuantile(const std::vector<std::pair<double, double>>& cdf,
                   double q);

/// Median of an unsorted sample (copied and sorted). 0 when empty.
double Median(std::vector<double> values);

/// Robust host cost of a repeated measurement: `series[r][k]` is the cost
/// of chunk k in repetition r. Interference from other work only adds time,
/// so each chunk keeps its least cost over the repetitions; the result is
/// the median of those minima over chunks. Chunks missing from a repetition
/// are skipped; 0 when empty. The repetitions should simulate the same
/// execution (hatbench --trace 1 runs one seed twice); over different
/// executions the minimum would also pick the cheapest of their chunk k.
double MedianOfChunkMinima(const std::vector<std::vector<double>>& series);

/// Samples strictly beyond the percentile `basis_points` / 100 of n samples
/// (floor of n * (10000 - basis_points) / 10000): 10 for p99 of 1000.
uint64_t SamplesBeyond(uint64_t n, uint32_t basis_points);

/// True when the percentile leaves at least `min_beyond` samples beyond it.
inline bool PercentileReportable(uint64_t n, uint32_t basis_points,
                                 uint64_t min_beyond = 10) {
  return SamplesBeyond(n, basis_points) >= min_beyond;
}

/// A ratio that keeps its numerator and base, so a report can say "15.3
/// (12345 notifies / 807 promotions)" rather than a bare 15.3.
struct Ratio {
  double num = 0;
  double den = 0;
  std::string num_name;
  std::string den_name;

  /// num / den, or 0 when the base is empty.
  double Value() const { return den > 0 ? num / den : 0; }
  /// "<value> (<num> <num_name> / <den> <den_name>)".
  std::string Describe() const;
};

/// Span kinds whose self time the benchmark reports, in report order.
inline constexpr std::array<hat::obs::SpanKind, 6> kSelfTimeKinds = {
    hat::obs::SpanKind::kTxn,       hat::obs::SpanKind::kCommit,
    hat::obs::SpanKind::kRpcFlight, hat::obs::SpanKind::kQueueWait,
    hat::obs::SpanKind::kExecute,   hat::obs::SpanKind::kMavAckWait};

/// Span kinds recorded as instants (start == end), whose self time is
/// always 0; the benchmark reports how many there are instead.
inline constexpr std::array<hat::obs::SpanKind, 2> kCountedKinds = {
    hat::obs::SpanKind::kWalCommit, hat::obs::SpanKind::kAeApply};

struct SelfTimes {
  /// Sampled transactions whose root span committed and started in the
  /// window: the base of every per-txn figure.
  uint64_t committed_txns = 0;
  /// Summed self time (sim microseconds) per kind, indexed like
  /// kSelfTimeKinds.
  std::array<double, kSelfTimeKinds.size()> self_us{};
  /// Spans of those transactions per kind, indexed like kCountedKinds.
  std::array<uint64_t, kCountedKinds.size()> spans{};
  /// Durations (sim microseconds) of every kMavAckWait span of those
  /// transactions.
  std::vector<double> mav_ack_wait_us;
};

/// Self time of each span kind in kSelfTimeKinds, and the span count of
/// each in kCountedKinds, over the sampled transactions whose root (kTxn)
/// span committed and started in [from, to).
///
/// A span's self time is its duration minus the part of it covered by its
/// children. A span's parent is the recorded span its parent_id names.
/// Envelope contexts the client mints per RPC are never recorded as spans,
/// so a span whose parent is missing is adopted by the innermost kTxn or
/// kCommit span of its trace whose [start, end) holds its start, and by the
/// root when none does.
SelfTimes ComputeSelfTimes(const std::vector<hat::obs::Span>& spans,
                           uint64_t from, uint64_t to);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
