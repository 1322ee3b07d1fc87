#include "perfbench/src/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

#include "hat/client/observer.h"

namespace perfbench {

using hat::obs::Span;
using hat::obs::SpanKind;

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  double rank = q * static_cast<double>(sorted.size() - 1);
  auto lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double CdfQuantile(const std::vector<std::pair<double, double>>& cdf,
                   double q) {
  if (cdf.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  size_t i = 0;
  while (i + 1 < cdf.size() && cdf[i].second < q) i++;
  if (i == 0) return cdf[0].first;
  auto [v0, f0] = cdf[i - 1];
  auto [v1, f1] = cdf[i];
  if (f1 <= f0) return v1;
  return v0 + (q - f0) / (f1 - f0) * (v1 - v0);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quantile(values, 0.5);
}

double MedianOfChunkMinima(const std::vector<std::vector<double>>& series) {
  std::vector<double> minima;
  for (const auto& rep : series) {
    for (size_t k = 0; k < rep.size(); k++) {
      if (k >= minima.size()) {
        minima.push_back(rep[k]);
      } else {
        minima[k] = std::min(minima[k], rep[k]);
      }
    }
  }
  return Median(std::move(minima));
}

uint64_t SamplesBeyond(uint64_t n, uint32_t basis_points) {
  if (basis_points >= 10000) return 0;
  return n * (10000 - basis_points) / 10000;
}

std::string Ratio::Describe() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%.4g (%.0f %s / %.0f %s)", Value(), num,
                num_name.c_str(), den, den_name.c_str());
  return buf;
}

namespace {

template <size_t N>
int IndexOf(const std::array<SpanKind, N>& kinds, SpanKind kind) {
  for (size_t i = 0; i < N; i++) {
    if (kinds[i] == kind) return static_cast<int>(i);
  }
  return -1;
}

bool Adopts(const Span& s) {
  return s.kind == SpanKind::kTxn || s.kind == SpanKind::kCommit;
}

/// Length of the union of `intervals`, each clipped to [lo, hi).
double CoveredWithin(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                     uint64_t lo, uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  uint64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += static_cast<double>(end - start);
    cursor = end;
  }
  return covered;
}

}  // namespace

SelfTimes ComputeSelfTimes(const std::vector<Span>& spans, uint64_t from,
                           uint64_t to) {
  SelfTimes out;
  // Ordered by trace id so the result does not depend on hash order.
  std::map<uint64_t, std::vector<const Span*>> by_trace;
  for (const Span& s : spans) {
    if (s.trace_id != 0) by_trace[s.trace_id].push_back(&s);
  }
  const auto committed =
      static_cast<uint64_t>(hat::client::TxnOutcome::kCommitted);

  for (const auto& [trace_id, trace] : by_trace) {
    size_t root = trace.size();
    for (size_t i = 0; i < trace.size(); i++) {
      if (trace[i]->kind == SpanKind::kTxn && trace[i]->parent_id == 0) {
        root = i;
        break;
      }
    }
    if (root == trace.size()) continue;
    const Span& r = *trace[root];
    if (r.arg != committed || r.start_us < from || r.start_us >= to) continue;
    out.committed_txns++;

    std::unordered_map<uint64_t, size_t> index_of;
    for (size_t i = 0; i < trace.size(); i++) index_of[trace[i]->span_id] = i;

    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
        trace.size());
    for (size_t i = 0; i < trace.size(); i++) {
      if (i == root) continue;
      const Span& s = *trace[i];
      size_t parent = root;
      auto it = index_of.find(s.parent_id);
      if (it != index_of.end() && it->second != i) {
        parent = it->second;
      } else {
        // Innermost adopter holding s.start; ties go to the lower index so
        // two equal intervals never adopt each other.
        uint64_t best_len = UINT64_MAX;
        for (size_t k = 0; k < trace.size(); k++) {
          const Span& a = *trace[k];
          if (k == i || !Adopts(a)) continue;
          if (a.start_us > s.start_us || s.start_us >= a.end_us) continue;
          uint64_t len = a.end_us - a.start_us;
          uint64_t own = s.end_us - s.start_us;
          if (len < own || (len == own && k > i)) continue;
          if (len < best_len) {
            best_len = len;
            parent = k;
          }
        }
      }
      children[parent].emplace_back(s.start_us, s.end_us);
    }

    for (size_t i = 0; i < trace.size(); i++) {
      const Span& s = *trace[i];
      double duration = static_cast<double>(s.end_us - s.start_us);
      if (s.kind == SpanKind::kMavAckWait) {
        out.mav_ack_wait_us.push_back(duration);
      }
      int counted = IndexOf(kCountedKinds, s.kind);
      if (counted >= 0) out.spans[static_cast<size_t>(counted)]++;
      int slot = IndexOf(kSelfTimeKinds, s.kind);
      if (slot < 0) continue;
      out.self_us[slot] +=
          duration - CoveredWithin(children[i], s.start_us, s.end_us);
    }
  }
  return out;
}

}  // namespace perfbench
