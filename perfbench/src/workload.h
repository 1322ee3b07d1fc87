// The benchmark's three closed-loop workloads and the measured window.
//
// A Run is one deterministic deployment driven by the repo's own closed
// loops, harness::YcsbDriver or harness::TpccDriver, seeded as bench/fig3
// and bench_tpcc_analysis seed them. Its constructor is the set-up the
// benchmark times (deployment build + Preload / Populate). Measure() runs
// the driver's warmup and measured window; events scheduled at the window's
// edges and chunk boundaries read the process CPU clock and the public
// stats surfaces, and time the reference unit (reference.h) to tell how fast
// the host ran each chunk. Those events schedule nothing, so the driver
// simulates the same execution with or without them.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hat/cluster/deployment.h"
#include "hat/common/histogram.h"
#include "hat/harness/driver.h"
#include "hat/sim/simulation.h"
#include "hat/workload/tpcc.h"
#include "hat/workload/ycsb.h"
#include "perfbench/src/reference.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  bool tpcc = false;
  hat::cluster::DeploymentOptions deployment;
  hat::client::ClientOptions client;
  hat::workload::YcsbOptions ycsb;
  hat::workload::TpccConfig tpcc_config;
  int clients = 64;
  hat::sim::Duration warmup = 0;
  /// Simulated microseconds measured per --seconds of run time. Fixed per
  /// workload so that a given (seed, --seconds) always measures the same
  /// simulated window, however fast the host runs it.
  hat::sim::Duration window_per_second = 0;
  /// Trace every Nth transaction in the traced run.
  uint64_t trace_sample_every = 1;
};

/// The spec named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);
/// Every workload name, in definition order.
std::vector<std::string> WorkloadNames();

/// The public counters of a deployment at one instant.
struct Counters {
  uint64_t events = 0;
  hat::net::NetworkStats net;
  hat::server::ServerStats servers;
  hat::client::ClientStats clients;
  double global_lane_busy_us = 0;
};

Counters TakeCounters(hat::cluster::Deployment& deployment);

/// One chunk of the measured window, from the counters at its edges.
/// Everything but the host times is a function of the seed alone; the
/// determinism self-check compares those fields.
struct Chunk {
  uint64_t committed = 0;  ///< ClientStats::txns_committed
  uint64_t failed = 0;     ///< aborted (either way) + unavailable
  uint64_t events = 0;
  uint64_t msgs = 0;
  double cpu_s = 0;        ///< process CPU, the reference unit's excluded
  double reference_s = 0;  ///< mean of the reference unit at the two edges

  /// cpu_s scaled to the reference speed.
  double NormalizedCpuS() const { return AtReferenceSpeed(cpu_s, reference_s); }

  bool SameSimulation(const Chunk& o) const {
    return committed == o.committed && failed == o.failed &&
           events == o.events && msgs == o.msgs;
  }
};

struct Window {
  hat::sim::SimTime start = 0;
  hat::sim::SimTime end = 0;
  /// The driver's account of the window (harness::WorkloadResult).
  uint64_t committed = 0;
  uint64_t failed = 0;
  hat::Histogram latency_ms;
  std::vector<Chunk> chunks;
  Counters begin;
  Counters finish;

  uint64_t attempted() const { return committed + failed; }
  double seconds() const { return static_cast<double>(end - start) / 1e6; }
};

class Run {
 public:
  /// Builds the deployment and its driver and loads the dataset.
  Run(const WorkloadSpec& spec, uint64_t seed);
  ~Run();

  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  hat::cluster::Deployment& deployment() { return *deployment_; }

  /// Runs the driver's warmup, then `window` of sim time read in `chunks`
  /// equal parts, timing `reference` at every chunk edge. `on_window(true)`
  /// runs as the window opens and `on_window(false)` as it closes, both
  /// inside the simulation; they must schedule nothing. Call once.
  Window Measure(hat::sim::Duration window, int chunks,
                 ReferenceUnit& reference,
                 const std::function<void(bool)>& on_window = {});

  /// Lets anti-entropy quiesce, then runs the workload's correctness
  /// checks. Returns an empty string when all pass, else what failed.
  std::string CheckCorrect();

  /// TPC-C items whose quiesced stock is negative (set by CheckCorrect).
  /// Observed, not checked: New-Order's decrement-above-a-floor is not
  /// HAT-achievable, so concurrent orders that read the same stale stock
  /// can drive it below zero (bench_tpcc_analysis reports it likewise).
  int negative_stock_items() const { return negative_stock_items_; }

 private:
  bool Converged() const;
  std::string CheckTpccInvariants();

  const WorkloadSpec& spec_;
  std::unique_ptr<hat::sim::Simulation> sim_;
  std::unique_ptr<hat::cluster::Deployment> deployment_;
  std::unique_ptr<hat::harness::YcsbDriver> ycsb_;
  std::unique_ptr<hat::harness::TpccDriver> tpcc_;
  /// The TPC-C driver's Section 6.2 observations over the window.
  hat::harness::TpccResult tpcc_result_;
  int negative_stock_items_ = 0;
};

/// Process CPU microseconds per committed transaction at the reference
/// speed, chunk by chunk.
std::vector<double> CpuUsPerTxnByChunk(const Window& w);
/// Process CPU nanoseconds per simulation event at the reference speed,
/// chunk by chunk.
std::vector<double> CpuNsPerEventByChunk(const Window& w);
/// Process CPU seconds of the window's chunks at the reference speed; the
/// reference unit's own time is left out.
double WindowNormalizedCpuS(const Window& w);

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

/// Process CPU time in seconds.
double ProcessCpuSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
