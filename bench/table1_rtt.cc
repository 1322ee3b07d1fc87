// Regenerates Table 1: mean RTT times on EC2 (a) within an availability
// zone, (b) across availability zones, (c) cross-region — by running ping
// measurement traffic over the simulated network whose base latencies are
// the paper's published measurements.

#include <cstdio>
#include <memory>
#include <vector>

#include "hat/common/histogram.h"
#include "hat/harness/table.h"
#include "hat/net/rpc.h"

namespace hat {
namespace {

class Pinger : public net::RpcNode {
 public:
  using net::RpcNode::RpcNode;
  void HandleMessage(net::Envelope env) override {
    Reply(env, net::PingResponse{});
  }

  /// Measures `count` RTTs to `target` at 1s intervals (the paper pinged at
  /// 1s granularity for a week; we use a smaller deterministic sample).
  Histogram Measure(net::NodeId target, int count) {
    Histogram rtt_ms;
    for (int i = 0; i < count; i++) {
      sim_.At(sim_.Now() + static_cast<sim::Duration>(i) * sim::kSecond,
              [this, target, &rtt_ms]() {
                sim::SimTime sent = sim_.Now();
                Call(target, net::PingRequest{}, 10 * sim::kSecond,
                     [this, sent, &rtt_ms](Status s, const net::Message*) {
                       if (s.ok()) {
                         rtt_ms.Record(
                             static_cast<double>(sim_.Now() - sent) / 1000.0);
                       }
                     });
              });
    }
    sim_.Run();
    return rtt_ms;
  }
};

constexpr int kSamples = 2000;

void PrintTable1a(sim::Simulation& sim) {
  // Three hosts within us-east-b.
  net::Topology topo;
  std::vector<net::NodeId> hosts;
  for (int h = 0; h < 3; h++) {
    hosts.push_back(topo.AddNode({net::Region::kVirginia, 0,
                                  static_cast<uint16_t>(h)}));
  }
  net::Network network(sim, std::move(topo));
  std::vector<std::unique_ptr<Pinger>> pingers;
  for (net::NodeId h : hosts) {
    pingers.push_back(std::make_unique<Pinger>(sim, network, h));
  }
  harness::Banner("Table 1a: mean RTT within us-east-b AZ (ms)");
  harness::TablePrinter table({"", "H2", "H3"});
  for (int a = 0; a < 2; a++) {
    std::vector<std::string> row{"H" + std::to_string(a + 1)};
    for (int b = 1; b < 3; b++) {
      if (b <= a) {
        row.push_back("");
        continue;
      }
      Histogram h = pingers[a]->Measure(hosts[b], kSamples);
      row.push_back(harness::TablePrinter::Num(h.Mean(), 2));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("(paper: H1-H2 0.55, H1-H3 0.56, H2-H3 0.50)\n");
}

void PrintTable1b(sim::Simulation& sim) {
  net::Topology topo;
  std::vector<net::NodeId> azs;
  for (int az = 0; az < 3; az++) {
    azs.push_back(topo.AddNode({net::Region::kVirginia,
                                static_cast<uint8_t>(az), 0}));
  }
  net::Network network(sim, std::move(topo));
  std::vector<std::unique_ptr<Pinger>> pingers;
  for (net::NodeId n : azs) {
    pingers.push_back(std::make_unique<Pinger>(sim, network, n));
  }
  harness::Banner("Table 1b: mean RTT across us-east AZs (ms)");
  harness::TablePrinter table({"", "C", "D"});
  const char* names[] = {"B", "C", "D"};
  for (int a = 0; a < 2; a++) {
    std::vector<std::string> row{names[a]};
    for (int b = 1; b < 3; b++) {
      if (b <= a) {
        row.push_back("");
        continue;
      }
      Histogram h = pingers[a]->Measure(azs[b], kSamples);
      row.push_back(harness::TablePrinter::Num(h.Mean(), 2));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("(paper: B-C 1.08, B-D 3.12, C-D 3.57)\n");
}

void PrintTable1c(sim::Simulation& sim) {
  using net::Region;
  // Table 1c's row/column order.
  std::vector<Region> regions = {
      Region::kCalifornia, Region::kOregon,  Region::kVirginia,
      Region::kTokyo,      Region::kIreland, Region::kSydney,
      Region::kSaoPaulo,   Region::kSingapore};
  net::Topology topo;
  std::vector<net::NodeId> nodes;
  for (Region r : regions) nodes.push_back(topo.AddNode({r, 0, 0}));
  net::Network network(sim, std::move(topo));
  std::vector<std::unique_ptr<Pinger>> pingers;
  for (net::NodeId n : nodes) {
    pingers.push_back(std::make_unique<Pinger>(sim, network, n));
  }

  harness::Banner("Table 1c: mean cross-region RTT (ms)");
  std::vector<std::string> header{""};
  for (size_t c = 1; c < regions.size(); c++) {
    header.emplace_back(net::RegionName(regions[c]));
  }
  harness::TablePrinter table(std::move(header));
  for (size_t a = 0; a + 1 < regions.size(); a++) {
    std::vector<std::string> row{std::string(net::RegionName(regions[a]))};
    for (size_t b = 1; b < regions.size(); b++) {
      if (b <= a) {
        row.push_back("");
        continue;
      }
      Histogram h = pingers[a]->Measure(nodes[b], kSamples / 4);
      row.push_back(harness::TablePrinter::Num(h.Mean(), 1));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "(paper min: CA-OR 22.5; paper max: SP-SI 362.8; sampled means match\n"
      " the paper's measured values by construction — jitter preserves them)\n");
}

}  // namespace
}  // namespace hat

int main() {
  hat::sim::Simulation sim(1302);  // arXiv:1302.0309
  hat::PrintTable1a(sim);
  hat::PrintTable1b(sim);
  hat::PrintTable1c(sim);
  return 0;
}
