// Regenerates Figure 1: CDFs of round-trip times for the slowest intra- and
// inter-availability-zone links compared against cross-region links
// (east-b:east-b, east-c:east-d, CA:OR, SI:SP).

#include <cstdio>
#include <memory>

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
};

Histogram MeasureLink(const net::Location& a, const net::Location& b,
                      int samples, uint64_t seed) {
  sim::Simulation sim(seed);
  net::Topology topo;
  net::NodeId na = topo.AddNode(a);
  net::NodeId nb = topo.AddNode(b);
  net::Network network(sim, std::move(topo));
  Pinger pa(sim, network, na);
  Pinger pb(sim, network, nb);
  // Record in microseconds: the histogram's resolution is 1% above 1.0, so
  // sub-millisecond intra-AZ RTTs need the finer unit.
  Histogram rtt_us;
  for (int i = 0; i < samples; i++) {
    sim.At(static_cast<sim::Duration>(i) * sim::kSecond, [&, i]() {
      sim::SimTime sent = sim.Now();
      pa.Call(nb, net::PingRequest{}, 10 * sim::kSecond,
              [&, sent](Status s, const net::Message*) {
                if (s.ok()) {
                  rtt_us.Record(static_cast<double>(sim.Now() - sent));
                }
              });
    });
  }
  sim.Run();
  return rtt_us;
}

}  // namespace
}  // namespace hat

int main() {
  using hat::net::Location;
  using hat::net::Region;
  constexpr int kSamples = 5000;

  struct Link {
    const char* name;
    Location a, b;
  };
  // The four links Figure 1 plots.
  Link links[] = {
      {"east-b:east-b", {Region::kVirginia, 0, 0}, {Region::kVirginia, 0, 1}},
      {"east-c:east-d", {Region::kVirginia, 1, 0}, {Region::kVirginia, 2, 0}},
      {"CA:OR", {Region::kCalifornia, 0, 0}, {Region::kOregon, 0, 0}},
      {"SI:SP", {Region::kSingapore, 0, 0}, {Region::kSaoPaulo, 0, 0}},
  };

  hat::harness::Banner(
      "Figure 1: CDF of round-trip times (ms) for intra-AZ, cross-AZ, and "
      "cross-region links");
  std::printf("%-16s", "quantile");
  for (const auto& link : links) std::printf("%14s", link.name);
  std::printf("\n");

  hat::Histogram hists[4];
  for (int i = 0; i < 4; i++) {
    hists[i] = hat::MeasureLink(links[i].a, links[i].b, kSamples, 91 + i);
  }
  for (double q : {0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99,
                   0.999}) {
    std::printf("p%-15g", q * 100);
    for (auto& h : hists) std::printf("%14.2f", h.Percentile(q) / 1000.0);
    std::printf("\n");
  }
  std::printf(
      "\n(paper trend: intra-AZ ~0.5ms << cross-AZ ~1-4ms << cross-region\n"
      " 10^2ms; SP-SI mean 362.8ms with 95th percentile 649ms — long WAN "
      "tails)\n");
  std::printf("SI:SP mean=%.1fms p95=%.1fms\n", hists[3].Mean() / 1000.0,
              hists[3].Percentile(0.95) / 1000.0);
  return 0;
}
