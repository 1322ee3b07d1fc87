// Unit tests for the simulated network: the Table 1 latency model,
// partitions, RPC timeouts.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hat/net/network.h"
#include "hat/net/rpc.h"
#include "hat/net/topology.h"

namespace hat::net {
namespace {

TEST(TopologyTest, CrossRegionMatchesTable1c) {
  EXPECT_DOUBLE_EQ(CrossRegionRttMs(Region::kCalifornia, Region::kOregon),
                   22.5);
  EXPECT_DOUBLE_EQ(CrossRegionRttMs(Region::kSaoPaulo, Region::kSingapore),
                   362.8);
  EXPECT_DOUBLE_EQ(CrossRegionRttMs(Region::kVirginia, Region::kIreland),
                   107.9);
  // Symmetry.
  for (int a = 0; a < kNumRegions; a++) {
    for (int b = 0; b < kNumRegions; b++) {
      EXPECT_DOUBLE_EQ(
          CrossRegionRttMs(static_cast<Region>(a), static_cast<Region>(b)),
          CrossRegionRttMs(static_cast<Region>(b), static_cast<Region>(a)));
    }
  }
}

TEST(TopologyTest, IntraAzMatchesTable1a) {
  Topology topo;
  // us-east-b (az 0), hosts H1..H3.
  NodeId h1 = topo.AddNode({Region::kVirginia, 0, 0});
  NodeId h2 = topo.AddNode({Region::kVirginia, 0, 1});
  NodeId h3 = topo.AddNode({Region::kVirginia, 0, 2});
  EXPECT_DOUBLE_EQ(topo.BaseRttUs(h1, h2), 550.0);
  EXPECT_DOUBLE_EQ(topo.BaseRttUs(h1, h3), 560.0);
  EXPECT_DOUBLE_EQ(topo.BaseRttUs(h2, h3), 500.0);
}

TEST(TopologyTest, CrossAzMatchesTable1b) {
  Topology topo;
  NodeId b = topo.AddNode({Region::kVirginia, 0, 0});
  NodeId c = topo.AddNode({Region::kVirginia, 1, 0});
  NodeId d = topo.AddNode({Region::kVirginia, 2, 0});
  EXPECT_DOUBLE_EQ(topo.BaseRttUs(b, c), 1080.0);
  EXPECT_DOUBLE_EQ(topo.BaseRttUs(b, d), 3120.0);
  EXPECT_DOUBLE_EQ(topo.BaseRttUs(c, d), 3570.0);
}

TEST(TopologyTest, SampledMeanTracksBaseRtt) {
  Topology topo;
  NodeId a = topo.AddNode({Region::kCalifornia, 0, 0});
  NodeId b = topo.AddNode({Region::kOregon, 0, 0});
  Rng rng(1);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; i++) {
    sum += static_cast<double>(topo.SampleOneWayUs(a, b, rng));
  }
  // One-way mean should be ~ RTT/2 = 11250us, within a few percent.
  EXPECT_NEAR(sum / n, 11250.0, 11250.0 * 0.03);
}

TEST(TopologyTest, JitterHasLongTail) {
  Topology topo;
  NodeId a = topo.AddNode({Region::kSaoPaulo, 0, 0});
  NodeId b = topo.AddNode({Region::kSingapore, 0, 0});
  Rng rng(2);
  double base = topo.BaseRttUs(a, b) / 2;
  int above = 0;
  const int n = 100000;
  for (int i = 0; i < n; i++) {
    if (topo.SampleOneWayUs(a, b, rng) > 1.5 * base) above++;
  }
  // Some but not most samples land far out in the tail.
  EXPECT_GT(above, 0);
  EXPECT_LT(above, n / 4);
}

TEST(TopologyTest, LoopbackIsFast) {
  Topology topo;
  NodeId a = topo.AddNode({Region::kVirginia, 0, 0});
  Rng rng(3);
  EXPECT_EQ(topo.SampleOneWayUs(a, a, rng), topo.options().loopback_us);
}

// ------------------------------ Network -----------------------------------

class TestSink : public MessageSink {
 public:
  void OnMessage(Envelope env) override { received.push_back(std::move(env)); }
  std::vector<Envelope> received;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : sim_(5) {
    Topology topo;
    a_ = topo.AddNode({Region::kVirginia, 0, 0});
    b_ = topo.AddNode({Region::kVirginia, 0, 1});
    c_ = topo.AddNode({Region::kOregon, 0, 0});
    net_ = std::make_unique<Network>(sim_, std::move(topo));
    net_->Register(a_, &sink_a_);
    net_->Register(b_, &sink_b_);
    net_->Register(c_, &sink_c_);
  }

  void Send(NodeId from, NodeId to) {
    net_->Send(Envelope{from, to, 0, false, PingRequest{}});
  }

  sim::Simulation sim_;
  std::unique_ptr<Network> net_;
  NodeId a_, b_, c_;
  TestSink sink_a_, sink_b_, sink_c_;
};

TEST_F(NetworkTest, DeliversWithLatency) {
  Send(a_, b_);
  EXPECT_TRUE(sink_b_.received.empty());
  sim_.Run();
  ASSERT_EQ(sink_b_.received.size(), 1u);
  EXPECT_EQ(sink_b_.received[0].from, a_);
  EXPECT_GT(sim_.Now(), 0u);  // took nonzero time
}

TEST_F(NetworkTest, PartitionDropsMessages) {
  net_->SetPartitions({{a_}, {b_, c_}});
  Send(a_, b_);
  Send(b_, c_);  // same side: delivered
  sim_.Run();
  EXPECT_TRUE(sink_b_.received.empty());
  EXPECT_EQ(sink_c_.received.size(), 1u);
  EXPECT_EQ(net_->stats().dropped_partition, 1u);
}

TEST_F(NetworkTest, NodesOutsideGroupsShareImplicitGroup) {
  net_->SetPartitions({{a_}});
  EXPECT_FALSE(net_->Reachable(a_, b_));
  EXPECT_TRUE(net_->Reachable(b_, c_));
}

TEST_F(NetworkTest, CutAndRestoreLink) {
  net_->CutLink(a_, b_);
  EXPECT_FALSE(net_->Reachable(a_, b_));
  EXPECT_FALSE(net_->Reachable(b_, a_));
  EXPECT_TRUE(net_->Reachable(a_, c_));
  net_->RestoreLink(b_, a_);
  EXPECT_TRUE(net_->Reachable(a_, b_));
}

TEST_F(NetworkTest, IsolateCutsEverything) {
  net_->Isolate(b_);
  EXPECT_FALSE(net_->Reachable(a_, b_));
  EXPECT_FALSE(net_->Reachable(c_, b_));
  EXPECT_TRUE(net_->Reachable(a_, c_));
}

TEST_F(NetworkTest, HealRestoresAll) {
  net_->SetPartitions({{a_}, {b_}});
  net_->CutLink(a_, c_);
  net_->HealAll();
  EXPECT_TRUE(net_->Reachable(a_, b_));
  EXPECT_TRUE(net_->Reachable(a_, c_));
}

TEST_F(NetworkTest, SelfSendAlwaysReachable) {
  net_->Isolate(a_);
  EXPECT_TRUE(net_->Reachable(a_, a_));
  Send(a_, a_);
  sim_.Run();
  EXPECT_EQ(sink_a_.received.size(), 1u);
}

// -------------------------------- RPC -------------------------------------

class EchoNode : public RpcNode {
 public:
  using RpcNode::RpcNode;
  void HandleMessage(Envelope env) override {
    requests++;
    if (respond) Reply(env, PingResponse{});
  }
  int requests = 0;
  bool respond = true;
};

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : sim_(6) {
    Topology topo;
    NodeId a = topo.AddNode({Region::kVirginia, 0, 0});
    NodeId b = topo.AddNode({Region::kVirginia, 0, 1});
    net_ = std::make_unique<Network>(sim_, std::move(topo));
    client_ = std::make_unique<EchoNode>(sim_, *net_, a);
    server_ = std::make_unique<EchoNode>(sim_, *net_, b);
  }
  sim::Simulation sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<EchoNode> client_, server_;
};

TEST_F(RpcTest, RequestResponse) {
  bool got = false;
  client_->Call(server_->id(), PingRequest{}, sim::kSecond,
                [&](Status s, const Message* m) {
                  EXPECT_TRUE(s.ok());
                  ASSERT_NE(m, nullptr);
                  EXPECT_TRUE(std::holds_alternative<PingResponse>(*m));
                  got = true;
                });
  sim_.Run();
  EXPECT_TRUE(got);
  EXPECT_EQ(server_->requests, 1);
}

TEST_F(RpcTest, TimeoutFiresWhenNoResponse) {
  server_->respond = false;
  bool timed_out = false;
  client_->Call(server_->id(), PingRequest{}, 100 * sim::kMillisecond,
                [&](Status s, const Message* m) {
                  EXPECT_TRUE(s.IsTimeout());
                  EXPECT_EQ(m, nullptr);
                  timed_out = true;
                });
  sim_.Run();
  EXPECT_TRUE(timed_out);
}

TEST_F(RpcTest, TimeoutFiresAcrossPartition) {
  net_->CutLink(client_->id(), server_->id());
  bool timed_out = false;
  client_->Call(server_->id(), PingRequest{}, 100 * sim::kMillisecond,
                [&](Status s, const Message*) {
                  timed_out = s.IsTimeout();
                });
  sim_.Run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(server_->requests, 0);
}

TEST_F(RpcTest, CallbackFiresExactlyOnce) {
  int fires = 0;
  client_->Call(server_->id(), PingRequest{}, sim::kSecond,
                [&](Status, const Message*) { fires++; });
  sim_.Run();
  EXPECT_EQ(fires, 1);
}

/// Answers each GetRequest with its own key as the value, after the next
/// delay from `delays`, and records every request's rpc_id.
class DelayedEcho : public RpcNode {
 public:
  using RpcNode::RpcNode;
  void HandleMessage(Envelope env) override {
    rpc_ids.push_back(env.rpc_id);
    sim::Duration delay = delays.at(rpc_ids.size() - 1);
    sim_.After(delay, [this, env = std::move(env)]() {
      GetResponse resp;
      resp.found = true;
      resp.value = std::get<GetRequest>(env.msg).key;
      Reply(env, resp);
    });
  }
  std::vector<sim::Duration> delays;
  std::vector<uint64_t> rpc_ids;
};

TEST(RpcSlotTest, LateResponseToReusedSlotIsDropped) {
  sim::Simulation sim(6);
  Topology topo;
  NodeId a = topo.AddNode({Region::kVirginia, 0, 0});
  NodeId b = topo.AddNode({Region::kVirginia, 0, 1});
  Network net(sim, std::move(topo));
  EchoNode client(sim, net, a);
  DelayedEcho server(sim, net, b);
  // The first answer comes long after its 100 ms timeout; the second call
  // takes over the freed slot and is still pending when that answer lands.
  server.delays = {200 * sim::kMillisecond, 300 * sim::kMillisecond};

  auto get = [](const char* key) {
    GetRequest req;
    req.key = key;
    return req;
  };
  int first_fires = 0;
  std::vector<std::string> second_values;
  client.Call(b, get("first"), 100 * sim::kMillisecond,
              [&](Status s, const Message* m) {
                first_fires++;
                EXPECT_TRUE(s.IsTimeout());
                EXPECT_EQ(m, nullptr);
                client.Call(b, get("second"), sim::kSecond,
                            [&](Status s2, const Message* m2) {
                              ASSERT_TRUE(s2.ok());
                              ASSERT_NE(m2, nullptr);
                              second_values.push_back(
                                  std::get<GetResponse>(*m2).value);
                            });
              });
  sim.Run();

  EXPECT_EQ(first_fires, 1);
  EXPECT_EQ(second_values, std::vector<std::string>{"second"});
  ASSERT_EQ(server.rpc_ids.size(), 2u);
  EXPECT_NE(server.rpc_ids[0], 0u);
  EXPECT_NE(server.rpc_ids[1], 0u);
  EXPECT_NE(server.rpc_ids[0], server.rpc_ids[1]);
  // Same slot (low half), later generation (high half).
  EXPECT_EQ(static_cast<uint32_t>(server.rpc_ids[0]),
            static_cast<uint32_t>(server.rpc_ids[1]));
}

TEST_F(RpcTest, OneWayNeedsNoResponse) {
  client_->SendOneWay(server_->id(), PingRequest{});
  sim_.Run();
  EXPECT_EQ(server_->requests, 1);
}

TEST(WireBytesTest, GrowsWithPayload) {
  PutRequest small;
  small.write.key = "k";
  small.write.value = "v";
  PutRequest large = small;
  large.write.value = std::string(1024, 'x');
  EXPECT_GT(WireBytes(Message{large}), WireBytes(Message{small}) + 1000);
}

TEST(WireBytesTest, CountsSiblingMetadata) {
  PutRequest base;
  base.write.key = "k";
  PutRequest with_sibs = base;
  for (int i = 0; i < 16; i++) {
    with_sibs.write.sibs.push_back("user000000" + std::to_string(i));
  }
  EXPECT_GT(WireBytes(Message{with_sibs}), WireBytes(Message{base}) + 100);
}

}  // namespace
}  // namespace hat::net
