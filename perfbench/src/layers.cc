#include "perfbench/src/layers.h"

#include <chrono>
#include <deque>
#include <type_traits>
#include <variant>

#include "hat/net/codec.h"
#include "hat/sim/simulation.h"
#include "hat/version/sharded_store.h"
#include "perfbench/src/metrics.h"

namespace perfbench {

namespace net = hat::net;
namespace sim = hat::sim;
using Clock = std::chrono::steady_clock;

namespace {

// Replay results flow here so the timed calls cannot be optimised away.
volatile uint64_t g_sink = 0;

double NsSince(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Runs `body` (which returns the number of items it processed) `reps`
/// times and reports the median ns per item.
template <typename Body>
double Repeat(int reps, Body&& body) {
  std::vector<double> per_item;
  for (int i = 0; i < reps; i++) {
    auto t0 = Clock::now();
    uint64_t items = body();
    double ns = NsSince(t0);
    if (items > 0) per_item.push_back(ns / static_cast<double>(items));
  }
  return Median(per_item);
}

}  // namespace

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

class Probe::Proxy : public net::MessageSink {
 public:
  Proxy(Probe* probe, net::NodeId id, net::MessageSink* inner)
      : probe_(probe), id_(id), inner_(inner) {}

  net::NodeId id() const { return id_; }
  net::MessageSink* inner() const { return inner_; }

  void OnMessage(net::Envelope env) override {
    if (!probe_->active_) {
      inner_->OnMessage(std::move(env));
      return;
    }
    probe_->Observe(env);
    auto t0 = Clock::now();
    inner_->OnMessage(std::move(env));
    probe_->server_time_.ns += NsSince(t0);
    probe_->server_time_.messages++;
  }

 private:
  Probe* probe_;
  net::NodeId id_;
  net::MessageSink* inner_;
};

Probe::Probe(hat::cluster::Deployment& deployment, uint64_t every,
             size_t cap)
    : deployment_(deployment),
      every_(every == 0 ? 1 : every),
      cap_(cap),
      family_seen_(std::variant_size_v<net::Message>, 0),
      family_kept_(std::variant_size_v<net::Message>, 0) {
  for (size_t i = 0; i < deployment.ServerCount(); i++) {
    auto id = static_cast<net::NodeId>(i);
    proxies_.push_back(
        std::make_unique<Proxy>(this, id, &deployment.server(id)));
  }
  for (auto& p : proxies_) deployment_.network().Register(p->id(), p.get());
}

Probe::~Probe() {
  for (auto& p : proxies_) deployment_.network().Register(p->id(), p->inner());
}

void Probe::Observe(const net::Envelope& env) {
  if (env.rpc_id != 0 && !env.is_response) rpc_requests_++;

  size_t family = env.msg.index();
  if (family_seen_[family]++ % every_ == 0 && family_kept_[family] < cap_) {
    family_kept_[family]++;
    sample_.envelopes.push_back(env);
  }

  auto install = [&](const hat::WriteRecord& w) {
    if (installs_seen_++ % every_ == 0 && sample_.installs.size() < cap_) {
      sample_.installs.push_back(w);
    }
  };
  auto key = [&](const hat::Key& k) {
    if (keys_seen_++ % every_ == 0 && sample_.keys.size() < cap_) {
      sample_.keys.push_back(k);
    }
  };
  auto get = [&](const net::GetRequest& g) {
    key(g.key);
    if (gets_seen_++ % every_ == 0 && sample_.get_keys.size() < cap_) {
      sample_.get_keys.push_back(g.key);
    }
  };
  auto put = [&](const net::PutRequest& p) {
    key(p.write.key);
    install(p.write);
  };

  std::visit(
      [&](const auto& m) {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, net::PutRequest>) {
          put(m);
        } else if constexpr (std::is_same_v<M, net::GetRequest>) {
          get(m);
        } else if constexpr (std::is_same_v<M, net::AntiEntropyBatch>) {
          for (const auto& w : m.writes) install(w);
        } else if constexpr (std::is_same_v<M, net::ScanRequest>) {
          if (scans_seen_++ % every_ == 0 && sample_.scans.size() < cap_) {
            sample_.scans.emplace_back(env.to, m);
          }
        } else if constexpr (std::is_same_v<M, net::ClientBatchRequest>) {
          for (const auto& op : m.ops) {
            if (const auto* p = std::get_if<net::PutRequest>(&op)) put(*p);
            if (const auto* g = std::get_if<net::GetRequest>(&op)) get(*g);
          }
        }
      },
      env.msg);
}

// ---------------------------------------------------------------------------
// Replays
// ---------------------------------------------------------------------------

CodecReplay ReplayCodec(const std::vector<net::Envelope>& envelopes,
                        int reps) {
  CodecReplay out;
  std::vector<std::string> frames;
  frames.reserve(envelopes.size());
  for (const net::Envelope& env : envelopes) {
    std::string frame;
    net::codec::EncodeEnvelope(env, &frame);
    if (frame.size() != net::codec::EncodedFrameSize(env)) out.ok = false;
    frames.push_back(std::move(frame));
  }

  std::string buf;
  out.encode_ns = Repeat(reps, [&]() {
    uint64_t bytes = 0;
    for (const net::Envelope& env : envelopes) {
      buf.clear();
      net::codec::EncodeEnvelope(env, &buf);
      bytes += buf.size();
    }
    g_sink = g_sink + bytes;
    return static_cast<uint64_t>(envelopes.size());
  });

  net::Envelope decoded;
  out.decode_ns = Repeat(reps, [&]() {
    for (const std::string& frame : frames) {
      if (!net::codec::DecodeEnvelope(frame, &decoded)) out.ok = false;
    }
    g_sink = g_sink + decoded.rpc_id;
    return static_cast<uint64_t>(frames.size());
  });

  out.wire_bytes_ns = Repeat(reps, [&]() {
    uint64_t bytes = 0;
    for (const net::Envelope& env : envelopes) bytes += net::WireBytes(env.msg);
    g_sink = g_sink + bytes;
    return static_cast<uint64_t>(envelopes.size());
  });
  return out;
}

double ReplayApply(const std::vector<hat::WriteRecord>& installs, int reps) {
  std::vector<double> per_item;
  for (int i = 0; i < reps; i++) {
    hat::version::ShardedStore store;
    auto t0 = Clock::now();
    uint64_t fresh = 0;
    for (const hat::WriteRecord& w : installs) fresh += store.Apply(w);
    double ns = NsSince(t0);
    g_sink = g_sink + fresh;
    if (!installs.empty()) {
      per_item.push_back(ns / static_cast<double>(installs.size()));
    }
  }
  return Median(per_item);
}

double ReplayReads(hat::cluster::Deployment& deployment,
                   const std::vector<hat::Key>& keys, int reps) {
  std::vector<const hat::version::ShardedStore*> stores;
  stores.reserve(keys.size());
  for (const hat::Key& k : keys) {
    stores.push_back(
        &deployment.server(deployment.ReplicaInCluster(k, 0)).good());
  }
  return Repeat(reps, [&]() {
    uint64_t found = 0;
    for (size_t i = 0; i < keys.size(); i++) {
      found += stores[i]->Read(keys[i]).found;
    }
    g_sink = g_sink + found;
    return static_cast<uint64_t>(keys.size());
  });
}

double ReplayScans(
    hat::cluster::Deployment& deployment,
    const std::vector<std::pair<net::NodeId, net::ScanRequest>>& scans,
    int reps) {
  return Repeat(reps, [&]() {
    uint64_t items = 0;
    for (const auto& [to, req] : scans) {
      deployment.server(to).good().ScanVisit(
          req.lo, req.hi, req.bound,
          [&items](const hat::Key&, hat::ReadVersion) { items++; });
    }
    return items;
  });
}

double ReplayReplicasOf(hat::cluster::Deployment& deployment,
                        const std::vector<hat::Key>& keys, int reps) {
  return Repeat(reps, [&]() {
    uint64_t replicas = 0;
    for (const hat::Key& k : keys) replicas += deployment.ReplicasOf(k).size();
    g_sink = g_sink + replicas;
    return static_cast<uint64_t>(keys.size());
  });
}

namespace {

// Self-rescheduling actors on one Simulation: each tick schedules its
// successor after 50..1049 us and, with probability rpcs / events, arms a
// one-second timeout the way RpcNode::Call does; the oldest armed timeout is
// cancelled once more than kInFlight are outstanding, as a reply would.
class ScheduleCancelLoop {
 public:
  ScheduleCancelLoop(uint64_t seed, uint64_t target, double rpc_share)
      : sim_(seed), rng_(seed), target_(target), rpc_share_(rpc_share) {}

  uint64_t Run() {
    constexpr int kActors = 256;
    for (int i = 0; i < kActors; i++) {
      sim_.After(1 + rng_.NextBelow(1000), [this]() { Tick(); });
    }
    sim_.Run();
    return sim_.events_processed();
  }

 private:
  static constexpr size_t kInFlight = 64;

  void Tick() {
    if (++ticks_ >= target_) return;
    if (rng_.NextDouble() < rpc_share_) {
      timeouts_.push_back(sim_.After(sim::kSecond, []() {}));
      if (timeouts_.size() > kInFlight) {
        sim_.Cancel(timeouts_.front());
        timeouts_.pop_front();
      }
    }
    sim_.After(50 + rng_.NextBelow(1000), [this]() { Tick(); });
  }

  sim::Simulation sim_;
  hat::Rng rng_;
  uint64_t target_;
  double rpc_share_;
  uint64_t ticks_ = 0;
  std::deque<sim::EventId> timeouts_;
};

}  // namespace

double ReplayScheduleCancel(uint64_t events, uint64_t rpcs, uint64_t seed,
                            int reps) {
  double share =
      events > 0 ? static_cast<double>(rpcs) / static_cast<double>(events) : 0;
  std::vector<double> per_event;
  for (int i = 0; i < reps; i++) {
    ScheduleCancelLoop loop(seed, events, share);
    auto t0 = Clock::now();
    uint64_t processed = loop.Run();
    double ns = NsSince(t0);
    if (processed > 0) per_event.push_back(ns / static_cast<double>(processed));
  }
  return Median(per_event);
}

}  // namespace perfbench
