// Per-layer measurement from outside the program.
//
// Probe binds a timing proxy (a net::MessageSink) with Network::Register in
// front of every server's OnMessage, so the host time of each envelope a
// server receives is charged to the replica layer. (The clients belong to
// the harness driver, which does not expose them, so they are not proxied.)
// The proxy also keeps a deterministic sample of what reaches the servers
// in the window (every Nth envelope per message family, every Nth installed
// write, get key and scan), which the replays time against each layer's
// public functions: the codec, a fresh ShardedStore, the final replica
// stores, and Deployment::ReplicasOf. The probe schedules no events, so a
// probed run simulates the same execution as an unprobed one.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "hat/cluster/deployment.h"
#include "hat/net/message.h"
#include "hat/net/network.h"

namespace perfbench {

/// What the proxies keep, every `every`-th item per kind, up to `cap` each.
struct Sample {
  /// Per message family, of the envelopes servers receive.
  std::vector<hat::net::Envelope> envelopes;
  std::vector<hat::WriteRecord> installs;     ///< puts and AE records
  std::vector<hat::Key> get_keys;
  std::vector<hat::Key> keys;  ///< every get/put key, for placement
  std::vector<std::pair<hat::net::NodeId, hat::net::ScanRequest>> scans;
};

/// Host time spent inside the servers' OnMessage.
struct SinkTime {
  uint64_t messages = 0;
  double ns = 0;
  double NsPerMessage() const {
    return messages > 0 ? ns / static_cast<double>(messages) : 0;
  }
};

class Probe {
 public:
  /// Proxies every server of `deployment`.
  Probe(hat::cluster::Deployment& deployment, uint64_t every, size_t cap);
  /// Restores the original sinks.
  ~Probe();

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Timing and sampling happen only while active (the measured window).
  void set_active(bool active) { active_ = active; }

  const SinkTime& server_time() const { return server_time_; }
  /// RPC requests delivered in the window (each armed and cancelled one
  /// timeout event at its caller).
  uint64_t rpc_requests() const { return rpc_requests_; }
  const Sample& sample() const { return sample_; }

 private:
  class Proxy;
  void Observe(const hat::net::Envelope& env);

  hat::cluster::Deployment& deployment_;
  uint64_t every_;
  size_t cap_;
  bool active_ = false;
  std::vector<std::unique_ptr<Proxy>> proxies_;
  SinkTime server_time_;
  uint64_t rpc_requests_ = 0;
  Sample sample_;
  std::vector<uint64_t> family_seen_;
  std::vector<size_t> family_kept_;
  uint64_t installs_seen_ = 0;
  uint64_t gets_seen_ = 0;
  uint64_t keys_seen_ = 0;
  uint64_t scans_seen_ = 0;
};

// Each replay runs `reps` times and returns the median nanoseconds per item
// (0 when there are no items).

/// EncodeEnvelope / DecodeEnvelope / WireBytes over the sampled envelopes.
/// `ok` turns false if any frame fails to decode or its size disagrees with
/// EncodedFrameSize.
struct CodecReplay {
  double encode_ns = 0;
  double decode_ns = 0;
  double wire_bytes_ns = 0;
  bool ok = true;
};
CodecReplay ReplayCodec(const std::vector<hat::net::Envelope>& envelopes,
                        int reps);

/// Applies the sampled installs, in order, to a fresh ShardedStore.
double ReplayApply(const std::vector<hat::WriteRecord>& installs, int reps);
/// Reads the sampled get keys from their cluster-0 replica's final store.
double ReplayReads(hat::cluster::Deployment& deployment,
                   const std::vector<hat::Key>& keys, int reps);
/// Re-runs the sampled scans against their target's final store; per item.
double ReplayScans(
    hat::cluster::Deployment& deployment,
    const std::vector<std::pair<hat::net::NodeId, hat::net::ScanRequest>>&
        scans,
    int reps);
/// Deployment::ReplicasOf over the sampled keys.
double ReplayReplicasOf(hat::cluster::Deployment& deployment,
                        const std::vector<hat::Key>& keys, int reps);
/// A standalone Simulation::At / Cancel / Run loop processing `events`
/// events, of which a share rpcs / events each arm and later cancel a
/// timeout (as RpcNode::Call does); per processed event.
double ReplayScheduleCancel(uint64_t events, uint64_t rpcs, uint64_t seed,
                            int reps);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
