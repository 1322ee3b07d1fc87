// RpcNode: base class for network actors (servers, clients, probes) that
// provides request/response RPC with timeouts on top of Network's one-way
// delivery. A timed-out RPC surfaces as Status::Timeout — in HAT vocabulary,
// the trigger for an external abort or a retry at another replica.

#ifndef HAT_NET_RPC_H_
#define HAT_NET_RPC_H_

#include <functional>
#include <utility>

#include "hat/common/slot_table.h"
#include "hat/common/status.h"
#include "hat/net/network.h"
#include "hat/sim/simulation.h"

namespace hat::net {

class RpcNode : public MessageSink {
 public:
  /// Completion callback: OK with a response message, or an error status
  /// (Timeout) with nullptr.
  using RpcCallback = std::function<void(Status, const Message*)>;

  RpcNode(sim::Simulation& sim, Network& net, NodeId id)
      : sim_(sim), net_(net), id_(id) {
    net_.Register(id_, this);
  }

  NodeId id() const { return id_; }

  /// Issues a request; `cb` fires exactly once (response or timeout).
  /// `trace` stamps the envelope when active (observability sampling).
  void Call(NodeId to, Message request, sim::Duration timeout, RpcCallback cb,
            obs::TraceContext trace = {});

  /// Fire-and-forget one-way message.
  void SendOneWay(NodeId to, Message msg, obs::TraceContext trace = {});

  /// Replies to a request envelope. The reply inherits the request's trace
  /// context, so a traced request yields a traced response.
  void Reply(const Envelope& request, Message response);

  void OnMessage(Envelope env) final;

 protected:
  /// Invoked for incoming requests and one-way messages (not responses).
  /// Takes the envelope by value so a handler can keep it without a copy.
  virtual void HandleMessage(Envelope env) = 0;

  sim::Simulation& sim_;
  Network& net_;

 private:
  struct PendingRpc {
    RpcCallback cb;
    sim::EventId timeout_event = 0;
  };

  /// Completes the outstanding call `rpc_id`, cancelling its timeout, and
  /// returns its callback; null if the call already completed.
  RpcCallback Complete(uint64_t rpc_id);

  NodeId id_;
  // Outstanding calls, keyed by rpc_id: a SlotTable id, so never 0 (the
  // one-way marker), and a late response or timeout for a call that already
  // completed finds nothing even when its slot is reused.
  SlotTable<PendingRpc> pending_;
};

}  // namespace hat::net

#endif  // HAT_NET_RPC_H_
