#include "hat/net/rpc.h"

namespace hat::net {

void RpcNode::Call(NodeId to, Message request, sim::Duration timeout,
                   RpcCallback cb, obs::TraceContext trace) {
  const uint64_t rpc_id = pending_.Insert(PendingRpc{std::move(cb)});
  pending_.Find(rpc_id)->timeout_event = sim_.After(timeout, [this, rpc_id]() {
    RpcCallback cb = Complete(rpc_id);
    if (cb) cb(Status::Timeout("rpc timed out"), nullptr);
  });
  net_.Send(Envelope{id_, to, rpc_id, /*is_response=*/false,
                     std::move(request), trace});
}

RpcNode::RpcCallback RpcNode::Complete(uint64_t rpc_id) {
  PendingRpc* call = pending_.Find(rpc_id);
  if (call == nullptr) return nullptr;
  sim_.Cancel(call->timeout_event);
  return pending_.Take(SlotTable<PendingRpc>::SlotOf(rpc_id)).cb;
}

void RpcNode::SendOneWay(NodeId to, Message msg, obs::TraceContext trace) {
  net_.Send(Envelope{id_, to, /*rpc_id=*/0, /*is_response=*/false,
                     std::move(msg), trace});
}

void RpcNode::Reply(const Envelope& request, Message response) {
  if (request.rpc_id == 0) return;  // caller did not expect a response
  net_.Send(Envelope{id_, request.from, request.rpc_id, /*is_response=*/true,
                     std::move(response), request.trace});
}

void RpcNode::OnMessage(Envelope env) {
  if (env.is_response) {
    RpcCallback cb = Complete(env.rpc_id);
    if (cb) cb(Status::Ok(), &env.msg);  // else it raced with the timeout
    return;
  }
  HandleMessage(std::move(env));
}

}  // namespace hat::net
