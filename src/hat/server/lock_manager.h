// LockManager: the strict two-phase-locking table of the Section 6.3
// "locking" baseline, with wait-die deadlock avoidance: an older transaction
// queues behind a conflicting lock, a younger one dies.
//
// The manager is a pure data structure over (key -> lock state): it holds no
// network or simulation references. Decisions are delivered through a
// Responder callback — immediately for grants and wait-die aborts, or later
// (from Release) for queued waiters — so the owner decides how responses
// travel (ReplicaServer replies over RPC; unit tests capture them directly).

#ifndef HAT_SERVER_LOCK_MANAGER_H_
#define HAT_SERVER_LOCK_MANAGER_H_

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "hat/net/message.h"
#include "hat/version/types.h"

namespace hat::server {

struct LockStats {
  uint64_t granted = 0;
  uint64_t queued = 0;
  uint64_t deaths = 0;  ///< wait-die aborts issued
};

class LockManager {
 public:
  using Responder =
      std::function<void(const net::Envelope&, const net::LockResponse&)>;

  explicit LockManager(Responder responder)
      : responder_(std::move(responder)) {}

  /// Processes a lock request. Exactly one response is eventually issued per
  /// request: granted / must_abort now, or granted later when a queued
  /// waiter unblocks. `env` is retained for queued requests and handed back
  /// to the responder verbatim.
  void Acquire(const net::Envelope& env, const net::LockRequest& req);

  /// Releases every lock `req.txn` holds on `req.keys`, purges it from wait
  /// queues (abort cleanup), and grants newly compatible waiters.
  void Release(const net::UnlockRequest& req);

  /// Drops all lock state (crash). Stats survive, mirroring ServerStats.
  void Clear() { locks_.clear(); }

  const LockStats& stats() const { return stats_; }
  size_t LockedKeyCount() const { return locks_.size(); }

 private:
  struct Waiter {
    Timestamp txn;
    bool exclusive;
    net::Envelope request;  // replied to on grant
  };
  struct LockState {
    std::optional<Timestamp> x_holder;
    std::set<Timestamp> s_holders;
    std::deque<Waiter> waiters;
  };

  void GrantWaiters(const Key& key);

  Responder responder_;
  LockStats stats_;
  std::map<Key, LockState> locks_;
};

}  // namespace hat::server

#endif  // HAT_SERVER_LOCK_MANAGER_H_
