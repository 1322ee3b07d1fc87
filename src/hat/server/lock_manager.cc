#include "hat/server/lock_manager.h"

namespace hat::server {

void LockManager::Acquire(const net::Envelope& env,
                          const net::LockRequest& req) {
  LockState& state = locks_[req.key];

  auto grant = [&]() {
    if (req.exclusive) {
      state.s_holders.erase(req.txn);  // S->X upgrade
      state.x_holder = req.txn;
    } else {
      state.s_holders.insert(req.txn);
    }
    stats_.granted++;
    responder_(env, net::LockResponse{/*granted=*/true, /*must_abort=*/false});
  };

  // Re-entrant / already-held cases.
  if (state.x_holder == req.txn) {
    grant();
    return;
  }
  if (!req.exclusive && state.s_holders.count(req.txn)) {
    grant();
    return;
  }

  // Conflicting transactions: current incompatible holders, plus queued
  // exclusive waiters (new shared requests must not overtake a waiting
  // writer — otherwise a contended upgrade starves forever behind an
  // ever-replenished reader population).
  std::set<Timestamp> conflicts;
  if (req.exclusive) {
    if (state.x_holder) conflicts.insert(*state.x_holder);
    for (const auto& s : state.s_holders) {
      if (s != req.txn) conflicts.insert(s);
    }
    // Sole-shared-holder upgrade is permitted.
    if (!state.x_holder && state.s_holders.size() == 1 &&
        state.s_holders.count(req.txn)) {
      conflicts.clear();
    }
  } else {
    if (state.x_holder) conflicts.insert(*state.x_holder);
  }
  for (const auto& w : state.waiters) {
    if (w.exclusive && w.txn != req.txn) conflicts.insert(w.txn);
  }
  if (conflicts.empty()) {
    grant();
    return;
  }

  // Wait-die: the requester may wait only if it is older (smaller
  // timestamp) than every conflicting transaction; otherwise it dies.
  if (req.txn < *conflicts.begin()) {
    stats_.queued++;
    state.waiters.push_back(Waiter{req.txn, req.exclusive, env});
  } else {
    stats_.deaths++;
    responder_(env, net::LockResponse{/*granted=*/false, /*must_abort=*/true});
  }
}

void LockManager::Release(const net::UnlockRequest& req) {
  for (const auto& key : req.keys) {
    auto it = locks_.find(key);
    if (it == locks_.end()) continue;
    LockState& state = it->second;
    if (state.x_holder == req.txn) state.x_holder.reset();
    state.s_holders.erase(req.txn);
    // Also purge this txn from the wait queue (abort cleanup).
    for (auto w = state.waiters.begin(); w != state.waiters.end();) {
      w = (w->txn == req.txn) ? state.waiters.erase(w) : std::next(w);
    }
    GrantWaiters(key);
    if (!state.x_holder && state.s_holders.empty() && state.waiters.empty()) {
      locks_.erase(it);
    }
  }
}

void LockManager::GrantWaiters(const Key& key) {
  auto it = locks_.find(key);
  if (it == locks_.end()) return;
  LockState& state = it->second;
  while (!state.waiters.empty()) {
    Waiter& w = state.waiters.front();
    // Re-entrant compatibility: a waiter whose transaction already holds the
    // lock (e.g. a duplicate request after an RPC timeout raced with the
    // original grant) must be granted, not wedged behind itself.
    bool compatible;
    if (w.exclusive) {
      compatible = (!state.x_holder || *state.x_holder == w.txn) &&
                   (state.s_holders.empty() ||
                    (state.s_holders.size() == 1 &&
                     state.s_holders.count(w.txn)));
    } else {
      compatible = !state.x_holder || *state.x_holder == w.txn;
    }
    if (!compatible) break;
    bool exclusive = w.exclusive;
    if (exclusive) {
      state.s_holders.erase(w.txn);
      state.x_holder = w.txn;
    } else {
      state.s_holders.insert(w.txn);
    }
    stats_.granted++;
    responder_(w.request, net::LockResponse{/*granted=*/true, false});
    state.waiters.pop_front();
    if (exclusive) break;  // X admits nobody else
  }
}

}  // namespace hat::server
