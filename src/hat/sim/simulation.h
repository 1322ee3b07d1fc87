// Deterministic discrete-event simulation core.
//
// All distributed components in hatkv (servers, clients, the network) are
// actors scheduled on a single virtual clock. Events at equal timestamps are
// ordered by insertion sequence, so a given seed always produces an identical
// execution — the experiments in bench/ are exactly reproducible.

#ifndef HAT_SIM_SIMULATION_H_
#define HAT_SIM_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "hat/common/rng.h"
#include "hat/common/slot_table.h"

namespace hat::sim {

/// Virtual time in microseconds since simulation start.
using SimTime = uint64_t;

/// Durations are also microseconds.
using Duration = uint64_t;

constexpr Duration kMicrosecond = 1;
constexpr Duration kMillisecond = 1000;
constexpr Duration kSecond = 1000 * 1000;

/// Handle to a scheduled event; can be used to cancel it. A SlotTable id, so
/// an id that outlived its event is stale.
using EventId = uint64_t;

/// The event loop. Not thread-safe by design: determinism requires a single
/// driving thread.
class Simulation {
 public:
  using Callback = std::function<void()>;

  explicit Simulation(uint64_t seed = 42) : rng_(seed) {}

  /// Current virtual time.
  SimTime Now() const { return now_; }

  /// Schedules `cb` at absolute virtual time `t` (>= Now()). Returns an id
  /// usable with Cancel().
  EventId At(SimTime t, Callback cb);

  /// Schedules `cb` after `delay` from now.
  EventId After(Duration delay, Callback cb) { return At(now_ + delay, std::move(cb)); }

  /// Cancels a pending event. Cancelling an already-fired or unknown event is
  /// a no-op. Returns true if the event was pending.
  bool Cancel(EventId id);

  /// Runs until the event queue drains or `limit` is reached (whichever is
  /// first). Returns the number of events processed.
  uint64_t Run(SimTime limit = std::numeric_limits<SimTime>::max());

  /// Runs until virtual time reaches `t` (events at exactly t are processed).
  uint64_t RunUntil(SimTime t) { return Run(t); }

  /// Processes exactly one event. Returns false if the queue is empty.
  /// Used by synchronous facades that need to run "until X happens".
  bool Step();

  /// Number of events processed since construction.
  uint64_t events_processed() const { return events_processed_; }

  /// True if no events remain.
  bool Idle() const { return heap_.empty(); }

  /// Root RNG for the simulation; components should Fork() children from it
  /// at setup time so that adding a component does not perturb others.
  Rng& rng() { return rng_; }

 private:
  // The queue is a binary min-heap of small trivially-copyable entries
  // ordered by (time, seq); callbacks stay put in a slot table. Each slot's
  // heap position is tracked, so Cancel removes the entry and the heap only
  // ever holds live events.
  struct HeapEntry {
    SimTime time;
    uint64_t seq;  // FIFO tie-break for equal timestamps
    uint32_t slot;
  };

  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  std::vector<HeapEntry> heap_;
  SlotTable<Callback> pending_;
  // By slot: the index of that pending event's entry in heap_. Kept apart
  // from the callbacks so heap moves touch a dense array.
  std::vector<uint32_t> heap_pos_;
  Rng rng_;

  /// Places `e` at heap position `pos`, keeping its slot's back-pointer.
  void Place(size_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    heap_pos_[e.slot] = static_cast<uint32_t>(pos);
  }
  void SiftUp(size_t pos, HeapEntry e);
  void SiftDown(size_t pos, HeapEntry e);
  /// Removes the heap entry at `pos` and frees its slot, returning the
  /// event's callback.
  Callback Remove(size_t pos);

  /// Pops the earliest event and runs it. Requires a non-empty heap.
  void PopAndFire();
};

}  // namespace hat::sim

#endif  // HAT_SIM_SIMULATION_H_
