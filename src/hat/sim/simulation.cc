#include "hat/sim/simulation.h"

#include <algorithm>
#include <cassert>

namespace hat::sim {

EventId Simulation::At(SimTime t, Callback cb) {
  assert(t >= now_ && "cannot schedule into the past");
  if (t < now_) t = now_;
  const EventId id = pending_.Insert(std::move(cb));
  const uint32_t slot = SlotTable<Callback>::SlotOf(id);
  if (slot >= heap_pos_.size()) heap_pos_.resize(slot + 1);
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, HeapEntry{t, next_seq_++, slot});
  return id;
}

bool Simulation::Cancel(EventId id) {
  if (pending_.Find(id) == nullptr) return false;
  Remove(heap_pos_[SlotTable<Callback>::SlotOf(id)]);
  return true;
}

void Simulation::SiftUp(size_t pos, HeapEntry e) {
  while (pos > 0) {
    size_t parent = (pos - 1) / 2;
    if (!Before(e, heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, e);
}

void Simulation::SiftDown(size_t pos, HeapEntry e) {
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) child++;
    if (!Before(heap_[child], e)) break;
    Place(pos, heap_[child]);
    pos = child;
  }
  Place(pos, e);
}

Simulation::Callback Simulation::Remove(size_t pos) {
  Callback cb = pending_.Take(heap_[pos].slot);
  HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    if (pos > 0 && Before(last, heap_[(pos - 1) / 2])) {
      SiftUp(pos, last);
    } else {
      SiftDown(pos, last);
    }
  }
  return cb;
}

void Simulation::PopAndFire() {
  now_ = heap_.front().time;
  Callback cb = Remove(0);
  cb();
  events_processed_++;
}

bool Simulation::Step() {
  if (heap_.empty()) return false;
  PopAndFire();
  return true;
}

uint64_t Simulation::Run(SimTime limit) {
  uint64_t processed = 0;
  while (!heap_.empty() && heap_.front().time <= limit) {
    PopAndFire();
    processed++;
  }
  // Advance the clock to the limit when asked to run to a horizon, so a
  // subsequent After() is relative to the horizon, matching wall-clock use.
  if (limit != std::numeric_limits<SimTime>::max()) {
    now_ = std::max(now_, limit);
  }
  return processed;
}

}  // namespace hat::sim
