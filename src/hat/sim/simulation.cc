#include "hat/sim/simulation.h"

#include <algorithm>
#include <cassert>

namespace hat::sim {

EventId Simulation::At(SimTime t, Callback cb) {
  assert(t >= now_ && "cannot schedule into the past");
  if (t < now_) t = now_;
  EventId id = next_id_++;
  queue_.push(Event{t, next_seq_++, id, std::move(cb)});
  pending_.insert(id);
  return id;
}

bool Simulation::Cancel(EventId id) { return pending_.erase(id) == 1; }

bool Simulation::PopAndFire() {
  const Event& top = queue_.top();
  Event ev{top.time, top.seq, top.id, std::move(const_cast<Event&>(top).cb)};
  queue_.pop();
  if (pending_.erase(ev.id) == 0) return false;  // cancelled
  now_ = ev.time;
  ev.cb();
  events_processed_++;
  return true;
}

bool Simulation::Step() {
  while (!queue_.empty()) {
    if (PopAndFire()) return true;
  }
  return false;
}

uint64_t Simulation::Run(SimTime limit) {
  uint64_t processed = 0;
  while (!queue_.empty() && queue_.top().time <= limit) {
    if (PopAndFire()) processed++;
  }
  // Advance the clock to the limit when asked to run to a horizon, so a
  // subsequent After() is relative to the horizon, matching wall-clock use.
  if (limit != std::numeric_limits<SimTime>::max()) {
    now_ = std::max(now_, limit);
  }
  return processed;
}

}  // namespace hat::sim
