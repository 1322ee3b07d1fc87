// SlotTable: a free-listed vector of values addressed by generation-checked
// ids, (gen << 32) | slot. Removing a value moves its slot to the next
// generation, so an id that outlived its value is stale and finds nothing,
// even after the slot is reused. No hashing: insert, lookup and remove are
// O(1) vector operations. The event queue's callbacks and RpcNode's
// outstanding calls both live in one.

#ifndef HAT_COMMON_SLOT_TABLE_H_
#define HAT_COMMON_SLOT_TABLE_H_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace hat {

template <class T>
class SlotTable {
 public:
  /// Stores `value` in a free slot and returns its id, which is never 0.
  uint64_t Insert(T value) {
    uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<uint32_t>(entries_.size());
      entries_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Entry& e = entries_[slot];
    e.value = std::move(value);
    e.gen++;  // odd: live
    return (static_cast<uint64_t>(e.gen) << 32) | slot;
  }

  /// The live value `id` names, or nullptr if it was taken or never issued.
  T* Find(uint64_t id) {
    const uint32_t slot = SlotOf(id);
    if (slot >= entries_.size()) return nullptr;
    Entry& e = entries_[slot];
    if (e.gen != id >> 32 || (e.gen & 1) == 0) return nullptr;
    return &e.value;
  }

  /// Removes and returns the live value in `slot`; its id becomes stale.
  T Take(uint32_t slot) {
    Entry& e = entries_[slot];
    assert(e.gen & 1);
    e.gen++;  // even: free
    free_.push_back(slot);
    return std::exchange(e.value, T{});
  }

  static uint32_t SlotOf(uint64_t id) { return static_cast<uint32_t>(id); }

 private:
  struct Entry {
    T value{};
    // Odd while the slot holds a value, even while it is free: every id
    // carries an odd generation (so none is 0), and a free slot matches no
    // id, issued or forged.
    uint32_t gen = 0;
  };
  std::vector<Entry> entries_;
  std::vector<uint32_t> free_;
};

}  // namespace hat

#endif  // HAT_COMMON_SLOT_TABLE_H_
