#include "perfbench/src/reference.h"

#include <map>
#include <memory_resource>
#include <utility>

#include "perfbench/src/workload.h"

namespace perfbench {

namespace {

constexpr size_t kChaseEntries = size_t{1} << 21;  // 8 MiB of uint32_t
constexpr size_t kTableEntries = size_t{1} << 15;  // 256 KiB of uint64_t
constexpr size_t kArenaBytes = size_t{8} << 20;
constexpr uint64_t kChaseSteps = 20000;
constexpr uint64_t kMixRounds = 250000;
constexpr uint64_t kChurnInserts = 12000;
constexpr size_t kChurnLive = 2000;

uint64_t Lcg(uint64_t x) {
  return x * 6364136223846793005ull + 1442695040888963407ull;
}

volatile uint64_t g_sink;

}  // namespace

ReferenceUnit::ReferenceUnit()
    : next_(kChaseEntries),
      table_(kTableEntries),
      arena_(std::make_unique<std::byte[]>(kArenaBytes)),
      arena_bytes_(kArenaBytes) {
  // Sattolo's shuffle: a single cycle through every entry, so the chase
  // visits the whole table in an order the prefetchers cannot follow.
  for (size_t i = 0; i < kChaseEntries; i++) {
    next_[i] = static_cast<uint32_t>(i);
  }
  uint64_t x = 0x2545f4914f6cdd1dull;
  for (size_t i = kChaseEntries - 1; i > 0; i--) {
    x = Lcg(x);
    size_t j = static_cast<size_t>((x >> 33) % i);
    std::swap(next_[i], next_[j]);
  }
  for (uint64_t& v : table_) {
    x = Lcg(x);
    v = x;
  }
}

ReferenceUnit::~ReferenceUnit() = default;

uint64_t ReferenceUnit::Chase(uint64_t steps) {
  uint32_t i = 0;
  for (uint64_t k = 0; k < steps; k++) i = next_[i];
  return i;
}

uint64_t ReferenceUnit::Mix(uint64_t rounds, uint64_t h) {
  for (uint64_t k = 0; k < rounds; k++) {
    h ^= table_[h & (kTableEntries - 1)];
    h *= 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  return h;
}

uint64_t ReferenceUnit::Churn(uint64_t inserts, uint64_t h) {
  // A fresh pool over the unit's own arena each time, so every call
  // allocates the same way and none of it touches the program's heap.
  std::pmr::monotonic_buffer_resource arena(arena_.get(), arena_bytes_,
                                            std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&arena);
  std::pmr::map<uint64_t, std::pmr::vector<char>> tree(&pool);
  uint64_t x = h;
  for (uint64_t k = 0; k < inserts; k++) {
    x = Lcg(x);
    tree.try_emplace(x >> 40, 64 + (x & 255), static_cast<char>(k));
    if (tree.size() > kChurnLive) tree.erase(tree.begin());
  }
  return x + tree.size();
}

double ReferenceUnit::Seconds() {
  double start = ProcessCpuSeconds();
  uint64_t h = Chase(kChaseSteps);
  h = Mix(kMixRounds, h);
  h = Churn(kChurnInserts, h);
  g_sink = h;
  return ProcessCpuSeconds() - start;
}

}  // namespace perfbench
