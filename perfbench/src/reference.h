// A fixed unit of host work that shares no code with the program under test.
//
// On a shared host the CPU time of the same work varies from run to run by
// far more than a change worth measuring: the host's other tenants contend
// for caches, memory and power. Timing the reference unit next to each
// measured chunk gives the host's speed at that moment, and dividing the
// chunk's CPU time by it cancels what the two have in common. The unit mixes
// the kinds of work the simulator does: dependent loads over a table larger
// than the private caches, integer mixing over a small table, and node
// allocation in a balanced tree. It uses only memory it owns, allocated once,
// so the program's heap cannot change its cost.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace perfbench {

/// CPU seconds the reference unit is scaled to. A host cost divided by the
/// unit's measured time and multiplied by this reads in seconds of a host
/// on which the unit takes exactly this long.
inline constexpr double kReferenceNominalSeconds = 0.010;

class ReferenceUnit {
 public:
  ReferenceUnit();
  ~ReferenceUnit();

  ReferenceUnit(const ReferenceUnit&) = delete;
  ReferenceUnit& operator=(const ReferenceUnit&) = delete;

  /// Does the unit of work once; returns the process CPU seconds it took.
  /// Every call does the same work.
  double Seconds();

 private:
  uint64_t Chase(uint64_t steps);
  uint64_t Mix(uint64_t rounds, uint64_t h);
  uint64_t Churn(uint64_t inserts, uint64_t h);

  std::vector<uint32_t> next_;   ///< one random cycle over 8 MiB
  std::vector<uint64_t> table_;  ///< 256 KiB
  std::unique_ptr<std::byte[]> arena_;
  size_t arena_bytes_ = 0;
};

/// `cpu_s` scaled to the reference speed: cpu_s * nominal / reference_s.
inline double AtReferenceSpeed(double cpu_s, double reference_s) {
  return reference_s > 0 ? cpu_s * kReferenceNominalSeconds / reference_s
                         : cpu_s;
}

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
