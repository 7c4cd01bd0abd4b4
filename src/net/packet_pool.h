// Arena of recycled Packet objects. Every platform hop in the simulated
// rack used to pay a malloc/free pair per packet (frame buffer + hop
// vector); the pool keeps dead packets on a free list and hands them back
// with their buffer capacities intact, so steady-state traffic allocates
// nothing. Single-threaded, like the simulator's packet path.
//
// Hardening: releasing the same Packet object twice is detected via a
// released-flag the pool maintains on the packet (debug builds assert,
// release builds discard the duplicate and count it), and exhaustion is
// never fatal — an empty free list falls back to heap allocation,
// counted as `allocated` so benchmarks can see a cold pool.
#pragma once

#include <cstdint>
#include <vector>

#include "src/net/batch.h"
#include "src/net/packet.h"

namespace lemur::net {

class PacketPool {
 public:
  /// Free-list cap: beyond this, released packets are simply destroyed
  /// (bounds memory when a run ends with large queue residue).
  static constexpr std::size_t kMaxFree = 1 << 16;

  /// Pops a recycled packet (reset to a just-constructed state, capacity
  /// retained) or default-constructs one when the free list is empty —
  /// exhaustion degrades to heap allocation, never failure.
  [[nodiscard]] Packet acquire();

  /// Returns a dead packet to the free list. Releasing the same object a
  /// second time (a moved-from husk) asserts in debug builds and is
  /// counted + discarded in release builds.
  void release(Packet&& pkt);

  /// Releases every packet in the batch and clears it.
  void release_all(PacketBatch&& batch);

  struct Stats {
    std::uint64_t allocated = 0;  ///< acquire() with an empty free list.
    std::uint64_t reused = 0;     ///< acquire() served from the free list.
    std::uint64_t recycled = 0;   ///< release() kept the packet.
    std::uint64_t discarded = 0;  ///< release() destroyed it (list full).
    std::uint64_t double_release = 0;  ///< Duplicate releases rejected.
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t free_size() const { return free_.size(); }

 private:
  std::vector<Packet> free_;
  Stats stats_;
};

}  // namespace lemur::net
