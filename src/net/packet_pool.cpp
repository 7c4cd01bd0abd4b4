#include "src/net/packet_pool.h"

#include <cassert>

namespace lemur::net {

Packet PacketPool::acquire() {
  if (free_.empty()) {
    ++stats_.allocated;
    return Packet{};
  }
  Packet pkt = std::move(free_.back());
  free_.pop_back();
  pkt.reset_for_reuse();
  pkt.pool_released_ = false;
  ++stats_.reused;
  return pkt;
}

void PacketPool::release(Packet&& pkt) {
  if (pkt.pool_released_) {
    // The caller's object was already handed to the pool once; what it
    // holds now is a moved-from husk. Recycling it would put an aliased
    // (and empty) packet back in circulation.
    ++stats_.double_release;
    assert(!"PacketPool double release");
    return;
  }
  pkt.pool_released_ = true;
  if (free_.size() >= kMaxFree) {
    ++stats_.discarded;
    return;
  }
  ++stats_.recycled;
  free_.push_back(std::move(pkt));
}

void PacketPool::release_all(PacketBatch&& batch) {
  for (auto& pkt : batch.packets()) release(std::move(pkt));
  batch.clear();
}

}  // namespace lemur::net
