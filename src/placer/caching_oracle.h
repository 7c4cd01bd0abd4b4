// Memoizing wrapper around SwitchOracle::check. Every search path (the
// heuristic's demotion loop, the brute-force beam cross product, latency
// repair, incremental re-placement after a fault) probes overlapping PISA
// node sets, and the production oracle runs a full P4 compile per query —
// so repeats are answered from a hashed table instead.
//
// place() wraps its oracle in one of these per call. The recovery
// controller holds a *persistent* instance across re-placements, so after
// a fault only the affected chains' new node sets miss the cache; the
// unaffected subgroups' probes are answered without touching the
// compiler. The cache key is the PISA node-set vector only, so it is
// valid while the chain list is fixed — which holds for one controller
// (the degradation ladder changes SLO rates, not graphs).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/placer/oracle.h"
#include "src/placer/types.h"

namespace lemur::placer {

class CachingOracle final : public SwitchOracle {
 public:
  explicit CachingOracle(SwitchOracle& inner) : inner_(inner) {}

  Check check(const std::vector<chain::ChainSpec>& chains,
              const std::vector<std::vector<int>>& pisa_nodes) override {
    ++stats_.oracle_calls;
    auto it = cache_.find(pisa_nodes);
    if (it != cache_.end()) {
      ++stats_.oracle_hits;
      return it->second;
    }
    ++stats_.oracle_misses;
    Check result = inner_.check(chains, pisa_nodes);
    cache_.emplace(pisa_nodes, result);
    return result;
  }

  /// Cumulative counters over the wrapper's lifetime.
  [[nodiscard]] const PlacementStats& stats() const { return stats_; }

 private:
  struct KeyHash {
    std::size_t operator()(const std::vector<std::vector<int>>& key) const {
      std::uint64_t h = 1469598103934665603ull;
      const auto mix = [&h](std::uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      };
      for (const auto& nodes : key) {
        mix(nodes.size());
        for (const int n : nodes) mix(static_cast<std::uint64_t>(n));
      }
      return static_cast<std::size_t>(h);
    }
  };

  SwitchOracle& inner_;
  std::unordered_map<std::vector<std::vector<int>>, Check, KeyHash> cache_;
  PlacementStats stats_;
};

}  // namespace lemur::placer
