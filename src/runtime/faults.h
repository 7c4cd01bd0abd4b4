// Deterministic, seeded fault injection for the Testbed. The scheduler is
// a pure function of (event list, seed, query sequence): element
// liveness depends only on virtual time, and per-packet impairment coins
// come from a splitmix64 counter hash — so two runs with the same seed
// and the same packet order replay bit-identically, which is what lets
// recovery times and drop counts be committed as a benchmark baseline.
//
// Fault taxonomy (the chaos spec grammar in parse()):
//   server:<i>@<at>          server i dies (permanent)
//   nic:<i>@<at>             SmartNIC i dies (permanent)
//   of@<at>[+<dur>]          OpenFlow switch link down (flap when dur given)
//   link:<i>@<at>[+<dur>]    ToR->server i link down (flap when dur given)
//   corrupt:<i>@<at>+<dur>[@<rate>]  per-packet corruption on server i's wire
//   dup:<i>@<at>+<dur>[@<rate>]      per-packet duplication
//   reorder:<i>@<at>+<dur>[@<rate>]  per-packet reordering (extra wire delay)
// Times are virtual milliseconds (an "ms" suffix is allowed); events are
// separated by ';'. Anything else after a number rejects the spec.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace lemur::runtime {

enum class FaultKind : std::uint8_t {
  kServerDeath,
  kSmartNicDeath,
  kOpenFlowDown,
  kTorLinkDown,
  kLinkCorrupt,
  kLinkDuplicate,
  kLinkReorder,
};

[[nodiscard]] const char* to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kServerDeath;
  int element = 0;         ///< Server / SmartNIC index; unused for OF.
  double at_ms = 0;        ///< Onset, virtual ms.
  double duration_ms = 0;  ///< Down/impairment window; 0 = permanent.
  double rate = 1.0;       ///< Per-packet probability for impairments.
};

class FaultScheduler {
 public:
  FaultScheduler(std::vector<FaultEvent> events, std::uint64_t seed);

  /// Death kinds are permanent regardless of duration.
  [[nodiscard]] bool server_dead(int server, std::uint64_t now_ns) const;
  [[nodiscard]] bool nic_dead(int nic, std::uint64_t now_ns) const;
  /// Link kinds honor duration (flap); 0 means down for good.
  [[nodiscard]] bool openflow_down(std::uint64_t now_ns) const;
  [[nodiscard]] bool tor_link_down(int server, std::uint64_t now_ns) const;

  enum class Impairment : std::uint8_t {
    kNone,
    kCorrupt,
    kDuplicate,
    kReorder,
  };

  /// Per-packet impairment verdict for a packet entering server's wire at
  /// `now_ns`. Consumes one deterministic coin per active impairment
  /// event, so the call sequence must itself be deterministic (it is: the
  /// simulator is single-threaded and packet order is seeded).
  [[nodiscard]] Impairment wire_impairment(int server, std::uint64_t now_ns);

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Parses the chaos spec grammar above; on failure returns nullopt and
  /// sets *error.
  static std::optional<std::vector<FaultEvent>> parse(const std::string& spec,
                                                      std::string* error);

 private:
  [[nodiscard]] bool active(const FaultEvent& e, std::uint64_t now_ns) const;

  std::vector<FaultEvent> events_;
  std::uint64_t seed_;
  std::uint64_t coin_counter_ = 0;
};

}  // namespace lemur::runtime
