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
// Each event hits one Element: server<i>, smartnic<i>, openflow, link<i>,
// or, for the three impairments, wire<i>.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace lemur::runtime {

/// One rack element that can fail: what a fault hits, what the Testbed
/// counts fault drops against, and what the recovery controller re-places
/// around. Kinds are declared in name order, so Elements sort like their
/// names except where two same-kind indices differ in digit count
/// (server2 < server10 here; "server10" < "server2" as strings).
struct Element {
  enum class Kind : std::uint8_t {
    kLink,      ///< The ToR->server `index` link.
    kOpenFlow,  ///< The OpenFlow switch (index 0).
    kServer,
    kSmartNic,
    kWire,      ///< Server `index`'s wire, under per-packet impairments.
  };
  Kind kind = Kind::kServer;
  int index = 0;

  /// "link0", "openflow", "server1", "smartnic0", "wire0".
  [[nodiscard]] std::string name() const;
  auto operator<=>(const Element&) const = default;
};

enum class FaultKind : std::uint8_t {
  kServerDeath,
  kSmartNicDeath,
  kOpenFlowDown,
  kTorLinkDown,
  kLinkCorrupt,
  kLinkDuplicate,
  kLinkReorder,
};

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

  /// Whether `element` is down at `now_ns`. Deaths (server, SmartNIC)
  /// are permanent regardless of duration; link kinds (ToR link,
  /// OpenFlow) honor it (flap), 0 meaning down for good. A wire is never
  /// down: wire_impairment() judges it per packet.
  [[nodiscard]] bool down(Element element, std::uint64_t now_ns) const;

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
