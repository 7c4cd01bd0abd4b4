#include "src/runtime/faults.h"

#include <charconv>
#include <string_view>

namespace lemur::runtime {
namespace {

constexpr double kNsPerMs = 1e6;

/// splitmix64 finalizer: the coin source for per-packet impairments.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Parses all of `text` as a number, after dropping an optional `suffix`;
/// false when anything else is left over.
template <typename T>
bool parse_number(std::string_view text, T& out,
                  std::string_view suffix = {}) {
  if (!suffix.empty() && text.ends_with(suffix)) {
    text.remove_suffix(suffix.size());
  }
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

std::uint64_t onset_ns(const FaultEvent& e) {
  return static_cast<std::uint64_t>(e.at_ms * kNsPerMs);
}

/// The element a fault event takes down; none for wire impairments,
/// which degrade a wire per packet instead.
std::optional<Element> downed(const FaultEvent& e) {
  using Kind = Element::Kind;
  switch (e.kind) {
    case FaultKind::kServerDeath: return Element{Kind::kServer, e.element};
    case FaultKind::kSmartNicDeath: return Element{Kind::kSmartNic, e.element};
    case FaultKind::kOpenFlowDown: return Element{Kind::kOpenFlow, 0};
    case FaultKind::kTorLinkDown: return Element{Kind::kLink, e.element};
    default: return std::nullopt;
  }
}

}  // namespace

std::string Element::name() const {
  static constexpr const char* kNames[] = {"link", "openflow", "server",
                                           "smartnic", "wire"};
  const std::string base = kNames[static_cast<std::size_t>(kind)];
  return kind == Kind::kOpenFlow ? base : base + std::to_string(index);
}

FaultScheduler::FaultScheduler(std::vector<FaultEvent> events,
                               std::uint64_t seed)
    : events_(std::move(events)), seed_(seed) {}

bool FaultScheduler::active(const FaultEvent& e, std::uint64_t now_ns) const {
  const std::uint64_t at = onset_ns(e);
  if (now_ns < at) return false;
  if (e.duration_ms <= 0) return true;  // Permanent.
  return now_ns < at + static_cast<std::uint64_t>(e.duration_ms * kNsPerMs);
}

bool FaultScheduler::down(Element element, std::uint64_t now_ns) const {
  for (const auto& e : events_) {
    if (downed(e) != element) continue;
    // Death is permanent: once the onset passed, the element stays dead.
    const bool death = e.kind == FaultKind::kServerDeath ||
                       e.kind == FaultKind::kSmartNicDeath;
    if (death ? now_ns >= onset_ns(e) : active(e, now_ns)) return true;
  }
  return false;
}

FaultScheduler::Impairment FaultScheduler::wire_impairment(
    int server, std::uint64_t now_ns) {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const auto& e = events_[i];
    if (e.element != server || !active(e, now_ns)) continue;
    Impairment verdict = Impairment::kNone;
    switch (e.kind) {
      case FaultKind::kLinkCorrupt: verdict = Impairment::kCorrupt; break;
      case FaultKind::kLinkDuplicate: verdict = Impairment::kDuplicate; break;
      case FaultKind::kLinkReorder: verdict = Impairment::kReorder; break;
      default: continue;
    }
    const std::uint64_t coin =
        mix(seed_ ^ (static_cast<std::uint64_t>(i) << 56) ^ coin_counter_++);
    const double u =
        static_cast<double>(coin >> 11) * (1.0 / 9007199254740992.0);
    if (u < e.rate) return verdict;
  }
  return Impairment::kNone;
}

std::optional<std::vector<FaultEvent>> FaultScheduler::parse(
    const std::string& spec, std::string* error) {
  std::vector<FaultEvent> out;
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };

  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t end = spec.find(';', pos);
    std::string item = spec.substr(
        pos, end == std::string::npos ? std::string::npos : end - pos);
    pos = end == std::string::npos ? spec.size() : end + 1;
    if (item.empty()) continue;

    FaultEvent e;
    // Kind (and optional ":<element>").
    std::size_t at = item.find('@');
    if (at == std::string::npos) {
      return fail("fault '" + item + "': missing '@<at_ms>'");
    }
    std::string head = item.substr(0, at);
    std::string tail = item.substr(at + 1);
    std::string kind = head;
    const std::size_t colon = head.find(':');
    if (colon != std::string::npos) {
      kind = head.substr(0, colon);
      if (!parse_number(std::string_view(head).substr(colon + 1),
                        e.element)) {
        return fail("fault '" + item + "': bad element '" +
                    head.substr(colon + 1) + "'");
      }
    }
    if (kind == "server") {
      e.kind = FaultKind::kServerDeath;
    } else if (kind == "nic") {
      e.kind = FaultKind::kSmartNicDeath;
    } else if (kind == "of") {
      e.kind = FaultKind::kOpenFlowDown;
    } else if (kind == "link") {
      e.kind = FaultKind::kTorLinkDown;
    } else if (kind == "corrupt") {
      e.kind = FaultKind::kLinkCorrupt;
      e.rate = 0.25;
      e.duration_ms = 1.0;
    } else if (kind == "dup") {
      e.kind = FaultKind::kLinkDuplicate;
      e.rate = 0.25;
      e.duration_ms = 1.0;
    } else if (kind == "reorder") {
      e.kind = FaultKind::kLinkReorder;
      e.rate = 0.25;
      e.duration_ms = 1.0;
    } else {
      return fail("fault '" + item + "': unknown kind '" + kind + "'");
    }

    // tail = <at_ms>[+<dur_ms>][@<rate>]; times may end in "ms".
    std::string_view rest = tail;
    const std::size_t rate_at = rest.find('@');
    if (rate_at != std::string_view::npos) {
      if (!parse_number(rest.substr(rate_at + 1), e.rate)) {
        return fail("fault '" + item + "': bad rate after '@'");
      }
      rest = rest.substr(0, rate_at);
    }
    const std::size_t plus = rest.find('+');
    if (plus != std::string_view::npos) {
      if (!parse_number(rest.substr(plus + 1), e.duration_ms, "ms")) {
        return fail("fault '" + item + "': bad duration after '+'");
      }
      rest = rest.substr(0, plus);
    }
    if (!parse_number(rest, e.at_ms, "ms")) {
      return fail("fault '" + item + "': bad time after '@'");
    }
    // Negated comparisons also reject NaN.
    if (!(e.at_ms >= 0) || !(e.duration_ms >= 0) ||
        !(e.rate >= 0 && e.rate <= 1)) {
      return fail("fault '" + item + "': out-of-range timing/rate");
    }
    out.push_back(e);
  }
  if (out.empty()) return fail("empty fault spec");
  return out;
}

}  // namespace lemur::runtime
