// The NF vocabulary: paper Table 3's rows — every NF Lemur knows, the
// platforms each can run on, statefulness/replicability, default
// worst-case cycle profiles (calibrated to paper Table 4), and PISA stage
// footprints.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lemur::nf {

enum class NfType {
  kEncrypt,      ///< 128-bit AES-CBC payload encryption.
  kDecrypt,      ///< 128-bit AES-CBC payload decryption.
  kFastEncrypt,  ///< ChaCha20 payload encryption ("Fast Enc.").
  kDedup,        ///< EndRE-style network redundancy elimination.
  kTunnel,       ///< Push VLAN tag.
  kDetunnel,     ///< Pop VLAN tag.
  kIpv4Fwd,      ///< LPM IP forwarding.
  kLimiter,      ///< Token-bucket rate limiting.
  kUrlFilter,    ///< HTML/URL substring filtering.
  kMonitor,      ///< Per-flow statistics.
  kNat,          ///< Carrier-grade NAT.
  kLb,           ///< Layer-4 load balancing.
  kMatch,        ///< Flexible BPF-style classification (branch steering).
  kAcl,          ///< ACL on src/dst fields.
};

inline constexpr int kNumNfTypes = 14;

/// One row of Table 3 plus simulation calibration data.
struct NfSpec {
  NfType type;
  std::string_view name;  ///< Canonical chain-spec name, e.g. "ACL".
  std::string_view description;

  bool has_cpp = true;  ///< BESS/server implementation exists.
  bool has_p4 = false;
  bool has_ebpf = false;
  bool has_openflow = false;

  bool stateful = false;
  /// Bold rows of Table 3: NFs that can never be replicated across cores.
  bool replicable = true;

  /// Worst-case cycles/packet on one server core (paper Table 4 where
  /// measured; engineering estimates otherwise).
  std::uint64_t cycle_cost = 1000;
  /// Per-rule marginal cycles for table-size-dependent NFs (the linear
  /// profile model of section 3.2); 0 for size-independent NFs.
  double cycles_per_rule = 0.0;

  /// Match-action tables the NF's P4 implementation contributes.
  int p4_tables = 1;
};

/// Registry lookup (always succeeds for a valid enumerator).
const NfSpec& spec_of(NfType type);

/// All specs in Table 3 order.
const std::vector<NfSpec>& all_nf_specs();

/// Resolves a chain-spec NF name ("ACL", "IPv4Fwd", "BPF" as an alias of
/// Match, "Fast Encrypt"/"FastEncrypt", ...). Case-sensitive on canonical
/// names, with the paper's aliases honored.
std::optional<NfType> nf_type_from_name(std::string_view name);

/// Parameters attached to an NF instance in a chain spec, e.g.
/// ACL(rules=[{'dst_ip':'10.0.0.0/8','drop':False}]).
struct NfConfig {
  std::map<std::string, std::string> strings;
  std::map<std::string, std::int64_t> ints;
  /// Rule lists: each rule is a key/value dictionary.
  std::vector<std::map<std::string, std::string>> rules;

  [[nodiscard]] std::int64_t int_or(const std::string& key,
                                    std::int64_t fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      std::string fallback) const;

  bool operator==(const NfConfig&) const = default;
};

/// Effective worst-case cycle cost for an NF instance, applying the
/// linear table-size model (e.g. ACL with `rules` entries, NAT with
/// `entries` expected translations).
std::uint64_t effective_cycle_cost(NfType type, const NfConfig& config);

}  // namespace lemur::nf
