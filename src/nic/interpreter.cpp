#include "src/nic/interpreter.h"

#include <cstring>

#include "src/net/checksum.h"
#include "src/net/flow.h"

namespace lemur::nic {
namespace {

class Machine {
 public:
  Machine(const Program& program, net::Packet& pkt,
          nf::crypto::ChaCha20Keystream& chacha)
      : program_(program), pkt_(pkt), chacha_(chacha) {
    regs_.fill(0);
    regs_[static_cast<std::size_t>(Reg::kR1)] = kPacketBase;
    regs_[static_cast<std::size_t>(Reg::kR2)] = pkt.data.size();
    regs_[static_cast<std::size_t>(Reg::kR10)] = kStackBase + kStackBytes;
  }

  ExecResult run() {
    ExecResult out;
    std::size_t pc = 0;
    while (pc < program_.size()) {
      ++out.instructions_executed;
      if (out.instructions_executed > 2 * kMaxInstructions) {
        out.error = "instruction budget exceeded";
        return out;
      }
      const Insn& insn = program_[pc];
      if (insn.op == Op::kExit) {
        const std::uint64_t r0 = reg(Reg::kR0);
        out.action = r0 <= 3 ? static_cast<XdpAction>(r0)
                             : XdpAction::kAborted;
        if (out.action == XdpAction::kAborted) {
          out.error = "exit with invalid action " + std::to_string(r0);
        }
        return out;
      }
      std::size_t next = pc + 1;
      if (!step(insn, next, out.error)) {
        out.action = XdpAction::kAborted;
        return out;
      }
      pc = next;
    }
    out.error = "fell off the end of the program";
    return out;
  }

 private:
  std::uint64_t& reg(Reg r) { return regs_[static_cast<std::size_t>(r)]; }

  // Resolves an address to a pointer + validates [addr, addr+width).
  std::uint8_t* resolve(std::uint64_t addr, int width, std::string& error) {
    if (addr >= kPacketBase && addr + static_cast<std::uint64_t>(width) <=
                                   kPacketBase + pkt_.data.size()) {
      return pkt_.data.data() + (addr - kPacketBase);
    }
    if (addr >= kStackBase && addr + static_cast<std::uint64_t>(width) <=
                                  kStackBase + kStackBytes) {
      return stack_.data() + (addr - kStackBase);
    }
    error = "memory access out of bounds at 0x" + std::to_string(addr);
    return nullptr;
  }

  // Network byte order for 2/4-byte packet field accesses.
  static std::uint64_t load_be(const std::uint8_t* p, int width) {
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) v = (v << 8) | p[i];
    return v;
  }

  static void store_be(std::uint8_t* p, int width, std::uint64_t v) {
    for (int i = width - 1; i >= 0; --i) {
      p[i] = static_cast<std::uint8_t>(v);
      v >>= 8;
    }
  }

  bool step(const Insn& insn, std::size_t& next, std::string& error) {
    switch (insn.op) {
      case Op::kMovImm:
        reg(insn.dst) = static_cast<std::uint64_t>(insn.imm);
        return true;
      case Op::kMovReg:
        reg(insn.dst) = reg(insn.src);
        return true;
      case Op::kAddImm:
        reg(insn.dst) += static_cast<std::uint64_t>(insn.imm);
        return true;
      case Op::kAddReg:
        reg(insn.dst) += reg(insn.src);
        return true;
      case Op::kSubImm:
        reg(insn.dst) -= static_cast<std::uint64_t>(insn.imm);
        return true;
      case Op::kSubReg:
        reg(insn.dst) -= reg(insn.src);
        return true;
      case Op::kMulImm:
        reg(insn.dst) *= static_cast<std::uint64_t>(insn.imm);
        return true;
      case Op::kMulReg:
        reg(insn.dst) *= reg(insn.src);
        return true;
      case Op::kDivImm:
        reg(insn.dst) /= static_cast<std::uint64_t>(insn.imm);
        return true;
      case Op::kDivReg:
        if (reg(insn.src) == 0) {
          error = "division by zero";
          return false;
        }
        reg(insn.dst) /= reg(insn.src);
        return true;
      case Op::kModImm:
        reg(insn.dst) %= static_cast<std::uint64_t>(insn.imm);
        return true;
      case Op::kModReg:
        if (reg(insn.src) == 0) {
          error = "modulo by zero";
          return false;
        }
        reg(insn.dst) %= reg(insn.src);
        return true;
      case Op::kAndImm:
        reg(insn.dst) &= static_cast<std::uint64_t>(insn.imm);
        return true;
      case Op::kAndReg:
        reg(insn.dst) &= reg(insn.src);
        return true;
      case Op::kOrImm:
        reg(insn.dst) |= static_cast<std::uint64_t>(insn.imm);
        return true;
      case Op::kOrReg:
        reg(insn.dst) |= reg(insn.src);
        return true;
      case Op::kXorImm:
        reg(insn.dst) ^= static_cast<std::uint64_t>(insn.imm);
        return true;
      case Op::kXorReg:
        reg(insn.dst) ^= reg(insn.src);
        return true;
      case Op::kLshImm:
        reg(insn.dst) <<= (insn.imm & 63);
        return true;
      case Op::kRshImm:
        reg(insn.dst) >>= (insn.imm & 63);
        return true;
      case Op::kNeg:
        reg(insn.dst) = ~reg(insn.dst) + 1;
        return true;

      case Op::kLdxB:
      case Op::kLdxH:
      case Op::kLdxW:
      case Op::kLdxDw: {
        const int width = insn.op == Op::kLdxB   ? 1
                          : insn.op == Op::kLdxH ? 2
                          : insn.op == Op::kLdxW ? 4
                                                 : 8;
        const std::uint64_t addr =
            reg(insn.src) + static_cast<std::uint64_t>(
                                static_cast<std::int64_t>(insn.offset));
        std::uint8_t* p = resolve(addr, width, error);
        if (p == nullptr) return false;
        reg(insn.dst) = load_be(p, width);
        return true;
      }
      case Op::kStxB:
      case Op::kStxH:
      case Op::kStxW:
      case Op::kStxDw: {
        const int width = insn.op == Op::kStxB   ? 1
                          : insn.op == Op::kStxH ? 2
                          : insn.op == Op::kStxW ? 4
                                                 : 8;
        const std::uint64_t addr =
            reg(insn.dst) + static_cast<std::uint64_t>(
                                static_cast<std::int64_t>(insn.offset));
        std::uint8_t* p = resolve(addr, width, error);
        if (p == nullptr) return false;
        store_be(p, width, reg(insn.src));
        return true;
      }

      case Op::kJa:
        next = static_cast<std::size_t>(insn.offset);
        return true;
      case Op::kJeqImm:
        if (reg(insn.dst) == static_cast<std::uint64_t>(insn.imm)) {
          next = static_cast<std::size_t>(insn.offset);
        }
        return true;
      case Op::kJeqReg:
        if (reg(insn.dst) == reg(insn.src)) {
          next = static_cast<std::size_t>(insn.offset);
        }
        return true;
      case Op::kJneImm:
        if (reg(insn.dst) != static_cast<std::uint64_t>(insn.imm)) {
          next = static_cast<std::size_t>(insn.offset);
        }
        return true;
      case Op::kJneReg:
        if (reg(insn.dst) != reg(insn.src)) {
          next = static_cast<std::size_t>(insn.offset);
        }
        return true;
      case Op::kJgtImm:
        if (reg(insn.dst) > static_cast<std::uint64_t>(insn.imm)) {
          next = static_cast<std::size_t>(insn.offset);
        }
        return true;
      case Op::kJgeImm:
        if (reg(insn.dst) >= static_cast<std::uint64_t>(insn.imm)) {
          next = static_cast<std::size_t>(insn.offset);
        }
        return true;
      case Op::kJltImm:
        if (reg(insn.dst) < static_cast<std::uint64_t>(insn.imm)) {
          next = static_cast<std::size_t>(insn.offset);
        }
        return true;
      case Op::kJleImm:
        if (reg(insn.dst) <= static_cast<std::uint64_t>(insn.imm)) {
          next = static_cast<std::size_t>(insn.offset);
        }
        return true;
      case Op::kJsetImm:
        if ((reg(insn.dst) & static_cast<std::uint64_t>(insn.imm)) != 0) {
          next = static_cast<std::size_t>(insn.offset);
        }
        return true;

      case Op::kCall:
        return helper(static_cast<Helper>(insn.imm), error);
      case Op::kExit:
        return true;  // Handled by run().
    }
    error = "unknown opcode";
    return false;
  }

  bool helper(Helper h, std::string& error) {
    switch (h) {
      case Helper::kChaCha20: {
        const std::uint64_t off = reg(Reg::kR1);
        const std::uint64_t len = reg(Reg::kR2);
        // Compared without off + len, which a hostile r1 could wrap.
        if (off > pkt_.data.size() || len > pkt_.data.size() - off) {
          error = "chacha20 range out of packet bounds";
          return false;
        }
        chacha_.xor_into({pkt_.data.data() + off, len});
        return true;
      }
      case Helper::kIpv4CsumFixup: {
        const std::uint64_t off = reg(Reg::kR1);
        if (pkt_.data.size() < 20 || off > pkt_.data.size() - 20) {
          error = "csum fixup offset out of bounds";
          return false;
        }
        std::uint8_t* hdr = pkt_.data.data() + off;
        hdr[10] = hdr[11] = 0;
        const std::uint16_t csum =
            net::internet_checksum({hdr, 20});
        hdr[10] = static_cast<std::uint8_t>(csum >> 8);
        hdr[11] = static_cast<std::uint8_t>(csum);
        return true;
      }
      case Helper::kFlowHash: {
        // eBPF stores rewrite the buffer directly, bypassing the packet's
        // parse cache — hash the live bytes, not a possibly stale cache.
        std::uint64_t hash = 0;
        if (const auto parsed = net::ParsedLayers::parse(pkt_)) {
          if (const auto tuple = net::FiveTuple::from(*parsed)) {
            hash = tuple->hash();
          }
        }
        reg(Reg::kR0) = hash;
        return true;
      }
      case Helper::kAdjustHead: {
        const auto delta = static_cast<std::int64_t>(reg(Reg::kR1));
        if (delta < 0) {
          const auto grow = static_cast<std::size_t>(-delta);
          if (grow > 256) {
            error = "adjust_head grow too large";
            return false;
          }
          pkt_.data.insert(pkt_.data.begin(), grow, 0);
        } else if (delta > 0) {
          const auto shrink = static_cast<std::size_t>(delta);
          if (shrink >= pkt_.data.size()) {
            error = "adjust_head would empty the packet";
            return false;
          }
          pkt_.data.erase(pkt_.data.begin(),
                          pkt_.data.begin() +
                              static_cast<std::ptrdiff_t>(shrink));
        }
        // Like bpf_xdp_adjust_head, the data pointer must be refetched:
        // the VM hands back the (fixed) packet base in r1.
        reg(Reg::kR1) = kPacketBase;
        reg(Reg::kR2) = pkt_.data.size();
        reg(Reg::kR0) = 0;
        return true;
      }
    }
    error = "unknown helper";
    return false;
  }

  const Program& program_;
  net::Packet& pkt_;
  nf::crypto::ChaCha20Keystream& chacha_;
  std::array<std::uint64_t, kNumRegs> regs_;
  std::array<std::uint8_t, kStackBytes> stack_{};
};

}  // namespace

ExecResult execute(const Program& program, net::Packet& pkt,
                   nf::crypto::ChaCha20Keystream& chacha) {
  Machine machine(program, pkt, chacha);
  ExecResult result = machine.run();
  // The program may have rewritten arbitrary bytes (stores, helpers,
  // adjust_head) behind the parse cache's back.
  pkt.invalidate_layers();
  return result;
}

ExecResult execute(const Program& program, net::Packet& pkt,
                   const HelperConfig& config) {
  nf::crypto::ChaCha20Keystream chacha(config.chacha_key,
                                       config.chacha_nonce);
  return execute(program, pkt, chacha);
}

}  // namespace lemur::nic
