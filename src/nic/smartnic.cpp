#include "src/nic/smartnic.h"

namespace lemur::nic {

VerifyResult SmartNic::load(Program program, HelperConfig config) {
  VerifyResult result = verify(program);
  if (result.ok) {
    program_ = std::move(program);
    chacha_.emplace(config.chacha_key, config.chacha_nonce);
  }
  return result;
}

SmartNic::ProcessResult SmartNic::process(net::Packet& pkt,
                                          std::uint64_t server_cycle_cost) {
  ProcessResult out;
  ++packets_;
  if (!program_) {
    engine_cycles_ += 50;  // Pass-through datapath cost.
    return out;
  }
  ExecResult exec = execute(*program_, pkt, *chacha_);
  out.action = exec.action;
  out.instructions = exec.instructions_executed;
  // Charge either the profiled NF cost (placer currency) or, absent a
  // profile, the executed instruction count.
  engine_cycles_ +=
      server_cycle_cost > 0 ? server_cycle_cost : exec.instructions_executed;
  if (exec.action == XdpAction::kDrop || exec.action == XdpAction::kAborted) {
    pkt.drop = true;
    ++drops_;
  }
  return out;
}

}  // namespace lemur::nic
