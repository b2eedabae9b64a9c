#include "np/compiled_program.hpp"

#include <chrono>

#include "monitor/analysis.hpp"

namespace sdmmon::np {

std::shared_ptr<const CompiledProgram> CompiledProgram::compile(
    const isa::Program& program, const monitor::InstructionHash& hash) {
  auto compiled = std::shared_ptr<CompiledProgram>(new CompiledProgram());
  compiled->source_ = program;
  compiled->text_base_ = program.text_base;
  compiled->text_bytes_ =
      static_cast<std::uint32_t>(program.text.size() * 4);
  compiled->hash_width_ = hash.width();
  compiled->hash_name_ = hash.name();

  // Block leaders from the same analysis that shapes the monitoring
  // graph (find_basic_blocks is total: undecodable words end a block).
  const monitor::BasicBlocks blocks = monitor::find_basic_blocks(program);
  compiled->num_blocks_ = blocks.leaders.size();

  const std::size_t n = program.text.size();
  std::vector<bool> leader(n, false);
  for (const std::uint32_t l : blocks.leaders) leader[l] = true;
  compiled->ops_.resize(n);
  compiled->hash_lane_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    PreOp& op = compiled->ops_[i];
    op.word = program.text[i];
    op.mhash = hash.hash(op.word);
    compiled->hash_lane_[i] = op.mhash;
    if (auto decoded = isa::try_decode(op.word)) {
      op.instr = *decoded;
      op.flags = kDecoded;
    }  // else: trapping op, executing it raises DecodeFault
  }

  // Walk the statically predicted path from `pc` (backward branch =
  // taken, forward = not taken) into `buf`.
  const auto form = [&](std::uint32_t pc, std::vector<TraceOp>& buf) {
    buf.clear();
    const auto in_text = [&](std::uint32_t target) {
      return target - compiled->text_base_ < compiled->text_bytes_;
    };
    while (buf.size() < kTraceCap && in_text(pc)) {
      const PreOp& op = compiled->ops_[(pc - compiled->text_base_) >> 2];
      if (!(op.flags & kDecoded)) return;  // would trap: interpreter's job
      TraceOp top;
      top.instr = op.instr;
      top.pc = pc;
      top.word = op.word;
      top.mhash = op.mhash;
      switch (isa::op_class(op.instr.op)) {
        case isa::OpClass::Alu:
        case isa::OpClass::Load:
        case isa::OpClass::Store:
          pc += 4;
          break;
        case isa::OpClass::Branch:
          if (op.instr.imm < 0) {
            top.flags |= kTracePredTaken;  // backward: the loop heuristic
            pc += 4 + static_cast<std::uint32_t>(op.instr.imm) * 4;
          } else {
            pc += 4;
          }
          break;
        case isa::OpClass::Jump:
        case isa::OpClass::JumpLink:
          pc = op.instr.target * 4;
          break;
        case isa::OpClass::JumpReg:
          buf.push_back(top);  // indirect: resolved at run time, ends
          return;
        case isa::OpClass::Trap:
          return;  // syscall/break always trap: interpreter's job
      }
      buf.push_back(top);
    }
  };

  // Trace-formation pass: a fresh trace at every block leader (and at
  // any pc the 255-op cap left uncovered); every later pc of the
  // leader's contiguous prefix inside its own block anchors the matching
  // suffix. Pcs where no trace can start keep length 0.
  const auto trace_start = std::chrono::steady_clock::now();
  compiled->trace_len_.assign(n, 0);
  compiled->trace_off_.assign(n, 0);
  std::vector<TraceOp> buf;
  buf.reserve(kTraceCap);
  for (std::size_t i = 0; i < n; ++i) {
    if (!leader[i] && compiled->trace_len_[i] != 0) continue;
    form(compiled->text_base_ + static_cast<std::uint32_t>(i) * 4, buf);
    if (buf.empty()) continue;
    const auto at = static_cast<std::uint32_t>(compiled->trace_ops_.size());
    const auto len = static_cast<std::uint32_t>(buf.size());
    compiled->trace_off_[i] = at;
    compiled->trace_len_[i] = static_cast<std::uint8_t>(len);
    for (std::uint32_t k = 1; k < len; ++k) {
      const std::size_t j = (buf[k].pc - compiled->text_base_) >> 2;
      if (buf[k].pc != buf[k - 1].pc + 4 || leader[j]) break;
      compiled->trace_off_[j] = at + k;
      compiled->trace_len_[j] = static_cast<std::uint8_t>(len - k);
    }
    for (const TraceOp& top : buf) {
      compiled->trace_ops_.push_back(top);
      compiled->trace_hash_lane_.push_back(top.mhash);
    }
    ++compiled->num_traces_;
    compiled->num_trace_ops_ += len;
  }
  compiled->trace_build_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - trace_start)
          .count());
  return compiled;
}

}  // namespace sdmmon::np
