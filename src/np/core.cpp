#include "np/core.hpp"

#include "isa/isa.hpp"

namespace sdmmon::np {

using isa::Instr;
using isa::Op;

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define SDMMON_ALWAYS_INLINE [[gnu::always_inline]] inline
#else
#define SDMMON_ALWAYS_INLINE inline
#endif

// ---------------------------------------------------------------------
// Op semantics, defined once for the interpreter (Core::exec) and the
// trace executor (Core::exec_trace).
// ---------------------------------------------------------------------

// The InstrMix counter a retired op increments. Branches start as
// not taken; callers reclassify taken ones.
using MixField = std::uint64_t InstrMix::*;
const std::array<MixField, isa::kNumOps> kMixField = [] {
  std::array<MixField, isa::kNumOps> fields{};
  for (int i = 0; i < isa::kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    switch (isa::op_class(op)) {
      case isa::OpClass::Alu:
        fields[i] = (op == Op::Mult || op == Op::Multu || op == Op::Div ||
                     op == Op::Divu)
                        ? &InstrMix::muldiv
                        : &InstrMix::alu;
        break;
      case isa::OpClass::Load: fields[i] = &InstrMix::load; break;
      case isa::OpClass::Store: fields[i] = &InstrMix::store; break;
      case isa::OpClass::Branch: fields[i] = &InstrMix::branch_not_taken; break;
      case isa::OpClass::Jump:
      case isa::OpClass::JumpLink:
      case isa::OpClass::JumpReg: fields[i] = &InstrMix::jump; break;
      case isa::OpClass::Trap: fields[i] = &InstrMix::trap; break;
    }
  }
  return fields;
}();

SDMMON_ALWAYS_INLINE std::uint64_t& mix_counter(InstrMix& mix, Op op) {
  return mix.*kMixField[static_cast<std::size_t>(op)];
}

// What exec_body() did with one op.
enum class Effect : std::uint8_t {
  Retired,    // executed; pc advances to pc + 4
  TextStore,  // retired store into the predecoded text: it is now stale
  Overflow,   // would trap on signed overflow; nothing changed
  MemFault,   // would trap on a faulting access; nothing changed
  Mmio,       // load/store into the MMIO range; nothing changed
  Control,    // control flow or syscall/break: the caller's job
};

SDMMON_ALWAYS_INLINE void set_reg(std::uint32_t* regs, unsigned r,
                                  std::uint32_t v) {
  if (r != 0) regs[r] = v;
}

// Retired data-path ops per mix class. The trace loop keeps these in
// registers and folds them into the core's InstrMix once per dispatch.
struct BodyTally {
  std::uint64_t alu = 0;
  std::uint64_t muldiv = 0;
  std::uint64_t load = 0;
  std::uint64_t store = 0;
};

SDMMON_ALWAYS_INLINE Effect retire(std::uint64_t& count) {
  ++count;
  return Effect::Retired;
}

// Execute the data-path semantics (ALU, mul/div, load, store) of `in`
// against registers, hi/lo and memory, counting it in `tally` when it
// retires. Stops before any change for would-trap ops and MMIO
// accesses; reports stores that land in [text_base, text_base +
// text_bytes).
SDMMON_ALWAYS_INLINE Effect exec_body(const Instr& in, std::uint32_t* regs,
                                      std::uint32_t& hi, std::uint32_t& lo,
                                      Memory& mem, std::uint32_t text_base,
                                      std::uint32_t text_bytes,
                                      BodyTally& tally) {
  const std::uint32_t rs = regs[in.rs];
  const std::uint32_t rt = regs[in.rt];
  const auto simm = static_cast<std::uint32_t>(in.imm);
  const std::uint32_t zimm = simm & 0xFFFFu;
  const std::uint32_t addr = rs + simm;
  switch (in.op) {
    case Op::Sll: set_reg(regs, in.rd, rt << in.shamt); break;
    case Op::Srl: set_reg(regs, in.rd, rt >> in.shamt); break;
    case Op::Sra:
      set_reg(regs, in.rd, static_cast<std::uint32_t>(
                               static_cast<std::int32_t>(rt) >> in.shamt));
      break;
    case Op::Sllv: set_reg(regs, in.rd, rt << (rs & 31)); break;
    case Op::Srlv: set_reg(regs, in.rd, rt >> (rs & 31)); break;
    case Op::Srav:
      set_reg(regs, in.rd, static_cast<std::uint32_t>(
                               static_cast<std::int32_t>(rt) >> (rs & 31)));
      break;
    case Op::Mfhi: set_reg(regs, in.rd, hi); break;
    case Op::Mflo: set_reg(regs, in.rd, lo); break;
    case Op::Mult: {
      const std::int64_t prod =
          static_cast<std::int64_t>(static_cast<std::int32_t>(rs)) *
          static_cast<std::int32_t>(rt);
      lo = static_cast<std::uint32_t>(prod);
      hi = static_cast<std::uint32_t>(static_cast<std::uint64_t>(prod) >> 32);
      return retire(tally.muldiv);
    }
    case Op::Multu: {
      const std::uint64_t prod = static_cast<std::uint64_t>(rs) * rt;
      lo = static_cast<std::uint32_t>(prod);
      hi = static_cast<std::uint32_t>(prod >> 32);
      return retire(tally.muldiv);
    }
    case Op::Div: {
      const auto a = static_cast<std::int32_t>(rs);
      const auto b = static_cast<std::int32_t>(rt);
      if (b != 0) {
        lo = static_cast<std::uint32_t>(a / b);
        hi = static_cast<std::uint32_t>(a % b);
      }
      return retire(tally.muldiv);
    }
    case Op::Divu:
      if (rt != 0) {
        lo = rs / rt;
        hi = rs % rt;
      }
      return retire(tally.muldiv);
    case Op::Add: {
      const std::uint32_t sum = rs + rt;
      // Signed overflow iff operands share sign and result differs.
      if (~(rs ^ rt) & (rs ^ sum) & 0x8000'0000u) return Effect::Overflow;
      set_reg(regs, in.rd, sum);
      break;
    }
    case Op::Addu: set_reg(regs, in.rd, rs + rt); break;
    case Op::Sub: {
      const std::uint32_t diff = rs - rt;
      if ((rs ^ rt) & (rs ^ diff) & 0x8000'0000u) return Effect::Overflow;
      set_reg(regs, in.rd, diff);
      break;
    }
    case Op::Subu: set_reg(regs, in.rd, rs - rt); break;
    case Op::And: set_reg(regs, in.rd, rs & rt); break;
    case Op::Or: set_reg(regs, in.rd, rs | rt); break;
    case Op::Xor: set_reg(regs, in.rd, rs ^ rt); break;
    case Op::Nor: set_reg(regs, in.rd, ~(rs | rt)); break;
    case Op::Slt:
      set_reg(regs, in.rd,
              static_cast<std::int32_t>(rs) < static_cast<std::int32_t>(rt)
                  ? 1u
                  : 0u);
      break;
    case Op::Sltu: set_reg(regs, in.rd, rs < rt ? 1u : 0u); break;
    case Op::Addi: {
      const std::uint32_t sum = rs + simm;
      if (~(rs ^ simm) & (rs ^ sum) & 0x8000'0000u) return Effect::Overflow;
      set_reg(regs, in.rt, sum);
      break;
    }
    case Op::Addiu: set_reg(regs, in.rt, rs + simm); break;
    case Op::Slti:
      set_reg(regs, in.rt, static_cast<std::int32_t>(rs) < in.imm ? 1u : 0u);
      break;
    case Op::Sltiu: set_reg(regs, in.rt, rs < simm ? 1u : 0u); break;
    case Op::Andi: set_reg(regs, in.rt, rs & zimm); break;
    case Op::Ori: set_reg(regs, in.rt, rs | zimm); break;
    case Op::Xori: set_reg(regs, in.rt, rs ^ zimm); break;
    case Op::Lui: set_reg(regs, in.rt, zimm << 16); break;
    case Op::Lb: case Op::Lbu: {
      if (addr >= kMmioBase) return Effect::Mmio;
      const auto v = mem.load8(addr);
      if (!v) return Effect::MemFault;
      set_reg(regs, in.rt,
              in.op == Op::Lb ? static_cast<std::uint32_t>(
                                    static_cast<std::int8_t>(*v))
                              : *v);
      return retire(tally.load);
    }
    case Op::Lh: case Op::Lhu: {
      if (addr >= kMmioBase) return Effect::Mmio;
      const auto v = mem.load16(addr);
      if (!v) return Effect::MemFault;
      set_reg(regs, in.rt,
              in.op == Op::Lh ? static_cast<std::uint32_t>(
                                    static_cast<std::int16_t>(*v))
                              : *v);
      return retire(tally.load);
    }
    case Op::Lw: {
      if (addr >= kMmioBase) return Effect::Mmio;
      const auto v = mem.load32(addr);
      if (!v) return Effect::MemFault;
      set_reg(regs, in.rt, *v);
      return retire(tally.load);
    }
    case Op::Sb: case Op::Sh: case Op::Sw: {
      if (addr >= kMmioBase) return Effect::Mmio;
      const MemFault fault =
          in.op == Op::Sb   ? mem.store8(addr, static_cast<std::uint8_t>(rt))
          : in.op == Op::Sh ? mem.store16(addr, static_cast<std::uint16_t>(rt))
                            : mem.store32(addr, rt);
      if (fault != MemFault::None) return Effect::MemFault;
      ++tally.store;
      return addr - text_base < text_bytes ? Effect::TextStore
                                           : Effect::Retired;
    }
    default:
      return Effect::Control;
  }
  return retire(tally.alu);  // every case that breaks is a plain ALU op
}

// Whether conditional branch `in` is taken.
SDMMON_ALWAYS_INLINE bool branch_taken(const Instr& in,
                                       const std::uint32_t* regs) {
  const std::uint32_t rs = regs[in.rs];
  switch (in.op) {
    case Op::Beq: return rs == regs[in.rt];
    case Op::Bne: return rs != regs[in.rt];
    case Op::Blez: return static_cast<std::int32_t>(rs) <= 0;
    default: return static_cast<std::int32_t>(rs) > 0;  // Bgtz
  }
}

}  // namespace

const char* trap_name(Trap trap) {
  switch (trap) {
    case Trap::None: return "none";
    case Trap::FetchFault: return "fetch-fault";
    case Trap::DecodeFault: return "decode-fault";
    case Trap::MemFault: return "mem-fault";
    case Trap::Overflow: return "overflow";
    case Trap::Syscall: return "syscall";
    case Trap::Break: return "break";
    case Trap::Watchdog: return "watchdog";
  }
  return "?";
}

Core::Core() = default;

void Core::load_program(const isa::Program& program) {
  program_ = program;
  program_loaded_ = true;
  compiled_ = nullptr;
  reset();
}

void Core::load_program(const isa::Program& program,
                        std::shared_ptr<const CompiledProgram> compiled) {
  if (compiled != nullptr &&
      (compiled->text_base() != program.text_base ||
       compiled->num_ops() != program.text.size())) {
    throw std::invalid_argument(
        "CompiledProgram does not match the program being loaded");
  }
  program_ = program;
  program_loaded_ = true;
  compiled_ = std::move(compiled);
  reset();
}

void Core::update_predecode_live() {
  const CompiledProgram* code = compiled_.get();
  const bool live = code != nullptr && predecode_enabled_ && !text_dirty_;
  pre_base_ = code != nullptr ? code->text_base() : 0;
  pre_text_bytes_ = code != nullptr ? code->text_bytes() : 0;
  pre_ops_ = live ? code->ops_data() : nullptr;
  pre_trace_len_ = live ? code->trace_len_data() : nullptr;
  pre_trace_off_ = live ? code->trace_off_data() : nullptr;
  pre_trace_ops_ = live ? code->trace_ops_data() : nullptr;
  pre_trace_hashes_ = live ? code->trace_hash_lane_data() : nullptr;
}

void Core::reset() {
  mem_.clear();
  if (program_loaded_) {
    // Re-image text and data so attack side effects cannot persist.
    util::Bytes text_bytes(program_.text.size() * 4);
    for (std::size_t i = 0; i < program_.text.size(); ++i) {
      util::store_le32(program_.text[i], text_bytes.data() + 4 * i);
    }
    mem_.write_block(program_.text_base, text_bytes);
    if (!program_.data.empty()) {
      mem_.write_block(program_.data_base, program_.data);
    }
  }
  // Text just got re-imaged from the installed program: the predecoded
  // artifact matches memory again. (soft_reset() deliberately does NOT
  // clear the dirty flag -- it never restores text.)
  text_dirty_ = false;
  update_predecode_live();
  reset_architectural_state();
}

void Core::soft_reset() {
  // Fresh processing stack and packet buffers; application data persists.
  // zero_region only scrubs pages actually written since their last
  // zeroing, so this costs O(bytes the last packet touched).
  mem_.zero_region(kStackBase);
  mem_.zero_region(kPktInBase);
  mem_.zero_region(kPktOutBase);
  reset_architectural_state();
}

void Core::reset_architectural_state() {
  regs_.fill(0);
  regs_[29] = kStackTop;          // $sp
  regs_[31] = kReturnSentinel;    // $ra -> normal-return sentinel
  pc_ = program_.entry;
  hi_ = lo_ = 0;
  packet_cycles_ = 0;
  pkt_in_len_ = 0;
  output_.clear();
  has_output_ = false;
  out_port_ = 0;
  runnable_ = program_loaded_;
}

void Core::deliver_packet(std::span<const std::uint8_t> packet) {
  const std::size_t n = std::min<std::size_t>(packet.size(), kPktInSize);
  mem_.write_block(kPktInBase, packet.subspan(0, n));
  pkt_in_len_ = static_cast<std::uint32_t>(n);
}

StepInfo Core::finish(StepInfo info, StepEvent event, Trap trap) {
  info.event = event;
  info.trap = trap;
  if (event != StepEvent::Executed) runnable_ = false;
  return info;
}

bool Core::mmio_load(std::uint32_t addr, std::uint32_t& value) const {
  switch (addr) {
    case kRegPktInLen:
      value = pkt_in_len_;
      return true;
    case kRegCycles:
      value = static_cast<std::uint32_t>(cycles_);
      return true;
    default:
      return false;
  }
}

StepInfo Core::mmio_store(StepInfo info, std::uint32_t addr,
                          std::uint32_t value) {
  switch (addr) {
    case kRegPktOutCommit: {
      const std::uint32_t len = std::min(value, kPktOutSize);
      output_ = mem_.read_block(kPktOutBase, len);
      has_output_ = true;
      return finish(info, StepEvent::PacketOut);
    }
    case kRegPktDone:
      return finish(info, StepEvent::PacketDone);
    case kRegHalt:
      return finish(info, StepEvent::Halted);
    case kRegPktOutPort:
      out_port_ = value;  // latched; not a terminal event
      pc_ += 4;           // the store retires normally
      info.event = StepEvent::Executed;
      return info;
    default:
      return finish(info, StepEvent::Trapped, Trap::MemFault);
  }
}

StepInfo Core::step() {
  StepInfo info;
  if (!runnable_) {
    info.event = StepEvent::Trapped;
    info.trap = Trap::FetchFault;
    return info;
  }

  if (packet_cycles_ >= watchdog_budget_) {
    return finish(info, StepEvent::Trapped, Trap::Watchdog);
  }

  info.pc = pc_;
  if (pc_ == kReturnSentinel) {
    // Handler returned normally: packet processed (drop unless committed).
    return finish(info, StepEvent::PacketDone);
  }

  if (pre_ops_ != nullptr) {
    // Fast path: the installed text image is clean, so the fetch is an
    // indexed read of a predecoded op -- no memory-region walk, no
    // decode-table scan. pcs outside the artifact (runtime-materialized
    // code, data-region jumps) fall through to the interpreter below.
    const std::uint32_t off = pc_ - pre_base_;
    if (off < pre_text_bytes_ && (off & 3u) == 0) {
      const CompiledProgram::PreOp& op = pre_ops_[off >> 2];
      info.word = op.word;
      if (!(op.flags & CompiledProgram::kDecoded)) {
        return finish(info, StepEvent::Trapped, Trap::DecodeFault);
      }
      return exec(op.instr, info);
    }
  }

  auto word = mem_.load32(pc_);
  if (!word) {
    return finish(info, StepEvent::Trapped, Trap::FetchFault);
  }
  info.word = *word;

  auto decoded = isa::try_decode(*word);
  if (!decoded) {
    return finish(info, StepEvent::Trapped, Trap::DecodeFault);
  }
  return exec(*decoded, info);
}

StepInfo Core::exec(const Instr& in, StepInfo info) {
  ++cycles_;
  ++packet_cycles_;
  // Retired-instruction mix for the cycle-cost model, counted at entry
  // (a trapping op still costs its cycle).
  ++mix_counter(mix_, in.op);

  BodyTally counted_at_entry;
  switch (exec_body(in, regs_.data(), hi_, lo_, mem_, pre_base_,
                    pre_text_bytes_, counted_at_entry)) {
    case Effect::Retired:
      pc_ += 4;
      break;
    case Effect::TextStore:
      // Self-modifying store: the predecoded image is stale from here on.
      text_dirty_ = true;
      update_predecode_live();
      pc_ += 4;
      break;
    case Effect::Overflow:
      return finish(info, StepEvent::Trapped, Trap::Overflow);
    case Effect::MemFault:
      return finish(info, StepEvent::Trapped, Trap::MemFault);
    case Effect::Mmio:
      return exec_mmio(in, info);
    case Effect::Control: {
      const std::uint32_t rs = regs_[in.rs];
      std::uint32_t next_pc = pc_ + 4;
      switch (in.op) {
        case Op::Jr: next_pc = rs; break;
        case Op::Jalr:
          if (in.rd != 0) regs_[in.rd] = pc_ + 4;
          next_pc = rs;
          break;
        case Op::Syscall:
          return finish(info, StepEvent::Trapped, Trap::Syscall);
        case Op::Break:
          return finish(info, StepEvent::Trapped, Trap::Break);
        case Op::J: next_pc = in.target * 4; break;
        case Op::Jal:
          regs_[31] = pc_ + 4;
          next_pc = in.target * 4;
          break;
        default:  // conditional branch
          if (branch_taken(in, regs_.data())) {
            next_pc += static_cast<std::uint32_t>(in.imm) * 4;
          }
          // Taken iff it left the fall-through path (a taken
          // branch-to-next counts not taken).
          if (next_pc != pc_ + 4) {
            --mix_.branch_not_taken;
            ++mix_.branch_taken;
          }
          break;
      }
      pc_ = next_pc;
      break;
    }
  }
  info.event = StepEvent::Executed;
  return info;
}

StepInfo Core::exec_mmio(const Instr& in, StepInfo info) {
  const std::uint32_t addr = regs_[in.rs] + static_cast<std::uint32_t>(in.imm);
  const std::uint32_t rt = regs_[in.rt];
  std::uint32_t value = 0;
  switch (in.op) {
    case Op::Lb: case Op::Lbu:
      if (!mmio_load(addr, value)) break;
      if (in.rt != 0) regs_[in.rt] = value & 0xFF;
      pc_ += 4;
      info.event = StepEvent::Executed;
      return info;
    case Op::Lw:
      if (!mmio_load(addr, value)) break;
      if (in.rt != 0) regs_[in.rt] = value;
      pc_ += 4;
      info.event = StepEvent::Executed;
      return info;
    case Op::Sb: case Op::Sh: return mmio_store(info, addr & ~3u, rt);
    case Op::Sw: return mmio_store(info, addr, rt);
    default: break;  // halfword MMIO loads do not exist
  }
  return finish(info, StepEvent::Trapped, Trap::MemFault);
}

Core::TraceExec Core::exec_trace(std::uint64_t n) {
  // Preconditions (caller holds a length from trace_run_len()):
  // compiled execution is live, a trace is anchored at the current pc,
  // every trace op is decoded, and the watchdog budget has at least n
  // cycles of slack. All accounting is deferred to the epilogue and
  // covers exactly the retired prefix -- bit-identical to that many
  // step() calls, because step() counts at entry and a stopped op has
  // not entered yet.
  const CompiledProgram::TraceOp* const begin =
      pre_trace_ops_ + pre_trace_off_[(pc_ - pre_base_) >> 2];
  const CompiledProgram::TraceOp* op = begin;
  const CompiledProgram::TraceOp* const end = begin + n;
  std::uint32_t* const regs = regs_.data();
  // Locals, so the loop does not reload them after every opaque
  // memory call.
  Memory& mem = mem_;
  const std::uint32_t text_base = pre_base_;
  const std::uint32_t text_bytes = pre_text_bytes_;
  std::uint32_t hi = hi_;
  std::uint32_t lo = lo_;
  BodyTally body;
  std::uint64_t jumps = 0;
  std::uint64_t taken = 0;
  std::uint64_t not_taken = 0;
  // pc after the most recently retired control-flow op; body ops
  // retire to op->pc + 4, so the epilogue consults it only when the
  // last retired op (the one before `ctrl_end`) redirected control.
  std::uint32_t ctrl_next = 0;
  const CompiledProgram::TraceOp* ctrl_end = nullptr;
  bool dirtied = false;
  bool side_exit = false;

  while (op != end) {
    const Instr& in = op->instr;
    const Effect effect =
        exec_body(in, regs, hi, lo, mem, text_base, text_bytes, body);
    if (effect == Effect::Retired) {
      ++op;
      continue;
    }
    if (effect == Effect::TextStore) {
      ++op;  // the store retires; every later op would be stale
      dirtied = true;
      break;
    }
    if (effect != Effect::Control) break;  // would trap or MMIO: step()
    const std::uint32_t fall = op->pc + 4;
    switch (in.op) {
      case Op::J: ctrl_next = in.target * 4; ++jumps; break;
      case Op::Jal:
        regs[31] = fall;
        ctrl_next = in.target * 4;
        ++jumps;
        break;
      case Op::Jr: ctrl_next = regs[in.rs]; ++jumps; break;
      case Op::Jalr:
        ctrl_next = regs[in.rs];
        if (in.rd != 0) regs[in.rd] = fall;
        ++jumps;
        break;
      default: {  // conditional branch (formation admits no traps)
        const std::uint32_t target =
            fall + static_cast<std::uint32_t>(in.imm) * 4;
        ctrl_next = branch_taken(in, regs) ? target : fall;
        if (ctrl_next != fall) {
          ++taken;
        } else {
          ++not_taken;
        }
        const bool pred = (op->flags & CompiledProgram::kTracePredTaken) != 0;
        side_exit = ctrl_next != (pred ? target : fall);
        break;
      }
    }
    ctrl_end = ++op;  // the control op itself always retires
    if (side_exit) break;
  }

  const std::uint64_t retired = static_cast<std::uint64_t>(op - begin);
  hi_ = hi;
  lo_ = lo;
  mix_.alu += body.alu;
  mix_.muldiv += body.muldiv;
  mix_.load += body.load;
  mix_.store += body.store;
  mix_.jump += jumps;
  mix_.branch_taken += taken;
  mix_.branch_not_taken += not_taken;
  cycles_ += retired;
  packet_cycles_ += retired;
  if (retired > 0) pc_ = op == ctrl_end ? ctrl_next : op[-1].pc + 4;
  if (dirtied) {
    text_dirty_ = true;
    update_predecode_live();
  }
  return {retired, side_exit};
}

void Core::retract_trace(const CompiledProgram::TraceOp* ops, std::uint64_t n,
                         bool last_mispredicted) {
  // Every overshoot branch retired along its predicted path (taken iff
  // its static flag says taken -- a predicted-taken branch is backward,
  // so it always left the fall-through path, and a predicted-not-taken
  // branch that followed prediction never did), EXCEPT a side-exiting
  // branch, which is always the final retired op and resolved the
  // other way. Registers, hi/lo, memory, and output need no
  // compensation -- the recovery reset() re-images all of them.
  for (std::uint64_t i = 0; i < n; ++i) {
    const Op o = ops[i].instr.op;
    if (isa::op_class(o) == isa::OpClass::Branch) {
      bool taken = (ops[i].flags & CompiledProgram::kTracePredTaken) != 0;
      if (i + 1 == n && last_mispredicted) taken = !taken;
      --(taken ? mix_.branch_taken : mix_.branch_not_taken);
    } else {
      --mix_counter(mix_, o);
    }
  }
  cycles_ -= n;
  packet_cycles_ -= n;
}

StepInfo Core::run(std::uint64_t max_steps) {
  struct AcceptAll {
    bool on_trace(const CompiledProgram::TraceOp*, const std::uint8_t*,
                  TraceExec) {
      return true;
    }
    bool on_step(const StepInfo&) { return true; }
  } sink;
  return dispatch(sink, max_steps);
}

}  // namespace sdmmon::np
