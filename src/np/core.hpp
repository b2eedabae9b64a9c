// Single network-processor core: a PLASMA-like MIPS-subset interpreter
// with packet-I/O MMIO. The core exposes exactly the contract the hardware
// monitor taps in the paper's Figure 1: for every retired instruction it
// reports the (pc, raw 32-bit word) pair.
//
// Convention for packet handlers: the core enters at Program::entry with
// $ra set to kReturnSentinel; returning there counts as "packet done"
// (drop). Handlers can instead commit an output packet by storing the
// output length to kRegPktOutCommit.
#ifndef SDMMON_NP_CORE_HPP
#define SDMMON_NP_CORE_HPP

#include <array>
#include <cstdint>
#include <memory>

#include "isa/program.hpp"
#include "np/compiled_program.hpp"
#include "np/cycle_model.hpp"
#include "np/memory.hpp"

namespace sdmmon::np {

/// pc value that signals a normal return from the packet handler.
constexpr std::uint32_t kReturnSentinel = 0xDEAD'BEE0;

enum class Trap : std::uint8_t {
  None,
  FetchFault,    // pc outside memory or unaligned
  DecodeFault,   // unknown instruction encoding
  MemFault,      // data access outside memory / unaligned
  Overflow,      // signed overflow on add/addi/sub
  Syscall,       // syscall executed (unused by our apps; acts as a guard)
  Break,         // break executed
  Watchdog,      // per-packet cycle budget exhausted
};

const char* trap_name(Trap trap);

/// What a single step did.
enum class StepEvent : std::uint8_t {
  Executed,    // normal instruction retired
  PacketOut,   // instruction retired and committed an output packet
  PacketDone,  // handler finished without output (drop) or returned
  Halted,      // core halted via kRegHalt
  Trapped,     // instruction trapped; core needs reset
};

struct StepInfo {
  std::uint32_t pc = 0;     // address of the executed instruction
  std::uint32_t word = 0;   // raw instruction word (what the monitor hashes)
  StepEvent event = StepEvent::Executed;
  Trap trap = Trap::None;
};

class Core {
 public:
  Core();

  /// Load program text+data into memory and prime entry state. Drops any
  /// previously attached predecoded artifact (word-at-a-time interpreter).
  void load_program(const isa::Program& program);

  /// Load a program together with its install-time predecoded artifact.
  /// The core caches raw pointers into the shared immutable artifact and
  /// step()/run() take the decode-free fast path while the in-memory text
  /// still matches the installed image. Throws std::invalid_argument if
  /// the artifact was not compiled from `program` (base/size mismatch) --
  /// staging validation upstream makes this unreachable on install paths.
  void load_program(const isa::Program& program,
                    std::shared_ptr<const CompiledProgram> compiled);

  /// Full reset: architectural state AND memory re-imaged from the loaded
  /// program (text, data, zeroed stack/buffers). Used at install time and
  /// as the paper's attack recovery -- nothing an attacker wrote survives.
  void reset();

  /// Per-packet reset: registers/pc/stack/packet buffers are reset but the
  /// application's data RAM persists (flow tables, counters). This is the
  /// normal between-packets path of a real NP core.
  void soft_reset();

  /// Place a packet in the receive buffer (truncated to the buffer size).
  void deliver_packet(std::span<const std::uint8_t> packet);

  /// Execute one instruction. After a terminal event (PacketDone/PacketOut/
  /// Halted/Trapped) the core refuses to step until reset().
  StepInfo step();

  /// Run until a terminal event or `max_steps` retirements (dispatch()
  /// with a sink that accepts everything); returns the last StepInfo.
  StepInfo run(std::uint64_t max_steps = 1'000'000);

  bool runnable() const { return runnable_; }
  std::uint32_t pc() const { return pc_; }
  std::uint32_t reg(int index) const {
    return regs_[static_cast<std::size_t>(index)];
  }
  void set_reg(int index, std::uint32_t value) {
    if (index != 0) regs_[static_cast<std::size_t>(index)] = value;
  }
  std::uint64_t cycles() const { return cycles_; }
  /// Cumulative retired-instruction mix (survives reset(); feeds the
  /// cycle-cost model for modeled throughput).
  const InstrMix& instr_mix() const { return mix_; }
  std::uint64_t watchdog_budget() const { return watchdog_budget_; }
  void set_watchdog_budget(std::uint64_t cycles) { watchdog_budget_ = cycles; }

  bool has_output() const { return has_output_; }
  const util::Bytes& output() const { return output_; }
  /// Egress port selected via kRegPktOutPort (0 if never written).
  std::uint32_t output_port() const { return out_port_; }

  Memory& memory() { return mem_; }
  const Memory& memory() const { return mem_; }

  /// The shared predecoded artifact (nullptr when interpreting). Pointer
  /// identity across cores is the install-sharing invariant tests assert.
  const std::shared_ptr<const CompiledProgram>& compiled_program() const {
    return compiled_;
  }

  /// Toggle compiled execution at runtime -- the core's one execution
  /// switch (docs/EXECUTION.md). On: step() fetches predecoded ops and
  /// run()/MonitoredCore dispatch whole traces. Off: the word-at-a-time
  /// interpreter, the differential oracle. Sticky across
  /// load_program/reset -- it is a property of the core, not the
  /// program.
  void set_predecode_enabled(bool on) {
    predecode_enabled_ = on;
    update_predecode_live();
  }
  bool predecode_enabled() const { return predecode_enabled_; }

  /// True while compiled execution is live: an artifact is attached,
  /// the toggle is on, and no store has dirtied the text image since
  /// the last full reset()/load_program().
  bool predecode_live() const { return pre_ops_ != nullptr; }

  /// Length of the trace dispatchable at the current pc, clamped to the
  /// remaining watchdog budget; 0 whenever trace execution is not
  /// currently possible (compiled execution not live, core not
  /// runnable, pc outside or misaligned in the artifact, no trace
  /// anchored at pc, budget exhausted). Returned ops are *attemptable*:
  /// exec_trace() stops early at would-trap ops, MMIO accesses,
  /// text-dirtying stores, and mispredicted branches (side exits).
  std::uint64_t trace_run_len() const {
    if (pre_ops_ == nullptr || !runnable_) return 0;
    const std::uint32_t off = pc_ - pre_base_;
    if (off >= pre_text_bytes_ || (off & 3u) != 0) return 0;
    const std::uint64_t len = pre_trace_len_[off >> 2];
    if (len == 0) return 0;
    if (packet_cycles_ >= watchdog_budget_) return 0;
    const std::uint64_t slack = watchdog_budget_ - packet_cycles_;
    return len < slack ? len : slack;
  }

  /// What one exec_trace() dispatch did. `side_exit` is set when the
  /// last retired op was a conditional branch that resolved against its
  /// static prediction -- the branch itself retires (pc follows the
  /// *actual* target), only the not-yet-executed trace tail is
  /// abandoned.
  struct TraceExec {
    std::uint64_t retired = 0;
    bool side_exit = false;
  };

  /// Retire up to `n` ops of the trace anchored at the current pc in
  /// one dispatch and report how many retired. The caller must hold a
  /// length from trace_run_len() with 0 < n <= that length. The
  /// dispatch stops *before* (the op does not retire, pc points at it)
  ///   - any op that would trap (overflow, MemFault), and
  ///   - any load/store whose address reaches MMIO (>= kMmioBase):
  ///     MMIO reads must observe up-to-date cycle counters and MMIO
  ///     stores raise terminal packet events, so both take step();
  /// and stops *after* a store that dirties the predecoded text (every
  /// later op would execute a stale predecode) and after a branch that
  /// leaves the predicted path (a side exit). Control flow resolves
  /// architecturally -- jal/jalr write their link register, the mix
  /// counts taken/not-taken by the *actual* outcome. Cycles, mix, and
  /// pc advance exactly as `retired` individual step() calls would.
  TraceExec exec_trace(std::uint64_t n);

  /// Un-retire the last `n` ops of a just-executed trace: the
  /// monitor-unchecked overshoot past a flagged hash. Subtracts their
  /// cycles and instruction-mix classes (`ops` points at the TraceOps
  /// of the overshoot). `last_mispredicted` must be the dispatch's
  /// side_exit flag: a side-exiting branch is always the *last* retired
  /// op and the only one that retired against its prediction. Used only
  /// by MonitoredCore's attack path: the reference interleaving
  /// executes exactly up to the flagged op before the recovery reset;
  /// the reset re-images registers and memory anyway, so retracting the
  /// surviving cumulative counters makes the dispatch bit-identical.
  void retract_trace(const CompiledProgram::TraceOp* ops, std::uint64_t n,
                     bool last_mispredicted);

  /// The one dispatch loop behind run() and MonitoredCore: retire the
  /// trace anchored at pc when there is one, else one step(), until a
  /// terminal event, `max_steps` retirements, or the sink refuses.
  /// After every trace dispatch it calls
  ///   bool Sink::on_trace(const TraceOp* ops, const std::uint8_t* hashes,
  ///                       TraceExec done)
  /// (ops/hashes of the dispatched trace, `done.retired` of them
  /// retired) and after every step() `bool Sink::on_step(const
  /// StepInfo&)`; a false return stops the loop at once. Returns the
  /// last StepInfo (a trace's last retired op reports as Executed).
  template <class Sink>
  StepInfo dispatch(Sink& sink, std::uint64_t max_steps);

  /// Left from the retired block-fused executor for
  /// perfbench/traced_replay.cpp only (delete with its next revision):
  /// no fused run is ever dispatchable, so exec_fused_run's
  /// precondition 0 < n <= fused_run_len() never holds and it retires
  /// nothing.
  std::uint64_t fused_run_len() const { return 0; }
  std::uint64_t exec_fused_run(std::uint64_t /*n*/) { return 0; }

  /// True once a store landed in the predecoded text range (self-modifying
  /// code or injection). Cleared only by the re-imaging reset paths --
  /// soft_reset() keeps it, because soft reset does not restore text.
  bool text_dirty() const { return text_dirty_; }

  /// Architectural state that survives soft_reset() and is observable
  /// across packets: the cycle counter (guest-readable via kRegCycles),
  /// the cumulative instruction mix, and the text-dirty flag. Together
  /// with the memory pages a packet writes (captured by
  /// Memory::begin_capture), this is everything one speculative packet
  /// execution can leak into the next -- the parallel engine snapshots
  /// exactly this pair instead of copying the whole core.
  struct SpecState {
    std::uint64_t cycles = 0;
    InstrMix mix;
    bool text_dirty = false;
  };
  SpecState capture_spec_state() const { return {cycles_, mix_, text_dirty_}; }
  void restore_spec_state(const SpecState& state) {
    cycles_ = state.cycles;
    mix_ = state.mix;
    if (text_dirty_ != state.text_dirty) {
      text_dirty_ = state.text_dirty;
      update_predecode_live();
    }
  }

 private:
  void reset_architectural_state();
  /// Recompute the cached fast-path pointers from (artifact, enabled,
  /// dirty); called whenever any of the three inputs changes.
  void update_predecode_live();
  StepInfo exec(const isa::Instr& in, StepInfo info);
  StepInfo finish(StepInfo info, StepEvent event, Trap trap = Trap::None);
  StepInfo exec_mmio(const isa::Instr& in, StepInfo info);
  StepInfo mmio_store(StepInfo info, std::uint32_t addr, std::uint32_t value);
  bool mmio_load(std::uint32_t addr, std::uint32_t& value) const;

  Memory mem_;
  isa::Program program_;
  bool program_loaded_ = false;
  // Shared immutable predecode artifact plus cached raw views of it (the
  // hot path dereferences no smart pointer). pre_ops_ and the trace
  // tables are non-null only while compiled execution is live;
  // pre_base_/pre_text_bytes_ describe the predecoded range whenever an
  // artifact is attached (store-dirty tracking stays armed even when the
  // toggle is off).
  std::shared_ptr<const CompiledProgram> compiled_;
  const CompiledProgram::PreOp* pre_ops_ = nullptr;
  const std::uint8_t* pre_trace_len_ = nullptr;
  const std::uint32_t* pre_trace_off_ = nullptr;
  const CompiledProgram::TraceOp* pre_trace_ops_ = nullptr;
  const std::uint8_t* pre_trace_hashes_ = nullptr;
  std::uint32_t pre_base_ = 0;
  std::uint32_t pre_text_bytes_ = 0;
  bool predecode_enabled_ = true;
  bool text_dirty_ = false;
  std::array<std::uint32_t, 32> regs_{};
  std::uint32_t pc_ = 0;
  std::uint32_t hi_ = 0;
  std::uint32_t lo_ = 0;
  std::uint64_t cycles_ = 0;
  InstrMix mix_;
  std::uint64_t packet_cycles_ = 0;
  std::uint64_t watchdog_budget_ = 1'000'000;
  bool runnable_ = false;
  std::uint32_t pkt_in_len_ = 0;
  util::Bytes output_;
  bool has_output_ = false;
  std::uint32_t out_port_ = 0;
};

template <class Sink>
StepInfo Core::dispatch(Sink& sink, std::uint64_t max_steps) {
  StepInfo last;
  std::uint64_t steps = 0;
  while (steps < max_steps) {
    std::uint64_t len = trace_run_len();
    if (len > 0) {
      if (len > max_steps - steps) len = max_steps - steps;
      // Resolve the trace before exec_trace moves pc (and, after a
      // text-dirtying store, nulls the cached table pointers; the
      // artifact itself stays alive in compiled_).
      const std::uint32_t at = pre_trace_off_[(pc_ - pre_base_) >> 2];
      const CompiledProgram::TraceOp* ops = pre_trace_ops_ + at;
      const std::uint8_t* hashes = pre_trace_hashes_ + at;
      const TraceExec done = exec_trace(len);
      steps += done.retired;
      if (done.retired > 0) {
        const CompiledProgram::TraceOp& op = ops[done.retired - 1];
        last = {op.pc, op.word, StepEvent::Executed, Trap::None};
      }
      if (!sink.on_trace(ops, hashes, done)) return last;
      // A full or side-exiting dispatch leaves pc where the next trace
      // (or step) starts. A short one stopped before an op that traps,
      // touches MMIO, or follows a text-dirtying store: step() it here,
      // or the next dispatch would make no progress.
      if (done.retired == len || done.side_exit) continue;
    }
    last = step();
    ++steps;
    if (!sink.on_step(last) || last.event != StepEvent::Executed) {
      return last;
    }
  }
  return last;
}

}  // namespace sdmmon::np

#endif  // SDMMON_NP_CORE_HPP
