// Install-time predecoding of a program's text segment into the flat,
// immutable artifact the core's hot loop actually executes. The wire
// format ships raw 32-bit instruction words (what gets signed and what
// the monitor hashes); re-decoding the same word and re-evaluating the
// Merkle hash tree on every execution of every instruction is pure
// redundancy -- both are functions of (word, hash parameter) fixed at
// install time. CompiledProgram lowers the text once into an array of
// predecoded micro-ops, each carrying the decoded isa::Instr, the raw
// word, the precomputed w-bit monitor hash under the installed
// InstructionHash, and a decoded flag, so Core::step()
// becomes an indexed fetch plus the execute switch and the monitor check
// becomes a byte load fed straight into HardwareMonitor::on_hashed().
//
// Like monitor::CompiledGraph (the PR-4 precedent this mirrors), a
// CompiledProgram is immutable after compile() and is shared as
// std::shared_ptr<const CompiledProgram> by every core of an MPSoC, by
// the LastGoodConfig recovery snapshot, and by the device application
// store: installing, fast-switching, and quarantine re-imaging swap a
// pointer, never re-decode.
//
// Unified memory has no execute protection, so programs can overwrite
// their own text (and code-injection attacks do). The artifact is a
// pure cache of the *installed image*: the core watches stores into the
// predecoded text range, marks the artifact stale, and falls back to the
// word-at-a-time interpreter until the next full reset() re-images the
// text. Undecodable words predecode to a trapping op (kDecoded clear),
// never undefined behavior -- executing one raises Trap::DecodeFault
// exactly as the interpreter would.
//
// Trace formation (docs/EXECUTION.md): on top of the per-op tables
// the compile pass stitches, per block leader, a *trace*: starting at
// the leader it follows fall-through ops, unconditional jumps (j/jal),
// and statically predicted conditional branches (backward = taken,
// forward = not taken -- the classic loop heuristic) across block
// boundaries until it reaches an indirect jump (jr/jalr, kept as the
// trace's last op), a syscall/break, an undecodable word, a predicted
// target outside the text, or the 255-op cap. Each TraceOp carries its
// own pc (trace pcs are not contiguous; loops unroll), the decoded
// instr, raw word, precomputed monitor hash, and a predicted-taken flag
// that doubles as the side-exit record: when the core's trace executor
// (Core::exec_trace) resolves a branch against its prediction it
// retires that branch and *side-exits*, and MonitoredCore retracts only
// the monitor-unchecked overshoot, so compiled execution stays
// bit-identical to the interpreter oracle
// (tests/core_compiled_diff_test).
//
// Every pc in the contiguous prefix of a leader's trace that lies in
// the leader's own block anchors the matching *suffix* of that trace
// (per-pc trace_len_/trace_off_ entries pointing into the same ops), so
// a mid-block resume -- the op after an MMIO stop, a jr into a block
// interior -- re-enters compiled code without copying any ops. A pc the
// 255-op cap left uncovered (a block longer than the cap) starts a
// fresh trace of its own.
#ifndef SDMMON_NP_COMPILED_PROGRAM_HPP
#define SDMMON_NP_COMPILED_PROGRAM_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "isa/isa.hpp"
#include "isa/program.hpp"
#include "monitor/hash.hpp"

namespace sdmmon::np {

class CompiledProgram {
 public:
  /// One predecoded text word, indexed by (pc - text_base) / 4.
  struct PreOp {
    isa::Instr instr;        // valid iff flags & kDecoded
    std::uint32_t word = 0;  // raw encoding (what the monitor hashes)
    std::uint8_t mhash = 0;  // precomputed monitor hash of `word`
    std::uint8_t flags = 0;
  };

  /// PreOp::flags bits.
  static constexpr std::uint8_t kDecoded = 0x01;  // instr is valid

  /// One op of a formed trace (superblock). Unlike PreOp, trace ops are
  /// not indexed by pc -- a trace's pcs jump across blocks and may
  /// repeat (loop unrolling) -- so each op carries its own pc.
  struct TraceOp {
    isa::Instr instr;        // always decoded (formation skips others)
    std::uint32_t pc = 0;    // address this op was fetched from
    std::uint32_t word = 0;  // raw encoding
    std::uint8_t mhash = 0;  // precomputed monitor hash of `word`
    std::uint8_t flags = 0;
  };

  /// TraceOp::flags bits.
  static constexpr std::uint8_t kTracePredTaken = 0x04;  // branch predicted taken

  /// Ops per formed trace at most; the cap also guarantees formation
  /// terminates on unrolled loops.
  static constexpr std::uint32_t kTraceCap = 255;

  /// A trace anchored at one pc: `len` ops with a parallel contiguous
  /// hash lane (hashes[i] == ops[i].mhash). len == 0 when no trace is
  /// anchored there.
  struct TraceRef {
    const TraceOp* ops = nullptr;
    const std::uint8_t* hashes = nullptr;
    std::uint32_t len = 0;
  };

  /// Decode every text word once, precompute its monitor hash under
  /// `hash` (the parameterized unit installed with the program), and
  /// form the traces. Block leaders come from
  /// monitor::analysis::find_basic_blocks, so traces and the monitoring
  /// graph agree on extents. Undecodable words become trapping ops
  /// (kDecoded clear). Never throws on strange text -- the artifact is
  /// total over the installed image.
  static std::shared_ptr<const CompiledProgram> compile(
      const isa::Program& program, const monitor::InstructionHash& hash);

  std::uint32_t text_base() const { return text_base_; }
  /// Bytes of predecoded text ([text_base, text_base + text_bytes)).
  std::uint32_t text_bytes() const { return text_bytes_; }
  std::size_t num_ops() const { return ops_.size(); }
  /// Basic blocks in the predecoded text (np.engine gauge).
  std::size_t num_blocks() const { return num_blocks_; }

  /// Width/name of the hash the mhash table was computed under. The
  /// parameter itself is secret (it never leaves the InstructionHash),
  /// so install paths verify consistency by spot-checking mhash values
  /// against the installed unit instead of comparing names.
  int hash_width() const { return hash_width_; }
  const std::string& hash_name() const { return hash_name_; }

  /// Raw op array for the core's cached-pointer hot path.
  const PreOp* ops_data() const { return ops_.data(); }

  /// Contiguous per-pc monitor hashes (hash_lane_[i] == ops_[i].mhash),
  /// indexed like ops_data().
  const std::uint8_t* hash_lane_data() const { return hash_lane_.data(); }

  /// The trace anchored at `pc` (len == 0 when none: pc outside the
  /// text, misaligned, or at an op no trace can start with -- an
  /// undecodable word or a syscall/break).
  TraceRef trace_at(std::uint32_t pc) const {
    const std::uint32_t off = pc - text_base_;
    if (off >= text_bytes_ || (off & 3u) != 0) return {};
    const std::uint32_t len = trace_len_[off >> 2];
    if (len == 0) return {};
    const std::uint32_t at = trace_off_[off >> 2];
    return {trace_ops_.data() + at, trace_hash_lane_.data() + at, len};
  }

  /// Per-pc trace tables for the core's cached-pointer hot path,
  /// indexed by (pc - base)/4 like ops_data(). trace_len_data()[i] is
  /// the length of the trace anchored at op i (0: none);
  /// trace_off_data()[i] is its offset into trace_ops_data() /
  /// trace_hash_lane_data() (parallel flat arrays holding every formed
  /// trace concatenated; suffix anchors point into their leader's ops).
  const std::uint8_t* trace_len_data() const { return trace_len_.data(); }
  const std::uint32_t* trace_off_data() const { return trace_off_.data(); }
  const TraceOp* trace_ops_data() const { return trace_ops_.data(); }
  const std::uint8_t* trace_hash_lane_data() const {
    return trace_hash_lane_.data();
  }

  /// Formed traces / total stored trace ops (the np.engine.trace_count /
  /// np.engine.trace_ops install gauges). Suffix anchors store no ops
  /// and count as no trace of their own.
  std::size_t num_traces() const { return num_traces_; }
  std::size_t num_trace_ops() const { return num_trace_ops_; }

  /// Wall-clock cost of the trace-formation pass inside compile() (the
  /// np.core.trace_build_ns install histogram).
  std::uint64_t trace_build_ns() const { return trace_build_ns_; }

  /// Precomputed monitor hash of the instruction at `pc`. Returns false
  /// when `pc` is outside (or misaligned within) the predecoded text --
  /// the caller falls back to hashing the fetched word.
  bool monitor_hash(std::uint32_t pc, std::uint8_t& out) const {
    const std::uint32_t off = pc - text_base_;
    if (off >= text_bytes_ || (off & 3u) != 0) return false;
    out = ops_[off >> 2].mhash;
    return true;
  }

  /// Bytes of flat predecoded state (the np.engine.compiled_program_bytes
  /// gauge). Excludes the retained source program, which is cold.
  std::size_t footprint_bytes() const {
    return ops_.size() * sizeof(PreOp) + hash_lane_.size() +
           trace_ops_.size() * sizeof(TraceOp) + trace_hash_lane_.size() +
           trace_len_.size() + trace_off_.size() * sizeof(std::uint32_t);
  }

  /// The program this artifact was predecoded from (what gets signed,
  /// re-imaged at reset, and re-verified by install staging).
  const isa::Program& source() const { return source_; }

 private:
  CompiledProgram() = default;

  isa::Program source_;
  std::uint32_t text_base_ = 0;
  std::uint32_t text_bytes_ = 0;
  std::size_t num_blocks_ = 0;
  std::size_t num_traces_ = 0;
  std::size_t num_trace_ops_ = 0;
  std::uint64_t trace_build_ns_ = 0;
  int hash_width_ = 0;
  std::string hash_name_;
  std::vector<PreOp> ops_;
  std::vector<std::uint8_t> hash_lane_;  // mhash per op, contiguous
  std::vector<std::uint8_t> trace_len_;  // trace length per op (0: none)
  std::vector<std::uint32_t> trace_off_;  // offset into trace_ops_
  std::vector<TraceOp> trace_ops_;        // all traces, concatenated
  std::vector<std::uint8_t> trace_hash_lane_;  // mhash per trace op
};

}  // namespace sdmmon::np

#endif  // SDMMON_NP_COMPILED_PROGRAM_HPP
