// Differential testing of compiled execution (docs/EXECUTION.md): the
// word-at-a-time interpreter (set_predecode_enabled(false)) is the
// oracle, and a core running the install-time CompiledProgram -- whole
// traces through Core::exec_trace, suffix-anchored mid-block resumes,
// trace-granular hash slices through HardwareMonitor::advance, overshoot
// retraction through Core::retract_trace, step() with predecoded fetch
// for everything else -- must be bit-identical to it: StepInfo
// sequences, final core state (registers, cycles, retired mix, output),
// per-packet results, cumulative core stats, AND cumulative monitor
// stats (instructions_checked / state_size_accum catch over- or
// under-feeding the monitor even when verdicts agree).
//
// The gtest suite names keep the corpus each group of cases was written
// for, so test ids stay stable: PredecodeDifferential (mixed random
// text, lockstep stepping, the install path), FuseDifferential
// (straight-line-heavy text with trapping arithmetic), TraceDifferential
// (branchy text dominated by short backward loops, side exits),
// BlockBoundary (handcrafted block shapes), CompiledDifferential (trace
// coverage: single-op blocks, MMIO stops, the 255-op cap, the toggle).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "isa/assembler.hpp"
#include "monitor/analysis.hpp"
#include "net/apps.hpp"
#include "net/traffic.hpp"
#include "np/mpsoc.hpp"
#include "support/test_apps.hpp"
#include "util/rng.hpp"

namespace sdmmon::np {
namespace {

// ---------------------------------------------------------------------
// Shared oracle checks
// ---------------------------------------------------------------------

void expect_same_step(const StepInfo& a, const StepInfo& b,
                      std::uint64_t step) {
  ASSERT_EQ(a.pc, b.pc) << "step " << step;
  ASSERT_EQ(a.word, b.word) << "step " << step;
  ASSERT_EQ(static_cast<int>(a.event), static_cast<int>(b.event))
      << "step " << step << " pc=" << a.pc;
  ASSERT_EQ(static_cast<int>(a.trap), static_cast<int>(b.trap))
      << "step " << step << " pc=" << a.pc;
}

// The counters that survive every reset: cycles and the retired mix
// (what the cycle-cost model and the recovery retraction must keep
// exact).
void expect_same_counters(const Core& a, const Core& b) {
  ASSERT_EQ(a.cycles(), b.cycles());
  const InstrMix& ma = a.instr_mix();
  const InstrMix& mb = b.instr_mix();
  ASSERT_EQ(ma.alu, mb.alu);
  ASSERT_EQ(ma.muldiv, mb.muldiv);
  ASSERT_EQ(ma.load, mb.load);
  ASSERT_EQ(ma.store, mb.store);
  ASSERT_EQ(ma.branch_taken, mb.branch_taken);
  ASSERT_EQ(ma.branch_not_taken, mb.branch_not_taken);
  ASSERT_EQ(ma.jump, mb.jump);
  ASSERT_EQ(ma.trap, mb.trap);
}

void expect_same_state(const Core& a, const Core& b) {
  ASSERT_EQ(a.pc(), b.pc());
  ASSERT_EQ(a.runnable(), b.runnable());
  ASSERT_EQ(a.text_dirty(), b.text_dirty());
  for (int r = 0; r < 32; ++r) {
    ASSERT_EQ(a.reg(r), b.reg(r)) << "register " << r;
  }
  expect_same_counters(a, b);
  ASSERT_EQ(a.has_output(), b.has_output());
  if (a.has_output()) {
    ASSERT_EQ(a.output(), b.output());
    ASSERT_EQ(a.output_port(), b.output_port());
  }
}

void expect_same_result(const PacketResult& a, const PacketResult& b,
                        std::size_t packet) {
  ASSERT_EQ(static_cast<int>(a.outcome), static_cast<int>(b.outcome))
      << "packet " << packet;
  ASSERT_EQ(a.output, b.output) << "packet " << packet;
  ASSERT_EQ(a.output_port, b.output_port) << "packet " << packet;
  ASSERT_EQ(a.instructions, b.instructions) << "packet " << packet;
  ASSERT_EQ(static_cast<int>(a.trap), static_cast<int>(b.trap))
      << "packet " << packet;
  ASSERT_EQ(a.monitor_width, b.monitor_width) << "packet " << packet;
}

void expect_same_stats(const MonitoredCore& a, const MonitoredCore& b) {
  ASSERT_EQ(a.stats().packets, b.stats().packets);
  ASSERT_EQ(a.stats().forwarded, b.stats().forwarded);
  ASSERT_EQ(a.stats().dropped, b.stats().dropped);
  ASSERT_EQ(a.stats().attacks_detected, b.stats().attacks_detected);
  ASSERT_EQ(a.stats().traps, b.stats().traps);
  ASSERT_EQ(a.stats().instructions, b.stats().instructions);
  const monitor::MonitorStats& ma = a.monitor().stats();
  const monitor::MonitorStats& mb = b.monitor().stats();
  ASSERT_EQ(ma.instructions_checked, mb.instructions_checked);
  ASSERT_EQ(ma.mismatches, mb.mismatches);
  ASSERT_EQ(ma.packets_monitored, mb.packets_monitored);
  ASSERT_EQ(ma.state_size_accum, mb.state_size_accum);
}

// The same program in a compiled core and an interpreting oracle, both
// seeded with the same register file.
struct CorePair {
  Core compiled;
  Core interp;

  CorePair(const isa::Program& p,
           const std::shared_ptr<const CompiledProgram>& artifact,
           const std::vector<std::uint32_t>& seeds, std::uint64_t watchdog) {
    interp.set_predecode_enabled(false);
    for (Core* c : {&compiled, &interp}) {
      c->load_program(p, artifact);
      c->set_watchdog_budget(watchdog);
      for (int r = 1; r < 31; ++r) {  // r31 keeps the return sentinel
        c->set_reg(r, seeds[static_cast<std::size_t>(r)]);
      }
    }
    EXPECT_TRUE(compiled.predecode_live());
    EXPECT_FALSE(interp.predecode_live());
  }

  // run() both to completion (or max_steps) and require identical
  // last StepInfo and final state. Returns the oracle's StepInfo.
  StepInfo run_both(std::uint64_t max_steps) {
    const StepInfo a = interp.run(max_steps);
    const StepInfo b = compiled.run(max_steps);
    expect_same_step(a, b, max_steps);
    expect_same_state(interp, compiled);
    return a;
  }
};

std::vector<std::uint32_t> random_seeds(util::Rng& rng) {
  std::vector<std::uint32_t> seeds(32);
  for (auto& s : seeds) s = rng.next_u32();
  return seeds;
}

// A monitored compiled core and a monitored interpreting oracle with the
// same installed configuration.
struct MonitoredPair {
  MonitoredCore compiled;
  MonitoredCore interp;

  MonitoredPair() { interp.core().set_predecode_enabled(false); }

  void install(const isa::Program& app, const monitor::MonitoringGraph& graph,
               const monitor::MerkleTreeHash& hash) {
    for (MonitoredCore* mc : {&compiled, &interp}) {
      mc->install(app, graph, std::make_unique<monitor::MerkleTreeHash>(hash));
    }
    ASSERT_TRUE(compiled.core().predecode_live());
    ASSERT_FALSE(interp.core().predecode_live());
  }

  void set_enforcement(bool on) {
    compiled.set_enforcement(on);
    interp.set_enforcement(on);
  }

  PacketResult process(const util::Bytes& packet, std::size_t index) {
    const PacketResult want = interp.process_packet(packet);
    const PacketResult got = compiled.process_packet(packet);
    expect_same_result(want, got, index);
    expect_same_counters(compiled.core(), interp.core());
    EXPECT_GE(got.trace_dispatches, got.trace_side_exits);
    return got;
  }
};

// Every app x 1400 packets (generated, with every seventh packet random
// garbage that traps or drops) through monitored cores: results, core
// stats, and monitor stats must match the interpreter.
void check_monitored_apps(const std::vector<isa::Program>& apps,
                          std::uint32_t hash_base, std::uint64_t seed) {
  util::Rng rng(seed);
  for (const isa::Program& app : apps) {
    monitor::MerkleTreeHash hash(hash_base + app.text.size());
    MonitoredPair pair;
    pair.install(app, monitor::extract_graph(app, hash), hash);
    net::TrafficGenerator gen;
    for (std::size_t i = 0; i < 1400; ++i) {
      util::Bytes packet;
      if (i % 7 == 2) {
        packet.resize(rng.below(128));
        for (auto& b : packet) b = static_cast<std::uint8_t>(rng.next());
      } else {
        packet = gen.next().packet;
      }
      pair.process(packet, i);
      if (::testing::Test::HasFatalFailure()) return;
    }
    expect_same_stats(pair.compiled, pair.interp);
  }
}

// New hash parameter, new artifacts, same binary; then a different
// binary. Equivalence must hold across every swap.
void check_reinstalls(const std::vector<isa::Program>& binaries) {
  MonitoredPair pair;
  net::TrafficGenerator gen;
  std::size_t packet = 0;
  for (const isa::Program& app : binaries) {
    for (std::uint32_t param : {0xAAAAu, 0xBBBBu}) {
      monitor::MerkleTreeHash hash(param);
      pair.install(app, monitor::extract_graph(app, hash), hash);
      for (int i = 0; i < 200; ++i, ++packet) {
        pair.process(gen.next().packet, packet);
        if (::testing::Test::HasFatalFailure()) return;
      }
      expect_same_stats(pair.compiled, pair.interp);
    }
  }
}

// Code-reuse attack traffic on the vulnerable app (the smashed control
// flow jumps into the packet buffer, outside the artifact), both
// enforcement modes: instruction counts prove the compiled core
// executed exactly as many ops before the recovery reset as the oracle.
void check_vuln_app_attacks(std::uint32_t hash_param) {
  for (bool enforce : {true, false}) {
    MonitoredPair pair;
    pair.set_enforcement(enforce);
    const isa::Program vuln = isa::assemble(testsupport::kVulnApp);
    monitor::MerkleTreeHash hash(hash_param);
    pair.install(vuln, monitor::extract_graph(vuln, hash), hash);
    const util::Bytes attack = testsupport::attack_packet();
    net::TrafficGenerator gen;
    for (int i = 0; i < 100; ++i) {
      pair.process(i % 3 == 0 ? attack : gen.next().packet,
                   static_cast<std::size_t>(i));
      if (::testing::Test::HasFatalFailure()) return;
    }
    expect_same_stats(pair.compiled, pair.interp);
  }
}

// Attack traffic under every recovery policy: compiled engines and the
// interpreter oracle agree packet-for-packet, including through
// quarantines (the violation that trips the threshold fires inside a
// trace) and last-good re-images (which re-share the artifact).
void check_recovery_policies(std::uint64_t seed) {
  for (RecoveryPolicy policy :
       {RecoveryPolicy::ResetAndContinue, RecoveryPolicy::QuarantineAfterK,
        RecoveryPolicy::ReinstallLastGood}) {
    RecoveryConfig config;
    config.policy = policy;
    config.violation_threshold = 3;
    config.window_packets = 8;
    Mpsoc compiled_soc(2, DispatchPolicy::RoundRobin, config);
    Mpsoc oracle_soc(2, DispatchPolicy::RoundRobin, config);
    for (std::size_t c = 0; c < oracle_soc.num_cores(); ++c) {
      oracle_soc.core(c).core().set_predecode_enabled(false);
    }
    testsupport::install_all(compiled_soc, testsupport::kVulnApp, 0x7E57);
    testsupport::install_all(oracle_soc, testsupport::kVulnApp, 0x7E57);

    const util::Bytes attack = testsupport::attack_packet();
    util::Rng rng(seed + static_cast<std::uint64_t>(policy));
    net::TrafficGenerator gen;
    for (int i = 0; i < 120; ++i) {
      const util::Bytes packet =
          rng.below(3) == 0 ? attack : gen.next().packet;
      expect_same_result(oracle_soc.process_packet(packet),
                         compiled_soc.process_packet(packet),
                         static_cast<std::size_t>(i));
    }
    for (std::size_t c = 0; c < oracle_soc.num_cores(); ++c) {
      expect_same_counters(compiled_soc.core(c).core(),
                           oracle_soc.core(c).core());
    }
    const MpsocStats sa = compiled_soc.aggregate_stats();
    const MpsocStats sb = oracle_soc.aggregate_stats();
    EXPECT_EQ(sa.forwarded, sb.forwarded) << recovery_policy_name(policy);
    EXPECT_EQ(sa.attacks_detected, sb.attacks_detected)
        << recovery_policy_name(policy);
    EXPECT_EQ(sa.quarantined_cores, sb.quarantined_cores)
        << recovery_policy_name(policy);
    EXPECT_EQ(sa.quarantine_events, sb.quarantine_events)
        << recovery_policy_name(policy);
    EXPECT_EQ(sa.reinstalls, sb.reinstalls) << recovery_policy_name(policy);
    // The toggle is a core property, not a program property: recovery
    // re-images keep each core's engine.
    for (std::size_t c = 0; c < oracle_soc.num_cores(); ++c) {
      EXPECT_FALSE(oracle_soc.core(c).core().predecode_live());
      EXPECT_TRUE(compiled_soc.core(c).core().predecode_live());
    }
  }
}

// A program that stores "addiu $v0, $zero, 42" over the nop at
// `target` and then executes it; `nops` nops follow the store.
isa::Program self_modifying_program(int nops) {
  const std::uint32_t patch =
      isa::encode(isa::make_itype(isa::Op::Addiu, 2, 0, 42));
  std::string src = R"(
main:
    la $t0, target
    lui $t1, 0
    ori $t1, $t1, 0
    sw $t1, 0($t0)
target:
)";
  for (int i = 0; i < nops; ++i) src += "    nop\n";
  src += "    jr $ra\n";
  isa::Program p = isa::assemble(src);
  // The assembler has no word-valued immediates for a label patch, so
  // the lui/ori pair is rewritten to materialize the patch word in $t1.
  p.text[2] = isa::encode(isa::make_itype(
      isa::Op::Lui, 9, 0, static_cast<std::int32_t>(patch >> 16)));
  p.text[3] = isa::encode(isa::make_itype(
      isa::Op::Ori, 9, 9, static_cast<std::int32_t>(patch & 0xFFFF)));
  return p;
}

// ---------------------------------------------------------------------
// Random-program corpora
// ---------------------------------------------------------------------

constexpr isa::Op kBranch[] = {isa::Op::Beq, isa::Op::Bne, isa::Op::Blez,
                               isa::Op::Bgtz};
constexpr isa::Op kMem[] = {isa::Op::Lw, isa::Op::Lb, isa::Op::Lbu,
                            isa::Op::Sw, isa::Op::Sb, isa::Op::Sh};
constexpr isa::Op kImm[] = {isa::Op::Addiu, isa::Op::Ori,  isa::Op::Andi,
                            isa::Op::Xori,  isa::Op::Slti, isa::Op::Lui};
constexpr isa::Op kTrapArith[] = {isa::Op::Add, isa::Op::Sub};
constexpr isa::Op kPure[] = {
    isa::Op::Addu, isa::Op::Subu,  isa::Op::And, isa::Op::Or,
    isa::Op::Xor,  isa::Op::Nor,   isa::Op::Slt, isa::Op::Sltu,
    isa::Op::Mult, isa::Op::Multu, isa::Op::Div, isa::Op::Divu,
    isa::Op::Mfhi, isa::Op::Mflo};

// Appends one random op of each shape to `p` at cumulative percentage
// thresholds; everything past the last threshold is a raw word (often
// undecodable, sometimes accidentally valid).
struct Mix {
  int branch, jump, jr, mem, trap_arith, imm, alu, shift;
  std::int32_t branch_lo, branch_span;  // branch offsets [lo, lo + span)
  bool jal;                             // jumps are j or jal
  const isa::Op* alu_ops;
  std::size_t num_alu_ops;
};

isa::Program random_program(util::Rng& rng, const Mix& mix, const char* name) {
  const std::size_t n = 16 + rng.below(48);
  isa::Program p;
  p.name = name;
  p.text_base = 0;
  p.entry = 0;
  p.text.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto pick = static_cast<int>(rng.below(100));
    const int rd = static_cast<int>(8 + rng.below(16));  // $t0..$s7
    const int rs = static_cast<int>(8 + rng.below(16));
    const int rt = static_cast<int>(8 + rng.below(16));
    if (pick < mix.branch) {
      const std::int32_t off =
          static_cast<std::int32_t>(rng.below(
              static_cast<std::uint64_t>(mix.branch_span))) +
          mix.branch_lo;
      p.text.push_back(isa::encode(
          isa::make_branch(kBranch[rng.below(4)], rs, rt, off)));
    } else if (pick < mix.jump) {
      const isa::Op op =
          mix.jal && rng.below(2) == 1 ? isa::Op::Jal : isa::Op::J;
      p.text.push_back(isa::encode(
          isa::make_jump(op, static_cast<std::uint32_t>(rng.below(n)))));
    } else if (pick < mix.jr) {
      p.text.push_back(isa::encode(isa::make_rtype(isa::Op::Jr, 0, 31, 0)));
    } else if (pick < mix.mem) {
      const std::int32_t imm =
          static_cast<std::int32_t>(rng.below(0x100)) - 0x80;
      p.text.push_back(
          isa::encode(isa::make_itype(kMem[rng.below(6)], rt, rs, imm)));
    } else if (pick < mix.trap_arith) {
      p.text.push_back(isa::encode(
          isa::make_rtype(kTrapArith[rng.below(2)], rd, rs, rt)));
    } else if (pick < mix.imm) {
      const std::int32_t imm =
          static_cast<std::int32_t>(rng.below(0x10000)) - 0x8000;
      p.text.push_back(
          isa::encode(isa::make_itype(kImm[rng.below(6)], rt, rs, imm)));
    } else if (pick < mix.alu) {
      p.text.push_back(isa::encode(isa::make_rtype(
          mix.alu_ops[rng.below(mix.num_alu_ops)], rd, rs, rt)));
    } else if (pick < mix.shift) {
      p.text.push_back(isa::encode(isa::make_shift(
          isa::Op::Sll, rd, rt, static_cast<int>(rng.below(32)))));
    } else {
      p.text.push_back(rng.next_u32());
    }
  }
  return p;
}

// Mixed text: straight-line ALU runs, branches/jumps, loads/stores
// (including text-dirtying ones), jr $ra (sentinel return), trapping
// Add/Sub, and raw undecodable words reachable both as branch targets
// and by fall-through.
constexpr isa::Op kMixedAlu[] = {
    isa::Op::Addu, isa::Op::Subu, isa::Op::And, isa::Op::Or,
    isa::Op::Xor,  isa::Op::Nor,  isa::Op::Slt, isa::Op::Sltu,
    isa::Op::Add,  isa::Op::Sub,  isa::Op::Mult, isa::Op::Multu};
constexpr Mix kMixedCorpus = {8,  12, 15, 25, 25, 40, 85, 90,
                              -4, 12, false, kMixedAlu, std::size(kMixedAlu)};
// Straight-line-heavy text: long ALU runs (mul/div, hi/lo included)
// broken by every stop construct, with trapping arithmetic that is not
// a block end.
constexpr Mix kStraightCorpus = {7,  10, 13, 21, 27, 45, 92, 96,
                                 -4, 12, false, kPure, std::size(kPure)};
// Branchy text: short backward (predicted-taken) loops over small
// bodies, forward branches (taken = side exit), branch-to-next (imm 0),
// j/jal followed through, jr and raw words as trace enders.
constexpr Mix kBranchyCorpus = {20, 24, 27, 35, 41, 58, 94, 97,
                                -7, 12, true, kPure, std::size(kPure)};

// Runs `trials` programs of one corpus end to end on both engines:
// small watchdogs sometimes (budget clamps inside a trace) and max_steps
// caps that land inside a trace.
void check_random_runs(std::uint64_t seed, const Mix& mix, const char* name,
                       std::uint32_t hash_param) {
  util::Rng rng(seed);
  for (int trial = 0; trial < 600; ++trial) {
    const isa::Program p = random_program(rng, mix, name);
    auto artifact =
        CompiledProgram::compile(p, monitor::MerkleTreeHash(hash_param));
    const std::uint64_t watchdog = rng.below(8) == 0 ? 1 + rng.below(40) : 512;
    const std::vector<std::uint32_t> seeds = random_seeds(rng);
    const std::uint64_t max_steps =
        rng.below(4) == 0 ? 1 + rng.below(32) : 300;
    CorePair pair(p, artifact, seeds, watchdog);
    pair.run_both(max_steps);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << name << " trial " << trial;
  }
}

class PredecodeDifferentialTest : public ::testing::TestWithParam<int> {};

// 8 seeds x 700 mixed programs, each stepped in lockstep (step()
// predecoded fetch vs decode, StepInfo by StepInfo) and re-run end to
// end (run(): traces and steps vs the interpreter).
TEST_P(PredecodeDifferentialTest, RandomProgramsLockstepAndRun) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x9E3779B9 + 7);
  for (int trial = 0; trial < 700; ++trial) {
    const isa::Program p = random_program(rng, kMixedCorpus, "fuzz");
    auto artifact = CompiledProgram::compile(p, monitor::MerkleTreeHash(0xD1FF));
    const std::uint64_t watchdog = rng.below(8) == 0 ? 1 + rng.below(40) : 512;
    const std::vector<std::uint32_t> seeds = random_seeds(rng);
    {
      CorePair pair(p, artifact, seeds, watchdog);
      for (std::uint64_t step = 0; step < 300 && pair.interp.runnable();
           ++step) {
        expect_same_step(pair.compiled.step(), pair.interp.step(), step);
        ASSERT_EQ(pair.compiled.pc(), pair.interp.pc()) << "step " << step;
        ASSERT_EQ(pair.compiled.cycles(), pair.interp.cycles())
            << "step " << step;
      }
      expect_same_state(pair.compiled, pair.interp);
    }
    CorePair pair(p, artifact, seeds, watchdog);
    pair.run_both(300);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredecodeDifferentialTest,
                         ::testing::Range(0, 8));

class FuseDifferentialTest : public ::testing::TestWithParam<int> {};

// 8 seeds x 600 straight-line-heavy programs.
TEST_P(FuseDifferentialTest, RandomProgramsRunIdenticalAcrossTiers) {
  check_random_runs(static_cast<std::uint64_t>(GetParam()) * 0x51CAFE + 13,
                    kStraightCorpus, "fuse-fuzz", 0xF05E);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuseDifferentialTest, ::testing::Range(0, 8));

class TraceDifferentialTest : public ::testing::TestWithParam<int> {};

// 8 seeds x 600 branchy programs: the retired mix must count
// taken/not-taken by ACTUAL branch outcome, not prediction.
TEST_P(TraceDifferentialTest, RandomProgramsRunIdenticalAcrossTiers) {
  check_random_runs(static_cast<std::uint64_t>(GetParam()) * 0x7ACE5EED + 29,
                    kBranchyCorpus, "trace-fuzz", 0x7ACE);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceDifferentialTest,
                         ::testing::Range(0, 8));

// ---------------------------------------------------------------------
// Monitored packet processing
// ---------------------------------------------------------------------

TEST(PredecodeDifferential, MonitoredVerdictsAndStatsMatchInterpreter) {
  check_monitored_apps({net::build_ipv4_forward(), net::build_ipv4_cm(),
                        net::build_udp_echo(),
                        net::build_firewall({22, 53, 80, 443})},
                       0x1234, 0xC0DE5EED);
}

TEST(FuseDifferential, MonitoredVerdictsAndStatsMatchAcrossTiers) {
  check_monitored_apps({net::build_ipv4_forward(), net::build_ipv4_cm(),
                        net::build_udp_echo(),
                        net::build_firewall({22, 53, 80, 443})},
                       0x4242, 0xF0E5EED);
}

// loop-forward is the extreme case: nearly every retired instruction
// reaches the monitor inside a trace slice spanning many unrolled loop
// iterations.
TEST(TraceDifferential, MonitoredVerdictsAndStatsMatchAcrossTiers) {
  check_monitored_apps({net::build_ipv4_forward(), net::build_ipv4_cm(),
                        net::build_udp_echo(),
                        net::build_firewall({22, 53, 80, 443}),
                        net::build_loop_forward()},
                       0x4242, 0x7ACE5EED);
}

TEST(PredecodeDifferential, MidStreamReinstallKeepsEquivalence) {
  check_reinstalls({net::build_udp_echo(), net::build_ipv4_forward()});
}

TEST(FuseDifferential, MidStreamReinstallKeepsEquivalence) {
  check_reinstalls({net::build_firewall({21, 22, 80}), net::build_ipv4_cm()});
}

TEST(TraceDifferential, MidStreamReinstallKeepsEquivalence) {
  check_reinstalls({net::build_loop_forward(), net::build_ipv4_forward()});
}

TEST(FuseDifferential, MismatchMidPureRunMatchesOracle) {
  check_vuln_app_attacks(0x7E58);
}

TEST(TraceDifferential, AttackMismatchMidTraceMatchesOracle) {
  check_vuln_app_attacks(0x7E57);
}

// Attack text INSIDE the artifact: the installed text ends in a
// straight sled the monitoring graph does not expect (graph extracted
// from a truncated program), so advance() mismatches partway through a
// compiled slice and the overshoot is retracted.
TEST(FuseDifferential, MismatchInsideFusedInstalledRunMatchesOracle) {
  const isa::Program full = isa::assemble(R"(
main:
    addiu $t0, $t0, 1
    addiu $t0, $t0, 2
    addiu $t0, $t0, 3
    addiu $t0, $t0, 4
    addiu $t0, $t0, 5
    addiu $t0, $t0, 6
    jr $ra
)");
  isa::Program truncated = full;
  truncated.text.resize(2);
  truncated.text.push_back(
      isa::encode(isa::make_rtype(isa::Op::Jr, 0, 31, 0)));
  monitor::MerkleTreeHash hash(0xBEEF);
  MonitoredPair pair;
  pair.install(full, monitor::extract_graph(truncated, hash), hash);
  const PacketResult got = pair.process(util::Bytes(16, 0xAB), 0);
  EXPECT_EQ(static_cast<int>(got.outcome),
            static_cast<int>(PacketOutcome::AttackDetected));
  expect_same_stats(pair.compiled, pair.interp);
}

// Mismatch INSIDE a trace that spans a predicted branch: a counted loop
// (backward bne, predicted taken) unrolls several iterations, but the
// graph expects a different second body op, so advance() flags a hash
// upstream of the side-exiting loop-exit branch. The retraction covers
// body ops AND predicted-taken branches, and on the final dispatch the
// side-exit flag flips the last op's taken-attribution.
TEST(TraceDifferential, MismatchBeforeSideExitRetractsExactly) {
  const isa::Program full = isa::assemble(R"(
main:
    li $t0, 6
    move $t1, $zero
loop:
    addiu $t1, $t1, 1
    addiu $t2, $t2, 3
    bne $t1, $t0, loop
    addiu $t3, $t3, 5
    jr $ra
)");
  isa::Program expected = full;
  expected.text[3] = isa::encode(isa::make_itype(isa::Op::Addiu, 10, 10, 4));
  monitor::MerkleTreeHash hash(0xBEEF);
  MonitoredPair pair;
  pair.install(full, monitor::extract_graph(expected, hash), hash);
  ASSERT_GT(pair.compiled.core().compiled_program()->num_traces(), 0u);
  const PacketResult got = pair.process(util::Bytes(16, 0xAB), 0);
  EXPECT_EQ(static_cast<int>(got.outcome),
            static_cast<int>(PacketOutcome::AttackDetected));
  expect_same_stats(pair.compiled, pair.interp);
}

TEST(PredecodeDifferential, MismatchedArtifactHashRejectedAtInstall) {
  const isa::Program app = net::build_udp_echo();
  monitor::MerkleTreeHash installed(0x1111);
  auto graph = monitor::extract_graph(app, installed);
  // Artifact predecoded under a different parameter.
  auto wrong = CompiledProgram::compile(app, monitor::MerkleTreeHash(0x2222));
  MonitoredCore core;
  EXPECT_THROW(
      core.install(app, monitor::CompiledGraph::compile(graph), wrong,
                   std::make_unique<monitor::MerkleTreeHash>(installed)),
      std::invalid_argument);
}

// ---------------------------------------------------------------------
// Self-modifying stores: compiled execution dies with the artifact
// ---------------------------------------------------------------------

// Lockstep: the predecoded image is stale the moment the store lands;
// step() must drop to interpretation and execute the NEW word.
TEST(PredecodeDifferential, SelfModifyingStoreFallsBackAndMatchesOracle) {
  const isa::Program p = self_modifying_program(1);
  auto artifact = CompiledProgram::compile(p, monitor::MerkleTreeHash(0x5E1F));
  CorePair pair(p, artifact, std::vector<std::uint32_t>(32, 0), 1'000'000);
  Core& fast = pair.compiled;
  for (std::uint64_t step = 0; step < 64 && pair.interp.runnable(); ++step) {
    expect_same_step(fast.step(), pair.interp.step(), step);
  }
  expect_same_state(fast, pair.interp);
  EXPECT_EQ(fast.reg(2), 42u) << "patched instruction must have executed";
  EXPECT_TRUE(fast.text_dirty());
  EXPECT_FALSE(fast.predecode_live())
      << "stale artifact must not serve predecoded ops";
  EXPECT_EQ(fast.trace_run_len(), 0u) << "nor traces";

  // soft_reset keeps the corrupted text, so the fallback must persist...
  fast.soft_reset();
  EXPECT_TRUE(fast.text_dirty());
  EXPECT_FALSE(fast.predecode_live());
  // ...while the re-imaging reset() restores text and re-arms compiled
  // execution from the same shared artifact.
  fast.reset();
  EXPECT_FALSE(fast.text_dirty());
  EXPECT_TRUE(fast.predecode_live());
  EXPECT_GT(fast.trace_run_len(), 0u);
  const StepInfo done = fast.run(64);
  EXPECT_EQ(static_cast<int>(done.event),
            static_cast<int>(StepEvent::PacketDone));
}

// run(): the store ends its trace dispatch after retiring, and the
// patched word executes through the interpreter.
TEST(FuseDifferential, SelfModifyingStoreKillsFusionAndMatchesOracle) {
  const isa::Program p = self_modifying_program(3);
  auto artifact = CompiledProgram::compile(p, monitor::MerkleTreeHash(0x5E1F));
  CorePair pair(p, artifact, std::vector<std::uint32_t>(32, 0), 1'000'000);
  pair.run_both(64);
  EXPECT_EQ(pair.compiled.reg(2), 42u);
  EXPECT_FALSE(pair.compiled.predecode_live());
  pair.compiled.reset();
  EXPECT_TRUE(pair.compiled.predecode_live());
}

// Monitored: the patched word's hash comes from the real hash unit (the
// precomputed lane is stale) and the graph, extracted from the
// installed text, rejects it -- identically on both engines, with and
// without enforcement.
TEST(TraceDifferential, SelfModifyingStoreKillsTracesAndMatchesOracle) {
  const isa::Program p = self_modifying_program(3);
  for (bool enforce : {true, false}) {
    monitor::MerkleTreeHash hash(0x5E1F);
    MonitoredPair pair;
    pair.set_enforcement(enforce);
    pair.install(p, monitor::extract_graph(p, hash), hash);
    for (std::size_t i = 0; i < 4; ++i) {
      const PacketResult got = pair.process(util::Bytes(8, 0x11), i);
      if (enforce) {
        EXPECT_EQ(static_cast<int>(got.outcome),
                  static_cast<int>(PacketOutcome::AttackDetected));
      }
    }
    expect_same_stats(pair.compiled, pair.interp);
  }
}

// ---------------------------------------------------------------------
// MPSoC: artifact sharing and recovery-path equivalence
// ---------------------------------------------------------------------

TEST(PredecodeDifferential, InstallAllSharesOneCompiledProgramAcrossCores) {
  Mpsoc soc(4);
  testsupport::install_all(soc, testsupport::kEchoApp, 0x1D1D);
  const CompiledProgram* shared = soc.core(0).core().compiled_program().get();
  ASSERT_NE(shared, nullptr);
  for (std::size_t c = 1; c < soc.num_cores(); ++c) {
    EXPECT_EQ(soc.core(c).core().compiled_program().get(), shared)
        << "core " << c;
  }
  EXPECT_EQ(shared->num_ops(),
            isa::assemble(testsupport::kEchoApp).text.size());
}

TEST(TraceDifferential, TraceTablesRideTheSharedArtifact) {
  Mpsoc soc(4);
  testsupport::install_all(soc, testsupport::kEchoApp, 0x1D1D);
  const CompiledProgram* shared = soc.core(0).core().compiled_program().get();
  ASSERT_NE(shared, nullptr);
  for (std::size_t c = 1; c < soc.num_cores(); ++c) {
    EXPECT_EQ(soc.core(c).core().compiled_program()->trace_ops_data(),
              shared->trace_ops_data())
        << "trace tables must be the same allocation, core " << c;
  }
  EXPECT_GT(shared->num_traces(), 0u);
  EXPECT_GE(shared->num_trace_ops(), shared->num_traces());
}

TEST(PredecodeDifferential, AttackRecoveryPoliciesMatchAcrossEngines) {
  check_recovery_policies(0xA77AC4);
}

TEST(FuseDifferential, AttackRecoveryPoliciesMatchAcrossTiers) {
  check_recovery_policies(0xF5A77AC4);
}

TEST(TraceDifferential, AttackRecoveryPoliciesMatchAcrossTiers) {
  check_recovery_policies(0x7AC3A77C);
}

// ---------------------------------------------------------------------
// Handcrafted block shapes
// ---------------------------------------------------------------------

std::shared_ptr<const CompiledProgram> compile(const isa::Program& p) {
  return CompiledProgram::compile(p, monitor::MerkleTreeHash(0xB10C));
}

isa::Program raw_program(std::vector<std::uint32_t> words) {
  isa::Program p;
  p.name = "block-boundary";
  p.text_base = 0;
  p.entry = 0;
  p.text = std::move(words);
  return p;
}

StepInfo run_both(const isa::Program& p, std::uint64_t max_steps = 256,
                  std::uint64_t watchdog = 512) {
  CorePair pair(p, compile(p), std::vector<std::uint32_t>(32, 0), watchdog);
  return pair.run_both(max_steps);
}

std::uint32_t addiu(int rt, int rs, std::int32_t imm) {
  return isa::encode(isa::make_itype(isa::Op::Addiu, rt, rs, imm));
}

std::uint32_t beq(int rs, int rt, std::int32_t off) {
  return isa::encode(isa::make_branch(isa::Op::Beq, rs, rt, off));
}

std::uint32_t jr(int rs) {
  return isa::encode(isa::make_rtype(isa::Op::Jr, 0, rs, 0));
}

// The trace anchored at word index `i` of artifact `a`.
CompiledProgram::TraceRef trace_at_word(const CompiledProgram& a,
                                        std::uint32_t i) {
  return a.trace_at(a.text_base() + i * 4);
}

// An undecodable word is a trapping PreOp no trace may contain: a trace
// falling through into it stops exactly at the boundary, so the trap
// fires at the same pc / cycle count on both engines.
TEST(BlockBoundary, BlockEndingInUndecodableWordTrapsIdentically) {
  const isa::Program p = raw_program(
      {addiu(8, 8, 1), addiu(9, 9, 2), addiu(10, 10, 3), 0xFFFFFFFFu});
  auto artifact = compile(p);
  EXPECT_EQ(trace_at_word(*artifact, 0).len, 3u);
  EXPECT_FALSE(artifact->ops_data()[3].flags & CompiledProgram::kDecoded);
  EXPECT_EQ(trace_at_word(*artifact, 3).len, 0u)
      << "no trace starts at an undecodable word";
  const StepInfo last = run_both(p);
  EXPECT_EQ(static_cast<int>(last.event),
            static_cast<int>(StepEvent::Trapped));
  EXPECT_EQ(static_cast<int>(last.trap),
            static_cast<int>(Trap::DecodeFault));
  EXPECT_EQ(last.pc, 12u) << "trap pc is the undecodable word itself";
}

// Back-to-back branches: every block is a single branch. The trace from
// the entry crosses all of them along the predicted path (imm 0 counts
// as forward: predicted, and always resolved, not taken), and every
// branch leader anchors a trace of its own.
TEST(BlockBoundary, BackToBackBranchesNeverFuse) {
  const isa::Program p = raw_program(
      {beq(0, 0, 0), beq(0, 0, 0), beq(0, 0, 0), addiu(8, 0, 7),
       beq(8, 0, 0), beq(8, 0, 0), jr(31)});
  auto artifact = compile(p);
  EXPECT_EQ(trace_at_word(*artifact, 0).len, 7u);
  for (std::uint32_t i = 0; i < 7; ++i) {
    EXPECT_EQ(trace_at_word(*artifact, i).len, 7u - i) << "op " << i;
  }
  run_both(p);
}

// Single-op blocks between taken branches: each one-op block (a branch
// target followed by a branch) anchors a trace that starts with it.
TEST(BlockBoundary, SingleInstructionPureBlocksFuseAsRunsOfOne) {
  const isa::Program p = raw_program(
      {addiu(8, 0, 5),    // block A: one op
       beq(0, 0, 1),      // taken, but predicted not taken: side exit
       addiu(8, 8, 100),  // skipped
       addiu(9, 8, 1),    // block B: one op (branch target)
       beq(0, 0, 1),
       addiu(9, 9, 100),  // skipped
       addiu(10, 9, 1),   // block C
       jr(31)});
  auto artifact = compile(p);
  for (std::uint32_t leader : {0u, 3u, 6u}) {
    const CompiledProgram::TraceRef t = trace_at_word(*artifact, leader);
    ASSERT_GE(t.len, 1u) << "leader " << leader;
    EXPECT_EQ(t.ops[0].pc, leader * 4) << "leader " << leader;
  }
  run_both(p);
  Core core;
  core.load_program(p, artifact);
  core.run(64);
  EXPECT_EQ(core.reg(10), 7u) << "the one-op blocks ran, not skipped ops";
}

// Mid-block entry: jr into the middle of a block resumes in compiled
// code. The suffix anchor at the jr target shares its leader's trace
// ops (no copy), and after the dispatch that retires the jr the core
// sits on a dispatchable trace again.
TEST(BlockBoundary, MidBlockEntryUsesSuffixRun) {
  const isa::Program p = raw_program(
      {addiu(9, 0, 16),   // $t1 = 16 (byte address of op 4)
       jr(9),             // jr $t1 into the next block's interior
       addiu(8, 8, 1),    // op 2: leader of a 5-op trace (skipped...
       addiu(8, 8, 2),
       addiu(8, 8, 4),    // op 4: jr target (...except this suffix)
       addiu(8, 8, 8),
       jr(31)});
  auto artifact = compile(p);
  const CompiledProgram::TraceRef leader = trace_at_word(*artifact, 2);
  const CompiledProgram::TraceRef suffix = trace_at_word(*artifact, 4);
  ASSERT_EQ(leader.len, 5u);
  ASSERT_EQ(suffix.len, 3u) << "suffix anchor at the entry point";
  EXPECT_EQ(suffix.ops, leader.ops + 2) << "suffixes share the leader's ops";
  EXPECT_EQ(suffix.hashes, leader.hashes + 2);
  run_both(p);

  Core core;
  core.load_program(p, artifact);
  ASSERT_EQ(core.trace_run_len(), 2u) << "addiu; jr";
  EXPECT_EQ(core.exec_trace(2).retired, 2u);
  EXPECT_EQ(core.pc(), 16u);
  EXPECT_EQ(core.trace_run_len(), 3u) << "resume is compiled, not step()";
  core.run(64);
  EXPECT_EQ(core.reg(8), 12u) << "only ops 4..5 execute";
}

// The store patches an op LATER IN ITS OWN BASIC BLOCK. The trace must
// not have pre-committed the stale suffix: a store that lands in the
// predecoded text ends the dispatch right after retiring, text goes
// dirty, and the patched word executes via the interpreter.
TEST(BlockBoundary, StoreDirtyingOwnBlockExecutesPatchedSuffix) {
  const std::uint32_t patch =
      isa::encode(isa::make_itype(isa::Op::Addiu, 2, 0, 77));
  const isa::Program p = raw_program(
      {isa::encode(isa::make_itype(isa::Op::Lui, 9, 0,
                                   static_cast<std::int32_t>(patch >> 16))),
       isa::encode(isa::make_itype(
           isa::Op::Ori, 9, 9, static_cast<std::int32_t>(patch & 0xFFFF))),
       addiu(10, 0, 20),  // $t2 = byte address of the victim op (20)
       isa::encode(isa::make_itype(isa::Op::Sw, 9, 10, 0)),
       addiu(11, 0, 1),   // op between store and victim
       addiu(2, 0, 1),    // victim: patched to addiu $v0,$zero,77
       jr(31)});
  auto artifact = compile(p);
  EXPECT_EQ(trace_at_word(*artifact, 0).len, 7u);
  EXPECT_EQ(trace_at_word(*artifact, 4).len, 3u);

  const StepInfo last = run_both(p);
  EXPECT_EQ(static_cast<int>(last.event),
            static_cast<int>(StepEvent::PacketDone));
  Core core;
  core.load_program(p, artifact);
  core.run(64);
  EXPECT_EQ(core.reg(2), 77u) << "patched word must execute";
  EXPECT_TRUE(core.text_dirty());
  EXPECT_FALSE(core.predecode_live());
}

// The watchdog budget truncates a trace mid-block: the budget trap must
// fire after exactly the same number of retired ops on both engines.
TEST(BlockBoundary, WatchdogTruncatesFusedRunMidBlock) {
  std::vector<std::uint32_t> words;
  for (int i = 0; i < 16; ++i) words.push_back(addiu(8, 8, 1));
  words.push_back(jr(31));
  const isa::Program p = raw_program(words);
  EXPECT_EQ(trace_at_word(*compile(p), 0).len, 17u);
  for (std::uint64_t budget : {1u, 5u, 15u, 16u}) {
    const StepInfo last = run_both(p, 256, budget);
    EXPECT_EQ(static_cast<int>(last.event),
              static_cast<int>(StepEvent::Trapped))
        << "budget " << budget;
    EXPECT_EQ(static_cast<int>(last.trap), static_cast<int>(Trap::Watchdog))
        << "budget " << budget;
  }
  // Budget 18 completes the block and returns.
  const StepInfo done = run_both(p, 256, 18);
  EXPECT_EQ(static_cast<int>(done.event),
            static_cast<int>(StepEvent::PacketDone));
}

// max_steps from run() can land inside a trace; the compiled core must
// clamp and stop on the exact instruction, resumable mid-block.
TEST(BlockBoundary, MaxStepsStopsInsideRunAndResumes) {
  std::vector<std::uint32_t> words;
  for (int i = 0; i < 12; ++i) words.push_back(addiu(8, 8, 1));
  words.push_back(jr(31));
  const isa::Program p = raw_program(words);
  CorePair pair(p, compile(p), std::vector<std::uint32_t>(32, 0), 512);
  for (std::uint64_t chunk : {3u, 1u, 5u, 2u, 1u, 1u, 10u}) {
    pair.run_both(chunk);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "chunk " << chunk;
  }
  EXPECT_FALSE(pair.compiled.runnable());
  EXPECT_EQ(pair.compiled.reg(8), 12u);
}

// ---------------------------------------------------------------------
// Trace coverage
// ---------------------------------------------------------------------

// Traces run through block ends along the predicted path: the forward
// beq (predicted not taken) does not cut the entry trace, which ends
// with the jr. The hash lanes are the mhash columns of their ops.
TEST(CompiledDifferential, TraceCrossesBlockEndsAlongPredictedPath) {
  const isa::Program p = raw_program(
      {addiu(8, 8, 1), addiu(9, 9, 2), beq(8, 9, 1), addiu(10, 10, 3),
       jr(31)});
  auto artifact = compile(p);
  const CompiledProgram::TraceRef t = trace_at_word(*artifact, 0);
  ASSERT_EQ(t.len, 5u);
  EXPECT_EQ(trace_at_word(*artifact, 1).ops, t.ops + 1) << "suffix anchor";
  EXPECT_EQ(trace_at_word(*artifact, 3).len, 2u) << "own trace at a leader";
  for (std::size_t i = 0; i < artifact->num_ops(); ++i) {
    EXPECT_EQ(artifact->hash_lane_data()[i], artifact->ops_data()[i].mhash)
        << "op " << i;
  }
  for (std::uint32_t i = 0; i < t.len; ++i) {
    EXPECT_EQ(t.hashes[i], t.ops[i].mhash) << "trace op " << i;
    EXPECT_EQ(t.ops[i].pc, i * 4) << "trace op " << i;
  }
  run_both(p);
}

// A one-op block (the target of a taken branch, holding only `jr $ra`)
// anchors a trace of exactly that op.
TEST(CompiledDifferential, SingleOpBlockAnchorsTrace) {
  const isa::Program p = raw_program(
      {addiu(8, 0, 1), isa::encode(isa::make_branch(isa::Op::Bne, 8, 0, 1)),
       addiu(8, 8, 5), jr(31)});
  auto artifact = compile(p);
  const CompiledProgram::TraceRef t = trace_at_word(*artifact, 3);
  ASSERT_EQ(t.len, 1u);
  EXPECT_EQ(t.ops[0].word, jr(31));
  run_both(p);
  // bne is forward (predicted not taken) but taken: a side exit onto
  // the one-op block, which is then dispatched as its own trace.
  monitor::MerkleTreeHash hash(0x51);
  MonitoredPair pair;
  pair.install(p, monitor::extract_graph(p, hash), hash);
  const PacketResult got = pair.process(util::Bytes(4, 0), 0);
  EXPECT_EQ(got.trace_dispatches, 2u);
  EXPECT_EQ(got.trace_side_exits, 1u);
  EXPECT_EQ(got.instructions, 3u);
}

// An MMIO load stops a trace before it; step() retires the load, and the
// very next op resumes in compiled code through its suffix anchor.
TEST(CompiledDifferential, MmioLoadStopResumesMidBlockInCompiledCode) {
  const isa::Program p = isa::assemble(R"(
main:
    lui $t0, 0xFFFF
    lw $t1, 0($t0)        # kRegPktInLen
    addiu $t1, $t1, 1
    addiu $t2, $t1, 2
    jr $ra
)");
  auto artifact = compile(p);
  Core core;
  core.load_program(p, artifact);
  core.deliver_packet(util::Bytes(9, 0x5A));
  ASSERT_EQ(core.trace_run_len(), 5u);
  const Core::TraceExec first = core.exec_trace(5);
  EXPECT_EQ(first.retired, 1u) << "stops before the MMIO load";
  EXPECT_FALSE(first.side_exit);
  EXPECT_EQ(core.trace_run_len(), 4u) << "the load's pc anchors a suffix";
  EXPECT_EQ(static_cast<int>(core.step().event),
            static_cast<int>(StepEvent::Executed));
  EXPECT_EQ(core.reg(9), 9u);
  EXPECT_EQ(core.trace_run_len(), 3u) << "resume is compiled, not step()";

  CorePair pair(p, artifact, std::vector<std::uint32_t>(32, 0), 512);
  pair.compiled.deliver_packet(util::Bytes(9, 0x5A));
  pair.interp.deliver_packet(util::Bytes(9, 0x5A));
  pair.run_both(64);
  EXPECT_EQ(pair.compiled.reg(10), 12u);

  monitor::MerkleTreeHash hash(0x77);
  MonitoredPair mon;
  mon.install(p, monitor::extract_graph(p, hash), hash);
  const PacketResult got = mon.process(util::Bytes(9, 0x5A), 0);
  EXPECT_EQ(got.trace_dispatches, 2u) << "lui | step(lw) | addiu addiu jr";
  EXPECT_EQ(got.instructions, 5u);
}

// A block longer than the 255-op cap: the leader's trace stops at the
// cap, its suffixes anchor every later pc up to it (the last one a
// one-op suffix), and the first pc past the cap starts a fresh trace.
TEST(CompiledDifferential, SuffixAnchorNearTraceCap) {
  constexpr std::uint32_t kOps = 300;
  std::vector<std::uint32_t> words;
  for (std::uint32_t i = 0; i < kOps; ++i) words.push_back(addiu(8, 8, 1));
  words.push_back(jr(31));
  const isa::Program p = raw_program(words);
  auto artifact = compile(p);
  constexpr std::uint32_t kCap = CompiledProgram::kTraceCap;
  const CompiledProgram::TraceRef head = trace_at_word(*artifact, 0);
  ASSERT_EQ(head.len, kCap);
  const CompiledProgram::TraceRef last = trace_at_word(*artifact, kCap - 1);
  EXPECT_EQ(last.len, 1u);
  EXPECT_EQ(last.ops, head.ops + (kCap - 1));
  const CompiledProgram::TraceRef next = trace_at_word(*artifact, kCap);
  EXPECT_EQ(next.len, kOps + 1 - kCap) << "fresh trace past the cap";
  EXPECT_EQ(trace_at_word(*artifact, kCap + 1).ops, next.ops + 1);
  EXPECT_EQ(artifact->num_traces(), 2u);
  for (std::uint64_t budget : {kCap - 1u, kCap + 0u, kCap + 1u, 512u}) {
    run_both(p, 1024, budget);
  }
  for (std::uint64_t max_steps : {kCap - 1u, kCap + 0u, kCap + 1u}) {
    run_both(p, max_steps, 1024);
  }
}

// set_predecode_enabled is the one execution switch: sticky across
// load_program/reset, and it takes predecoded steps and traces down
// together.
TEST(CompiledDifferential, CompiledToggleIsSticky) {
  const isa::Program app = net::build_loop_forward();
  auto artifact = CompiledProgram::compile(app, monitor::MerkleTreeHash(0x13));
  Core core;
  core.set_predecode_enabled(false);
  core.load_program(app, artifact);
  EXPECT_FALSE(core.predecode_live());
  EXPECT_EQ(core.trace_run_len(), 0u);
  core.reset();
  EXPECT_FALSE(core.predecode_live()) << "toggle must survive reset";
  core.set_predecode_enabled(true);
  EXPECT_TRUE(core.predecode_live());
  EXPECT_GT(core.trace_run_len(), 0u);
  core.load_program(app, artifact);
  EXPECT_TRUE(core.predecode_live()) << "toggle must survive load_program";
  core.load_program(app);
  EXPECT_FALSE(core.predecode_live()) << "no artifact, nothing compiled";
  EXPECT_EQ(core.trace_run_len(), 0u);
}

}  // namespace
}  // namespace sdmmon::np
