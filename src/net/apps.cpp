#include "net/apps.hpp"

#include <sstream>

#include "isa/assembler.hpp"

namespace sdmmon::net {

namespace {

// Shared prologue: validate the IPv4 header.
//   $s0 = rx base, $s1 = tx base, $s2 = packet length, $s3 = header bytes
// Jumps to `drop` on any malformed input. The watchful bounds discipline
// here is what the vulnerable CM option parser deliberately lacks.
constexpr const char* kValidateHeader = R"(
    li $s0, 0x30000           # PKT_IN
    li $s1, 0x40000           # PKT_OUT
    li $t0, 0xFFFF0000        # PKT_IN_LEN
    lw $s2, 0($t0)
    slti $t1, $s2, 20
    bnez $t1, drop            # shorter than minimal header
    lbu $t2, 0($s0)
    srl $t3, $t2, 4
    li $t4, 4
    bne $t3, $t4, drop        # not IPv4
    andi $s3, $t2, 0xF
    sll $s3, $s3, 2           # IHL in bytes
    slti $t1, $s3, 20
    bnez $t1, drop            # IHL < 5
    blt $s2, $s3, drop        # truncated header
)";

// Shared forwarding epilogue: copy rx->tx, decrement TTL, rewrite the
// header checksum, commit. Expects the prologue register contract and a
// TTL already validated > 1.
constexpr const char* kForwardAndCommit = R"(
    move $t6, $zero
copy:
    addu $t7, $s0, $t6
    lbu $t8, 0($t7)
    addu $t7, $s1, $t6
    sb $t8, 0($t7)
    addiu $t6, $t6, 1
    bne $t6, $s2, copy
    lbu $t5, 8($s1)
    addiu $t5, $t5, -1        # TTL--
    sb $t5, 8($s1)
    sb $zero, 10($s1)         # zero checksum field
    sb $zero, 11($s1)
    move $t6, $zero           # offset
    move $t7, $zero           # sum
cksum:
    addu $t8, $s1, $t6
    lbu $t9, 0($t8)
    sll $t9, $t9, 8
    lbu $t8, 1($t8)
    or $t9, $t9, $t8
    addu $t7, $t7, $t9
    addiu $t6, $t6, 2
    blt $t6, $s3, cksum
fold:
    srl $t8, $t7, 16
    beqz $t8, folded
    andi $t7, $t7, 0xFFFF
    addu $t7, $t7, $t8
    b fold
folded:
    nor $t7, $t7, $zero
    andi $t7, $t7, 0xFFFF
    srl $t8, $t7, 8
    sb $t8, 10($s1)
    sb $t7, 11($s1)
    li $t0, 0xFFFF0004        # PKT_OUT_COMMIT
    sw $s2, 0($t0)
)";

}  // namespace

std::string ipv4_forward_source() {
  std::ostringstream os;
  os << "# ipv4-forward: validate, TTL--, checksum rewrite, forward.\n"
     << "main:\n"
     << kValidateHeader
     << R"(
    lbu $t5, 8($s0)           # TTL
    slti $t1, $t5, 2
    bnez $t1, drop            # TTL expired
)" << kForwardAndCommit
     << "drop:\n    jr $ra\n";
  return os.str();
}

std::string ipv4_cm_source() {
  std::ostringstream os;
  os << "# ipv4-cm: IPv4 forwarding + congestion management. The CM state\n"
     << "# option parser copies option data into a fixed stack buffer with\n"
     << "# the attacker-controlled TLV length -- a classic data-plane stack\n"
     << "# smash (deliberately vulnerable; the hardware monitor's job).\n"
     << "main:\n"
     << "    addiu $sp, $sp, -8\n"
     << "    sw $ra, 4($sp)\n"
     << kValidateHeader
     << R"(
    lbu $t5, 8($s0)
    slti $t1, $t5, 2
    bnez $t1, drop
    li $t1, 20
    beq $s3, $t1, no_opts     # no options present
    move $s4, $t1             # option scan offset
opt_scan:
    bge $s4, $s3, no_opts
    addu $t6, $s0, $s4
    lbu $t7, 0($t6)           # option type
    beqz $t7, no_opts         # end of options
    li $t8, 1
    beq $t7, $t8, opt_nop
    li $t8, 0x88
    beq $t7, $t8, opt_cm
    lbu $t8, 1($t6)           # other option: skip by TLV length
    beqz $t8, no_opts
    addu $s4, $s4, $t8
    b opt_scan
opt_nop:
    addiu $s4, $s4, 1
    b opt_scan
opt_cm:
    move $a0, $t6
    jal cm_process
no_opts:
)" << kForwardAndCommit
     << R"(
drop:
    lw $ra, 4($sp)
    addiu $sp, $sp, 8
    jr $ra

# cm_process($a0 = option TLV base): read congestion state into a 16-byte
# stack buffer and fold it into a marking decision.
# *** VULNERABLE: copy length comes from the packet's TLV length byte with
# *** no bounds check; data bytes 28..31 overwrite the saved $ra.
cm_process:
    addiu $sp, $sp, -32       # buffer at 0($sp), saved $ra at 28($sp)
    sw $ra, 28($sp)
    lbu $t0, 1($a0)           # TLV length (attacker controlled)
    addiu $t0, $t0, -2        # data length
    blez $t0, cm_done
    move $t1, $zero
cm_copy:
    addu $t2, $a0, $t1
    lbu $t3, 2($t2)
    addu $t2, $sp, $t1
    sb $t3, 0($t2)
    addiu $t1, $t1, 1
    blt $t1, $t0, cm_copy
cm_done:
    lbu $t4, 0($sp)           # "process" the state: threshold check
    slti $t4, $t4, 128
    bnez $t4, cm_nomark
    lbu $t5, 1($s0)           # set ECN CE bits in TOS (input side; the
    ori $t5, $t5, 0x3         # forward loop copies the marked byte out)
    sb $t5, 1($s0)
cm_nomark:
    lw $ra, 28($sp)           # <- smashed by oversized option data
    addiu $sp, $sp, 32
    jr $ra
)";
  return os.str();
}

std::string udp_echo_source() {
  std::ostringstream os;
  os << "# udp-echo: swap IP addresses and UDP ports, echo the datagram.\n"
     << "main:\n"
     << kValidateHeader
     << R"(
    lbu $t1, 9($s0)           # protocol
    li $t2, 17
    bne $t1, $t2, drop        # UDP only
    addiu $t3, $s3, 8          # need full UDP header
    blt $s2, $t3, drop
    move $t6, $zero           # copy packet to tx first
echo_copy:
    addu $t7, $s0, $t6
    lbu $t8, 0($t7)
    addu $t7, $s1, $t6
    sb $t8, 0($t7)
    addiu $t6, $t6, 1
    bne $t6, $s2, echo_copy
    lw $t1, 12($s1)           # swap src/dst IP (word-aligned fields)
    lw $t2, 16($s1)
    sw $t2, 12($s1)
    sw $t1, 16($s1)
    addu $t3, $s1, $s3        # UDP header base in tx
    lhu $t1, 0($t3)           # swap ports
    lhu $t2, 2($t3)
    sh $t2, 0($t3)
    sh $t1, 2($t3)
    sh $zero, 6($t3)          # clear UDP checksum (optional in IPv4)
    sb $zero, 10($s1)         # recompute IP checksum (addresses swapped)
    sb $zero, 11($s1)
    move $t6, $zero
    move $t7, $zero
cksum:
    addu $t8, $s1, $t6
    lbu $t9, 0($t8)
    sll $t9, $t9, 8
    lbu $t8, 1($t8)
    or $t9, $t9, $t8
    addu $t7, $t7, $t9
    addiu $t6, $t6, 2
    blt $t6, $s3, cksum
fold:
    srl $t8, $t7, 16
    beqz $t8, folded
    andi $t7, $t7, 0xFFFF
    addu $t7, $t7, $t8
    b fold
folded:
    nor $t7, $t7, $zero
    andi $t7, $t7, 0xFFFF
    srl $t8, $t7, 8
    sb $t8, 10($s1)
    sb $t7, 11($s1)
    li $t0, 0xFFFF0004
    sw $s2, 0($t0)
drop:
    jr $ra
)";
  return os.str();
}

std::string firewall_source(const std::vector<std::uint16_t>& blocked_ports) {
  std::ostringstream os;
  os << "# firewall: drop UDP packets to blocked ports, forward the rest.\n"
     << "main:\n"
     << kValidateHeader
     << R"(
    lbu $t5, 8($s0)
    slti $t1, $t5, 2
    bnez $t1, drop
    lbu $t1, 9($s0)           # protocol
    li $t2, 17
    bne $t1, $t2, pass        # only UDP is filtered
    addiu $t3, $s3, 8
    blt $s2, $t3, drop        # UDP claimed but truncated
    addu $t3, $s0, $s3
    lbu $t4, 2($t3)           # dst port (big-endian on the wire)
    sll $t4, $t4, 8
    lbu $t6, 3($t3)
    or $t4, $t4, $t6
    la $t7, blocked_count
    lw $t8, 0($t7)
    la $t7, blocked_ports
    move $t9, $zero
block_scan:
    beq $t9, $t8, pass        # scanned all entries
    sll $t6, $t9, 2
    addu $t6, $t7, $t6
    lw $t6, 0($t6)
    beq $t6, $t4, drop        # blocked port
    addiu $t9, $t9, 1
    b block_scan
pass:
)" << kForwardAndCommit
     << R"(
drop:
    jr $ra

.data
blocked_count:
    .word )" << blocked_ports.size() << "\n"
     << "blocked_ports:\n";
  for (std::uint16_t port : blocked_ports) {
    os << "    .word " << port << "\n";
  }
  if (blocked_ports.empty()) os << "    .word 0\n";
  return os.str();
}

std::string flow_stats_source() {
  std::ostringstream os;
  os << "# flow-stats: ipv4 forwarding + per-flow packet counters kept in\n"
     << "# a 256-bucket table in data RAM (state persists across packets).\n"
     << "main:\n"
     << kValidateHeader
     << R"(
    lbu $t5, 8($s0)
    slti $t1, $t5, 2
    bnez $t1, drop
    # flow key: xor of src and dst, folded to 8 bits
    lw $t1, 12($s0)
    lw $t2, 16($s0)
    xor $t3, $t1, $t2
    srl $t4, $t3, 16
    xor $t3, $t3, $t4
    srl $t4, $t3, 8
    xor $t3, $t3, $t4
    andi $t3, $t3, 0xFF
    la $t4, flow_table
    sll $t5, $t3, 2
    addu $t4, $t4, $t5
    lw $t5, 0($t4)          # flow_table[bucket]++
    addiu $t5, $t5, 1
    sw $t5, 0($t4)
    la $t4, total_count
    lw $t5, 0($t4)          # total_count++
    addiu $t5, $t5, 1
    sw $t5, 0($t4)
)" << kForwardAndCommit
     << R"(
drop:
    jr $ra

.data
total_count:
    .word 0
flow_table:
    .space 1024
)";
  return os.str();
}

std::uint8_t flow_stats_bucket(std::uint32_t src, std::uint32_t dst) {
  // Note: the app loads the addresses with lw from little-endian memory,
  // so it sees byte-swapped values; xor folding is byte-order agnostic.
  std::uint32_t x = src ^ dst;
  x ^= x >> 16;
  x ^= x >> 8;
  return static_cast<std::uint8_t>(x & 0xFF);
}

std::string loop_forward_source() {
  std::ostringstream os;
  os << "# loop-forward: minimal branchy forwarder -- a tight 6-op byte\n"
     << "# copy loop dominates, then the first payload byte picks the\n"
     << "# output port. No header validation: every cycle is loop body.\n"
     << R"(main:
    li $s0, 0x30000           # PKT_IN
    li $s1, 0x40000           # PKT_OUT
    li $t0, 0xFFFF0000        # PKT_IN_LEN
    lw $s2, 0($t0)
    beqz $s2, drop            # empty packet
    move $t6, $zero
copy:
    addu $t7, $s0, $t6        # tight loop: the backward bne is taken
    lbu $t8, 0($t7)           # (len - 1) times per packet, so a trace
    addu $t7, $s1, $t6        # unrolls it and side-exits exactly
    sb $t8, 0($t7)            # once, at loop exit
    addiu $t6, $t6, 1
    bne $t6, $s2, copy
    lbu $t1, 0($s0)           # first byte selects the output port
    andi $t1, $t1, 0x7
    li $t0, 0xFFFF0014        # PKT_OUT_PORT
    sw $t1, 0($t0)
    li $t0, 0xFFFF0004        # PKT_OUT_COMMIT
    sw $s2, 0($t0)
drop:
    jr $ra
)";
  return os.str();
}

std::string ipip_encap_source(std::uint32_t tunnel_src,
                              std::uint32_t tunnel_dst) {
  std::ostringstream os;
  os << "# ipip-encap: wrap valid IPv4 packets in an outer RFC 2003 header\n"
     << "# (proto 4) addressed " << std::hex << tunnel_src << " -> "
     << tunnel_dst << std::dec << ".\n"
     << "main:\n"
     << kValidateHeader
     << R"(
    move $t6, $zero           # copy inner packet to OUT+20
enc_copy:
    addu $t7, $s0, $t6
    lbu $t8, 0($t7)
    addu $t7, $s1, $t6
    addiu $t7, $t7, 20
    sb $t8, 0($t7)
    addiu $t6, $t6, 1
    bne $t6, $s2, enc_copy
    li $t1, 0x45              # outer version|IHL
    sb $t1, 0($s1)
    sb $zero, 1($s1)          # tos
    addiu $t2, $s2, 20        # outer total length
    srl $t1, $t2, 8
    sb $t1, 2($s1)
    sb $t2, 3($s1)
    sb $zero, 4($s1)          # id / flags / frag
    sb $zero, 5($s1)
    sb $zero, 6($s1)
    sb $zero, 7($s1)
    li $t1, 64
    sb $t1, 8($s1)            # outer TTL
    li $t1, 4
    sb $t1, 9($s1)            # protocol = IPIP
    sb $zero, 10($s1)         # checksum placeholder
    sb $zero, 11($s1)
)";
  auto emit_addr = [&os](std::uint32_t addr, int offset) {
    os << "    li $t1, " << addr << "\n";
    for (int b = 0; b < 4; ++b) {
      os << "    srl $t2, $t1, " << (24 - 8 * b) << "\n"
         << "    sb $t2, " << (offset + b) << "($s1)\n";
    }
  };
  emit_addr(tunnel_src, 12);
  emit_addr(tunnel_dst, 16);
  os << R"(
    move $t6, $zero           # checksum over the 20-byte outer header
    move $t7, $zero
enc_cksum:
    addu $t8, $s1, $t6
    lbu $t9, 0($t8)
    sll $t9, $t9, 8
    lbu $t8, 1($t8)
    or $t9, $t9, $t8
    addu $t7, $t7, $t9
    addiu $t6, $t6, 2
    li $t8, 20
    blt $t6, $t8, enc_cksum
enc_fold:
    srl $t8, $t7, 16
    beqz $t8, enc_folded
    andi $t7, $t7, 0xFFFF
    addu $t7, $t7, $t8
    b enc_fold
enc_folded:
    nor $t7, $t7, $zero
    andi $t7, $t7, 0xFFFF
    srl $t8, $t7, 8
    sb $t8, 10($s1)
    sb $t7, 11($s1)
    li $t0, 0xFFFF0004
    addiu $t2, $s2, 20
    sw $t2, 0($t0)
drop:
    jr $ra
)";
  return os.str();
}

std::string ipip_decap_source() {
  std::ostringstream os;
  os << "# ipip-decap: strip the outer header of proto-4 packets; forward\n"
     << "# everything else like ipv4-forward.\n"
     << "main:\n"
     << kValidateHeader
     << R"(
    lbu $t1, 9($s0)           # outer protocol
    li $t2, 4
    bne $t1, $t2, pass        # not a tunnel packet
    subu $t9, $s2, $s3        # inner length
    slti $t1, $t9, 20
    bnez $t1, drop            # inner too short to be IPv4
    move $t6, $zero
dec_copy:
    addu $t7, $s0, $t6
    addu $t7, $t7, $s3        # skip the outer header
    lbu $t8, 0($t7)
    addu $t7, $s1, $t6
    sb $t8, 0($t7)
    addiu $t6, $t6, 1
    bne $t6, $t9, dec_copy
    li $t0, 0xFFFF0004
    sw $t9, 0($t0)            # emit the inner packet as-is
pass:
    lbu $t5, 8($s0)
    slti $t1, $t5, 2
    bnez $t1, drop
)" << kForwardAndCommit
     << "drop:\n    jr $ra\n";
  return os.str();
}

namespace {
isa::Program build(const std::string& source, const std::string& name) {
  isa::AsmOptions options;
  options.name = name;
  return isa::assemble(source, options);
}
}  // namespace

isa::Program build_ipv4_forward() {
  return build(ipv4_forward_source(), "ipv4-forward");
}

isa::Program build_ipv4_cm() { return build(ipv4_cm_source(), "ipv4-cm"); }

isa::Program build_udp_echo() { return build(udp_echo_source(), "udp-echo"); }

isa::Program build_firewall(const std::vector<std::uint16_t>& blocked_ports) {
  return build(firewall_source(blocked_ports), "firewall");
}

isa::Program build_flow_stats() {
  return build(flow_stats_source(), "flow-stats");
}

isa::Program build_loop_forward() {
  return build(loop_forward_source(), "loop-forward");
}

isa::Program build_ipip_encap(std::uint32_t tunnel_src,
                              std::uint32_t tunnel_dst) {
  return build(ipip_encap_source(tunnel_src, tunnel_dst), "ipip-encap");
}

isa::Program build_ipip_decap() {
  return build(ipip_decap_source(), "ipip-decap");
}

}  // namespace sdmmon::net
