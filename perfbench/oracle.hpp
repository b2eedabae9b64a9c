// Per-packet output oracle and failure accounting for the device
// benchmark. Written against the packet bytes alone (its own RFC 791
// checksum, no library helpers), so a defect in the forwarding path or
// in the library's packet code cannot hide from it.
//
//  * A benign packet must come out Forwarded, the same length, with TTL
//    one lower, a valid IPv4 header checksum, and every other byte
//    unchanged.
//  * An attack packet must come out AttackDetected, with no output and no
//    trace of the shellcode's marker bytes anywhere in what it produced.
//  * Anything else -- including a packet the engine could not dispatch,
//    which the engines report as a zero-instruction drop -- fails.
#ifndef SDMMON_PERFBENCH_ORACLE_HPP
#define SDMMON_PERFBENCH_ORACLE_HPP

#include <algorithm>
#include <cstdint>
#include <span>

#include "np/monitored_core.hpp"
#include "np/mpsoc.hpp"

namespace sdmmon::perfbench {

enum class Verdict : std::uint8_t {
  Ok,
  NotForwarded,    // benign packet dropped, trapped, flagged, or undispatched
  BadForward,      // benign packet forwarded with wrong bytes
  AttackEscaped,   // attack packet not flagged by the monitor
  MarkerLeak,      // attack packet produced output carrying the marker
};

inline const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::Ok: return "ok";
    case Verdict::NotForwarded: return "not-forwarded";
    case Verdict::BadForward: return "bad-forward";
    case Verdict::AttackEscaped: return "attack-escaped";
    case Verdict::MarkerLeak: return "marker-leak";
  }
  return "?";
}

/// RFC 791 one's-complement sum over an IPv4 header; a header whose
/// checksum field is correct sums to 0xFFFF.
inline std::uint16_t ones_complement_sum(std::span<const std::uint8_t> bytes) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < bytes.size(); i += 2) {
    sum += static_cast<std::uint32_t>(bytes[i] << 8 | bytes[i + 1]);
  }
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(sum);
}

/// True when `output` is `input` forwarded one hop: same length, TTL
/// (byte 8) decremented, header checksum (bytes 10-11) valid, and every
/// other byte identical.
inline bool forwarded_one_hop(std::span<const std::uint8_t> input,
                              std::span<const std::uint8_t> output) {
  if (input.size() < 20 || output.size() != input.size()) return false;
  const std::size_t header = static_cast<std::size_t>(input[0] & 0x0F) * 4;
  if (header < 20 || header > input.size()) return false;
  if (input[8] == 0 || output[8] != input[8] - 1) return false;
  if (ones_complement_sum(output.subspan(0, header)) != 0xFFFF) return false;
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (i == 8 || i == 10 || i == 11) continue;
    if (output[i] != input[i]) return false;
  }
  return true;
}

/// True when the four little-endian bytes of `marker` occur in `bytes`.
inline bool contains_marker(std::span<const std::uint8_t> bytes,
                            std::uint32_t marker) {
  const std::uint8_t pattern[4] = {
      static_cast<std::uint8_t>(marker), static_cast<std::uint8_t>(marker >> 8),
      static_cast<std::uint8_t>(marker >> 16),
      static_cast<std::uint8_t>(marker >> 24)};
  return std::search(bytes.begin(), bytes.end(), pattern, pattern + 4) !=
         bytes.end();
}

/// Judge one packet's result against its input and label.
inline Verdict check_packet(std::span<const std::uint8_t> input, bool attack,
                            const np::PacketResult& result,
                            std::uint32_t marker) {
  if (attack) {
    if (!result.output.empty() && contains_marker(result.output, marker)) {
      return Verdict::MarkerLeak;
    }
    if (result.outcome != np::PacketOutcome::AttackDetected ||
        !result.output.empty()) {
      return Verdict::AttackEscaped;
    }
    return Verdict::Ok;
  }
  if (result.outcome != np::PacketOutcome::Forwarded) {
    return Verdict::NotForwarded;
  }
  return forwarded_one_hop(input, result.output) ? Verdict::Ok
                                                 : Verdict::BadForward;
}

/// Packets two engines disagree on, from their aggregate counters: the
/// summed absolute difference of every per-outcome count, undispatched
/// drops, and the packet total. Any other field that differs (retired
/// instructions, reinstalls, health) adds one, so a mismatch is never
/// counted as zero failures.
inline std::uint64_t stats_disagreement(const np::MpsocStats& a,
                                        const np::MpsocStats& b) {
  auto diff = [](std::uint64_t x, std::uint64_t y) {
    return x > y ? x - y : y - x;
  };
  std::uint64_t packets = diff(a.packets, b.packets) +
                          diff(a.forwarded, b.forwarded) +
                          diff(a.dropped, b.dropped) +
                          diff(a.attacks_detected, b.attacks_detected) +
                          diff(a.traps, b.traps) +
                          diff(a.undispatched, b.undispatched);
  const bool rest_equal =
      a.instructions == b.instructions && a.reinstalls == b.reinstalls &&
      a.violations == b.violations &&
      a.quarantine_events == b.quarantine_events &&
      a.healthy_cores == b.healthy_cores &&
      a.quarantined_cores == b.quarantined_cores &&
      a.offline_cores == b.offline_cores &&
      a.uninstalled_cores == b.uninstalled_cores &&
      a.total_cores == b.total_cores;
  if (packets == 0 && !rest_equal) packets = 1;
  return packets;
}

}  // namespace sdmmon::perfbench

#endif  // SDMMON_PERFBENCH_ORACLE_HPP
