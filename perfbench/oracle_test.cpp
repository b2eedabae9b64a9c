// Self-test of the benchmark's oracle (oracle.hpp), run before every
// benchmark run: the oracle must accept what the real ipv4-cm app does
// to benign and attack traffic, and must count a corrupted forward, an
// escaped attack, and an undispatched packet as failures. Exits nonzero
// on the first case that goes the wrong way.
#include <cstdio>

#include "attack/attack.hpp"
#include "monitor/analysis.hpp"
#include "net/apps.hpp"
#include "net/packet.hpp"
#include "oracle.hpp"

namespace {

using namespace sdmmon;
using perfbench::Verdict;

constexpr std::uint32_t kMarker = 0x41414141;
int g_failures = 0;

void expect(const char* what, Verdict got, Verdict want) {
  const bool ok = got == want;
  std::printf("%-44s %-15s %s\n", what, perfbench::verdict_name(got),
              ok ? "ok" : "WRONG");
  if (!ok) ++g_failures;
}

void expect_true(const char* what, bool value) {
  std::printf("%-44s %-15s %s\n", what, value ? "true" : "false",
              value ? "ok" : "WRONG");
  if (!value) ++g_failures;
}

}  // namespace

int main() {
  const isa::Program app = net::build_ipv4_cm();
  monitor::MerkleTreeHash hash(0x0AC1E5);
  np::Mpsoc soc(2);
  soc.install_all(app, monitor::extract_graph(app, hash), hash);

  const util::Bytes benign = net::make_udp_packet(
      net::ip(10, 0, 0, 1), net::ip(192, 168, 1, 1), 1024, 8000,
      util::Bytes{1, 2, 3, 4, 5, 6, 7, 8, 9});
  const util::Bytes attack =
      attack::craft_cm_overflow(attack::marker_shellcode(kMarker)).packet;

  // The real app, end to end: the oracle must accept both.
  const np::PacketResult forwarded = soc.process_packet(benign);
  expect("real benign packet", perfbench::check_packet(benign, false,
                                                       forwarded, kMarker),
         Verdict::Ok);
  const np::PacketResult flagged = soc.process_packet(attack);
  expect("real attack packet",
         perfbench::check_packet(attack, true, flagged, kMarker), Verdict::Ok);

  // Corrupted forwards.
  np::PacketResult corrupt = forwarded;
  corrupt.output.back() ^= 0x01;
  expect("payload byte flipped",
         perfbench::check_packet(benign, false, corrupt, kMarker),
         Verdict::BadForward);
  corrupt = forwarded;
  corrupt.output[8] = benign[8];
  expect("TTL not decremented",
         perfbench::check_packet(benign, false, corrupt, kMarker),
         Verdict::BadForward);
  corrupt = forwarded;
  corrupt.output[10] ^= 0x10;
  expect("header checksum wrong",
         perfbench::check_packet(benign, false, corrupt, kMarker),
         Verdict::BadForward);
  corrupt = forwarded;
  corrupt.output.pop_back();
  expect("truncated output",
         perfbench::check_packet(benign, false, corrupt, kMarker),
         Verdict::BadForward);
  expect("benign packet flagged as attack",
         perfbench::check_packet(benign, false, flagged, kMarker),
         Verdict::NotForwarded);

  // Escaped attacks: first for real, with the monitor not enforcing, so
  // the injected code runs to completion.
  np::Mpsoc unenforced(1);
  unenforced.install_all(app, monitor::extract_graph(app, hash), hash);
  unenforced.core(0).set_enforcement(false);
  expect("real attack on an unenforced core",
         perfbench::check_packet(attack, true,
                                 unenforced.process_packet(attack), kMarker),
         Verdict::AttackEscaped);
  np::PacketResult escaped = flagged;
  escaped.outcome = np::PacketOutcome::Dropped;
  expect("attack dropped without detection",
         perfbench::check_packet(attack, true, escaped, kMarker),
         Verdict::AttackEscaped);
  escaped.outcome = np::PacketOutcome::Forwarded;
  escaped.output = util::Bytes{0x00, 0x41, 0x41, 0x41, 0x41, 0x00};
  expect("attack forwarded carrying the marker",
         perfbench::check_packet(attack, true, escaped, kMarker),
         Verdict::MarkerLeak);
  escaped.output = util::Bytes{0x00, 0x01};
  expect("attack forwarded without the marker",
         perfbench::check_packet(attack, true, escaped, kMarker),
         Verdict::AttackEscaped);

  // Undispatched: every core offline, so the engine drops the packet
  // without running it.
  np::Mpsoc drained(2);
  drained.install_all(app, monitor::extract_graph(app, hash), hash);
  drained.set_core_offline(0, true);
  drained.set_core_offline(1, true);
  const np::PacketResult undispatched = drained.process_packet(benign);
  expect("undispatched benign packet",
         perfbench::check_packet(benign, false, undispatched, kMarker),
         Verdict::NotForwarded);
  const np::PacketResult undispatched_attack = drained.process_packet(attack);
  expect("undispatched attack packet",
         perfbench::check_packet(attack, true, undispatched_attack, kMarker),
         Verdict::AttackEscaped);

  // Aggregate comparison (the parallel engine's check).
  const np::MpsocStats reference = soc.aggregate_stats();
  expect_true("identical stats agree",
              perfbench::stats_disagreement(reference, reference) == 0);
  np::MpsocStats lost = reference;
  lost.forwarded -= 1;
  lost.packets -= 1;
  expect_true("one lost forward counts two disagreements",
              perfbench::stats_disagreement(reference, lost) == 2);
  np::MpsocStats skewed = reference;
  skewed.instructions += 1;
  expect_true("instruction skew counts as a failure",
              perfbench::stats_disagreement(reference, skewed) == 1);
  expect_true("undispatched drops disagree",
              perfbench::stats_disagreement(reference,
                                            drained.aggregate_stats()) > 0);

  if (g_failures != 0) {
    std::printf("oracle self-test: %d case(s) wrong\n", g_failures);
    return 1;
  }
  std::printf("oracle self-test: all cases ok\n");
  return 0;
}
