// The traced pass of the device benchmark: replays a packet stream
// through a serial-engine pipeline assembled only from public calls, and
// times every call at a layer boundary from the outside (no code in src/
// is instrumented).
//
// Per packet, the pipeline is exactly what np::Mpsoc::process_packet
// does -- dispatch over the dispatchable set, MonitoredCore::
// execute_packet, commit_result, RecoveryController::on_outcome,
// EngineObs::record_outcome, and a last-good reinstall when the policy
// asks for one -- so its per-packet results and CoreStats must be
// bit-identical to an untraced engine fed the same stream.
//
// execute_packet is one call, so its inside is split by three shadows
// run on separate objects with the same packet: a plain np::Core that
// times soft_reset + deliver_packet and Core::run over the same retired
// instruction count, and a HardwareMonitor fed the packet's hash stream
// (reset + advance, in the same batches the monitored core feeds). The
// hash stream itself comes from a third, collector core that mirrors the
// monitored core's dispatch; its span is bookkeeping, not a layer. What
// execute_packet spends beyond the shadows is the feed glue, overshoot
// retraction and attack reset.
#ifndef SDMMON_PERFBENCH_TRACED_REPLAY_HPP
#define SDMMON_PERFBENCH_TRACED_REPLAY_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "monitor/monitor.hpp"
#include "np/mpsoc.hpp"
#include "obs/metrics.hpp"

namespace sdmmon::perfbench {

using Clock = std::chrono::steady_clock;

/// The spans of one packet. Consecutive spans share a boundary, so span
/// k covers [t[k], t[k+1]); every span is a top-level call made by the
/// replay and all carry the packet's id (its index in the stream).
enum Span : std::size_t {
  kDispatch,       // np: pick_dispatch_core over the dispatchable set
  kExecute,        // np: MonitoredCore::execute_packet
  kCommit,         // np: MonitoredCore::commit_result (incl. CoreObs)
  kOutcome,        // np: RecoveryController::on_outcome
  kRecord,         // obs: EngineObs::record_outcome
  kReinstall,      // np: last-good MonitoredCore::install (when asked)
  kCollect,        // bookkeeping: hash stream of the packet (collector)
  kResetDeliver,   // np shadow: Core::soft_reset + deliver_packet
  kExec,           // np shadow: Core::run
  kMonitor,        // monitor shadow: HardwareMonitor::reset + advance
  kNumSpans,
};

/// First span that is not part of the engine pipeline itself.
constexpr std::size_t kPipelineSpans = kCollect;

struct PacketSpans {
  std::uint64_t packet_id = 0;
  std::array<std::int64_t, kNumSpans + 1> t{};  // ns since the bench epoch
  std::uint32_t core = 0;
  bool reinstall = false;
  std::int64_t ns(std::size_t span) const { return t[span + 1] - t[span]; }
};

/// What a shadow saw for one packet; compared against the real result.
struct ShadowCounts {
  std::uint64_t retired = 0;    // Core::run retired instructions
  std::uint64_t hashes_fed = 0; // hashes HardwareMonitor::advance consumed
  std::uint64_t mismatches = 0; // shadow disagreed with the real result
};

class TracedReplay {
 public:
  TracedReplay(std::size_t num_cores, np::RecoveryConfig recovery,
               const isa::Program& program,
               const np::InstallArtifacts& artifacts,
               const monitor::InstructionHash& hash, Clock::time_point epoch);

  /// Process one packet through the traced pipeline and its shadows,
  /// filling every boundary of `spans` except the packet id.
  np::PacketResult process(std::span<const std::uint8_t> packet,
                           std::uint32_t flow_key, PacketSpans& spans,
                           ShadowCounts& shadow);

  /// Aggregate counters of the replayed pipeline, with the undispatched
  /// and reinstall counts the replay itself kept (it drives the cores and
  /// the recovery controller directly, around np::Mpsoc's own tallies).
  np::MpsocStats aggregate_stats() const;
  np::Mpsoc& engine() { return pipe_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  std::uint64_t collect(std::size_t core, std::span<const std::uint8_t> packet,
                        std::uint64_t limit);

  np::Mpsoc pipe_;
  obs::Registry registry_;
  std::unique_ptr<np::EngineObs> obs_;
  isa::Program program_;
  np::InstallArtifacts artifacts_;
  std::unique_ptr<monitor::InstructionHash> hash_;
  std::vector<std::size_t> active_;
  std::size_t rr_next_ = 0;
  std::uint64_t undispatched_ = 0;
  std::uint64_t reinstalls_ = 0;

  std::vector<np::Core> exec_shadow_;
  std::vector<np::Core> collector_;
  std::vector<std::unique_ptr<monitor::HardwareMonitor>> monitor_shadow_;
  std::vector<std::uint8_t> hashes_;   // the packet's hash stream
  std::vector<std::uint32_t> batches_; // advance() batch lengths
  Clock::time_point epoch_;
};

}  // namespace sdmmon::perfbench

#endif  // SDMMON_PERFBENCH_TRACED_REPLAY_HPP
