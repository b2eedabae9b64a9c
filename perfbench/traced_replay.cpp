#include "traced_replay.hpp"

#include <algorithm>

#include "np/dispatch.hpp"

namespace sdmmon::perfbench {

TracedReplay::TracedReplay(std::size_t num_cores, np::RecoveryConfig recovery,
                           const isa::Program& program,
                           const np::InstallArtifacts& artifacts,
                           const monitor::InstructionHash& hash,
                           Clock::time_point epoch)
    : pipe_(num_cores, np::DispatchPolicy::RoundRobin, recovery),
      program_(program),
      artifacts_(artifacts),
      hash_(hash.clone()),
      exec_shadow_(num_cores),
      collector_(num_cores),
      epoch_(epoch) {
  pipe_.install_all(program_, artifacts_, *hash_);
  // The pipeline's own observability handles: np::Mpsoc keeps its
  // EngineObs private, so the replay attaches one it can call directly.
  obs_ = np::EngineObs::create(registry_, num_cores, /*device_id=*/0,
                               /*parallel=*/false);
  for (std::size_t c = 0; c < num_cores; ++c) {
    pipe_.core(c).attach_obs(&obs_->cores[c]);
    exec_shadow_[c].load_program(program_, artifacts_.code);
    collector_[c].load_program(program_, artifacts_.code);
    monitor_shadow_.push_back(std::make_unique<monitor::HardwareMonitor>(
        artifacts_.graph, hash_->clone()));
  }
  active_.reserve(num_cores);
}

np::MpsocStats TracedReplay::aggregate_stats() const {
  np::MpsocStats stats = pipe_.aggregate_stats();
  stats.undispatched = undispatched_;
  stats.reinstalls = reinstalls_;
  return stats;
}

std::uint64_t TracedReplay::collect(std::size_t core,
                                    std::span<const std::uint8_t> packet,
                                    std::uint64_t limit) {
  // Mirrors MonitoredCore's dispatch (trace, then fused run, then single
  // step) on an unmonitored core, so the hash batches are the ones the
  // monitored core hands HardwareMonitor::advance. `limit` is the
  // monitored core's retired count: an attack stops there, where the
  // monitor flagged it.
  np::Core& c = collector_[core];
  const np::CompiledProgram& code = *artifacts_.code;
  hashes_.clear();
  batches_.clear();
  auto take = [&](const std::uint8_t* h, std::uint64_t n) {
    n = std::min<std::uint64_t>(n, limit - hashes_.size());
    if (n == 0) return;
    hashes_.insert(hashes_.end(), h, h + n);
    batches_.push_back(static_cast<std::uint32_t>(n));
  };
  c.soft_reset();
  c.deliver_packet(packet);
  while (hashes_.size() < limit) {
    const std::uint64_t tlen = c.trace_run_len();
    if (tlen > 0) {
      const np::CompiledProgram::TraceRef ref = code.trace_at(c.pc());
      const np::Core::TraceExec tr = c.exec_trace(tlen);
      take(ref.hashes, tr.retired);
      if (tr.retired == tlen || tr.side_exit) continue;
    }
    if (hashes_.size() >= limit) break;
    const std::uint64_t fused = c.fused_run_len();
    if (fused > 0) {
      const std::size_t idx = (c.pc() - code.text_base()) >> 2;
      const std::uint64_t retired = c.exec_fused_run(fused);
      take(code.hash_lane_data() + idx, retired);
      if (retired == fused) continue;
    }
    if (hashes_.size() >= limit) break;
    const np::StepInfo info = c.step();
    const bool retired =
        info.event == np::StepEvent::Executed ||
        info.event == np::StepEvent::PacketOut ||
        info.event == np::StepEvent::Halted ||
        (info.event == np::StepEvent::PacketDone &&
         info.pc != np::kReturnSentinel);
    if (retired) {
      std::uint8_t h = 0;
      if (!(c.predecode_live() && code.monitor_hash(info.pc, h))) {
        h = hash_->hash(info.word);
      }
      take(&h, 1);
    }
    if (info.event != np::StepEvent::Executed) break;
  }
  return hashes_.size();
}

np::PacketResult TracedReplay::process(std::span<const std::uint8_t> packet,
                                       std::uint32_t flow_key,
                                       PacketSpans& spans,
                                       ShadowCounts& shadow) {
  auto& t = spans.t;
  t[kDispatch] = now_ns();
  active_.clear();
  for (std::size_t c = 0; c < pipe_.num_cores(); ++c) {
    if (pipe_.core_dispatchable(c)) active_.push_back(c);
  }
  if (active_.empty()) {
    ++undispatched_;
    obs_->undispatched->add(1);
    std::fill(t.begin() + 1, t.end(), now_ns());
    return np::PacketResult{};  // a Dropped packet, as np::Mpsoc reports
  }
  const std::size_t core = np::pick_dispatch_core(
      np::DispatchPolicy::RoundRobin, active_, flow_key, rr_next_,
      [this](std::size_t c) { return pipe_.core(c).stats().instructions; });
  np::MonitoredCore& mc = pipe_.core(core);
  spans.core = static_cast<std::uint32_t>(core);

  t[kExecute] = now_ns();
  np::PacketResult result = mc.execute_packet(packet);
  t[kCommit] = now_ns();
  mc.commit_result(result);
  t[kOutcome] = now_ns();
  const np::RecoveryAction action =
      pipe_.recovery().on_outcome(core, result.outcome);
  t[kRecord] = now_ns();
  obs_->dispatched->add(1);
  obs_->record_outcome(obs_->dispatched->value(), core, result, action,
                       pipe_.recovery().window_violations(core),
                       pipe_.recovery());
  t[kReinstall] = now_ns();
  spans.reinstall = action == np::RecoveryAction::Reinstall;
  if (spans.reinstall) {
    mc.install(program_, artifacts_.graph, artifacts_.code, hash_->clone());
    pipe_.recovery().note_reinstall(core);
    ++reinstalls_;
    obs_->reinstalls->add(1);
  }

  // Shadows: the same packet on separate objects, split into the layers
  // execute_packet runs internally.
  t[kCollect] = now_ns();
  const std::uint64_t limit = result.instructions;
  const std::uint64_t collected = collect(core, packet, limit);
  t[kResetDeliver] = now_ns();
  np::Core& exec = exec_shadow_[core];
  exec.soft_reset();
  exec.deliver_packet(packet);
  t[kExec] = now_ns();
  const std::uint64_t cycles_before = exec.cycles();
  exec.run(limit);
  t[kMonitor] = now_ns();
  monitor::HardwareMonitor& mon = *monitor_shadow_[core];
  mon.reset();
  std::size_t offset = 0;
  std::uint64_t fed = 0;
  for (const std::uint32_t n : batches_) {
    const std::size_t ok = mon.advance(hashes_.data() + offset, n,
                                       /*stop_on_mismatch=*/true);
    fed += ok;
    offset += n;
    if (ok < n) break;
  }
  t[kNumSpans] = now_ns();

  shadow.retired = exec.cycles() - cycles_before;
  shadow.hashes_fed = fed;
  shadow.mismatches = 0;
  if (result.outcome == np::PacketOutcome::Forwarded ||
      result.outcome == np::PacketOutcome::Dropped) {
    // A clean packet: every shadow must have seen exactly what the
    // monitored core saw.
    const bool same =
        collected == limit && shadow.retired == limit && fed == limit &&
        mon.peak_state_size() == result.monitor_width &&
        exec.has_output() ==
            (result.outcome == np::PacketOutcome::Forwarded) &&
        (!exec.has_output() || exec.output() == result.output);
    if (!same) shadow.mismatches = 1;
  } else if (collected != limit || shadow.retired != limit) {
    shadow.mismatches = 1;
  }
  if (result.outcome == np::PacketOutcome::AttackDetected ||
      result.outcome == np::PacketOutcome::Trapped || spans.reinstall) {
    // The monitored core was re-imaged; so are its shadows.
    exec.reset();
    collector_[core].reset();
  }
  return result;
}

}  // namespace sdmmon::perfbench
