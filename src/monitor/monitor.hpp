// Runtime hardware monitor (paper Figure 1, right). Co-located with a
// core, it receives the w-bit hash of every retired instruction and walks
// the monitoring graph. Because branches admit two successors and indirect
// jumps several, the monitor tracks a *set* of possible positions (an NFA
// over graph nodes). An instruction whose hash matches no tracked node is
// an attack: the monitor raises a flag and the system resets the core and
// drops the packet.
//
// This is the compiled hot path: the monitor walks an immutable
// CompiledGraph artifact (monitor/compiled_graph.hpp) shared across all
// cores of an MPSoC. The artifact pre-buckets every node's successor
// slice by the 2^w hash values, so after a step that matched exactly one
// node u the tracked set IS u's compiled successor table: the next
// report h matches precisely the slice bucket(u, h), found with one
// offset lookup -- no filtering, no copying, nothing allocated. Only
// when a report matches several tracked nodes at once does the monitor
// materialize the successor union into a flat buffer, deduplicated with
// an epoch-stamped membership array (O(1) per successor, bumping the
// epoch invalidates all stamps at once). Mismatch, exit, and
// trap-terminal detection all fall out of the single match pass (no
// second rescan). No per-instruction allocation or sort anywhere. The
// original vector-filter walker survives as ReferenceMonitor
// (monitor/reference_monitor.hpp), the differential-testing oracle.
#ifndef SDMMON_MONITOR_MONITOR_HPP
#define SDMMON_MONITOR_MONITOR_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "monitor/compiled_graph.hpp"
#include "monitor/graph.hpp"
#include "monitor/hash.hpp"

namespace sdmmon::monitor {

enum class Verdict : std::uint8_t {
  Ok,        // hash matched a tracked graph node
  Mismatch,  // attack detected: no tracked node expects this hash
};

/// Cumulative statistics for evaluation.
struct MonitorStats {
  std::uint64_t instructions_checked = 0;
  std::uint64_t mismatches = 0;
  /// Packets the monitor was armed for via reset(). Install-time
  /// re-arming is deliberately NOT counted: an install is not a packet.
  std::uint64_t packets_monitored = 0;
  /// Sum of tracked-state-set sizes, for average ambiguity reporting.
  std::uint64_t state_size_accum = 0;

  double average_ambiguity() const {
    return instructions_checked == 0
               ? 0.0
               : static_cast<double>(state_size_accum) /
                     static_cast<double>(instructions_checked);
  }
};

class HardwareMonitor {
 public:
  /// Preferred: walk an already-compiled shared artifact (install paths
  /// compile once per MPSoC and hand every core the same pointer).
  HardwareMonitor(std::shared_ptr<const CompiledGraph> graph,
                  std::unique_ptr<InstructionHash> hash);

  /// Convenience: compile a wire-format graph privately (tests, tools,
  /// single-monitor setups).
  HardwareMonitor(MonitoringGraph graph, std::unique_ptr<InstructionHash> hash);

  /// Arm for a new packet: state set = {entry node}. Counts one
  /// monitored packet; install-time re-arming does not (see reset()
  /// vs install() in MonitorStats).
  void reset();

  /// Install a new (graph, hash) pair -- the dynamic reprogramming step
  /// SDMMon secures. Re-arms monitoring state without counting a packet;
  /// cumulative stats persist across installs.
  void install(std::shared_ptr<const CompiledGraph> graph,
               std::unique_ptr<InstructionHash> hash);
  void install(MonitoringGraph graph, std::unique_ptr<InstructionHash> hash);

  /// Feed the raw word of a retired instruction. The monitor applies its
  /// own hash function (the core reports through the parameterizable hash
  /// unit in hardware; here the unit is owned by the monitor object).
  Verdict on_instruction(std::uint32_t word);

  /// Feed an already-hashed value (used by attack simulations that probe
  /// the monitor without knowing the parameter). Inline: this runs once
  /// per retired instruction and is the hottest loop in the system.
  Verdict on_hashed(std::uint8_t hashed) {
    ++stats_.instructions_checked;
    stats_.state_size_accum += live_count_;
    if (live_count_ > peak_state_size_) peak_state_size_ = live_count_;

    if (attack_flagged_) [[unlikely]] return Verdict::Mismatch;

    if (slice_node_ != kNoSlice && hashed < bucket_count_) [[likely]] {
      // Tracked set == successors(slice_node_): the nodes matching
      // `hashed` are exactly the precomputed bucket (node, hashed), and
      // the fast table resolves the dominant exactly-one-match step
      // with a single load.
      const std::uint32_t v =
          fast_next_[(slice_node_ << hash_shift_) | hashed];
      if (v < CompiledGraph::kFastMulti) [[likely]] {
        // One matched node: its compiled successor table becomes the
        // tracked set verbatim -- an O(1) pointer step.
        slice_node_ = v;
        live_count_ = succ_count_[v];
        exit_allowed_ = node_exit_[v] != 0;
        return Verdict::Ok;
      }
      if (v == CompiledGraph::kFastEmpty) return flag_mismatch();
      advance_matched(graph_->bucket(slice_node_, hashed));
      return Verdict::Ok;
    }
    if (slice_node_ != kNoSlice) return flag_mismatch();  // report >= 2^w
    return step_list(hashed);
  }

  /// Batch-granular feed: consume `n` precomputed hashes (one trace's
  /// slice of a compiled hash lane) in order, with
  /// cumulative stats, peak-width tracking, and verdicts bit-identical
  /// to n successive on_hashed() calls. When `stop_on_mismatch` is set
  /// the walk stops at the first Mismatch and returns its index (the
  /// count of Ok hashes before it); otherwise every hash is consumed --
  /// mismatches latch the attack flag exactly like on_hashed -- and n
  /// is returned. The steady state (slice form, single-successor fast
  /// table hits) runs as CompiledGraph::batch_step, a graph-resident
  /// tight loop over the flat fast_next table with deferred stat
  /// accumulation. Each hash the fast loop cannot take (multi-match,
  /// mismatch, list form, out-of-range report, latched attack) replays
  /// through the exact per-hash reference path -- ONE hash at a time,
  /// after which the loop re-enters batch_step, because a single-match
  /// list step re-promotes the tracked set to slice form. So one
  /// mid-batch multi-match costs one slow step, not the whole tail.
  std::size_t advance(const std::uint8_t* hashes, std::size_t n,
                      bool stop_on_mismatch) {
    std::size_t i = 0;
    while (i < n) {
      if (!attack_flagged_ && slice_node_ != kNoSlice) {
        const CompiledGraph::BatchStep step = CompiledGraph::batch_step(
            fast_next_, succ_count_, hash_shift_, bucket_count_, slice_node_,
            live_count_, peak_state_size_, hashes + i, n - i);
        stats_.instructions_checked += step.consumed;
        stats_.state_size_accum += step.width_accum;
        peak_state_size_ = step.peak;
        if (step.consumed != 0) {
          slice_node_ = step.node;
          live_count_ = step.live;
          exit_allowed_ = node_exit_[step.node] != 0;
        }
        i += step.consumed;
        if (i == n) return n;
      }
      if (on_hashed(hashes[i]) == Verdict::Mismatch && stop_on_mismatch) {
        return i;
      }
      ++i;
    }
    return n;
  }

  /// True if the handler may legitimately finish now (the last matched
  /// instruction was exit-capable, or nothing executed yet).
  bool exit_allowed() const { return exit_allowed_; }

  /// True once a mismatch has been flagged; cleared by reset().
  bool attack_flagged() const { return attack_flagged_; }

  std::size_t state_size() const { return live_count_; }
  /// Largest tracked-state-set size observed since the last reset() --
  /// the per-packet peak NFA width (comparator pressure); feeds the
  /// observability layer's np.core.ndfa_width histogram.
  std::size_t peak_state_size() const { return peak_state_size_; }
  /// Tracked node indices, ascending (materialized sorted copy; for
  /// differential state compares, not the hot path).
  std::vector<std::uint32_t> state_nodes() const;
  const MonitorStats& stats() const { return stats_; }
  /// Wire-format view of the installed graph (retained by the artifact).
  const MonitoringGraph& graph() const { return graph_->source(); }
  /// The shared compiled artifact (pointer identity across cores is the
  /// install-sharing invariant tests assert).
  const std::shared_ptr<const CompiledGraph>& compiled() const {
    return graph_;
  }
  const InstructionHash& hash() const { return *hash_; }

 private:
  /// Sentinel for "the tracked set is materialized in cur_, not
  /// represented as a compiled successor slice".
  static constexpr std::uint32_t kNoSlice = 0xFFFFFFFFu;

  /// Size per-graph state (state buffers, epoch stamps) after an
  /// artifact swap, then re-arm.
  void rebind();
  /// Re-arm to {entry} without touching cumulative stats.
  void rearm();
  /// Latch the attack flag (cold path, shared by both representations).
  Verdict flag_mismatch();
  /// Several tracked nodes matched at once (slice representation):
  /// materialize their deduped successor union into cur_.
  void advance_matched(std::span<const std::uint32_t> matched);
  /// Match+advance over the materialized list representation.
  Verdict step_list(std::uint8_t hashed);

  std::shared_ptr<const CompiledGraph> graph_;
  std::unique_ptr<InstructionHash> hash_;

  // Tracked-state set, in one of two forms:
  //  * slice form (slice_node_ != kNoSlice): the set is
  //    graph_->successors(slice_node_), held by reference into the
  //    immutable artifact -- nothing is copied. Entered whenever a step
  //    matches exactly one node; this is the steady state on real
  //    instruction streams.
  //  * list form (slice_node_ == kNoSlice): cur_[0..live_count_) holds
  //    the node indices, duplicate-free. Entered at rearm ({entry}) and
  //    when a step matches several tracked nodes at once.
  // Buffers are pre-sized to the graph's node count at install (the set
  // can never exceed it), so steady-state operation never allocates.
  // The epoch-stamp array dedups successor unions on multi-match steps
  // in O(1) per node -- bumping epoch_ invalidates every stamp at once.
  std::uint32_t slice_node_ = kNoSlice;
  std::size_t live_count_ = 0;  // tracked-set size in either form
  // Raw views of the shared artifact's flat tables, cached at rebind()
  // so the per-instruction step dereferences no smart pointer.
  const std::uint32_t* fast_next_ = nullptr;
  const std::uint32_t* succ_count_ = nullptr;
  const std::uint8_t* node_exit_ = nullptr;
  std::uint32_t bucket_count_ = 0;  // 2^w
  std::uint32_t hash_shift_ = 0;    // w
  std::vector<std::uint32_t> cur_, nxt_;
  std::vector<std::uint64_t> stamps_;  // per-node dedup epoch stamps
  std::uint64_t epoch_ = 0;

  bool exit_allowed_ = true;
  bool attack_flagged_ = false;
  std::size_t peak_state_size_ = 0;
  MonitorStats stats_;
};

}  // namespace sdmmon::monitor

#endif  // SDMMON_MONITOR_MONITOR_HPP
