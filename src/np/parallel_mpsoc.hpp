// Parallel MPSoC execution engine: the same monitored-core array, dispatch
// policies, and recovery pipeline as the serial `Mpsoc`, but rearchitected
// around flow-affinity shards instead of a batch barrier:
//
//  * The planner runs inline in submit()/process_packets(): each packet
//    gets a global sequence number, a dispatch core (shared
//    pick_dispatch_core, so decisions cannot drift from the serial
//    engine), a per-core turn ticket, and a slot in a global reorder
//    buffer (ROB). The slot index is pushed to the deque of the shard
//    that owns the core -- packets of one flow hash to one core and
//    therefore one shard.
//  * Workers drain their own shard's deque first and steal the OLDEST
//    pending item from other shards when idle (util::StealingDeque).
//    An executor spins until its item's ticket matches the core's turn,
//    which serializes each core's packet stream without any global
//    barrier; independent cores never wait on each other.
//  * Execution is speculative: MonitoredCore::execute_packet defers
//    CoreStats, and under a policy that can act the executor brackets the
//    run with dirty-page capture (np::Memory copy-on-first-touch per
//    packet), so rollback cost is proportional to the state the packet
//    actually touched -- not the core's full 80 KiB image.
//  * Results FOLD in global sequence order: any thread (worker, planner,
//    flusher) that can take the fold lock commits completed slots in
//    order -- CoreStats, recovery outcomes, and the observability journal
//    all advance in exactly the serial engine's order.
//
// Recovery epochs replace the per-batch barrier. When a speculatively
// evaluated outcome demands an action (quarantine / reinstall-last-good),
// workers park, and the last one to park coordinates: unexecuted packets
// older than the acting one run inline (per-core tickets guarantee their
// cores are clean), every executed packet younger than the acting one is
// rolled back newest-first (dirty pages restored byte-for-byte, recovery
// outcomes withdrawn, turn counters rewound), the prefix through the
// acting packet folds, the action is applied exactly as the serial engine
// would have, and the tail is re-planned against the post-action dispatch
// set. ResetAndContinue never acts, so that policy runs capture-free at
// full speed and never takes an epoch.
//
// Equivalence contract (enforced by tests/mpsoc_parallel_diff_test.cpp):
//
//  * RoundRobin and FlowHash: per-packet outcomes, per-core CoreStats,
//    aggregate_stats(), and every RecoveryController decision are
//    BIT-IDENTICAL to the serial engine on the same packet sequence.
//  * LeastLoaded: load feedback is committed instructions plus an
//    estimate for packets still in flight, so placement may differ from
//    the serial engine while packets are speculated. batch_size=1 bounds
//    the flight window to one packet and collapses to the strict
//    contract. Conservation of every packet and all recovery-safety
//    invariants hold always.
//
// Caveat: the hardware monitor's internal MonitorStats can overcount
// after a rollback (speculated packets are re-executed); Core cycle/mix
// counters are restored exactly by the SpecState snapshot, and
// CoreStats/MpsocStats are exact.
//
// Threading contract: submit()/flush()/process_packets()/install*() and
// every accessor must be called from ONE external thread. Accessors
// observe engine state only when the engine is quiescent (after flush()
// or a synchronous process_packets() call).
#ifndef SDMMON_NP_PARALLEL_MPSOC_HPP
#define SDMMON_NP_PARALLEL_MPSOC_HPP

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "np/mpsoc.hpp"
#include "util/stealing_deque.hpp"

namespace sdmmon::np {

struct ParallelConfig {
  /// Worker threads; 0 = one per core. Clamped to [1, num_cores]. Each
  /// worker owns one shard; core c belongs to shard c % workers, so a
  /// flow's packets land in one shard's deque and per-core order is
  /// preserved for any worker count (stealing pops oldest-first).
  std::size_t workers = 0;
  /// Speculation window: packets in flight (planned but not yet folded).
  /// Larger windows keep more cores busy; smaller ones bound rollback
  /// replay cost and tighten LeastLoaded feedback (1 = per-packet exact).
  std::size_t batch_size = 256;
  /// Headroom multiplier for the per-shard rings (capacity =
  /// batch_size * ingest_depth, rounded up to a power of two) so epoch
  /// re-plans and steal contention never block the planner.
  std::size_t ingest_depth = 4;
};

class ParallelMpsoc {
 public:
  /// A packet handed to the engine. `data` is owned so asynchronously
  /// submitted packets survive until their slot folds.
  struct Packet {
    util::Bytes data;
    std::uint32_t flow_key = 0;
  };

  explicit ParallelMpsoc(std::size_t num_cores,
                         DispatchPolicy policy = DispatchPolicy::RoundRobin,
                         RecoveryConfig recovery = {},
                         ParallelConfig parallel = {});
  ~ParallelMpsoc();

  ParallelMpsoc(const ParallelMpsoc&) = delete;
  ParallelMpsoc& operator=(const ParallelMpsoc&) = delete;

  std::size_t num_cores() const { return cores_.size(); }
  std::size_t num_workers() const { return workers_.size(); }
  DispatchPolicy policy() const { return policy_; }

  /// Install the same configuration on every core. Drains in-flight
  /// packets first, so the reprogram lands on a packet boundary -- the
  /// same transactional validation as the serial engine. The graph is
  /// compiled once; every core shares the immutable artifact.
  void install_all(const isa::Program& program,
                   const monitor::MonitoringGraph& graph,
                   const monitor::InstructionHash& hash);

  /// Install already-compiled artifacts on every core (fast switch; no
  /// graph copy, recompilation, or re-decode).
  void install_all(const isa::Program& program, InstallArtifacts artifacts,
                   const monitor::InstructionHash& hash);

  /// Back-compat fast path holding only the compiled graph (predecodes
  /// here, once, shared across all cores).
  void install_all(const isa::Program& program,
                   std::shared_ptr<const monitor::CompiledGraph> graph,
                   const monitor::InstructionHash& hash);

  /// Install on one core only (heterogeneous workload mapping).
  void install(std::size_t core_index, const isa::Program& program,
               monitor::MonitoringGraph graph,
               std::unique_ptr<monitor::InstructionHash> hash);

  /// Per-core install of already-compiled artifacts.
  void install(std::size_t core_index, const isa::Program& program,
               InstallArtifacts artifacts,
               std::unique_ptr<monitor::InstructionHash> hash);

  /// Back-compat per-core fast switch (predecodes here).
  void install(std::size_t core_index, const isa::Program& program,
               std::shared_ptr<const monitor::CompiledGraph> graph,
               std::unique_ptr<monitor::InstructionHash> hash);

  /// Asynchronous ingest: plan and enqueue one packet. Blocks only when
  /// the speculation window (batch_size) is full of unfolded packets.
  /// Results are folded into stats only.
  void submit(util::Bytes packet, std::uint32_t flow_key = 0);

  /// Block until every submitted packet has been executed and folded.
  void flush();

  /// Synchronous convenience path: process `packets` and return
  /// per-packet results in input order.
  std::vector<PacketResult> process_packets(
      const std::vector<Packet>& packets);

  /// Aggregate counters + health over all cores (quiescent only).
  MpsocStats aggregate_stats() const;

  MonitoredCore& core(std::size_t index) { return cores_[index]; }
  const MonitoredCore& core(std::size_t index) const { return cores_[index]; }

  RecoveryController& recovery() { return recovery_; }
  const RecoveryController& recovery() const { return recovery_; }
  CoreHealth core_health(std::size_t index) const {
    return recovery_.health(index);
  }
  /// Administrative drain / restore of one core (drains in-flight work).
  void set_core_offline(std::size_t index, bool offline);
  /// Operator releases a quarantined core back into the dispatch set.
  void release_core(std::size_t index);

  bool core_dispatchable(std::size_t index) const {
    return recovery_.dispatchable(index) && cores_[index].installed();
  }

  /// Recovery epochs taken so far (each is one rollback point: workers
  /// parked, speculated tail rewound and re-planned). Deterministic for a
  /// given workload -- one epoch per recovery action -- and always 0
  /// under RecoveryPolicy::ResetAndContinue, which never acts.
  std::uint64_t speculation_rollbacks() const {
    return epochs_.load(std::memory_order_relaxed);
  }

  /// Attach the observability layer (same contract as Mpsoc::enable_obs,
  /// plus the parallel-only metrics: shard steals/epochs/queue depth,
  /// rollback packet and byte counts, dirty pages per snapshot). Drains
  /// in-flight packets first so the attach lands on a packet boundary.
  void enable_obs(obs::Registry& registry, std::uint32_t device_id = 0,
                  std::uint32_t sample_period = 1);

 private:
  static constexpr std::size_t kUndispatched =
      static_cast<std::size_t>(-1);

  enum class SlotState : std::uint8_t {
    Free,      // unplanned (or folded and recycled)
    Planned,   // dispatch decided, waiting in a shard deque
    Executed,  // speculatively executed, waiting to fold in order
  };

  /// One reorder-buffer entry. The planner writes the plan fields under
  /// plan_mutex_ and publishes the slot through the shard deque; the
  /// executor writes the outcome fields and release-stores `state`; the
  /// folder (any thread holding fold_mutex_) consumes it in global
  /// sequence order.
  struct Slot {
    Packet owned;                    // async submit keeps bytes alive here
    const Packet* item = nullptr;    // &owned, or the caller's storage
    PacketResult* result_out = nullptr;  // non-null for process_packets
    PacketResult result;
    std::size_t core = kUndispatched;
    std::size_t rr_after = 0;  // RoundRobin cursor after planning this slot
    std::uint64_t ticket = 0;  // per-core turn number
    RecoveryAction action = RecoveryAction::None;
    std::size_t window_violations = 0;  // captured right after on_outcome
    RecoveryController::OutcomeUndo outcome_undo;
    MonitoredCore::SpecUndo spec_undo;
    bool spec_captured = false;
    std::atomic<SlotState> state{SlotState::Free};
  };

  void worker_main(std::size_t worker);
  bool pop_work(std::size_t worker, std::uint64_t& seq);
  void execute_slot(std::uint64_t seq);
  /// Speculative execution + outcome evaluation for one planned slot;
  /// requires the caller to hold the slot's core turn. Publishes the
  /// slot as Executed and returns its recovery action, so callers need
  /// not read the slot again.
  RecoveryAction run_slot(Slot& slot);
  /// Plan dispatch for the slot at `seq` (requires plan_mutex_). Returns
  /// true when the packet was dispatched (and must be enqueued).
  bool plan_dispatch(Slot& slot);
  void plan_one(const Packet* borrowed, Packet&& owned, bool owns,
                PacketResult* result_out);
  /// Fold completed slots in sequence order (takes fold_mutex_ if free).
  void try_fold();
  void fold_locked();
  void fold_slot(Slot& slot);
  /// Park at the epoch barrier; the last worker to park coordinates.
  void park_for_epoch();
  /// The epoch coordinator: drain, execute stragglers, roll back the
  /// speculated tail, fold through the acting packet, apply its action,
  /// re-plan the tail. Runs with all workers parked.
  void run_epoch();

  void reinstall_core(std::size_t index);
  void note_admin_transition(std::size_t index, obs::EventKind kind);
  std::vector<std::size_t> active_cores() const;
  std::size_t shard_of(std::size_t core) const {
    return core % deques_.size();
  }
  EngineObs* eobs() const {
    return obs_live_.load(std::memory_order_acquire);
  }

  // ---- immutable after construction ----
  std::vector<MonitoredCore> cores_;
  std::vector<std::optional<LastGoodConfig>> last_good_;
  DispatchPolicy policy_;
  RecoveryController recovery_;
  ParallelConfig config_;
  bool capture_spec_ = false;  // policy can act -> dirty-page capture on
  std::size_t rob_size_ = 1;   // in-flight bound == batch_size

  // ---- planner state (plan_mutex_) ----
  std::mutex plan_mutex_;
  std::size_t rr_cursor_ = 0;
  std::vector<std::uint64_t> next_ticket_;   // per core
  std::vector<std::uint64_t> planned_pkts_;  // per core, planner's view
  std::atomic<std::uint64_t> plan_next_{0};

  // ---- fold state (fold_mutex_) ----
  std::mutex fold_mutex_;
  std::atomic<std::uint64_t> fold_next_{0};
  std::uint64_t undispatched_ = 0;
  std::uint64_t reinstalls_ = 0;
  std::unique_ptr<EngineObs> obs_;
  std::atomic<EngineObs*> obs_live_{nullptr};  // workers read via eobs()
  // LeastLoaded load feedback: committed per-core/total tallies (folded
  // under fold_mutex_, read racily by the planner's load closure).
  std::unique_ptr<std::atomic<std::uint64_t>[]> committed_instr_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> committed_pkts_;
  std::atomic<std::uint64_t> committed_instr_total_{0};
  std::atomic<std::uint64_t> committed_pkts_total_{0};

  // ---- per-core execution order ----
  std::unique_ptr<std::atomic<std::uint64_t>[]> core_turn_;

  // ---- epoch machinery ----
  std::atomic<bool> epoch_requested_{false};
  std::mutex epoch_mutex_;
  std::condition_variable epoch_cv_;
  std::size_t parked_ = 0;       // guarded by epoch_mutex_
  std::atomic<std::uint64_t> epochs_{0};

  // ---- reorder buffer + shards ----
  std::unique_ptr<Slot[]> rob_;
  std::vector<std::unique_ptr<util::StealingDeque<std::uint64_t>>> deques_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
};

}  // namespace sdmmon::np

#endif  // SDMMON_NP_PARALLEL_MPSOC_HPP
