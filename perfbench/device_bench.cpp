// Canonical device benchmark: a monitored 8-core network processor
// running the paper's IPv4+CM binary, installed through the real signed
// package, forwarding fixed-seed mixed benign and attack traffic.
//
//   sdmmon_perfbench --workload <small-serial|attack-parallel>
//                    --seed <n> --seconds <s> --trace <0|1> [--report FILE]
//
// The last line of standard output is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced pass (--trace 1). Everything else -- host fingerprint, seeds,
// sample counts, failures by kind, and both metric sets -- goes to
// standard error and to --report as one JSON document. Exit status: 0
// when every output passed the oracle, 1 on any oracle or replay
// failure, 2 on bad arguments, 3 when the run hung past its deadline.
//
// Load model: closed loop from one replay thread, in windows of the
// parallel engine's default speculation window (256 packets). The serial
// device has one packet outstanding; the parallel engine is fed a window
// with submit() back to back, then flush(). Only the engine calls of a
// window are timed; its outputs are checked after the clock stops.
// perfbench/README.md defines every metric.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/attack.hpp"
#include "net/apps.hpp"
#include "np/cycle_model.hpp"
#include "np/parallel_mpsoc.hpp"
#include "obs/obs.hpp"
#include "oracle.hpp"
#include "sdmmon/entities.hpp"
#include "sdmmon/timed_install.hpp"
#include "sdmmon/workload.hpp"
#include "traced_replay.hpp"

namespace {

using namespace sdmmon;
using perfbench::Clock;

constexpr std::size_t kCores = 8;
constexpr std::size_t kParallelWorkers = 3;  // + the replay thread = 4
constexpr std::size_t kFlows = 1024;
constexpr std::size_t kKeyBits = 2048;       // the prototype's RSA size
constexpr std::uint64_t kNow = 1'800'000'000;
constexpr std::uint32_t kMarker = 0x41414141;
/// Set-ups timed before the measured phase, and again after it.
constexpr int kSetupRuns = 3;
constexpr int kCompileRuns = 5;
/// Seed reserved for confirming a claimed gain; never used while tuning.
constexpr std::uint64_t kHeldOutSeed = 0x5EED0DD;
constexpr double kStallSeconds = 30.0;
/// A pass must end within 180 s of its start, build check included.
constexpr double kDeadlineSeconds = 165.0;
/// Packets per timed window: the parallel engine's default batch size.
const std::size_t kWindow = np::ParallelConfig{}.batch_size;

struct Workload {
  const char* name;
  bool parallel;
  std::size_t min_payload;
  std::size_t max_payload;
  double attack_rate;
  /// Packets in one pass of the generated stream, a whole number of
  /// windows. The warm-up is one pass; the measured phase cycles through
  /// the stream again.
  std::size_t stream_packets;
  /// Share of --seconds the untraced phase of a --trace 1 run measures;
  /// the traced replay of the same packets takes the rest.
  double traced_share;
};

constexpr Workload kWorkloads[] = {
    {"small-serial", false, 0, 18, 0.01, 65536, 0.25},
    {"attack-parallel", true, 0, 1472, 0.03, 16384, 0.125},
};

np::RecoveryConfig recovery_for(const Workload& w) {
  np::RecoveryConfig config;
  if (w.parallel) {
    config.policy = np::RecoveryPolicy::ReinstallLastGood;
    config.violation_threshold = 3;
    config.window_packets = 64;
    config.max_reinstalls = static_cast<std::size_t>(-1);
  }
  return config;
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string report_path;
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

std::uint32_t latency_ns(std::int64_t ns) {
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(ns, 0, UINT32_MAX));
}

/// Nearest-rank percentile of an unsorted sample (copied).
double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0;
  const std::size_t rank = std::min(
      sample.size() - 1,
      static_cast<std::size_t>(p / 100.0 * static_cast<double>(sample.size())));
  std::nth_element(sample.begin(), sample.begin() + static_cast<long>(rank),
                   sample.end());
  return sample[rank];
}

// ---- result line --------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

void write_metrics(obs::JsonWriter& w, const std::vector<Metric>& metrics) {
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(attempted);
  w.key("failed").value(failed);
  w.key("metrics");
  write_metrics(w, metrics);
  w.end_object();
  return w.str();
}

// ---- deadline -----------------------------------------------------------

/// Fails the run loudly instead of letting a hung engine stall the
/// harness: when no progress is reported for kStallSeconds, or the run
/// passes its deadline, it prints a failing result line that counts every
/// unfinished packet as failed and ends the process (a hung engine's
/// threads cannot be joined).
class Watchdog {
 public:
  explicit Watchdog(double deadline_s)
      : start_(Clock::now()),
        deadline_ns_(static_cast<std::int64_t>(deadline_s * 1e9)) {
    beat();
    thread_ = std::thread([this] { run(); });
  }
  ~Watchdog() { stop(); }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Stand down; after this only the caller prints a result.
  void stop() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Name the current phase. In a check phase nothing the run sent is
  /// verified yet, so a hang there fails every attempted packet.
  void phase(const char* name, bool checking = false) {
    phase_.store(name, std::memory_order_relaxed);
    checking_.store(checking, std::memory_order_relaxed);
    beat();
  }
  void beat() {
    last_beat_.store(ns_between(start_, Clock::now()),
                     std::memory_order_relaxed);
  }
  /// Called before each window: packets the run has sent to its engine
  /// with this window, and how many of them are finished and checked.
  /// Check phases only beat: their replays are not the run's attempts.
  void progress(std::uint64_t attempted, std::uint64_t completed) {
    if (!checking_.load(std::memory_order_relaxed)) {
      attempted_.store(attempted, std::memory_order_relaxed);
      completed_.store(completed, std::memory_order_relaxed);
    }
    beat();
  }
  /// While the parallel engine runs, completions are read from its fold
  /// counters directly (they count every packet the engine has folded
  /// since it was built), so a hang inside submit()/flush() reports
  /// exactly how many packets were left unfinished.
  void watch_folds(const obs::Counter* dispatched,
                   const obs::Counter* undispatched) {
    undispatched_.store(undispatched, std::memory_order_relaxed);
    dispatched_.store(dispatched, std::memory_order_release);
  }
  void unwatch_folds() {
    dispatched_.store(nullptr, std::memory_order_release);
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                         [this] { return stop_; })) {
      const std::int64_t now = ns_between(start_, Clock::now());
      if (now > deadline_ns_) fail("run deadline passed");
      if (now - last_beat_.load(std::memory_order_relaxed) >
          static_cast<std::int64_t>(kStallSeconds * 1e9)) {
        fail("no progress for 30 s");
      }
    }
  }

  [[noreturn]] void fail(const char* why) {
    const std::uint64_t attempted = attempted_.load(std::memory_order_relaxed);
    std::uint64_t completed = completed_.load(std::memory_order_relaxed);
    if (const obs::Counter* d = dispatched_.load(std::memory_order_acquire)) {
      completed =
          d->value() + undispatched_.load(std::memory_order_relaxed)->value();
    }
    completed = std::min(completed, attempted);
    if (checking_.load(std::memory_order_relaxed)) completed = 0;
    std::fprintf(stderr,
                 "perfbench: stopped in phase '%s' (%s): %llu of %llu packets "
                 "unfinished\n",
                 phase_.load(std::memory_order_relaxed), why,
                 static_cast<unsigned long long>(attempted - completed),
                 static_cast<unsigned long long>(attempted));
    std::printf("%s\n", result_line(false, std::max<std::uint64_t>(attempted, 1),
                                    std::max<std::uint64_t>(
                                        attempted - completed, 1),
                                    {})
                            .c_str());
    std::fflush(stdout);
    std::fflush(stderr);
    std::_Exit(3);
  }

  Clock::time_point start_;
  std::int64_t deadline_ns_;
  std::atomic<std::int64_t> last_beat_{0};
  std::atomic<const char*> phase_{"start"};
  std::atomic<bool> checking_{false};
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<const obs::Counter*> dispatched_{nullptr};
  std::atomic<const obs::Counter*> undispatched_{nullptr};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// ---- set-up -------------------------------------------------------------

/// Everything a run needs from start to first packet. Declaration order
/// matters: each observability registry outlives the engine that holds
/// handles into it.
struct Testbed {
  std::unique_ptr<protocol::Manufacturer> manufacturer;
  std::unique_ptr<protocol::NetworkOperator> op;
  std::unique_ptr<obs::Registry> device_obs;
  std::unique_ptr<protocol::NetworkProcessorDevice> device;
  isa::Program program;
  protocol::WirePackage wire;
  np::InstallArtifacts artifacts;  // what the device compiled at install
  std::unique_ptr<monitor::InstructionHash> hash;
  std::unique_ptr<obs::Registry> parallel_obs;
  std::unique_ptr<np::ParallelMpsoc> parallel;
};

struct SetupTimes {
  double keygen_s = 0;   // Manufacturer, NetworkOperator, certificate, device
  double package_s = 0;  // NetworkOperator::program_device
  double install_s = 0;  // NetworkProcessorDevice::install
  double engine_s = 0;   // obs attach; parallel engine build + install
  double total_s = 0;
};

std::unique_ptr<Testbed> set_up(const Workload& w, SetupTimes& times) {
  auto tb = std::make_unique<Testbed>();
  const Clock::time_point t0 = Clock::now();
  tb->manufacturer = std::make_unique<protocol::Manufacturer>(
      "perfbench-vendor", kKeyBits, crypto::Drbg("perfbench-vendor"));
  tb->op = std::make_unique<protocol::NetworkOperator>(
      "perfbench-noc", kKeyBits, crypto::Drbg("perfbench-noc"));
  tb->op->accept_certificate(tb->manufacturer->certify_operator(
      tb->op->name(), tb->op->public_key(), kNow - 100, kNow + 1'000'000));
  tb->device = tb->manufacturer->provision_device("perfbench-dut", kCores,
                                                  recovery_for(w));
  const Clock::time_point t1 = Clock::now();
  tb->program = net::build_ipv4_cm();
  tb->wire = tb->op->program_device(tb->program, tb->device->public_key());
  const Clock::time_point t2 = Clock::now();
  const protocol::InstallStatus status = tb->device->install(tb->wire, kNow);
  if (status != protocol::InstallStatus::Ok) {
    throw std::runtime_error(std::string("device rejected the package: ") +
                             protocol::install_status_name(status));
  }
  const Clock::time_point t3 = Clock::now();
  tb->device_obs = std::make_unique<obs::Registry>();
  tb->device->mpsoc().enable_obs(*tb->device_obs);
  np::MonitoredCore& installed = tb->device->mpsoc().core(0);
  tb->artifacts = {installed.monitor().compiled(),
                   installed.core().compiled_program()};
  tb->hash = installed.monitor().hash().clone();
  if (w.parallel) {
    np::ParallelConfig config;  // default window and batch size
    config.workers = kParallelWorkers;
    tb->parallel = std::make_unique<np::ParallelMpsoc>(
        kCores, np::DispatchPolicy::RoundRobin, recovery_for(w), config);
    tb->parallel->install_all(tb->program, tb->artifacts, *tb->hash);
    tb->parallel_obs = std::make_unique<obs::Registry>();
    tb->parallel->enable_obs(*tb->parallel_obs);
  }
  const Clock::time_point t4 = Clock::now();
  times.keygen_s = std::chrono::duration<double>(t1 - t0).count();
  times.package_s = std::chrono::duration<double>(t2 - t1).count();
  times.install_s = std::chrono::duration<double>(t3 - t2).count();
  times.engine_s = std::chrono::duration<double>(t4 - t3).count();
  times.total_s = std::chrono::duration<double>(t4 - t0).count();
  return tb;
}

// ---- traffic ------------------------------------------------------------

std::vector<protocol::WorkItem> make_stream(const Workload& w,
                                            std::uint64_t seed) {
  protocol::MixedWorkloadConfig config;
  config.seed = seed;
  config.attack_rate = w.attack_rate;
  config.flows = kFlows;
  config.min_payload = w.min_payload;
  config.max_payload = w.max_payload;
  config.attack_packet =
      attack::craft_cm_overflow(attack::marker_shellcode(kMarker)).packet;
  return protocol::MixedWorkload(config).generate(0, w.stream_packets);
}

// ---- accounting ---------------------------------------------------------

/// The observable result of one packet, compact enough to keep for every
/// packet of a run and compare across engines and replays.
struct Record {
  np::PacketOutcome outcome = np::PacketOutcome::Dropped;
  np::Trap trap = np::Trap::None;
  std::uint32_t port = 0;
  std::uint32_t width = 0;
  std::uint64_t instructions = 0;
  std::uint32_t trace_dispatches = 0;
  std::uint32_t trace_side_exits = 0;
  std::uint64_t digest = 0;  // FNV-1a of the output bytes

  static Record of(const np::PacketResult& r) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint8_t b : r.output) h = (h ^ b) * 0x100000001b3ull;
    return {r.outcome,     r.trap, r.output_port, r.monitor_width,
            r.instructions, r.trace_dispatches, r.trace_side_exits, h};
  }
  bool operator==(const Record&) const = default;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;  // by kind

  void fail(const std::string& kind, std::uint64_t n = 1) {
    if (n == 0) return;
    failed += n;
    failures[kind] += n;
  }
  void judge(const protocol::WorkItem& item, const np::PacketResult& r) {
    const perfbench::Verdict v =
        perfbench::check_packet(item.packet, item.attack, r, kMarker);
    if (v != perfbench::Verdict::Ok) fail(perfbench::verdict_name(v));
  }
};

/// Summed retired-instruction mix over an engine's cores.
template <typename Engine>
np::InstrMix mix_of(Engine& engine) {
  np::InstrMix sum;
  for (std::size_t c = 0; c < engine.num_cores(); ++c) {
    const np::InstrMix& m = engine.core(c).core().instr_mix();
    sum.alu += m.alu;
    sum.load += m.load;
    sum.store += m.store;
    sum.branch_not_taken += m.branch_not_taken;
    sum.branch_taken += m.branch_taken;
    sum.jump += m.jump;
    sum.muldiv += m.muldiv;
    sum.trap += m.trap;
  }
  return sum;
}

bool same_mix(const np::InstrMix& a, const np::InstrMix& b) {
  return a.alu == b.alu && a.load == b.load && a.store == b.store &&
         a.branch_not_taken == b.branch_not_taken &&
         a.branch_taken == b.branch_taken && a.jump == b.jump &&
         a.muldiv == b.muldiv && a.trap == b.trap;
}

/// Per-core CoreStats disagreements between two engines.
template <typename A, typename B>
std::uint64_t core_stats_disagreement(const A& a, const B& b) {
  std::uint64_t cores = 0;
  for (std::size_t c = 0; c < a.num_cores(); ++c) {
    const np::CoreStats& x = a.core(c).stats();
    const np::CoreStats& y = b.core(c).stats();
    if (x.packets != y.packets || x.forwarded != y.forwarded ||
        x.dropped != y.dropped || x.attacks_detected != y.attacks_detected ||
        x.traps != y.traps || x.instructions != y.instructions) {
      ++cores;
    }
  }
  return cores;
}

// ---- engine phases --------------------------------------------------------

/// Packet k of a run (warm-up first, then the measured phase) is stream
/// item k mod stream length, and the window starting at k is stream
/// window (k / kWindow) mod (stream length / kWindow). A phase's time is
/// the sum of its windows' timed spans; the checks between windows are
/// not part of it.
struct Phase {
  std::uint64_t first = 0;  // run index of the phase's first packet
  std::uint64_t packets = 0;
  double wall_s = 0;
  std::vector<std::uint32_t> lat_ns;    // per packet, in run order
  std::vector<std::int64_t> window_ns;  // per window, in run order
  double submit_wait_s = 0;             // parallel: time inside submit()
  double flush_s = 0;                   // parallel: time in flush()
  std::uint64_t flushes = 0;
};

/// Serial device, closed loop: one packet outstanding. Runs `count`
/// packets starting at run index `first`, or -- when `seconds` > 0 --
/// until that much wall time has passed. Each window of process_packet
/// calls is timed; its outputs are judged (and recorded) afterwards.
Phase run_serial(np::Mpsoc& engine,
                 const std::vector<protocol::WorkItem>& stream,
                 std::uint64_t first, std::uint64_t count, double seconds,
                 Tally& tally, std::vector<Record>* records, Watchdog& wd) {
  Phase phase;
  phase.first = first;
  std::vector<np::PacketResult> results(kWindow);
  std::vector<Clock::time_point> stamps(kWindow + 1);
  const std::uint64_t last =
      seconds > 0 ? std::numeric_limits<std::uint64_t>::max() : first + count;
  const Clock::time_point end =
      Clock::now() +
      std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  std::int64_t busy_ns = 0;
  for (std::uint64_t k = first; k < last;) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kWindow, last - k));
    wd.progress(tally.attempted + n, tally.attempted);
    stamps[0] = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const protocol::WorkItem& item = stream[(k + i) % stream.size()];
      results[i] = engine.process_packet(item.packet, item.flow_key);
      stamps[i + 1] = Clock::now();
    }
    const std::int64_t window_ns = ns_between(stamps[0], stamps[n]);
    busy_ns += window_ns;
    phase.window_ns.push_back(window_ns);
    for (std::size_t i = 0; i < n; ++i) {
      phase.lat_ns.push_back(latency_ns(ns_between(stamps[i], stamps[i + 1])));
      tally.judge(stream[(k + i) % stream.size()], results[i]);
      if (records) records->push_back(Record::of(results[i]));
    }
    tally.attempted += n;
    phase.packets += n;
    k += n;
    if (seconds > 0 && stamps[n] >= end) break;
  }
  phase.wall_s = static_cast<double>(busy_ns) * 1e-9;
  return phase;
}

/// Parallel engine, closed loop from one replay thread: submit() one
/// speculation window of packets back to back, then flush(), and again.
/// The public API has no per-packet completion, so a packet's latency
/// runs from its submit() call to the return of the flush() that
/// completes its window: a window-completion time.
Phase run_parallel(Testbed& tb, const std::vector<protocol::WorkItem>& stream,
                   std::uint64_t first, std::uint64_t count, double seconds,
                   Tally& tally, Watchdog& wd) {
  np::ParallelMpsoc& soc = *tb.parallel;
  wd.watch_folds(&tb.parallel_obs->counter(obs::names::kEngineDispatched),
                 &tb.parallel_obs->counter(obs::names::kEngineUndispatched));
  Phase phase;
  phase.first = first;
  std::vector<Clock::time_point> stamps(kWindow + 1);
  const std::uint64_t last =
      seconds > 0 ? std::numeric_limits<std::uint64_t>::max() : first + count;
  const Clock::time_point end =
      Clock::now() +
      std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  std::int64_t busy_ns = 0, wait_ns = 0, flush_ns = 0;
  for (std::uint64_t k = first; k < last;) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kWindow, last - k));
    tally.attempted += n;
    wd.progress(tally.attempted, 0);  // completions come from the counters
    stamps[0] = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const protocol::WorkItem& item = stream[(k + i) % stream.size()];
      soc.submit(item.packet, item.flow_key);
      stamps[i + 1] = Clock::now();
    }
    soc.flush();
    const Clock::time_point done = Clock::now();
    const std::int64_t window_ns = ns_between(stamps[0], done);
    busy_ns += window_ns;
    wait_ns += ns_between(stamps[0], stamps[n]);
    flush_ns += ns_between(stamps[n], done);
    ++phase.flushes;
    phase.window_ns.push_back(window_ns);
    for (std::size_t i = 0; i < n; ++i) {
      phase.lat_ns.push_back(latency_ns(ns_between(stamps[i], done)));
    }
    phase.packets += n;
    k += n;
    if (seconds > 0 && done >= end) break;
  }
  wd.unwatch_folds();
  phase.wall_s = static_cast<double>(busy_ns) * 1e-9;
  phase.submit_wait_s = static_cast<double>(wait_ns) * 1e-9;
  phase.flush_s = static_cast<double>(flush_ns) * 1e-9;
  return phase;
}

// ---- traced pass --------------------------------------------------------

struct TraceOutcome {
  std::vector<perfbench::PacketSpans> spans;  // measured packets only
  std::uint64_t instructions = 0;             // measured packets
  std::uint64_t trace_dispatches = 0;
  std::uint64_t trace_side_exits = 0;
  std::uint64_t width_sum = 0;
  std::uint64_t shadow_retired = 0;
  std::uint64_t shadow_hashes = 0;
  std::uint64_t reinstalls = 0;  // measured packets
};

/// Replay the run's packets [0, total) through the traced pipeline and
/// compare each against the untraced run's record; spans of the packets
/// from `warm` on are kept.
TraceOutcome run_traced(const Testbed& tb, const Workload& w,
                        const std::vector<protocol::WorkItem>& stream,
                        std::uint64_t warm, std::uint64_t total,
                        const std::vector<Record>& reference,
                        const np::InstrMix& reference_mix,
                        const np::MpsocStats& reference_stats,
                        const np::Mpsoc& reference_engine, Tally& tally,
                        Watchdog& wd, Clock::time_point epoch) {
  perfbench::TracedReplay replay(kCores, recovery_for(w), tb.program,
                                 tb.artifacts, *tb.hash, epoch);
  TraceOutcome out;
  out.spans.reserve(total - warm);
  std::uint64_t diverged = 0;
  std::uint64_t shadow_mismatches = 0;
  perfbench::PacketSpans spans;
  perfbench::ShadowCounts shadow;
  for (std::uint64_t k = 0; k < total; ++k) {
    const protocol::WorkItem& item = stream[k % stream.size()];
    spans.packet_id = k;
    const np::PacketResult r =
        replay.process(item.packet, item.flow_key, spans, shadow);
    if (!(Record::of(r) == reference[k])) ++diverged;
    shadow_mismatches += shadow.mismatches;
    if (k >= warm) {
      out.instructions += r.instructions;
      out.trace_dispatches += r.trace_dispatches;
      out.trace_side_exits += r.trace_side_exits;
      out.width_sum += r.monitor_width;
      out.shadow_retired += shadow.retired;
      out.shadow_hashes += shadow.hashes_fed;
      out.reinstalls += spans.reinstall ? 1 : 0;
      out.spans.push_back(spans);
    }
    if ((k & 63) == 0) wd.beat();
  }
  tally.fail("traced-replay-divergence", diverged);
  tally.fail("shadow-divergence", shadow_mismatches);
  tally.fail("traced-replay-stats",
             perfbench::stats_disagreement(replay.aggregate_stats(),
                                           reference_stats) +
                 core_stats_disagreement(replay.engine(), reference_engine));
  if (!same_mix(mix_of(replay.engine()), reference_mix)) {
    tally.fail("traced-replay-model-cycles");
  }
  return out;
}

// ---- host fingerprint ---------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

/// A fixed dependent integer chain (multiply, xor-shift): millions of
/// steps per second on this host. Best of three 2^22-step rounds.
double calibration_msteps_per_s() {
  double best = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int round = 0; round < 3; ++round) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < (1 << 22); ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      x ^= x >> 29;
    }
    best = std::max(best, (1 << 22) / seconds_since(start) / 1e6);
  }
  if (x == 42) std::fprintf(stderr, " ");  // keep the chain live
  return best;
}

// ---- arguments ----------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sdmmon_perfbench: %s\nusage: sdmmon_perfbench --workload "
               "<small-serial|attack-parallel> --seed N "
               "--seconds S --trace 0|1 [--report FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (value == w.name) o.workload = &w;
        }
        if (!o.workload) usage(("unknown workload " + value).c_str());
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = value == "1";
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      } else if (flag == "--report") {
        o.report_path = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!o.workload) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

// ---- metrics -------------------------------------------------------------

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Set-up repeated kSetupRuns times, each timing appended to `times`;
/// returns the testbed of the last one.
std::unique_ptr<Testbed> set_up_repeatedly(const Workload& w,
                                           std::vector<SetupTimes>& times,
                                           Watchdog& wd) {
  std::unique_ptr<Testbed> tb;
  for (int i = 0; i < kSetupRuns; ++i) {
    tb.reset();
    times.emplace_back();
    tb = set_up(w, times.back());
    wd.beat();
  }
  return tb;
}

/// The fastest set-up of the run. Set-up is the same deterministic work
/// every time (fixed key seeds), so, as for the serial engine's packets,
/// what varies is the shared host; its slow stretches last seconds, which
/// is why set-ups are timed both before and after the measured phase.
const SetupTimes& fastest(const std::vector<SetupTimes>& times) {
  return *std::min_element(times.begin(), times.end(),
                           [](const SetupTimes& a, const SetupTimes& b) {
                             return a.total_s < b.total_s;
                           });
}

/// The end-to-end figures of one typical pass through the stream: each
/// stream window and packet at one time reduced from its times over the
/// phase's passes. The serial engine does the same work for a packet on
/// every pass, so what varies between its passes is the shared host,
/// which runs the same code up to 2x slower while other tenants load it,
/// in stretches from milliseconds to minutes; the minimum over passes is
/// the code's own time. The parallel engine's time also varies with its
/// own thread scheduling and speculation, part of what it measures; the
/// median over passes keeps that and drops the outlying passes.
///
/// The latencies are the benign packets'. Attacks are 1% of the serial
/// stream, so a p99 over all packets lands on the boundary between the
/// slowest benign packets and the attacks, which one depending on the
/// seed's exact attack count. The attacks' handling cost stays in `pps`.
struct PassFigures {
  double pps = 0;             // full windows' packets / their summed times
  double lat_p50_ns = 0;      // over the benign packets' reduced latencies
  double lat_p99_ns = 0;
  std::uint64_t packets = 0;  // benign stream packets with a latency
};

/// One time from a stream packet's or window's times over the passes.
double over_passes(std::vector<double> samples, bool take_median) {
  if (take_median) return median(std::move(samples));
  return *std::min_element(samples.begin(), samples.end());
}

/// A timed phase (whole windows from a window boundary) reduced to one
/// pass through `stream`.
PassFigures typical_pass(const Phase& phase,
                         const std::vector<protocol::WorkItem>& stream,
                         bool take_median) {
  const std::size_t stream_packets = stream.size();
  std::vector<std::vector<double>> per_window(stream_packets / kWindow);
  for (std::size_t i = 0; i < phase.window_ns.size(); ++i) {
    per_window[(phase.first / kWindow + i) % per_window.size()].push_back(
        static_cast<double>(phase.window_ns[i]));
  }
  std::vector<std::vector<double>> per_packet(stream_packets);
  for (std::size_t i = 0; i < phase.lat_ns.size(); ++i) {
    per_packet[(phase.first + i) % stream_packets].push_back(phase.lat_ns[i]);
  }
  PassFigures out;
  double window_ns = 0;
  std::uint64_t windows = 0;
  for (std::vector<double>& w : per_window) {
    if (w.empty()) continue;
    window_ns += over_passes(std::move(w), take_median);
    ++windows;
  }
  out.pps = ratio(static_cast<double>(windows * kWindow), window_ns * 1e-9);
  std::vector<double> lat;
  for (std::size_t k = 0; k < stream_packets; ++k) {
    if (per_packet[k].empty() || stream[k].attack) continue;
    lat.push_back(over_passes(std::move(per_packet[k]), take_median));
  }
  out.lat_p50_ns = percentile(lat, 50);
  out.lat_p99_ns = percentile(lat, 99);
  out.packets = lat.size();
  return out;
}

/// Per-packet layer times and counts of the traced pass. `untraced_ns`
/// is the untraced serial engine's time per packet over the same
/// packets, the base of the tracing overhead.
///
/// The pipeline spans of a packet are contiguous, so their sum is the
/// traced pipeline's wall time. Every part of it is timed directly except
/// the inside of execute_packet, which the shadows split; what they miss
/// is the core.feed_ns residual. trace.coverage is the share of the
/// pipeline's wall time the directly timed layers account for, and it
/// must be within 5% of 1.
std::vector<Metric> layer_metrics(const TraceOutcome& trace,
                                  double untraced_ns, Tally& tally) {
  using perfbench::Span;
  std::int64_t sum[perfbench::kNumSpans] = {};
  std::int64_t reinstall_ns = 0;
  for (const perfbench::PacketSpans& s : trace.spans) {
    for (std::size_t k = 0; k < perfbench::kNumSpans; ++k) sum[k] += s.ns(k);
    if (s.reinstall) reinstall_ns += s.ns(perfbench::kReinstall);
  }
  std::int64_t pipeline = 0;
  for (std::size_t k = 0; k < perfbench::kPipelineSpans; ++k) {
    pipeline += sum[k];
  }
  const std::int64_t attributed =
      pipeline - sum[perfbench::kExecute] + sum[perfbench::kResetDeliver] +
      sum[perfbench::kExec] + sum[perfbench::kMonitor];
  const double n =
      static_cast<double>(std::max<std::size_t>(1, trace.spans.size()));
  auto per_pkt = [&](Span s) { return static_cast<double>(sum[s]) / n; };
  const double coverage = ratio(static_cast<double>(attributed),
                                static_cast<double>(pipeline));
  if (coverage < 0.95 || coverage > 1.05) tally.fail("trace-coverage");
  const double pipeline_ns = static_cast<double>(pipeline) / n;
  return {
      {"engine.dispatch_ns", per_pkt(perfbench::kDispatch), "ns"},
      {"core.execute_ns", per_pkt(perfbench::kExecute), "ns"},
      {"core.reset_deliver_ns", per_pkt(perfbench::kResetDeliver), "ns"},
      {"exec.ns", per_pkt(perfbench::kExec), "ns"},
      {"exec.ns_per_instr",
       ratio(static_cast<double>(sum[perfbench::kExec]),
             static_cast<double>(trace.shadow_retired)),
       "ns/instr"},
      {"exec.instr_per_pkt", static_cast<double>(trace.instructions) / n,
       "instr/pkt"},
      {"exec.side_exit_rate",
       ratio(static_cast<double>(trace.trace_side_exits),
             static_cast<double>(trace.trace_dispatches)),
       "ratio"},
      {"monitor.ns", per_pkt(perfbench::kMonitor), "ns"},
      {"monitor.ns_per_hash",
       ratio(static_cast<double>(sum[perfbench::kMonitor]),
             static_cast<double>(trace.shadow_hashes)),
       "ns/hash"},
      {"monitor.width_mean", static_cast<double>(trace.width_sum) / n,
       "states"},
      // A residual: what execute_packet spends beyond its three shadows.
      {"core.feed_ns",
       per_pkt(perfbench::kExecute) - per_pkt(perfbench::kResetDeliver) -
           per_pkt(perfbench::kExec) - per_pkt(perfbench::kMonitor),
       "ns"},
      {"core.commit_ns", per_pkt(perfbench::kCommit), "ns"},
      {"recovery.outcome_ns", per_pkt(perfbench::kOutcome), "ns"},
      {"obs.record_ns", per_pkt(perfbench::kRecord), "ns"},
      {"recovery.reinstall_us",
       ratio(static_cast<double>(reinstall_ns) / 1e3,
             static_cast<double>(trace.reinstalls)),
       "us"},
      {"recovery.reinstalls", static_cast<double>(trace.reinstalls) * 1e5 / n,
       "1/100kpkt"},
      {"trace.pipeline_ns", pipeline_ns, "ns"},
      {"trace.coverage", coverage, "ratio"},
      {"trace.overhead_frac", ratio(pipeline_ns, untraced_ns) - 1.0, "ratio"},
  };
}

/// Parallel engine internals from its obs registry, over every packet it
/// ran (warm-up and measured); all zero on the serial workloads, which
/// bypass the engine.
std::vector<Metric> parallel_metrics(Testbed& tb, const Phase& measured,
                                     std::uint64_t packets,
                                     double serial_measured_s) {
  double steals = 0, epochs = 0, replayed = 0, rollback_bytes = 0;
  if (tb.parallel) {
    obs::Registry& reg = *tb.parallel_obs;
    auto count = [&](const char* name) {
      return static_cast<double>(reg.counter(name).value());
    };
    steals = count(obs::names::kParallelShardSteals);
    replayed = count(obs::names::kParallelReplayedPackets);
    rollback_bytes = count(obs::names::kParallelRollbackBytes);
    epochs = static_cast<double>(tb.parallel->speculation_rollbacks());
  }
  const double all = static_cast<double>(packets);
  return {
      {"parallel.submit_wait_frac",
       ratio(measured.submit_wait_s, measured.wall_s), "ratio"},
      {"parallel.flush_ms",
       ratio(measured.flush_s * 1e3, static_cast<double>(measured.flushes)),
       "ms"},
      {"parallel.epochs", epochs * 1e5 / all, "1/100kpkt"},
      {"parallel.replay_frac", replayed / all, "ratio"},
      {"parallel.rollback_bytes_per_replay", ratio(rollback_bytes, replayed),
       "B/pkt"},
      {"parallel.steals_per_pkt", steals / all, "steals/pkt"},
      {"parallel.speedup_vs_serial",
       ratio(serial_measured_s, measured.wall_s), "x"},
  };
}

/// Set-up layers: the steps of the fastest set-up, shadow compiles of the
/// installed graph and program, and the modelled Nios II install time.
std::vector<Metric> setup_metrics(const Testbed& tb, const SetupTimes& best,
                                  Tally& tally) {
  std::vector<double> graph_ms, predecode_ms;
  for (int i = 0; i < kCompileRuns; ++i) {
    Clock::time_point t0 = Clock::now();
    auto graph = monitor::CompiledGraph::compile(tb.artifacts.graph->source());
    graph_ms.push_back(seconds_since(t0) * 1e3);
    t0 = Clock::now();
    auto code = np::CompiledProgram::compile(tb.program, *tb.hash);
    predecode_ms.push_back(seconds_since(t0) * 1e3);
  }
  const protocol::TimedInstallResult modeled = protocol::timed_install(
      tb.wire, tb.device->private_key_for_instrumentation(),
      tb.manufacturer->public_key(), kNow);
  if (!modeled.ok) tally.fail("timed-install");
  return {
      {"setup.keygen_s", best.keygen_s, "s"},
      {"setup.package_ms", best.package_s * 1e3, "ms"},
      {"setup.install_ms", best.install_s * 1e3, "ms"},
      {"setup.engine_ms", best.engine_s * 1e3, "ms"},
      {"setup.graph_compile_ms", median(graph_ms), "ms"},
      {"setup.predecode_ms", median(predecode_ms), "ms"},
      {"setup.model_install_s",
       modeled.timing(protocol::NiosTimingModel{}).total(), "s"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Workload& w = *opt.workload;
  const Clock::time_point epoch = Clock::now();
  Watchdog wd(kDeadlineSeconds);
  Tally tally;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, obs::JsonScalar>> meta;

  try {
    wd.phase("setup");
    std::vector<SetupTimes> setup_times;
    const std::unique_ptr<Testbed> testbed =
        set_up_repeatedly(w, setup_times, wd);
    Testbed& tb = *testbed;

    wd.phase("traffic generation");
    const std::vector<protocol::WorkItem> stream = make_stream(w, opt.seed);
    const std::uint64_t warm = stream.size();
    if (warm % kWindow != 0) {
      throw std::logic_error("stream is not a whole number of windows");
    }
    std::uint64_t stream_attacks = 0;
    for (const protocol::WorkItem& item : stream) stream_attacks += item.attack;

    np::Mpsoc& device = tb.device->mpsoc();
    const double measure_s =
        opt.trace ? std::max(0.5, opt.seconds * w.traced_share) : opt.seconds;
    std::vector<Record> records;  // the untraced run, packet by packet
    std::vector<Record>* keep = opt.trace ? &records : nullptr;
    Phase measured;
    double model_cycles_per_pkt = 0;
    double serial_measured_s = 0;  // the serial engine over `measured`

    if (!w.parallel) {
      wd.phase("warm-up");
      const np::InstrMix before = mix_of(device);
      run_serial(device, stream, 0, warm, 0, tally, keep, wd);
      model_cycles_per_pkt = np::CycleModel{}.cycles(mix_of(device) - before) /
                             static_cast<double>(warm);
      wd.phase("measured");
      measured =
          run_serial(device, stream, warm, 0, measure_s, tally, keep, wd);
      serial_measured_s = measured.wall_s;
    } else {
      np::ParallelMpsoc& soc = *tb.parallel;
      Tally unjudged;  // the engine exposes no per-packet result to judge
      wd.phase("parallel warm-up");
      const np::InstrMix before = mix_of(soc);
      run_parallel(tb, stream, 0, warm, 0, unjudged, wd);
      model_cycles_per_pkt = np::CycleModel{}.cycles(mix_of(soc) - before) /
                             static_cast<double>(warm);
      wd.phase("parallel measured");
      measured = run_parallel(tb, stream, warm, 0, measure_s, unjudged, wd);

      // The check: the serial engine, same stream, same configuration,
      // judged packet by packet; the parallel engine's aggregate and
      // per-core counters and its cores' retired mix must equal it. Its
      // measured part is timed like the parallel phase, for the speedup.
      wd.phase("serial reference", /*checking=*/true);
      run_serial(device, stream, 0, warm, 0, tally, keep, wd);
      serial_measured_s = run_serial(device, stream, warm, measured.packets, 0,
                                     tally, keep, wd)
                              .wall_s;
      tally.fail("parallel-vs-serial-stats",
                 perfbench::stats_disagreement(soc.aggregate_stats(),
                                               device.aggregate_stats()) +
                     core_stats_disagreement(soc, device));
      if (!same_mix(mix_of(soc), mix_of(device))) {
        tally.fail("parallel-vs-serial-model-cycles");
      }
    }

    wd.phase("setup after the measured phase");
    set_up_repeatedly(w, setup_times, wd);

    const PassFigures typical =
        typical_pass(measured, stream, /*take_median=*/w.parallel);
    end_to_end = {
        {"pps", typical.pps, "1/s"},
        {"lat_p50_us", typical.lat_p50_ns / 1e3, "us"},
        {"lat_p99_us", typical.lat_p99_ns / 1e3, "us"},
        {"model_cycles_per_pkt", model_cycles_per_pkt, "cycles"},
        {"setup_s", fastest(setup_times).total_s, "s"},
    };
    meta.emplace_back("measured_packets", measured.packets);
    meta.emplace_back("measured_wall_s", measured.wall_s);
    meta.emplace_back("measured_passes", static_cast<double>(measured.packets) /
                                             static_cast<double>(warm));
    meta.emplace_back("wall_pps", ratio(static_cast<double>(measured.packets),
                                        measured.wall_s));
    meta.emplace_back("latency_packets", typical.packets);
    meta.emplace_back("stream_packets", warm);
    meta.emplace_back("stream_attacks", stream_attacks);
    meta.emplace_back("setup_runs",
                      static_cast<std::uint64_t>(setup_times.size()));

    if (opt.trace) {
      // Replay every packet the untraced run sent through the traced
      // pipeline, compared packet by packet.
      wd.phase("traced replay", /*checking=*/true);
      const TraceOutcome trace = run_traced(
          tb, w, stream, warm, warm + measured.packets, records,
          mix_of(device), device.aggregate_stats(), device, tally, wd, epoch);
      // The traced pipeline is the serial engine's, so its base is the
      // serial engine over the same packets (the parallel workload's
      // serial reference).
      per_layer = layer_metrics(
          trace,
          serial_measured_s * 1e9 / static_cast<double>(measured.packets),
          tally);
      meta.emplace_back("traced_packets",
                        static_cast<std::uint64_t>(trace.spans.size()));
      for (Metric& m : parallel_metrics(tb, measured, warm + measured.packets,
                                        w.parallel ? serial_measured_s : 0)) {
        per_layer.push_back(std::move(m));
      }
      for (Metric& m : setup_metrics(tb, fastest(setup_times), tally)) {
        per_layer.push_back(std::move(m));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    tally.fail("exception");
  }

  meta.emplace_back("workload", w.name);
  meta.emplace_back("seed", opt.seed);
  meta.emplace_back("held_out_seed", kHeldOutSeed);
  meta.emplace_back("seconds", opt.seconds);
  meta.emplace_back("trace", opt.trace);
  meta.emplace_back("nproc", std::thread::hardware_concurrency());
  meta.emplace_back("cpu_model", cpu_model());
  meta.emplace_back("build_type", SDMMON_PERFBENCH_BUILD_TYPE);
  meta.emplace_back("sdmmon_obs", SDMMON_PERFBENCH_OBS);
  meta.emplace_back("calibration_msteps_per_s", calibration_msteps_per_s());
  for (const auto& [kind, count] : tally.failures) {
    meta.emplace_back("failures." + kind, count);
  }

  wd.stop();
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  obs::JsonWriter report;
  report.begin_object();
  report.key("correct").value(correct);
  report.key("attempted").value(tally.attempted);
  report.key("failed").value(tally.failed);
  report.key("end_to_end");
  write_metrics(report, end_to_end);
  report.key("per_layer");
  write_metrics(report, per_layer);
  report.key("meta").begin_object();
  for (const auto& [key, value] : meta) report.key(key).value(value);
  report.end_object();
  report.end_object();
  std::fprintf(stderr, "%s\n", report.str().c_str());
  if (!opt.report_path.empty()) {
    std::ofstream(opt.report_path) << report.str() << '\n';
  }

  std::printf("%s\n",
              result_line(correct, std::max<std::uint64_t>(tally.attempted, 1),
                          tally.failed, opt.trace ? per_layer : end_to_end)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
