// Reorder-buffer wrap stress for the parallel engine (`parallel` label,
// so the TSan job runs it). Tiny speculation windows (batch_size 2-8)
// make the reorder buffer wrap every few packets: a slot is folded and
// re-planned for seq + batch_size while the worker that executed it may
// still be returning from run_slot(). A worker that reads its slot after
// publishing it (ticket, action) then strands its core's turn ticket and
// every later packet of that core waits forever. Workers range over 2-8,
// more than the hardware threads of small hosts, under all three
// recovery policies; every packet's result must equal the serial
// engine's, and a campaign that stops making progress fails loudly via
// a watchdog instead of hanging the suite.
//
// SDMMON_STRESS_PACKETS scales the campaign (total packets over all
// configurations; default 100000).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "np/mpsoc.hpp"
#include "np/parallel_mpsoc.hpp"
#include "sdmmon/workload.hpp"
#include "support/test_apps.hpp"
#include "support/test_params.hpp"

namespace sdmmon {
namespace {

using namespace testsupport;

std::uint64_t campaign_packets() {
  if (const char* env = std::getenv("SDMMON_STRESS_PACKETS")) {
    const std::uint64_t n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 100'000;
}

// Ends the process when the guarded scope does not finish in time: a
// livelocked engine never returns, so no assertion could report it.
class Watchdog {
 public:
  Watchdog(std::chrono::seconds limit, std::string what)
      : what_(std::move(what)), thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "FAIL: no progress within %llds: %s\n",
                         static_cast<long long>(limit.count()),
                         what_.c_str());
            std::fflush(stderr);
            std::_Exit(1);
          }
        }) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  std::string what_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

template <class Soc>
void install_mixed(Soc& soc) {
  // Six echo cores and two cores that execute packet-carried code, so
  // attack packets raise recovery actions (epochs) on the latter.
  for (std::size_t c = 0; c < soc.num_cores(); ++c) {
    install_one(soc, c, c % 4 == 3 ? kVulnApp : kEchoApp,
                0x50B0 + static_cast<std::uint32_t>(c));
  }
}

TEST(MpsocRobWrap, TinyWindowsMatchSerialEngine) {
  constexpr std::size_t kCores = 8;
  const np::RecoveryPolicy policies[] = {
      np::RecoveryPolicy::ResetAndContinue,
      np::RecoveryPolicy::QuarantineAfterK,
      np::RecoveryPolicy::ReinstallLastGood};
  const std::size_t batch_sizes[] = {2, 3, 8};
  const std::size_t worker_counts[] = {2, 5, 8};
  const std::uint64_t per_config = std::max<std::uint64_t>(
      64, campaign_packets() / (std::size(policies) *
                                std::size(batch_sizes) *
                                std::size(worker_counts)));

  protocol::MixedWorkloadConfig workload_config;
  workload_config.seed = 0x20B;
  workload_config.attack_rate = 0.03;
  workload_config.min_payload = 0;
  workload_config.max_payload = 24;
  workload_config.attack_packet = attack_packet();

  for (np::RecoveryPolicy policy : policies) {
    for (std::size_t batch : batch_sizes) {
      for (std::size_t workers : worker_counts) {
        const std::string config =
            std::string(np::recovery_policy_name(policy)) + " batch " +
            std::to_string(batch) + " workers " + std::to_string(workers);
        SCOPED_TRACE(config);
        // A generous bound: a healthy configuration takes well under a
        // second, and stays far inside it under TSan.
        Watchdog watchdog(std::chrono::seconds(120), config);

        const np::RecoveryConfig recovery = make_recovery_config(policy);
        np::ParallelConfig parallel;
        parallel.batch_size = batch;
        parallel.workers = workers;
        parallel.ingest_depth = 2;
        np::ParallelMpsoc soc(kCores, np::DispatchPolicy::RoundRobin,
                              recovery, parallel);
        np::Mpsoc serial(kCores, np::DispatchPolicy::RoundRobin, recovery);
        install_mixed(soc);
        install_mixed(serial);

        protocol::MixedWorkload workload(workload_config);
        std::vector<np::ParallelMpsoc::Packet> chunk;
        for (std::uint64_t begin = 0; begin < per_config; begin += 512) {
          chunk.clear();
          for (std::uint64_t i = begin; i < std::min(per_config, begin + 512);
               ++i) {
            protocol::WorkItem item = workload.item(i);
            chunk.push_back({std::move(item.packet), item.flow_key});
          }
          const std::vector<np::PacketResult> got = soc.process_packets(chunk);
          for (std::size_t i = 0; i < chunk.size(); ++i) {
            const np::PacketResult want = serial.process_packet(chunk[i].data);
            ASSERT_EQ(static_cast<int>(got[i].outcome),
                      static_cast<int>(want.outcome))
                << "packet " << begin + i;
            ASSERT_EQ(got[i].output, want.output) << "packet " << begin + i;
            ASSERT_EQ(got[i].instructions, want.instructions)
                << "packet " << begin + i;
          }
        }
        const np::MpsocStats a = soc.aggregate_stats();
        const np::MpsocStats b = serial.aggregate_stats();
        EXPECT_EQ(a.packets, per_config);
        EXPECT_EQ(a.packets, b.packets);
        EXPECT_EQ(a.forwarded, b.forwarded);
        EXPECT_EQ(a.attacks_detected, b.attacks_detected);
        EXPECT_EQ(a.undispatched, b.undispatched);
        EXPECT_EQ(a.quarantine_events, b.quarantine_events);
        EXPECT_EQ(a.reinstalls, b.reinstalls);
      }
    }
  }
}

}  // namespace
}  // namespace sdmmon
