// Self-healing online controller: determinism, crash-consistent
// checkpoint/restore, watchdog containment of cycling dynamics, and
// mass-failure recovery.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/checkpoint.hpp"
#include "serve/controller.hpp"
#include "sim/paper.hpp"
#include "util/json.hpp"

namespace {

using namespace idde;

serve::ServeConfig small_config() {
  serve::ServeConfig config;
  config.base = sim::paper_default_params();
  config.base.server_count = 10;
  config.base.user_count = 40;
  config.base.data_count = 3;
  config.tick_seconds = 1.0;
  // Brisk churn so every run sees join/leave events.
  config.churn.arrival_rate_hz = 1.0 / 20.0;
  config.churn.mean_session_s = 40.0;
  config.churn.initial_online_fraction = 0.9;
  // Random server faults inside the run window.
  config.faults.horizon_s = 200.0;
  config.faults.server_mtbf_s = 120.0;
  config.faults.server_mttr_s = 8.0;
  config.sigma_refresh_period_ticks = 10;
  return config;
}

TEST(Serve, TrajectoryIsPureFunctionOfConfigAndSeed) {
  serve::ServeController a(small_config(), 7);
  serve::ServeController b(small_config(), 7);
  ASSERT_EQ(a.trajectory_hash(), b.trajectory_hash());
  for (int step = 0; step < 30; ++step) {
    const serve::TickReport ra = a.tick();
    const serve::TickReport rb = b.tick();
    ASSERT_EQ(a.trajectory_hash(), b.trajectory_hash()) << "tick " << step;
    ASSERT_EQ(ra.events, rb.events);
    ASSERT_EQ(ra.repairs, rb.repairs);
    ASSERT_EQ(ra.backlog, rb.backlog);
  }
  EXPECT_GT(a.status().events_total, 0u);
}

TEST(Serve, CheckpointRoundTripIsByteStable) {
  serve::ServeController a(small_config(), 11);
  for (int step = 0; step < 13; ++step) (void)a.tick();
  const std::string snapshot = a.checkpoint();

  serve::ServeController b(small_config(), 11);
  b.restore(snapshot);
  EXPECT_EQ(b.checkpoint(), snapshot);
  EXPECT_EQ(b.trajectory_hash(), a.trajectory_hash());
  EXPECT_EQ(b.current_tick(), a.current_tick());
}

// The acceptance gate: kill the process at an arbitrary event boundary,
// restore from the snapshot, and the remaining trajectory is bit-identical
// to the uninterrupted run — across 10 seeds with the cut point varying.
TEST(Serve, CrashRestoreResumesBitIdenticallyAcrossTenSeeds) {
  constexpr std::size_t kTicks = 32;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::size_t cut = 4 + static_cast<std::size_t>(seed * 7 % 21);

    serve::ServeController uninterrupted(small_config(), seed);
    for (std::size_t step = 0; step < kTicks; ++step) {
      (void)uninterrupted.tick();
    }

    serve::ServeController victim(small_config(), seed);
    for (std::size_t step = 0; step < cut; ++step) (void)victim.tick();
    const std::string snapshot = victim.checkpoint();
    // "Kill" the victim: the survivor starts from scratch and only sees
    // the snapshot.
    serve::ServeController survivor(small_config(), seed);
    survivor.restore(snapshot);
    for (std::size_t step = cut; step < kTicks; ++step) {
      (void)survivor.tick();
    }

    EXPECT_EQ(survivor.trajectory_hash(), uninterrupted.trajectory_hash())
        << "seed " << seed << " cut " << cut;
    EXPECT_EQ(survivor.status().events_total,
              uninterrupted.status().events_total)
        << "seed " << seed;
    EXPECT_EQ(survivor.status().repairs_total,
              uninterrupted.status().repairs_total)
        << "seed " << seed;
  }
}

TEST(Serve, RestoreRejectsCorruptedSnapshots) {
  serve::ServeController a(small_config(), 3);
  for (int step = 0; step < 5; ++step) (void)a.tick();
  const std::string snapshot = a.checkpoint();

  // Truncation fails to parse.
  {
    serve::ServeController b(small_config(), 3);
    EXPECT_THROW(b.restore(snapshot.substr(0, snapshot.size() / 2)),
                 util::JsonError);
  }
  // A single flipped payload character breaks the checksum.
  {
    std::string corrupted = snapshot;
    const std::size_t mask_pos = corrupted.find("\"churn_mask\":\"");
    ASSERT_NE(mask_pos, std::string::npos);
    char& bit = corrupted[mask_pos + 14];
    bit = bit == '1' ? '0' : '1';
    serve::ServeController b(small_config(), 3);
    EXPECT_THROW(b.restore(corrupted), util::JsonError);
  }
  // Unknown format tag.
  {
    serve::ServeController b(small_config(), 3);
    EXPECT_THROW(b.restore(R"({"format":"bogus","checksum":"00"})"),
                 util::JsonError);
  }
  // Checksum field stripped.
  {
    util::Json payload = util::Json::parse(snapshot);
    payload.as_object().erase("checksum");
    serve::ServeController b(small_config(), 3);
    EXPECT_THROW(b.restore(payload.dump(-1)), util::JsonError);
  }
  // Valid snapshot, wrong seed: the guard hash refuses it.
  {
    serve::ServeController b(small_config(), 4);
    EXPECT_THROW(b.restore(snapshot), util::JsonError);
  }
}

// Inject the adversarial cycling rule as the repair rule. The controller
// must complete the run (never hang), catch the non-descending repairs via
// the potential watchdog, trip the breaker and fall back to the
// last-known-good profile.
TEST(Serve, WatchdogContainsCyclingRepairRule) {
  serve::ServeConfig config = small_config();
  config.repair_rule = core::UpdateRule::kCycleProbe;
  config.repair_rounds_per_event = 64;
  config.watchdog_suspect_moves = 32;
  config.watchdog_strike_limit = 2;
  config.watchdog_cooldown_ticks = 4;
  serve::ServeController controller(config, 5);
  for (int step = 0; step < 80; ++step) (void)controller.tick();

  const serve::ServeStatus& status = controller.status();
  EXPECT_EQ(status.ticks, 80u);
  EXPECT_GT(status.events_total, 0u);
  EXPECT_GE(status.watchdog_strikes, config.watchdog_strike_limit);
  EXPECT_GE(status.breaker_trips, 1u);
  EXPECT_GE(status.lkg_restores, 1u);
  // The fallback must stay structurally valid: allocated users point at
  // real servers.
  for (const core::ChannelSlot& slot : controller.allocation()) {
    if (slot.allocated()) {
      EXPECT_LT(slot.server, controller.instance().server_count());
    }
  }
}

// Fault-free, churn-free serving must stay essentially non-degraded: the
// only events are stranded walkers and periodic sigma refreshes, and each
// repairs to convergence within its budget.
TEST(Serve, FaultFreeRunStaysHealthy) {
  serve::ServeConfig config = small_config();
  config.churn_enabled = false;
  config.faults = fault::FaultProfile{};
  serve::ServeController controller(config, 17);
  for (int step = 0; step < 40; ++step) (void)controller.tick();
  const serve::ServeStatus& status = controller.status();
  EXPECT_EQ(status.breaker_trips, 0u);
  // Acceptance gate: degraded-time fraction < 5% fault-free.
  EXPECT_LT(status.degraded_ticks * 20, status.ticks);
}

TEST(Serve, FlashFailureIsRepairedAndRecoveryTimed) {
  serve::ServeConfig config = small_config();
  config.churn_enabled = false;
  config.faults = fault::FaultProfile{};
  config.flash_failure_tick = 8;
  config.flash_failure_fraction = 0.4;
  config.flash_failure_duration_ticks = 6;
  // Starve the per-event budgets so healing a mass failure takes several
  // ticks and the degraded window is observable.
  config.repair_rounds_per_event = 2;
  config.repair_placements_per_event = 2;
  config.backlog_drain_per_tick = 1;
  serve::ServeController controller(config, 23);
  bool saw_degraded = false;
  for (int step = 0; step < 50; ++step) {
    const serve::TickReport report = controller.tick();
    if (report.degraded) saw_degraded = true;
  }
  const serve::ServeStatus& status = controller.status();
  EXPECT_TRUE(saw_degraded);
  EXPECT_GT(status.events_total, 0u);
  // Recovery completed and was timed.
  EXPECT_GT(status.recovery_ticks, 0u);
  EXPECT_LT(status.recovery_ticks, 40u);
  // After recovery with every server back, no user may still be parked on
  // an unreachable slot.
  for (std::size_t j = 0; j < controller.allocation().size(); ++j) {
    const core::ChannelSlot& slot = controller.allocation()[j];
    if (slot.allocated()) {
      EXPECT_LT(slot.server, controller.instance().server_count());
    }
  }
}

}  // namespace
