// Fault layer: plan generation contracts, injector epoch algebra, the
// degraded-mode failover resolver, repair planning, and the analytic
// resilience metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/delivery.hpp"
#include "core/health.hpp"
#include "core/greedy_delivery.hpp"
#include "core/idde_g.hpp"
#include "core/metrics.hpp"
#include "core/repair_planner.hpp"
#include "des/flow_sim.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "model/instance_builder.hpp"
#include "sim/paper.hpp"

namespace {

using namespace idde;

model::InstanceParams small_params() {
  model::InstanceParams p = sim::paper_default_params();
  p.server_count = 10;
  p.user_count = 50;
  p.data_count = 4;
  return p;
}

struct Solved {
  model::ProblemInstance instance;
  core::Strategy strategy;
};

Solved solved_instance(std::uint64_t seed) {
  model::ProblemInstance instance = model::make_instance(small_params(), seed);
  util::Rng rng(seed);
  core::Strategy strategy = core::IddeG().solve(instance, rng);
  return Solved{std::move(instance), std::move(strategy)};
}

fault::FaultProfile lively_profile() {
  fault::FaultProfile profile;
  profile.horizon_s = 60.0;
  profile.server_mtbf_s = 20.0;
  profile.server_mttr_s = 5.0;
  profile.link_mtbf_s = 15.0;
  profile.link_mttr_s = 4.0;
  profile.cloud_mtbf_s = 40.0;
  profile.cloud_mttr_s = 3.0;
  profile.replica_corruption_prob = 0.05;
  return profile;
}

TEST(FaultPlan, DefaultAndInertProfileAreInert) {
  const fault::FaultPlan empty;
  EXPECT_TRUE(empty.inert());
  EXPECT_TRUE(fault::FaultProfile{}.inert());

  const auto inst = model::make_instance(small_params(), 1);
  const auto plan =
      fault::FaultPlan::generate(inst, fault::FaultProfile{}, 99);
  EXPECT_TRUE(plan.inert());
  EXPECT_TRUE(plan.edge_change_times().empty());
  EXPECT_TRUE(plan.server_up(0, 0.0));
  EXPECT_TRUE(plan.link_up(0, 1, 5.0));
  EXPECT_FALSE(plan.cloud_stalled(1.0));
  EXPECT_FALSE(plan.replica_corrupted(3, 2));
}

TEST(FaultPlan, GeneratedIntervalsAreWellFormed) {
  const auto inst = model::make_instance(small_params(), 2);
  const auto profile = lively_profile();
  const auto plan = fault::FaultPlan::generate(inst, profile, 7);
  EXPECT_FALSE(plan.inert());

  const auto check = [&](const std::vector<fault::Interval>& intervals) {
    double last_end = 0.0;
    for (const fault::Interval& iv : intervals) {
      EXPECT_GE(iv.start_s, last_end);
      EXPECT_GT(iv.end_s, iv.start_s);
      EXPECT_LE(iv.end_s, profile.horizon_s);
      last_end = iv.end_s;
    }
  };
  for (const auto& intervals : plan.server_downtime()) check(intervals);
  for (const auto& [key, intervals] : plan.link_downtime()) {
    EXPECT_LT(key.first, key.second);
    check(intervals);
  }
  check(plan.cloud_downtime());

  const auto& changes = plan.edge_change_times();
  EXPECT_TRUE(std::is_sorted(changes.begin(), changes.end()));
  EXPECT_TRUE(std::adjacent_find(changes.begin(), changes.end()) ==
              changes.end());
  // Queries agree with the raw intervals.
  for (const auto& intervals : plan.server_downtime()) {
    for (const fault::Interval& iv : intervals) {
      const std::size_t i = static_cast<std::size_t>(
          &intervals - plan.server_downtime().data());
      EXPECT_FALSE(plan.server_up(i, iv.start_s));
      EXPECT_FALSE(plan.server_up(i, (iv.start_s + iv.end_s) / 2));
      EXPECT_TRUE(plan.server_up(i, iv.end_s));  // half-open
    }
  }
}

TEST(FaultPlan, DeterministicInSeedAndSensitiveToIt) {
  const auto inst = model::make_instance(small_params(), 3);
  const auto profile = lively_profile();
  const auto a = fault::FaultPlan::generate(inst, profile, 11);
  const auto b = fault::FaultPlan::generate(inst, profile, 11);
  const auto c = fault::FaultPlan::generate(inst, profile, 12);
  EXPECT_EQ(a.server_downtime(), b.server_downtime());
  EXPECT_EQ(a.link_downtime(), b.link_downtime());
  EXPECT_EQ(a.cloud_downtime(), b.cloud_downtime());
  EXPECT_EQ(a.edge_change_times(), b.edge_change_times());
  EXPECT_NE(a.server_downtime(), c.server_downtime());
  // Corruption is a stateless hash: query order cannot matter.
  EXPECT_EQ(a.replica_corrupted(4, 2), b.replica_corrupted(4, 2));
}

TEST(FaultPlan, CorruptionRateIsCalibrated) {
  const auto inst = model::make_instance(small_params(), 4);
  fault::FaultProfile profile;
  profile.replica_corruption_prob = 0.2;
  const auto plan = fault::FaultPlan::generate(inst, profile, 5);
  std::size_t corrupt = 0;
  const std::size_t trials = 20000;
  for (std::size_t s = 0; s < 200; ++s) {
    for (std::size_t k = 0; k < 100; ++k) {
      if (plan.replica_corrupted(s, k)) ++corrupt;
    }
  }
  const double rate = static_cast<double>(corrupt) / trials;
  EXPECT_NEAR(rate, 0.2, 0.02);
}

TEST(FaultPlan, CloudCompletionStallsThroughBrownouts) {
  fault::FaultPlan plan;
  plan.add_cloud_downtime({2.0, 5.0});
  plan.add_cloud_downtime({10.0, 11.0});
  EXPECT_TRUE(plan.cloud_stalled(3.0));
  EXPECT_FALSE(plan.cloud_stalled(5.0));
  // Transfer fits before the first brown-out: unaffected.
  EXPECT_DOUBLE_EQ(plan.cloud_completion(0.0, 1.5), 1.5);
  // Transfer hits the brown-out: stalls for its full 3 s.
  EXPECT_DOUBLE_EQ(plan.cloud_completion(1.0, 2.0), 6.0);
  // Transfer starting inside a brown-out waits for its end.
  EXPECT_DOUBLE_EQ(plan.cloud_completion(3.0, 1.0), 6.0);
  // Long transfer crosses both brown-outs.
  EXPECT_DOUBLE_EQ(plan.cloud_completion(0.0, 8.0), 12.0);
  // An inert plan never stalls.
  const fault::FaultPlan inert;
  EXPECT_DOUBLE_EQ(inert.cloud_completion(4.0, 2.5), 6.5);
}

TEST(FaultPlan, EdgeChangeTimesAndNextChange) {
  fault::FaultPlan plan;
  plan.add_server_downtime(2, {3.0, 7.0});
  plan.add_link_downtime(0, 1, {5.0, 9.0});
  const std::vector<double> expected{3.0, 5.0, 7.0, 9.0};
  EXPECT_EQ(plan.edge_change_times(), expected);
  EXPECT_DOUBLE_EQ(plan.next_edge_change_after(0.0), 3.0);
  EXPECT_DOUBLE_EQ(plan.next_edge_change_after(3.0), 5.0);
  EXPECT_DOUBLE_EQ(plan.next_edge_change_after(9.0), fault::kNeverChanges);
  // Cloud brown-outs never alter the edge graph.
  plan.add_cloud_downtime({1.0, 2.0});
  EXPECT_EQ(plan.edge_change_times(), expected);
}

TEST(FaultInjector, EpochsAreContiguousAndAgreeWithPlan) {
  const auto inst = model::make_instance(small_params(), 6);
  const auto plan = fault::FaultPlan::generate(inst, lively_profile(), 21);
  const fault::FaultInjector injector(inst, plan);
  ASSERT_GE(injector.epoch_count(), 1u);
  EXPECT_DOUBLE_EQ(injector.epoch(0).start_s, 0.0);
  for (std::size_t e = 0; e < injector.epoch_count(); ++e) {
    const auto& snap = injector.epoch(e);
    EXPECT_LT(snap.start_s, snap.end_s);
    if (e + 1 < injector.epoch_count()) {
      EXPECT_DOUBLE_EQ(snap.end_s, injector.epoch(e + 1).start_s);
    } else {
      EXPECT_EQ(snap.end_s, fault::kNeverChanges);
    }
    // The mask equals the plan's point queries anywhere in the epoch.
    const double mid = snap.end_s == fault::kNeverChanges
                           ? snap.start_s + 1.0
                           : (snap.start_s + snap.end_s) / 2;
    for (std::size_t i = 0; i < inst.server_count(); ++i) {
      EXPECT_EQ(snap.server_up[i] != 0, plan.server_up(i, mid));
    }
    EXPECT_EQ(injector.epoch_index(mid), e);
    EXPECT_EQ(injector.epoch_index(snap.start_s), e);
  }
  // The final epoch (past the horizon) has everything up again.
  const auto& last = injector.epoch(injector.epoch_count() - 1);
  EXPECT_TRUE(last.all_up);
  EXPECT_EQ(last.graph.edge_count(), inst.graph().edge_count());
}

// The plan's shared epoch view (epoch_starts / epoch_index_at /
// availability_changed_between) is the single source of truth the
// injector and serve::ServeController both slice on — it must agree with
// the injector's materialised epochs everywhere.
TEST(FaultInjector, PlanEpochViewMatchesInjectorSlicing) {
  const auto inst = model::make_instance(small_params(), 6);
  const auto plan = fault::FaultPlan::generate(inst, lively_profile(), 21);
  const fault::FaultInjector injector(inst, plan);

  const std::vector<double> starts = plan.epoch_starts();
  ASSERT_EQ(starts.size(), injector.epoch_count());
  for (std::size_t e = 0; e < starts.size(); ++e) {
    EXPECT_DOUBLE_EQ(starts[e], injector.epoch(e).start_s);
  }

  // Dense time sweep: the plan-side index always equals the injector's.
  for (double t = 0.0; t < plan.horizon_s() + 5.0; t += 0.25) {
    EXPECT_EQ(plan.epoch_index_at(t), injector.epoch_index(t)) << "t=" << t;
  }

  // availability_changed_between brackets exactly the epoch boundaries:
  // true iff some change time falls in (from, to].
  std::vector<std::uint8_t> before;
  std::vector<std::uint8_t> after;
  const double step = 0.5;
  for (double t = step; t < plan.horizon_s() + 5.0; t += step) {
    const bool changed_index =
        plan.epoch_index_at(t - step) != plan.epoch_index_at(t);
    EXPECT_EQ(plan.availability_changed_between(t - step, t), changed_index);
    if (!plan.availability_changed_between(t - step, t)) {
      // An unchanged interval really has a constant mask.
      plan.server_up_mask(inst.server_count(), t - step, before);
      plan.server_up_mask(inst.server_count(), t, after);
      EXPECT_EQ(before, after);
    }
  }
  EXPECT_FALSE(plan.availability_changed_between(1.0, 0.5));  // to < from
}

TEST(Failover, AllUpReproducesEq8AndPrimaryTier) {
  const auto s = solved_instance(7);
  const auto& inst = s.instance;
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    const auto slot = s.strategy.allocation[j];
    const std::size_t serving =
        slot.allocated() ? slot.server : core::ChannelSlot::kNone;
    for (const std::size_t k : inst.requests().items_of(j)) {
      const double size = inst.data(k).size_mb;
      const auto decision = core::resolve_with_health(
          inst, s.strategy.delivery.hosts(k), serving, size, nullptr);
      EXPECT_EQ(decision.tier, core::FallbackTier::kPrimary);
      const double expected =
          slot.allocated()
              ? inst.latency().best_delivery_seconds(
                    s.strategy.delivery.hosts(k), serving, size)
              : inst.latency().cloud_transfer_seconds(size);
      EXPECT_DOUBLE_EQ(decision.seconds, expected);
    }
  }
}

TEST(Failover, DeadPrimaryFallsThroughTheTiers) {
  const auto s = solved_instance(8);
  const auto& inst = s.instance;
  // Find a request whose fault-free source is an edge replica.
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    const auto slot = s.strategy.allocation[j];
    if (!slot.allocated()) continue;
    for (const std::size_t k : inst.requests().items_of(j)) {
      const double size = inst.data(k).size_mb;
      const auto hosts = s.strategy.delivery.hosts(k);
      const auto fault_free =
          core::resolve_with_health(inst, hosts, slot.server, size, nullptr);
      if (fault_free.source == core::kCloudSource) continue;

      // Kill the fault-free source: the request must still resolve, at a
      // strictly-worse-or-equal latency, on a non-primary tier.
      std::vector<std::uint8_t> up(inst.server_count(), 1);
      up[fault_free.source] = 0;
      const auto degraded =
          core::resolve_with_health(inst, hosts, slot.server, size, nullptr,
                                    up);
      if (slot.server == fault_free.source) {
        // The user's own server died: cloud-direct.
        EXPECT_EQ(degraded.source, core::kCloudSource);
        EXPECT_EQ(degraded.tier, core::FallbackTier::kCloud);
      } else {
        EXPECT_NE(degraded.source, fault_free.source);
        EXPECT_NE(degraded.tier, core::FallbackTier::kPrimary);
        EXPECT_GE(degraded.seconds, fault_free.seconds - 1e-12);
      }

      // Kill every server: only the cloud remains.
      std::vector<std::uint8_t> none(inst.server_count(), 0);
      const auto cloud_only =
          core::resolve_with_health(inst, hosts, slot.server, size, nullptr,
                                    none);
      EXPECT_EQ(cloud_only.source, core::kCloudSource);
      EXPECT_DOUBLE_EQ(cloud_only.seconds,
                       inst.latency().cloud_transfer_seconds(size));
      return;
    }
  }
  GTEST_SKIP() << "no edge-served request in this draw";
}

TEST(Failover, PreFilteredHostsClassifyAgainstReference) {
  const auto s = solved_instance(9);
  const auto& inst = s.instance;
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    const auto slot = s.strategy.allocation[j];
    if (!slot.allocated()) continue;
    for (const std::size_t k : inst.requests().items_of(j)) {
      const double size = inst.data(k).size_mb;
      const auto hosts = s.strategy.delivery.hosts(k);
      const auto fault_free =
          core::resolve_with_health(inst, hosts, slot.server, size, nullptr);
      if (fault_free.source == core::kCloudSource) continue;
      // Drop the primary from the degraded set (a corrupt replica) while
      // passing the full set as the tier reference: the fallback must not
      // be relabelled kPrimary.
      std::vector<std::size_t> filtered;
      for (const std::size_t host : hosts) {
        if (host != fault_free.source) filtered.push_back(host);
      }
      const auto degraded = core::resolve_with_health(
          inst, filtered, slot.server, size, nullptr, {}, nullptr, hosts);
      EXPECT_NE(degraded.tier, core::FallbackTier::kPrimary);
      return;
    }
  }
  GTEST_SKIP() << "no edge-served request in this draw";
}

TEST(RepairPlanner, AllUpReplanIsANoOpOnGreedySigma) {
  const auto inst = model::make_instance(small_params(), 10);
  util::Rng rng(10);
  const auto strategy = core::IddeG().solve(inst, rng);
  const std::vector<std::uint8_t> up(inst.server_count(), 1);
  const auto result = core::RepairPlanner(inst).replan(
      strategy.allocation, strategy.delivery, up);
  // Submodularity: a saturated greedy sigma admits no further profitable
  // placement, and nothing was lost — the replan reproduces sigma.
  EXPECT_EQ(result.lost_placements, 0u);
  EXPECT_EQ(result.repair_placements, 0u);
  EXPECT_EQ(result.delivery.placement_count(),
            strategy.delivery.placement_count());
  for (std::size_t k = 0; k < inst.data_count(); ++k) {
    for (const std::size_t i : strategy.delivery.hosts(k)) {
      EXPECT_TRUE(result.delivery.placed(i, k));
    }
  }
}

// replan() rewinds member scratch (heap, evaluator, effective allocation)
// per call; a warm planner must reproduce a fresh planner's repair exactly,
// including across different outage masks on the same instance.
TEST(RepairPlanner, ReusedPlannerMatchesFreshPlanner) {
  const auto inst = model::make_instance(small_params(), 12);
  util::Rng rng(12);
  const auto strategy = core::IddeG().solve(inst, rng);
  core::RepairPlanner warm(inst);
  for (std::size_t dead = 0; dead < inst.server_count(); ++dead) {
    std::vector<std::uint8_t> up(inst.server_count(), 1);
    up[dead] = 0;
    const auto reused =
        warm.replan(strategy.allocation, strategy.delivery, up);
    const auto fresh = core::RepairPlanner(inst).replan(
        strategy.allocation, strategy.delivery, up);
    EXPECT_EQ(reused.lost_placements, fresh.lost_placements) << dead;
    EXPECT_EQ(reused.repair_placements, fresh.repair_placements) << dead;
    EXPECT_DOUBLE_EQ(reused.recovered_gain_seconds,
                     fresh.recovered_gain_seconds)
        << dead;
    EXPECT_EQ(reused.delivery.placement_count(),
              fresh.delivery.placement_count())
        << dead;
    for (std::size_t k = 0; k < inst.data_count(); ++k) {
      for (std::size_t i = 0; i < inst.server_count(); ++i) {
        EXPECT_EQ(reused.delivery.placed(i, k), fresh.delivery.placed(i, k))
            << "dead " << dead << " server " << i << " item " << k;
      }
    }
  }
}

TEST(RepairPlanner, CrashLosesAndRepairsUnderStorageBudget) {
  const auto inst = model::make_instance(small_params(), 11);
  util::Rng rng(11);
  const auto strategy = core::IddeG().solve(inst, rng);
  // Crash the server hosting the most replicas.
  std::vector<std::size_t> load(inst.server_count(), 0);
  for (std::size_t k = 0; k < inst.data_count(); ++k) {
    for (const std::size_t i : strategy.delivery.hosts(k)) ++load[i];
  }
  const std::size_t dead = static_cast<std::size_t>(
      std::max_element(load.begin(), load.end()) - load.begin());
  ASSERT_GT(load[dead], 0u);
  std::vector<std::uint8_t> up(inst.server_count(), 1);
  up[dead] = 0;
  const auto result = core::RepairPlanner(inst).replan(
      strategy.allocation, strategy.delivery, up);
  EXPECT_EQ(result.lost_placements, load[dead]);
  // Nothing lands on the dead server, and Eq. 6 holds on the survivors.
  std::vector<double> used(inst.server_count(), 0.0);
  for (std::size_t k = 0; k < inst.data_count(); ++k) {
    for (const std::size_t i : result.delivery.hosts(k)) {
      EXPECT_NE(i, dead);
      used[i] += inst.data(k).size_mb;
    }
  }
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    EXPECT_LE(used[i], inst.server(i).storage_mb + 1e-9);
  }
  // The healed sigma serves (weakly) better than the pruned survivor set.
  core::DeliveryProfile pruned(inst);
  for (std::size_t k = 0; k < inst.data_count(); ++k) {
    for (const std::size_t i : strategy.delivery.hosts(k)) {
      if (i != dead) pruned.place(i, k);
    }
  }
  EXPECT_LE(
      core::total_latency_seconds(inst, strategy.allocation, result.delivery),
      core::total_latency_seconds(inst, strategy.allocation, pruned) + 1e-9);
}

TEST(Resilience, InertPlanReproducesFaultFreeMetricsExactly) {
  const auto s = solved_instance(12);
  const fault::FaultPlan inert;
  const auto report = fault::evaluate_resilience(s.instance, s.strategy,
                                                 inert);
  const double fault_free = core::average_latency_ms(
      s.instance, s.strategy.allocation, s.strategy.delivery,
      s.strategy.collaborative_delivery);
  EXPECT_EQ(report.fault_free_latency_ms, fault_free);
  EXPECT_EQ(report.degraded_latency_ms, fault_free);
  EXPECT_EQ(report.availability, 1.0);
  EXPECT_EQ(report.tier_fraction[0], 1.0);
  EXPECT_EQ(report.lost_placements, 0u);
}

TEST(Resilience, DegradationOrderingAcrossPolicies) {
  const auto s = solved_instance(13);
  const auto plan =
      fault::FaultPlan::generate(s.instance, lively_profile(), 31);
  const auto none = fault::evaluate_resilience(s.instance, s.strategy, plan,
                                               fault::RepairPolicy::kNone);
  const auto greedy = fault::evaluate_resilience(
      s.instance, s.strategy, plan, fault::RepairPolicy::kGreedy);
  // Faults only hurt; repair only helps (it strictly extends the pruned
  // survivor set greedily).
  EXPECT_GE(none.degraded_latency_ms, none.fault_free_latency_ms - 1e-9);
  EXPECT_LE(greedy.degraded_latency_ms, none.degraded_latency_ms + 1e-9);
  EXPECT_GE(none.availability, 0.0);
  EXPECT_LE(none.availability, 1.0);
  const double mass = none.tier_fraction[0] + none.tier_fraction[1] +
                      none.tier_fraction[2];
  EXPECT_NEAR(mass, 1.0, 1e-9);
  EXPECT_GT(none.epochs, 1u);
  EXPECT_GT(greedy.repair_placements + greedy.lost_placements, 0u);
}

TEST(Resilience, SingleServerCrashNeverAbortsARun) {
  const auto s = solved_instance(14);
  const auto& inst = s.instance;
  for (std::size_t dead = 0; dead < inst.server_count(); ++dead) {
    std::vector<std::uint8_t> up(inst.server_count(), 1);
    up[dead] = 0;
    for (std::size_t j = 0; j < inst.user_count(); ++j) {
      const auto slot = s.strategy.allocation[j];
      const std::size_t serving =
          slot.allocated() ? slot.server : core::ChannelSlot::kNone;
      for (const std::size_t k : inst.requests().items_of(j)) {
        const auto decision = core::resolve_with_health(
            inst, s.strategy.delivery.hosts(k), serving,
            inst.data(k).size_mb, nullptr, up);
        EXPECT_GE(decision.seconds, 0.0);
        EXPECT_LT(decision.seconds, fault::kNeverChanges);
      }
    }
  }
}

TEST(FaultDes, FaultyReplayServesEveryRequestFinitely) {
  const auto s = solved_instance(15);
  const auto plan =
      fault::FaultPlan::generate(s.instance, lively_profile(), 41);
  ASSERT_FALSE(plan.inert());
  des::FlowSimOptions options;
  options.arrival_window_s = 30.0;  // overlap the fault horizon
  options.fault_plan = &plan;
  des::FlowLevelSimulator sim(s.instance, options);
  util::Rng rng(15);
  const auto result = sim.run(s.strategy, rng);
  EXPECT_EQ(result.flows.size(), s.instance.requests().total_requests());
  std::size_t tier_total = 0;
  for (const auto& flow : result.flows) {
    EXPECT_GE(flow.completion_s, flow.arrival_s);
    EXPECT_LT(flow.duration_s(), 1e6);
  }
  for (const std::size_t count : result.tier_counts) tier_total += count;
  EXPECT_EQ(tier_total, result.flows.size());
  EXPECT_LE(result.availability, 1.0);
  // The degraded tail can only be at or beyond the fault-free tail.
  des::FlowSimOptions clean = options;
  clean.fault_plan = nullptr;
  util::Rng rng_clean(15);
  const auto baseline =
      des::FlowLevelSimulator(s.instance, clean).run(s.strategy, rng_clean);
  EXPECT_GE(result.p99_duration_ms, baseline.p99_duration_ms - 1e-9);
}

TEST(FaultDes, CloudBrownoutStallsTheCloudLeg) {
  const auto s = solved_instance(16);
  // Empty sigma: every request takes the cloud leg (delivery.hpp pins the
  // cloud-start default), so the brown-out must delay all of them.
  const core::Strategy strategy(s.strategy.allocation,
                                core::DeliveryProfile(s.instance));
  // Manual plan: one long brown-out covering every arrival.
  fault::FaultPlan plan;
  plan.add_cloud_downtime({0.0, 5.0});
  ASSERT_FALSE(plan.inert());
  des::FlowSimOptions options;
  options.fault_plan = &plan;
  des::FlowLevelSimulator sim(s.instance, options);
  util::Rng rng(16);
  const auto result = sim.run(strategy, rng);
  bool saw_cloud = false;
  for (const auto& flow : result.flows) {
    if (!flow.from_cloud) continue;
    saw_cloud = true;
    // Arrivals are at t=0, inside the brown-out: the cloud leg waits out
    // the stall before transferring.
    EXPECT_GE(flow.completion_s, 5.0);
  }
  ASSERT_TRUE(saw_cloud);
}

}  // namespace
