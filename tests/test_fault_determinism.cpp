// Fault determinism contract (mirrors the PR 1 engine contract in
// test_game_incremental.cpp): identical seed + FaultPlan must yield
// bit-identical event sequences and metrics across independent solves and
// replays — the fault layer introduces no nondeterminism of its own.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/idde_g.hpp"
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

fault::FaultProfile busy_profile() {
  fault::FaultProfile profile;
  profile.horizon_s = 45.0;
  profile.server_mtbf_s = 15.0;
  profile.server_mttr_s = 5.0;
  profile.link_mtbf_s = 12.0;
  profile.link_mttr_s = 4.0;
  profile.cloud_mtbf_s = 30.0;
  profile.cloud_mttr_s = 3.0;
  profile.replica_corruption_prob = 0.05;
  return profile;
}

TEST(FaultDeterminism, PlanIsBitIdenticalForSameSeed) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = model::make_instance(small_params(), seed);
    const auto profile = busy_profile();
    const auto a = fault::FaultPlan::generate(inst, profile, seed * 977);
    const auto b = fault::FaultPlan::generate(inst, profile, seed * 977);
    EXPECT_EQ(a.server_downtime(), b.server_downtime());
    EXPECT_EQ(a.link_downtime(), b.link_downtime());
    EXPECT_EQ(a.cloud_downtime(), b.cloud_downtime());
    EXPECT_EQ(a.edge_change_times(), b.edge_change_times());
    const auto c = fault::FaultPlan::generate(inst, profile, seed * 977 + 1);
    EXPECT_NE(a.server_downtime(), c.server_downtime());
  }
}

core::Strategy solve(const model::ProblemInstance& inst, std::uint64_t seed) {
  util::Rng rng(seed);
  return core::IddeG().solve(inst, rng);
}

// The full pipeline — solve, draw a plan, replay through the faulty DES —
// must be bit-identical between two independent solves: the game engine
// already guarantees an identical equilibrium, and the fault layer (plan
// generation, epoch slicing, failover, retry loop) is single-threaded and
// seed-pure on top of it.
TEST(FaultDeterminism, PipelineIdenticalAcrossRepeatedSolves) {
  for (std::uint64_t seed = 20; seed <= 22; ++seed) {
    const auto inst = model::make_instance(small_params(), seed);
    const auto plan =
        fault::FaultPlan::generate(inst, busy_profile(), seed ^ 0x4a17);
    ASSERT_FALSE(plan.inert());

    const auto first = solve(inst, seed);
    const auto second = solve(inst, seed);

    des::FlowSimOptions options;
    options.arrival_window_s = 20.0;
    options.fault_plan = &plan;
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    const auto a = des::FlowLevelSimulator(inst, options).run(first, rng_a);
    const auto b =
        des::FlowLevelSimulator(inst, options).run(second, rng_b);

    ASSERT_EQ(a.flows.size(), b.flows.size());
    for (std::size_t f = 0; f < a.flows.size(); ++f) {
      EXPECT_EQ(a.flows[f].arrival_s, b.flows[f].arrival_s);
      EXPECT_EQ(a.flows[f].completion_s, b.flows[f].completion_s);
      EXPECT_EQ(a.flows[f].retries, b.flows[f].retries);
      EXPECT_EQ(a.flows[f].forced_cloud, b.flows[f].forced_cloud);
      EXPECT_EQ(a.flows[f].tier, b.flows[f].tier);
    }
    EXPECT_EQ(a.mean_duration_ms, b.mean_duration_ms);
    EXPECT_EQ(a.p99_duration_ms, b.p99_duration_ms);
    EXPECT_EQ(a.max_duration_ms, b.max_duration_ms);
    EXPECT_EQ(a.availability, b.availability);
    EXPECT_EQ(a.retry_count, b.retry_count);
    EXPECT_EQ(a.tier_counts, b.tier_counts);

    const auto ra = fault::evaluate_resilience(inst, first, plan,
                                               fault::RepairPolicy::kGreedy);
    const auto rb = fault::evaluate_resilience(inst, second, plan,
                                               fault::RepairPolicy::kGreedy);
    EXPECT_EQ(ra.degraded_latency_ms, rb.degraded_latency_ms);
    EXPECT_EQ(ra.availability, rb.availability);
    EXPECT_EQ(ra.tier_fraction, rb.tier_fraction);
    EXPECT_EQ(ra.lost_placements, rb.lost_placements);
    EXPECT_EQ(ra.repair_placements, rb.repair_placements);
  }
}

TEST(FaultDeterminism, ResilienceEvaluationIsRepeatable) {
  const auto inst = model::make_instance(small_params(), 30);
  const auto strategy = solve(inst, 30);
  const auto plan =
      fault::FaultPlan::generate(inst, busy_profile(), 0xfee1);
  const auto a = fault::evaluate_resilience(inst, strategy, plan,
                                            fault::RepairPolicy::kGreedy);
  const auto b = fault::evaluate_resilience(inst, strategy, plan,
                                            fault::RepairPolicy::kGreedy);
  EXPECT_EQ(a.fault_free_latency_ms, b.fault_free_latency_ms);
  EXPECT_EQ(a.degraded_latency_ms, b.degraded_latency_ms);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.tier_fraction, b.tier_fraction);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.lost_placements, b.lost_placements);
  EXPECT_EQ(a.repair_placements, b.repair_placements);
}

}  // namespace
