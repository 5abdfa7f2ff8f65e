// Overload determinism contract (ISSUE PR 5, satellite c): the QoS engine
// — open-loop arrivals, admission queues, shedding, retry budget,
// breakers, composed with a fault plan — must yield bit-identical
// FlowSimReports regardless of solver thread count and across repeated
// runs. The engine is single-threaded and seed-pure; this test (run under
// TSan in CI) pins that contract for every shedding policy.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/idde_g.hpp"
#include "des/flow_sim.hpp"
#include "fault/fault_plan.hpp"
#include "model/instance_builder.hpp"
#include "qos/arrivals.hpp"
#include "sim/overload.hpp"
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

core::Strategy solve(const model::ProblemInstance& inst, std::uint64_t seed) {
  util::Rng rng(seed);
  return core::IddeG().solve(inst, rng);
}

constexpr qos::SheddingPolicy kPolicies[] = {
    qos::SheddingPolicy::kNone,
    qos::SheddingPolicy::kRejectNewest,
    qos::SheddingPolicy::kDeadlineAware,
};

void expect_bit_identical(const des::FlowSimResult& a,
                          const des::FlowSimResult& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_EQ(a.flows[f].user, b.flows[f].user);
    EXPECT_EQ(a.flows[f].item, b.flows[f].item);
    EXPECT_EQ(a.flows[f].arrival_s, b.flows[f].arrival_s);
    EXPECT_EQ(a.flows[f].completion_s, b.flows[f].completion_s);
    EXPECT_EQ(a.flows[f].outcome, b.flows[f].outcome);
    EXPECT_EQ(a.flows[f].queue_wait_s, b.flows[f].queue_wait_s);
    EXPECT_EQ(a.flows[f].deadline_missed, b.flows[f].deadline_missed);
    EXPECT_EQ(a.flows[f].retries, b.flows[f].retries);
    EXPECT_EQ(a.flows[f].forced_cloud, b.flows[f].forced_cloud);
    EXPECT_EQ(a.flows[f].tier, b.flows[f].tier);
  }
  EXPECT_EQ(a.mean_duration_ms, b.mean_duration_ms);
  EXPECT_EQ(a.p95_duration_ms, b.p95_duration_ms);
  EXPECT_EQ(a.p99_duration_ms, b.p99_duration_ms);
  EXPECT_EQ(a.max_duration_ms, b.max_duration_ms);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.retry_count, b.retry_count);
  EXPECT_EQ(a.forced_cloud_fetches, b.forced_cloud_fetches);
  EXPECT_EQ(a.tier_counts, b.tier_counts);
  EXPECT_EQ(a.qos.offered, b.qos.offered);
  EXPECT_EQ(a.qos.admitted, b.qos.admitted);
  EXPECT_EQ(a.qos.shed, b.qos.shed);
  EXPECT_EQ(a.qos.rejected, b.qos.rejected);
  EXPECT_EQ(a.qos.deadline_misses, b.qos.deadline_misses);
  EXPECT_EQ(a.qos.goodput_flows, b.qos.goodput_flows);
  EXPECT_EQ(a.qos.goodput_rps, b.qos.goodput_rps);
  EXPECT_EQ(a.qos.retries_denied, b.qos.retries_denied);
  EXPECT_EQ(a.qos.breaker_opens, b.qos.breaker_opens);
  EXPECT_EQ(a.qos.mean_queue_wait_ms, b.qos.mean_queue_wait_ms);
  EXPECT_EQ(a.qos.tier_p50_ms, b.qos.tier_p50_ms);
  EXPECT_EQ(a.qos.tier_p99_ms, b.qos.tier_p99_ms);
}

TEST(QosDeterminism, ArrivalScheduleIsBitIdenticalForSameSeed) {
  const auto inst = model::make_instance(small_params(), 5);
  qos::ArrivalConfig config;
  config.process = qos::ArrivalProcess::kFlashCrowd;
  config.load_multiplier = 4.0;
  config.window_s = 10.0;
  util::Rng rng_a(99);
  util::Rng rng_b(99);
  const auto a = qos::generate_arrivals(inst, config, rng_a);
  const auto b = qos::generate_arrivals(inst, config, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_EQ(a[i].item, b[i].item);
    EXPECT_EQ(a[i].time_s, b[i].time_s);
  }
  util::Rng rng_c(100);
  const auto c = qos::generate_arrivals(inst, config, rng_c);
  bool any_diff = c.size() != a.size();
  for (std::size_t i = 0; !any_diff && i < a.size(); ++i) {
    any_diff = a[i].time_s != c[i].time_s;
  }
  EXPECT_TRUE(any_diff);  // the schedule does depend on the seed
}

// The full pipeline — solve, draw a chaos plan, run the overload-aware
// replay — must be bit-identical between two independent solves, for
// every shedding policy.
TEST(QosDeterminism, PipelineIdenticalAcrossRepeatedSolves) {
  for (std::uint64_t seed = 40; seed <= 41; ++seed) {
    const auto inst = model::make_instance(small_params(), seed);
    const auto first = solve(inst, seed);
    const auto second = solve(inst, seed);

    for (const auto policy : kPolicies) {
      sim::OverloadCell cell;
      cell.qos = sim::chaos_qos_config(6.0, policy, 0.1);
      cell.fault = sim::chaos_fault_profile();
      cell.seed = seed;
      const auto a = sim::run_overload_cell(inst, first, cell);
      const auto b = sim::run_overload_cell(inst, second, cell);
      expect_bit_identical(a, b);
    }
  }
}

TEST(QosDeterminism, RepeatedRunsAreBitIdentical) {
  const auto inst = model::make_instance(small_params(), 50);
  const auto strategy = solve(inst, 50);
  for (const auto policy : kPolicies) {
    sim::OverloadCell cell;
    cell.qos = sim::chaos_qos_config(8.0, policy, 0.0);
    cell.qos.arrivals.process = qos::ArrivalProcess::kFlashCrowd;
    cell.fault = sim::chaos_fault_profile();
    cell.seed = 50;
    const auto a = sim::run_overload_cell(inst, strategy, cell);
    const auto b = sim::run_overload_cell(inst, strategy, cell);
    expect_bit_identical(a, b);
    EXPECT_EQ(a.qos.admitted + a.qos.shed + a.qos.rejected, a.qos.offered);
  }
}

TEST(QosDeterminism, DifferentSeedsDiverge) {
  const auto inst = model::make_instance(small_params(), 60);
  const auto strategy = solve(inst, 60);
  sim::OverloadCell cell;
  cell.qos = sim::overload_qos_config(6.0, qos::SheddingPolicy::kDeadlineAware,
                                      0.1);
  cell.seed = 60;
  const auto a = sim::run_overload_cell(inst, strategy, cell);
  cell.seed = 61;
  const auto b = sim::run_overload_cell(inst, strategy, cell);
  EXPECT_TRUE(a.qos.offered != b.qos.offered ||
              a.makespan_s != b.makespan_s ||
              a.mean_duration_ms != b.mean_duration_ms);
}

}  // namespace
