#include "sim/sweep.hpp"

#include "coding/coded_planner.hpp"
#include "coding/coded_resilience.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace idde::sim {

std::vector<PointResult> run_sweep(
    const std::vector<SweepPoint>& points,
    const std::vector<core::ApproachPtr>& approaches,
    const SweepOptions& options) {
  IDDE_EXPECTS(options.repetitions > 0);
  IDDE_EXPECTS(!approaches.empty());

  util::ThreadPool pool(options.threads);
  std::vector<PointResult> results;
  results.reserve(points.size());

  for (std::size_t p = 0; p < points.size(); ++p) {
    const SweepPoint& point = points[p];
    IDDE_OBS_SPAN_ARGS("sweep.point", point.label);
    const model::InstanceBuilder builder(point.params);

    // Per-(approach, repetition) samples.
    const std::size_t a_count = approaches.size();
    const auto reps = static_cast<std::size_t>(options.repetitions);
    const bool faults_active =
        options.fault_profile != nullptr && !options.fault_profile->inert();
    // Each repetition stages its samples into a disjoint slot; the fold
    // into RunningStats happens serially after the join, in rep order, so
    // the accumulated floats are bit-identical for any thread count.
    const bool coding_active = options.coding != nullptr;
    IDDE_EXPECTS(!coding_active || options.coding->valid());
    std::vector<std::vector<RunRecord>> rep_records(reps);
    std::vector<std::vector<fault::ResilienceReport>> rep_reports(reps);
    std::vector<std::vector<double>> rep_coded_latency(reps);
    std::vector<std::vector<fault::ResilienceReport>> rep_coded_reports(reps);

    util::parallel_for(pool, reps, [&](std::size_t rep) {
      // Instance seed depends only on (point, repetition): all approaches
      // are compared on the same instance.
      const std::uint64_t seed =
          options.base_seed + 1000003ULL * p + 17ULL * rep;
      const model::ProblemInstance instance = builder.build(seed);
      std::vector<RunRecord> records;
      records.reserve(a_count);
      std::vector<fault::ResilienceReport> reports(a_count);
      std::vector<double> coded_latency(a_count, 0.0);
      std::vector<fault::ResilienceReport> coded_reports(a_count);
      fault::FaultPlan plan;
      if (faults_active) {
        // Plan seed depends only on (point, repetition) too: every
        // approach degrades through the same fault schedule.
        plan = fault::FaultPlan::generate(instance, *options.fault_profile,
                                          seed ^ options.fault_seed_offset);
      }
      std::optional<coding::CodedGreedyPlanner> coded_planner;
      if (coding_active) coded_planner.emplace(instance);
      for (std::size_t a = 0; a < a_count; ++a) {
        // One cell = (point, approach, repetition); the args string makes
        // the trace timeline navigable in Perfetto.
        IDDE_OBS_SPAN_ARGS("sweep.cell",
                           point.label + " / " + approaches[a]->name());
        util::Rng rng(seed ^ (0xabcd0000ULL + a));
        if (!faults_active && !coding_active) {
          records.push_back(run_approach(instance, *approaches[a], rng));
          continue;
        }
        std::optional<core::Strategy> strategy;
        records.push_back(
            run_approach(instance, *approaches[a], rng, false, &strategy));
        if (faults_active) {
          reports[a] = fault::evaluate_resilience(instance, *strategy, plan,
                                                  options.repair_policy);
        }
        if (coding_active) {
          // Same allocation, coded delivery plane: the coded column isolates
          // the effect of fragmenting sigma while the game-side alpha stays
          // the approach's own.
          coding::CodedPlanResult coded = coded_planner->plan(
              strategy->allocation, *options.coding,
              strategy->collaborative_delivery);
          coded_latency[a] = coding::coded_average_latency_ms(
              instance, strategy->allocation, coded.delivery,
              strategy->collaborative_delivery);
          if (faults_active) {
            coding::CodedStrategy coded_strategy(strategy->allocation,
                                                 std::move(coded.delivery));
            coded_strategy.collaborative_delivery =
                strategy->collaborative_delivery;
            coded_strategy.approach_name = strategy->approach_name;
            coded_reports[a] = coding::evaluate_coded_resilience(
                instance, coded_strategy, plan, options.repair_policy);
          }
        }
      }
      rep_records[rep] = std::move(records);
      rep_reports[rep] = std::move(reports);
      rep_coded_latency[rep] = std::move(coded_latency);
      rep_coded_reports[rep] = std::move(coded_reports);
    });

    std::vector<util::RunningStats> rate(a_count), latency(a_count),
        time(a_count), degraded(a_count), availability(a_count),
        coded_lat(a_count), coded_degraded(a_count), coded_avail(a_count);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::size_t a = 0; a < a_count; ++a) {
        rate[a].add(rep_records[rep][a].metrics.avg_rate_mbps);
        latency[a].add(rep_records[rep][a].metrics.avg_latency_ms);
        time[a].add(rep_records[rep][a].solve_ms);
        if (faults_active) {
          degraded[a].add(rep_reports[rep][a].degraded_latency_ms);
          availability[a].add(rep_reports[rep][a].availability);
        }
        if (coding_active) {
          coded_lat[a].add(rep_coded_latency[rep][a]);
          if (faults_active) {
            coded_degraded[a].add(rep_coded_reports[rep][a].degraded_latency_ms);
            coded_avail[a].add(rep_coded_reports[rep][a].availability);
          }
        }
      }
    }

    PointResult point_result;
    point_result.label = point.label;
    for (std::size_t a = 0; a < a_count; ++a) {
      point_result.cells.push_back(CellResult{
          .approach = approaches[a]->name(),
          .rate_mbps = util::summarize(rate[a]),
          .latency_ms = util::summarize(latency[a]),
          .solve_ms = util::summarize(time[a]),
          .degraded_latency_ms = util::summarize(degraded[a]),
          .availability = util::summarize(availability[a]),
          .coded_latency_ms = util::summarize(coded_lat[a]),
          .coded_degraded_latency_ms = util::summarize(coded_degraded[a]),
          .coded_availability = util::summarize(coded_avail[a]),
      });
    }
    if (options.on_point) options.on_point(point_result);
    results.push_back(std::move(point_result));
  }
  return results;
}

std::vector<PointResult> run_paper_sweep(const std::vector<SweepPoint>& points,
                                         const SweepOptions& options) {
  const auto approaches = make_paper_approaches(options.ip_budget_ms);
  return run_sweep(points, approaches, options);
}

}  // namespace idde::sim
