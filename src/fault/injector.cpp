#include "fault/injector.hpp"

#include <algorithm>
#include <utility>

#include "core/delivery.hpp"
#include "core/health.hpp"
#include "core/metrics.hpp"
#include "core/repair_planner.hpp"
#include "util/assert.hpp"

namespace idde::fault {

FaultInjector::FaultInjector(const model::ProblemInstance& instance,
                             const FaultPlan& plan)
    : plan_(&plan), starts_(plan.epoch_starts()) {

  const net::Graph& base = instance.graph();
  const std::size_t n = instance.server_count();
  std::size_t base_edges = 0;
  for (std::size_t a = 0; a < n; ++a) {
    for (const net::Neighbor& nb : base.neighbors(a)) {
      if (a < nb.node) ++base_edges;
    }
  }

  epochs_.reserve(starts_.size());
  for (std::size_t e = 0; e < starts_.size(); ++e) {
    const double start = starts_[e];
    const double end =
        e + 1 < starts_.size() ? starts_[e + 1] : kNeverChanges;
    // Sample availability just inside the epoch: intervals are half-open,
    // so the state at `start` itself is the epoch's state throughout.
    std::vector<std::uint8_t> up(n, 1);
    bool all_servers_up = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!plan.server_up(i, start)) {
        up[i] = 0;
        all_servers_up = false;
      }
    }
    std::vector<net::Edge> edges;
    for (std::size_t a = 0; a < n; ++a) {
      for (const net::Neighbor& nb : base.neighbors(a)) {
        if (a >= nb.node) continue;
        if (up[a] && up[nb.node] && plan.link_up(a, nb.node, start)) {
          edges.push_back(net::Edge{a, nb.node, nb.weight});
        }
      }
    }
    const bool all_up = all_servers_up && edges.size() == base_edges;
    net::Graph graph(n, edges);
    net::CostMatrix costs(graph);
    epochs_.push_back(AvailabilitySnapshot{start, end, std::move(up), all_up,
                                           std::move(graph),
                                           std::move(costs)});
  }
}

std::size_t FaultInjector::epoch_index(double t) const {
  // Delegates to the plan's shared epoch timeline (satellite: injector and
  // serve controller must agree on boundaries by construction).
  return plan_->epoch_index_at(t);
}

ResilienceReport evaluate_resilience(const model::ProblemInstance& instance,
                                     const core::Strategy& strategy,
                                     const FaultPlan& plan,
                                     RepairPolicy policy) {
  ResilienceReport report;
  report.fault_free_latency_ms = core::average_latency_ms(
      instance, strategy.allocation, strategy.delivery,
      strategy.collaborative_delivery);
  if (plan.inert()) {
    // Zero-cost-when-disabled contract: identical numbers, no injector.
    report.degraded_latency_ms = report.fault_free_latency_ms;
    report.availability = 1.0;
    report.tier_fraction = {1.0, 0.0, 0.0};
    report.epochs = 1;
    return report;
  }

  const double horizon = plan.horizon_s();
  IDDE_EXPECTS(horizon > 0.0);
  const bool corruption = plan.replica_corruption_prob() > 0.0;
  const core::RepairPlanner::ReplicaLost replica_lost =
      corruption ? core::RepairPlanner::ReplicaLost(
                       [&plan](std::size_t i, std::size_t k) {
                         return plan.replica_corrupted(i, k);
                       })
                 : core::RepairPlanner::ReplicaLost{};
  core::RepairPlanner repairer(instance);
  const auto& requests = instance.requests();
  const std::size_t request_count = requests.total_requests();
  IDDE_EXPECTS(request_count > 0);

  double weighted_seconds = 0.0;
  std::array<double, 3> tier_weight{};
  std::vector<std::size_t> degraded_hosts;
  std::vector<std::size_t> reference_hosts;

  const FaultInjector injector(instance, plan);
  for (std::size_t e = 0; e < injector.epoch_count(); ++e) {
    const AvailabilitySnapshot& snap = injector.epoch(e);
    const double weight = std::min(snap.end_s, horizon) - snap.start_s;
    if (weight <= 0.0) continue;
    ++report.epochs;

    const core::DeliveryProfile* sigma = &strategy.delivery;
    core::RepairResult healed{core::DeliveryProfile(instance), 0, 0, 0.0};
    const bool repair_active =
        policy == RepairPolicy::kGreedy && (!snap.all_up || corruption);
    if (repair_active) {
      healed = repairer.replan(strategy.allocation, strategy.delivery,
                               snap.server_up, replica_lost,
                               strategy.collaborative_delivery);
      report.lost_placements += healed.lost_placements;
      report.repair_placements += healed.repair_placements;
      sigma = &healed.delivery;
    }

    for (std::size_t j = 0; j < instance.user_count(); ++j) {
      const core::ChannelSlot slot = strategy.allocation[j];
      const std::size_t serving =
          slot.allocated() ? slot.server : core::ChannelSlot::kNone;
      for (const std::size_t k : requests.items_of(j)) {
        degraded_hosts.clear();
        for (const std::size_t host : sigma->hosts(k)) {
          if (!strategy.collaborative_delivery && host != serving) continue;
          // Corrupt replicas are unreadable even on a live server; a
          // repaired sigma already dropped them (replica_lost above).
          if (!repair_active && corruption && plan.replica_corrupted(host, k)) {
            continue;
          }
          degraded_hosts.push_back(host);
        }
        // The tier reference is always the *original* sigma in the
        // fault-free world, even when a repair swapped replicas in.
        reference_hosts.clear();
        for (const std::size_t host : strategy.delivery.hosts(k)) {
          if (!strategy.collaborative_delivery && host != serving) continue;
          reference_hosts.push_back(host);
        }
        const core::FailoverDecision decision = core::resolve_with_health(
            instance, degraded_hosts, serving, instance.data(k).size_mb,
            nullptr, snap.server_up, &snap.costs, reference_hosts);
        weighted_seconds += weight * decision.seconds;
        tier_weight[static_cast<std::size_t>(decision.tier)] += weight;
      }
    }
  }

  const double total_mass = horizon * static_cast<double>(request_count);
  report.degraded_latency_ms = weighted_seconds / total_mass * 1e3;
  for (std::size_t t = 0; t < tier_weight.size(); ++t) {
    report.tier_fraction[t] = tier_weight[t] / total_mass;
  }
  report.availability = report.tier_fraction[0];
  return report;
}

}  // namespace idde::fault
