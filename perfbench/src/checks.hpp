// Output checks that do not trust the optimised code paths.
//
// Each check recomputes what it verifies from the instance and the raw
// output (allocation, placement list, flow records) with plain loops written
// here, or checks a property the method guarantees. A check returns an empty
// string when it passes and a one-line reason when it fails. The self-test
// (run_self_test) corrupts one output per check and confirms that the check
// then fails, so a check that can never fire is caught.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/strategy.hpp"
#include "des/flow_sim.hpp"
#include "fault/injector.hpp"
#include "model/instance.hpp"
#include "net/shortest_path.hpp"
#include "radio/interference.hpp"

namespace perfbench {

/// A solved strategy as plain data, plus what the library reported for it.
struct StrategyView {
  const idde::model::ProblemInstance* instance = nullptr;
  idde::core::AllocationProfile allocation;
  std::vector<std::pair<std::size_t, std::size_t>> placements;  ///< (i, k)
  double reported_rate_mbps = 0.0;   ///< core::evaluate's R_avg
  double reported_latency_ms = 0.0;  ///< core::evaluate's L_avg
  std::size_t frozen_users = 0;      ///< GameResult::frozen_users
};

/// Placement list of a delivery profile, read through placed() only.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> placements_of(
    const idde::core::DeliveryProfile& delivery);

/// A cost matrix as a row-major N x N vector.
[[nodiscard]] std::vector<double> flatten(const idde::net::CostMatrix& costs);

/// The all-pairs costs rebuilt from the instance graph (row-major N x N)
/// equal, bit for bit, the matrix the instance's latency model holds.
[[nodiscard]] std::string check_costs(
    const idde::model::ProblemInstance& instance,
    const std::vector<double>& rebuilt);

/// Two runs that must be bit-identical (a repeated round, or a controller
/// restored from a checkpoint) left the same digest.
[[nodiscard]] std::string check_identical(std::uint64_t first,
                                          std::uint64_t again);

/// Every allocated user sits on a server whose coverage disc contains it
/// (distance recomputed from positions) on a channel index < X.
[[nodiscard]] std::string check_allocation(const StrategyView& view);

/// Eq. 6: per server, the placed sizes (divided by `fragments_needed` for a
/// coded profile) sum to at most the reserved storage plus 1 KB.
[[nodiscard]] std::string check_capacity(const StrategyView& view,
                                         std::size_t fragments_needed = 1);

/// Eq. 4 rate of one user from radio::sinr_reference (Eqs. 2-3), capped at
/// R_{j,max}; 0 when unallocated.
[[nodiscard]] double reference_rate_mbps(const StrategyView& view,
                                         std::size_t user);

/// R_avg (Eq. 5). With `sample_stride` == 1 every user is recomputed from
/// sinr_reference and the mean is compared with the reported R_avg. With a
/// larger stride, every stride-th user's recomputed rate is compared with
/// core::user_rates, and the reported R_avg with the mean of user_rates.
[[nodiscard]] std::string check_rate(const StrategyView& view,
                                     std::size_t sample_stride = 1);

/// L_avg (Eqs. 8-9) by a plain loop over requests, hosts and the cloud.
[[nodiscard]] double recompute_latency_ms(const StrategyView& view);
[[nodiscard]] std::string check_latency(const StrategyView& view);

/// Unilateral-deviation probe of an allocation: how many users could gain
/// more than 1e-9 in Eq. 12 benefit by moving alone, and the largest gain.
struct NashProbe {
  std::size_t improvable_users = 0;
  double max_gain = 0.0;
};
/// `field` must hold exactly `alloc`.
[[nodiscard]] NashProbe probe_nash(const idde::model::ProblemInstance& instance,
                                   const idde::core::AllocationProfile& alloc,
                                   const idde::radio::InterferenceField& field);
/// An InterferenceField holding `alloc`.
[[nodiscard]] idde::radio::InterferenceField field_of(
    const idde::model::ProblemInstance& instance,
    const idde::core::AllocationProfile& alloc);
/// The equilibrium bound: improvable users <= frozen users.
[[nodiscard]] std::string check_nash_bound(const StrategyView& view,
                                           const NashProbe& probe);

/// Greedy termination: no placement that fits (with a 1 KB margin) lowers
/// the recomputed L_avg by more than 1e-9 ms.
[[nodiscard]] std::string check_greedy_termination(const StrategyView& view);

/// DES accounting. `expected_flows` (0 = not checked) is the request count
/// a replay without open-loop arrivals must produce. Checks flows ==
/// offered, admitted + shed + rejected == offered, completion >= arrival.
[[nodiscard]] std::string check_flows(const idde::des::FlowSimResult& result,
                                      std::size_t expected_flows);

/// In a fault-free replay a cloud flow lasts exactly size / cloud speed.
[[nodiscard]] std::string check_cloud_exact(
    const idde::model::ProblemInstance& instance,
    const idde::des::FlowSimResult& result);

/// Resilience report: tier fractions sum to 1, the fault-free L_avg equals
/// the recomputed one, and (for RepairPolicy::kNone) degraded >= fault-free.
[[nodiscard]] std::string check_resilience(
    const idde::fault::ResilienceReport& report, double fault_free_ms,
    bool no_repair);

/// Corrupts one output per check and confirms the check fails. Prints one
/// line per check; returns the number of checks that did not behave.
int run_self_test();

}  // namespace perfbench
