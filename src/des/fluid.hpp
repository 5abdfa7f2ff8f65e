// Internal fluid-flow machinery of the DES event core (flow_sim.cpp). Not
// part of the public des:: surface.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "core/delivery.hpp"
#include "util/assert.hpp"

namespace idde::des::detail {

/// One routed transfer in flight: a whole replica, a coded fragment, or a
/// speculative hedge copy.
struct Leg {
  std::size_t record = 0;  ///< FlowRecord index
  double remaining_mb = 0.0;
  std::vector<std::size_t> links = {};
  double rate_mbps = 0.0;  ///< max-min fair share of the links
  /// Drain-rate factor: 1 / the source's gray latency multiplier at launch.
  double rate_scale = 1.0;
  std::size_t id = 0;  ///< launch order; keys hedge deadlines
  std::size_t source = 0;
  double start_s = 0.0;
  double expected_s = 0.0;  ///< uncontended resolver seconds at launch
  double size_mb = 0.0;
  bool lost = false;  ///< gray loss lottery, drawn at launch
  bool is_hedge = false;
  core::FallbackTier tier = core::FallbackTier::kPrimary;
};

/// Max-min fair rates over shared links: water-filling repeatedly freezes
/// the legs of the tightest link.
inline void assign_max_min_rates(std::vector<Leg>& legs,
                                 const std::vector<double>& capacities) {
  std::vector<double> remaining_cap = capacities;
  std::vector<std::size_t> unfrozen_count(capacities.size(), 0);
  std::vector<bool> frozen(legs.size(), false);
  // The freeze scan reads only each leg's links: keep them in a compact
  // array so large leg sets stay in cache.
  std::vector<std::span<const std::size_t>> paths;
  paths.reserve(legs.size());
  for (const Leg& leg : legs) {
    paths.emplace_back(leg.links);
    for (const std::size_t l : leg.links) ++unfrozen_count[l];
  }
  std::size_t legs_left = legs.size();
  while (legs_left > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best_link = static_cast<std::size_t>(-1);
    for (std::size_t l = 0; l < capacities.size(); ++l) {
      if (unfrozen_count[l] == 0) continue;
      const double share =
          remaining_cap[l] / static_cast<double>(unfrozen_count[l]);
      if (share < best_share) {
        best_share = share;
        best_link = l;
      }
    }
    IDDE_ASSERT(best_link != static_cast<std::size_t>(-1),
                "active leg without links");
    for (std::size_t f = 0; f < legs.size(); ++f) {
      if (frozen[f]) continue;
      const std::span<const std::size_t> ls = paths[f];
      if (std::find(ls.begin(), ls.end(), best_link) == ls.end()) continue;
      legs[f].rate_mbps = best_share;
      frozen[f] = true;
      --legs_left;
      for (const std::size_t l : ls) {
        remaining_cap[l] -= best_share;
        --unfrozen_count[l];
      }
      for (const std::size_t l : ls) {  // guard fp residue
        remaining_cap[l] = std::max(remaining_cap[l], 0.0);
      }
    }
  }
}

}  // namespace idde::des::detail
