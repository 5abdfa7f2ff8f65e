// Coded Eq. 8: delivery latency of a k-of-n request. The resolver picks
// how many fragments to fetch from surviving edge hosts (e) and how many
// to top up from the cloud (k - e); the edge legs run in parallel, so the
// delivery time is
//
//   max( e-th-fastest surviving fragment fetch,
//        cloud transfer of the (k - e)-fragment top-up )
//
// minimised over e in 0..min(k, survivors), with strict `<` so the
// smallest e wins ties (the cloud-leaning order replication uses). At
// k = 1 the only choices are "cheapest surviving replica" vs "whole item
// from the cloud" — exactly core::resolve_with_health's argmin,
// reproduced bit-identically (same leg costs, same tie-breaks, same
// FallbackTier labels).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "coding/coded_profile.hpp"
#include "core/delivery.hpp"
#include "model/instance.hpp"
#include "net/shortest_path.hpp"

namespace idde::coding {

/// Outcome of the coded resolver for one request.
struct CodedDecision {
  std::size_t edge_fragments = 0;   ///< e: fragments fetched from the edge
  std::size_t cloud_fragments = 0;  ///< k - e, topped up from the cloud
  double seconds = 0.0;             ///< coded Eq. 8 delivery latency
  core::FallbackTier tier = core::FallbackTier::kPrimary;

  /// True when the whole request is served from the cloud.
  [[nodiscard]] bool cloud_only() const noexcept { return edge_fragments == 0; }
};

/// Degraded-mode coded resolver. Non-const resolve(): the resolver owns
/// the leg scratch (sorted surviving fetches) and the selected-host list
/// of the last decision, so the DES/fault hot loops resolve with no
/// allocation per request. One resolver per thread — never shared.
class CodedResolver {
 public:
  explicit CodedResolver(const model::ProblemInstance& instance);

  /// Resolves the request of a user served by `serving` for an item of
  /// `item_size_mb` split into `config.k`-of-n fragments of
  /// `fragment_mb`, hosted on `hosts`. Mirrors
  /// core::resolve_with_health: `server_up` masks dead servers (empty =
  /// all up), `degraded_costs` replaces the fault-free cost matrix, and
  /// `fault_free_hosts`, when non-empty, is the unfiltered host set the
  /// fault-free reference choice classifies tiers against.
  ///
  /// Tier labelling generalises replication's: kPrimary iff the degraded
  /// choice fetches the same fragment count from the same hosts as the
  /// fault-free reference; kCloud iff faults pushed fragments to the
  /// cloud (e < e_fault_free); kReplica otherwise (same or more edge
  /// fragments, different hosts).
  [[nodiscard]] CodedDecision resolve(
      std::span<const std::size_t> hosts, std::size_t serving,
      double item_size_mb, double fragment_mb, std::size_t k,
      std::span<const std::uint8_t> server_up = {},
      const net::CostMatrix* degraded_costs = nullptr,
      std::span<const std::size_t> fault_free_hosts = {});

  /// Convenience: resolves item `item` of `delivery` for `serving`.
  [[nodiscard]] CodedDecision resolve_item(
      const CodedDeliveryProfile& delivery, std::size_t item,
      std::size_t serving, std::span<const std::uint8_t> server_up = {},
      const net::CostMatrix* degraded_costs = nullptr,
      std::span<const std::size_t> fault_free_hosts = {}) {
    return resolve(delivery.hosts(item), serving,
                   delivery.instance().data(item).size_mb,
                   delivery.item_fragment_mb(item), delivery.config().k,
                   server_up, degraded_costs, fault_free_hosts);
  }

  /// Hosts the last decision fetches from (edge_fragments entries,
  /// fastest leg first). Valid until the next resolve().
  [[nodiscard]] std::span<const std::size_t> selected_hosts() const noexcept {
    return {selected_hosts_.data(), selected_hosts_.size()};
  }

  /// Per-leg fetch seconds of the last decision, parallel to
  /// selected_hosts(). Valid until the next resolve().
  [[nodiscard]] std::span<const double> selected_seconds() const noexcept {
    return {selected_seconds_.data(), selected_seconds_.size()};
  }

  /// Cloud transfer time of topping up `fragments` of `k` fragments.
  /// Fetching all k is the whole item (uses item_size_mb exactly, so
  /// k = 1 reproduces replication's cloud cap bitwise). Exposed for the
  /// DES, which schedules the cloud leg separately from the edge legs.
  [[nodiscard]] double cloud_topup_seconds(std::size_t fragments,
                                           std::size_t k, double item_size_mb,
                                           double fragment_mb) const;

 private:
  struct Leg {
    double seconds;
    std::size_t host;

    bool operator<(const Leg& other) const {
      return seconds != other.seconds ? seconds < other.seconds
                                      : host < other.host;
    }
  };

  /// The kernel: fills `legs` with surviving fetches sorted by
  /// (seconds, host id) and returns the latency-minimal edge fragment
  /// count; `best_seconds` gets the coded Eq. 8 value.
  std::size_t best_edge_count(std::span<const std::size_t> hosts,
                              std::size_t serving, double item_size_mb,
                              double fragment_mb, std::size_t k,
                              std::span<const std::uint8_t> server_up,
                              const net::CostMatrix* costs,
                              std::vector<Leg>& legs, double& best_seconds);

  const model::ProblemInstance* instance_;
  std::vector<Leg> legs_;                    ///< degraded legs scratch
  std::vector<Leg> reference_legs_;          ///< fault-free legs scratch
  std::vector<std::size_t> selected_hosts_;  ///< last decision's sources
  std::vector<double> selected_seconds_;     ///< parallel leg times
  std::vector<std::size_t> set_a_;           ///< tier host-set comparison
  std::vector<std::size_t> set_b_;
};

}  // namespace idde::coding
