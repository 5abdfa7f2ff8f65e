#include "core/health.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace idde::core {

HealthTracker::HealthTracker(std::size_t server_count,
                             const HealthConfig& config)
    : config_(config), state_(server_count) {
  IDDE_EXPECTS(config.ewma_alpha > 0.0 && config.ewma_alpha <= 1.0);
  IDDE_EXPECTS(config.demote_score > 0.0 && config.demote_score <= 1.0);
  IDDE_EXPECTS(config.recover_score >= config.demote_score &&
               config.recover_score <= 1.0);
  IDDE_EXPECTS(config.loss_weight >= 0.0);
}

void HealthTracker::record_leg(std::size_t server, double expected_s,
                               double observed_s) {
  IDDE_EXPECTS(server < state_.size());
  IDDE_EXPECTS(expected_s > 0.0 && observed_s >= 0.0);
  ServerHealth& h = state_[server];
  const double ratio = observed_s / expected_s;
  // The first observation seeds the EWMA directly so a server's score
  // reflects evidence, not the optimistic prior, from leg one.
  h.ewma_inflation = h.legs == 0
                         ? ratio
                         : h.ewma_inflation +
                               config_.ewma_alpha * (ratio - h.ewma_inflation);
  ++h.legs;
  refresh_demotion(server);
}

void HealthTracker::record_loss(std::size_t server) {
  IDDE_EXPECTS(server < state_.size());
  ++state_[server].losses;
  refresh_demotion(server);
}

double HealthTracker::score(std::size_t server) const {
  IDDE_EXPECTS(server < state_.size());
  const ServerHealth& h = state_[server];
  const std::uint64_t samples = h.legs + h.losses;
  if (samples == 0) return 1.0;
  const double loss_frac =
      static_cast<double>(h.losses) / static_cast<double>(samples);
  // A faster-than-expected server is still just healthy (score capped at
  // 1), never super-healthy — the score demotes, it cannot promote.
  const double inflation = std::max(h.ewma_inflation, 1.0);
  return 1.0 / (inflation + config_.loss_weight * loss_frac);
}

void HealthTracker::refresh_demotion(std::size_t server) {
  ServerHealth& h = state_[server];
  if (h.legs + h.losses < config_.min_samples) return;
  const double s = score(server);
  if (!h.demoted && s < config_.demote_score) {
    h.demoted = true;
    IDDE_OBS_COUNT("health.demotions_total", 1);
  } else if (h.demoted && s > config_.recover_score) {
    h.demoted = false;
    IDDE_OBS_COUNT("health.recoveries_total", 1);
  }
}

void HealthTracker::restore_state(std::vector<ServerHealth> state) {
  IDDE_EXPECTS(state.size() == state_.size());
  state_ = std::move(state);
}

namespace {

/// Eq. 8 argmin over `hosts` with the cloud as the cap. Returns
/// kCloudSource when the cloud (or nothing) wins. Ties break to the lowest
/// host id, then to the edge over the cloud. With a health tracker the
/// comparison key is seconds / score(host); division by the fresh-tracker
/// score of 1.0 is bit-exact, so no-evidence runs reproduce the
/// unweighted argmin. `best_raw_seconds` gets the unweighted seconds.
std::size_t argmin_source(const model::ProblemInstance& instance,
                          std::span<const std::size_t> hosts,
                          std::size_t serving, double size_mb,
                          std::span<const std::uint8_t> server_up,
                          const net::CostMatrix* costs,
                          const HealthTracker* health,
                          double& best_raw_seconds) {
  const auto& latency = instance.latency();
  std::size_t source = kCloudSource;
  best_raw_seconds = latency.cloud_transfer_seconds(size_mb);
  double best_weighted = best_raw_seconds;  // cloud leg is never weighted
  for (const std::size_t host : hosts) {
    if (!server_up.empty() && !server_up[host]) continue;
    const double cost =
        costs != nullptr ? costs->cost(host, serving)
                         : latency.costs().cost(host, serving);
    const double seconds = cost * size_mb;
    const double weighted =
        health != nullptr ? seconds / health->score(host) : seconds;
    if (weighted < best_weighted) {
      best_weighted = weighted;
      best_raw_seconds = seconds;
      source = host;
    }
  }
  return source;
}

/// Per-request resolution telemetry (Eq. 8 tiers + latency distribution).
void note_resolution(const FailoverDecision& decision) {
  switch (decision.tier) {
    case FallbackTier::kPrimary:
      IDDE_OBS_COUNT("resolve.primary_total", 1);
      break;
    case FallbackTier::kReplica:
      IDDE_OBS_COUNT("resolve.replica_total", 1);
      break;
    case FallbackTier::kCloud:
      IDDE_OBS_COUNT("resolve.cloud_total", 1);
      break;
  }
  IDDE_OBS_HISTOGRAM("resolve.latency_ms", decision.seconds * 1e3);
}

}  // namespace

FailoverDecision resolve_with_health(
    const model::ProblemInstance& instance, std::span<const std::size_t> hosts,
    std::size_t serving, double size_mb, const HealthTracker* health,
    std::span<const std::uint8_t> server_up,
    const net::CostMatrix* degraded_costs,
    std::span<const std::size_t> fault_free_hosts) {
  const std::span<const std::size_t> reference =
      fault_free_hosts.empty() ? hosts : fault_free_hosts;
  FailoverDecision decision;
  const bool serving_dead = serving != ChannelSlot::kNone &&
                            !server_up.empty() && !server_up[serving];
  if (serving == ChannelSlot::kNone || serving_dead) {
    // Cloud-only user (no radio channel) or the user's own server died:
    // nothing can relay an edge replica, so the cloud serves directly.
    decision.source = kCloudSource;
    decision.seconds = instance.latency().cloud_transfer_seconds(size_mb);
    double fault_free = 0.0;
    const std::size_t fault_free_source =
        serving == ChannelSlot::kNone
            ? kCloudSource
            : argmin_source(instance, reference, serving, size_mb, {},
                            nullptr, nullptr, fault_free);
    decision.tier = fault_free_source == kCloudSource ? FallbackTier::kPrimary
                                                      : FallbackTier::kCloud;
    note_resolution(decision);
    return decision;
  }

  decision.source =
      argmin_source(instance, hosts, serving, size_mb, server_up,
                    degraded_costs, health, decision.seconds);
  // Tier reference: the fault-free, health-blind argmin over the
  // unfiltered hosts. A request steered off its primary by a bad health
  // score is reported as kReplica (a health fallback), not relabelled
  // kPrimary. With nothing degraded the reference is the decision itself.
  std::size_t fault_free_source = decision.source;
  if (!fault_free_hosts.empty() || !server_up.empty() ||
      degraded_costs != nullptr || health != nullptr) {
    double fault_free_seconds = 0.0;
    fault_free_source = argmin_source(instance, reference, serving, size_mb,
                                      {}, nullptr, nullptr, fault_free_seconds);
  }
  if (decision.source == fault_free_source) {
    decision.tier = FallbackTier::kPrimary;
  } else if (decision.source == kCloudSource) {
    decision.tier = FallbackTier::kCloud;
  } else {
    decision.tier = FallbackTier::kReplica;
  }
  note_resolution(decision);
  return decision;
}

}  // namespace idde::core
