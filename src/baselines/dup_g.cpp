#include "baselines/dup_g.hpp"

#include <vector>

#include "baselines/local_placement.hpp"

namespace idde::baselines {

core::Strategy DupG::solve(const model::ProblemInstance& instance,
                           util::Rng& rng) const {
  // Step 1: per-coverage demand placement (no collaboration).
  std::vector<std::vector<std::size_t>> covered(instance.server_count());
  for (std::size_t i = 0; i < instance.server_count(); ++i) {
    covered[i] = instance.covered_users(i);
  }
  const LocalPlacementOptions options{.per_mb = true, .sample_fraction = 1.0};
  core::DeliveryProfile delivery =
      local_demand_placement(instance, covered, options, rng);

  // Step 2: allocation game over cache-holding covering servers.
  std::vector<std::vector<std::size_t>> candidates(instance.user_count());
  for (std::size_t j = 0; j < instance.user_count(); ++j) {
    const auto& covering = instance.covering_servers(j);
    for (const std::size_t i : covering) {
      bool holds_requested = false;
      for (const std::size_t k : instance.requests().items_of(j)) {
        if (delivery.placed(i, k)) {
          holds_requested = true;
          break;
        }
      }
      if (holds_requested) candidates[j].push_back(i);
    }
    // No fallback: DUP-G couples a user to a cache that can serve it; a
    // user none of whose covering servers hold its data stays unallocated
    // (and is served from the cloud), which is what costs DUP-G data rate
    // in the paper's comparison.
  }

  core::GameOptions game_options;
  game_options.rule = rule_;
  game_options.candidate_servers = &candidates;
  game_options.max_rounds =
      std::max<std::size_t>(1000, instance.user_count() * 200);
  core::IddeUGame game(instance, game_options);
  core::GameResult result = game.run();

  core::Strategy strategy{std::move(result.allocation), std::move(delivery)};
  // The scheme the paper critiques "ignores edge servers' ability to
  // collaborate": its delivery plane is local-cache-or-cloud.
  strategy.collaborative_delivery = false;
  strategy.approach_name = name();
  strategy.game_rounds = result.rounds;
  strategy.game_moves = result.moves;
  strategy.game_converged = result.converged;
  strategy.placements = strategy.delivery.placement_count();
  return strategy;
}

}  // namespace idde::baselines
