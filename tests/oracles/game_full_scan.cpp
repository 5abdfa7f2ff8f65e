#include "oracles/game_full_scan.hpp"

#include <algorithm>

#include "radio/interference.hpp"
#include "util/assert.hpp"

namespace idde::oracles {

namespace {

using core::ChannelSlot;

struct BestResponse {
  ChannelSlot slot = core::kUnallocated;
  double benefit = 0.0;
};

const std::vector<std::size_t>& candidates_of(
    const model::ProblemInstance& instance,
    const std::vector<std::vector<std::size_t>>* candidate_servers,
    std::size_t user) {
  return candidate_servers != nullptr ? (*candidate_servers)[user]
                                      : instance.covering_servers(user);
}

/// Best slot in (server, channel) scan order; strict > keeps the first.
BestResponse best_response(
    const model::ProblemInstance& instance,
    const std::vector<std::vector<std::size_t>>* candidate_servers,
    const radio::InterferenceField& field, std::size_t user,
    std::size_t& evaluations) {
  const std::size_t channels = instance.radio_env().channels_per_server;
  BestResponse best;
  for (const std::size_t server :
       candidates_of(instance, candidate_servers, user)) {
    for (std::size_t channel = 0; channel < channels; ++channel) {
      const ChannelSlot slot{server, channel};
      const double benefit = field.benefit(user, slot);
      ++evaluations;
      if (benefit > best.benefit) best = BestResponse{slot, benefit};
    }
  }
  return best;
}

/// Benefit of the user's current decision; 0 when unallocated.
double current_benefit(const radio::InterferenceField& field,
                       std::size_t user) {
  const ChannelSlot slot = field.slot_of(user);
  return slot.allocated() ? field.benefit(user, slot) : 0.0;
}

double gap_on(const model::ProblemInstance& instance,
              const std::vector<std::vector<std::size_t>>* candidate_servers,
              const radio::InterferenceField& field) {
  double gap = 0.0;
  std::size_t unused = 0;
  for (std::size_t j = 0; j < instance.user_count(); ++j) {
    const BestResponse best =
        best_response(instance, candidate_servers, field, j, unused);
    if (best.slot.allocated()) {
      gap = std::max(gap, best.benefit - current_benefit(field, j));
    }
  }
  return gap;
}

radio::InterferenceField field_of(const model::ProblemInstance& instance,
                                  const core::AllocationProfile& allocation) {
  radio::InterferenceField field(instance.radio_env());
  for (std::size_t j = 0; j < allocation.size(); ++j) {
    if (allocation[j].allocated()) field.add_user(j, allocation[j]);
  }
  return field;
}

}  // namespace

core::GameResult run_full_scan(const model::ProblemInstance& instance,
                               const core::GameOptions& options,
                               const core::AllocationProfile& start) {
  IDDE_EXPECTS(start.size() == instance.user_count());
  radio::InterferenceField field = field_of(instance, start);
  const auto* const candidates = options.candidate_servers;

  core::GameResult result;
  const std::size_t user_count = instance.user_count();
  const std::size_t channels = instance.radio_env().channels_per_server;
  const double eps = options.improvement_epsilon;
  std::vector<std::size_t> moves_of(user_count, 0);
  const auto movable = [&](std::size_t j) {
    return moves_of[j] < options.max_moves_per_user;
  };
  const auto move = [&](std::size_t j, ChannelSlot slot) {
    field.move_user(j, slot);
    if (++moves_of[j] == options.max_moves_per_user) ++result.frozen_users;
    ++result.moves;
  };
  // Prices user j and reports whether its best response beats eps.
  const auto improving = [&](std::size_t j, BestResponse& best,
                             double& gain) {
    best = best_response(instance, candidates, field, j,
                         result.benefit_evaluations);
    if (!best.slot.allocated()) return false;
    gain = best.benefit - current_benefit(field, j);
    return gain > eps;
  };

  while (result.rounds < options.max_rounds) {
    ++result.rounds;
    bool moved = false;
    BestResponse best;
    double gain = 0.0;

    switch (options.rule) {
      case core::UpdateRule::kBestImprovement: {
        std::size_t winner = ChannelSlot::kNone;
        ChannelSlot winner_slot = core::kUnallocated;
        double winner_gain = eps;
        for (std::size_t j = 0; j < user_count; ++j) {
          if (!movable(j) || !improving(j, best, gain)) continue;
          if (gain > winner_gain) {
            winner_gain = gain;
            winner = j;
            winner_slot = best.slot;
          }
        }
        if (winner != ChannelSlot::kNone) {
          move(winner, winner_slot);
          moved = true;
        }
        break;
      }
      case core::UpdateRule::kFirstImprovement:
        for (std::size_t j = 0; j < user_count && !moved; ++j) {
          if (movable(j) && improving(j, best, gain)) {
            move(j, best.slot);
            moved = true;
          }
        }
        break;
      case core::UpdateRule::kAsyncSweep:
        for (std::size_t j = 0; j < user_count; ++j) {
          if (movable(j) && improving(j, best, gain)) {
            move(j, best.slot);
            moved = true;
          }
        }
        break;
      case core::UpdateRule::kCycleProbe:
        for (std::size_t j = 0; j < user_count && !moved; ++j) {
          if (!movable(j)) continue;
          const std::vector<std::size_t>& servers =
              candidates_of(instance, candidates, j);
          const std::size_t slots = servers.size() * channels;
          if (slots < 2) continue;
          const ChannelSlot slot = field.slot_of(j);
          std::size_t flat = 0;
          if (slot.allocated()) {
            const auto it = std::find(servers.begin(), servers.end(),
                                      slot.server);
            if (it != servers.end()) {
              const auto s = static_cast<std::size_t>(it - servers.begin());
              flat = (s * channels + slot.channel + 1) % slots;
            }
          }
          move(j, ChannelSlot{servers[flat / channels], flat % channels});
          moved = true;
        }
        break;
    }

    if (!moved) {
      result.converged = true;
      break;
    }
  }

  result.allocation.resize(user_count);
  result.final_benefits.resize(user_count, 0.0);
  for (std::size_t j = 0; j < user_count; ++j) {
    result.allocation[j] = field.slot_of(j);
    result.final_benefits[j] = current_benefit(field, j);
  }
  result.nash_gap = gap_on(instance, candidates, field);
  return result;
}

core::GameResult run_full_scan(const model::ProblemInstance& instance,
                               const core::GameOptions& options) {
  return run_full_scan(
      instance, options,
      core::AllocationProfile(instance.user_count(), core::kUnallocated));
}

double nash_gap(const model::ProblemInstance& instance,
                const core::AllocationProfile& allocation,
                const std::vector<std::vector<std::size_t>>*
                    candidate_servers) {
  IDDE_EXPECTS(allocation.size() == instance.user_count());
  return gap_on(instance, candidate_servers, field_of(instance, allocation));
}

}  // namespace idde::oracles
