#include "core/game.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace idde::core {

namespace {

/// Telemetry for one finished solve. Pure observation — the move sequence
/// is bit-identical with this on or off.
void record_game_telemetry(const GameResult& result) {
  IDDE_OBS_COUNT("game.solves_total", 1);
  IDDE_OBS_COUNT("game.moves_total", result.moves);
  IDDE_OBS_COUNT("game.rounds_total", result.rounds);
  IDDE_OBS_COUNT("game.benefit_evaluations_total",
                 result.benefit_evaluations);
  IDDE_OBS_COUNT("game.frozen_users_total", result.frozen_users);
  IDDE_OBS_HISTOGRAM("game.rounds", result.rounds);
  IDDE_OBS_HISTOGRAM("game.moves", result.moves);
  // Gauges hold integers; millionths of a benefit unit keep sub-unit gaps
  // visible (a converged potential game reads 0).
  IDDE_OBS_GAUGE_SET("game.nash_gap_micro", result.nash_gap * 1e6);
}

}  // namespace

IddeUGame::IddeUGame(const model::ProblemInstance& instance,
                     GameOptions options)
    : instance_(&instance), options_(options) {
  IDDE_EXPECTS(options.improvement_epsilon >= 0.0);
  IDDE_EXPECTS(options.max_rounds > 0);
}

const std::vector<std::size_t>& IddeUGame::candidates(std::size_t user) const {
  return options_.candidate_servers != nullptr
             ? (*options_.candidate_servers)[user]
             : instance_->covering_servers(user);
}

IddeUGame::BestResponse IddeUGame::best_response(
    radio::BatchEvaluator& batch, std::size_t user,
    std::size_t& evaluations) const {
  const std::size_t channels = instance_->radio_env().channels_per_server;
  const std::vector<std::size_t>& servers = candidates(user);
  // One SoA sweep prices every candidate; the argmax walks the results in
  // (server, channel) order with a strict >, so the first best slot wins.
  const std::span<const double> priced = batch.benefits(user, servers);
  evaluations += priced.size();
  BestResponse best;
  for (std::size_t a = 0; a < servers.size(); ++a) {
    for (std::size_t channel = 0; channel < channels; ++channel) {
      const double benefit = priced[a * channels + channel];
      if (benefit > best.benefit) {
        best = BestResponse{ChannelSlot{servers[a], channel}, benefit};
      }
    }
  }
  return best;
}

GameResult IddeUGame::run() {
  return run_from(AllocationProfile(instance_->user_count(), kUnallocated));
}

GameResult IddeUGame::run_from(const AllocationProfile& start) {
  IDDE_EXPECTS(start.size() == instance_->user_count());
  IDDE_OBS_SPAN("game.solve");
  radio::InterferenceField field(instance_->radio_env());
  for (std::size_t j = 0; j < start.size(); ++j) {
    if (start[j].allocated()) field.add_user(j, start[j]);
  }
  // Scratch accumulators only; every call reads the live field, so
  // kAsyncSweep's mid-sweep moves are priced against the current state.
  radio::BatchEvaluator batch(field);

  GameResult result;
  const std::size_t user_count = instance_->user_count();
  const std::size_t channels = instance_->radio_env().channels_per_server;
  const double eps = options_.improvement_epsilon;
  std::vector<std::size_t> moves_of(user_count, 0);
  const auto movable = [&](std::size_t j) {
    return moves_of[j] < options_.max_moves_per_user;
  };

  // The cache: each user's best response and current benefit against the
  // field state at its last refresh. A user is dirty iff a later move may
  // have invalidated either value — it covers the vacated or entered
  // server (so some candidate shares a channel index with a perturbed
  // slot) or it is the mover itself. Everyone starts dirty.
  std::vector<BestResponse> cached(user_count);
  std::vector<double> current(user_count, 0.0);
  std::vector<char> dirty(user_count, 1);
  std::vector<std::size_t> dirty_list;
  dirty_list.reserve(user_count);

  const auto evaluate_user = [&](std::size_t j) {
    cached[j] = best_response(batch, j, result.benefit_evaluations);
    const ChannelSlot slot = field.slot_of(j);
    current[j] = slot.allocated() ? field.benefit(j, slot) : 0.0;
    dirty[j] = 0;
  };

  // Re-evaluates every dirty movable user (frozen users never move again,
  // so their cache entries are dead until the final Nash-gap refresh).
  const auto refresh_dirty = [&] {
    dirty_list.clear();
    for (std::size_t j = 0; j < user_count; ++j) {
      if (dirty[j] != 0 && movable(j)) dirty_list.push_back(j);
    }
    IDDE_OBS_HISTOGRAM("game.dirty_set_size", dirty_list.size());
    for (const std::size_t j : dirty_list) evaluate_user(j);
  };

  // Dirty-set invariant: the applied move perturbed exactly the two slots
  // in the field's delta report, so a user's cache survives unless its
  // coverage reaches one of those servers (all of its candidates and both
  // interference terms read only slots at covering servers) or it moved.
  const auto apply_move = [&](std::size_t j, ChannelSlot slot) {
    field.move_user(j, slot);
    const radio::MoveDelta& delta = field.last_move();
    dirty[delta.user] = 1;
    if (delta.from.allocated()) {
      for (const std::size_t u : instance_->covered_users(delta.from.server)) {
        dirty[u] = 1;
      }
    }
    if (delta.to.allocated()) {
      for (const std::size_t u : instance_->covered_users(delta.to.server)) {
        dirty[u] = 1;
      }
    }
    if (++moves_of[j] == options_.max_moves_per_user) ++result.frozen_users;
    ++result.moves;
  };

  // A clean cache entry is an improving move iff its gain beats eps.
  const auto improves = [&](std::size_t j) {
    return cached[j].slot.allocated() && cached[j].benefit - current[j] > eps;
  };

  while (result.rounds < options_.max_rounds) {
    ++result.rounds;
    bool moved = false;

    switch (options_.rule) {
      case UpdateRule::kBestImprovement: {
        // Every user submits its candidate; the largest gain wins, and
        // strict > keeps the lowest index among equal gains.
        refresh_dirty();
        std::size_t winner = ChannelSlot::kNone;
        double winner_gain = eps;
        for (std::size_t j = 0; j < user_count; ++j) {
          if (!movable(j) || !cached[j].slot.allocated()) continue;
          const double gain = cached[j].benefit - current[j];
          if (gain > winner_gain) {
            winner_gain = gain;
            winner = j;
          }
        }
        if (winner != ChannelSlot::kNone) {
          apply_move(winner, cached[winner].slot);
          moved = true;
        }
        break;
      }
      case UpdateRule::kFirstImprovement: {
        refresh_dirty();
        for (std::size_t j = 0; j < user_count && !moved; ++j) {
          if (movable(j) && improves(j)) {
            apply_move(j, cached[j].slot);
            moved = true;
          }
        }
        break;
      }
      case UpdateRule::kAsyncSweep: {
        // Moves mutate the field mid-sweep, so each user is re-priced
        // lazily at its turn if an earlier move dirtied it.
        for (std::size_t j = 0; j < user_count; ++j) {
          if (!movable(j)) continue;
          if (dirty[j] != 0) evaluate_user(j);
          if (improves(j)) {
            apply_move(j, cached[j].slot);
            moved = true;
          }
        }
        break;
      }
      case UpdateRule::kCycleProbe: {
        // Watchdog-validation rule (see game.hpp): rotate the first
        // eligible user through its candidate slots, ignoring benefit. It
        // reads no cached value; apply_move keeps the dirty bits exact.
        for (std::size_t j = 0; j < user_count && !moved; ++j) {
          if (!movable(j)) continue;
          const std::vector<std::size_t>& servers = candidates(j);
          if (servers.size() * channels < 2) continue;
          const ChannelSlot slot = field.slot_of(j);
          // Flat candidate index: position in the server-major,
          // channel-minor scan order (or "before the first" when
          // unallocated), advanced by one modulo the candidate count.
          std::size_t flat = 0;
          if (slot.allocated()) {
            for (std::size_t s = 0; s < servers.size(); ++s) {
              if (servers[s] == slot.server) {
                flat = (s * channels + slot.channel + 1) %
                       (servers.size() * channels);
                break;
              }
            }
          }
          apply_move(j,
                     ChannelSlot{servers[flat / channels], flat % channels});
          moved = true;
        }
        break;
      }
    }

    if (!moved) {
      result.converged = true;
      break;
    }
  }

  if (!result.converged && !options_.budgeted) {
    util::log_warn("IDDE-U game hit the round cap ({} rounds, {} moves)",
                   result.rounds, result.moves);
  }
  if (result.frozen_users > 0) {
    util::log_debug(
        "IDDE-U game froze {} cycling users after {} moves each",
        result.frozen_users, options_.max_moves_per_user);
  }

  // Final refresh: re-price every user the last moves dirtied, frozen ones
  // included (their last move dirtied them and nothing refreshed them
  // since), so the cache is exact for everyone and yields the final
  // benefits and the residual Nash gap. On a converged run only frozen
  // users are dirty; a capped run pays at most one round's refresh.
  result.allocation.resize(user_count);
  result.final_benefits.resize(user_count, 0.0);
  for (std::size_t j = 0; j < user_count; ++j) {
    if (dirty[j] != 0) evaluate_user(j);
    result.allocation[j] = field.slot_of(j);
    result.final_benefits[j] = current[j];
    if (cached[j].slot.allocated()) {
      result.nash_gap =
          std::max(result.nash_gap, cached[j].benefit - current[j]);
    }
  }
  record_game_telemetry(result);
  return result;
}

bool is_nash_equilibrium(const model::ProblemInstance& instance,
                         const AllocationProfile& allocation, double epsilon) {
  IDDE_EXPECTS(allocation.size() == instance.user_count());
  radio::InterferenceField field(instance.radio_env());
  for (std::size_t j = 0; j < allocation.size(); ++j) {
    if (allocation[j].allocated()) field.add_user(j, allocation[j]);
  }
  const std::size_t channels = instance.radio_env().channels_per_server;
  for (std::size_t j = 0; j < allocation.size(); ++j) {
    const double current = allocation[j].allocated()
                               ? field.benefit(j, allocation[j])
                               : 0.0;
    for (const std::size_t server : instance.covering_servers(j)) {
      for (std::size_t channel = 0; channel < channels; ++channel) {
        if (field.benefit(j, ChannelSlot{server, channel}) >
            current + epsilon) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace idde::core
