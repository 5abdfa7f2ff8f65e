// Phase 1 of IDDE-G: the IDDE-U user-allocation game (Algorithm 1, lines
// 5-21). Best-response dynamics over the benefit function of Eq. 12.
//
// The paper's update rule lets every user submit an improving move each
// round and applies one winner's move. We implement that rule
// (kBestImprovement: the largest benefit gain wins) plus two standard
// variants used by the ablation bench:
//   kFirstImprovement — the lowest-indexed improving user wins the round,
//   kAsyncSweep       — users best-respond sequentially within one sweep
//                       (many moves per round; rounds == sweeps).
// All three converge on potential-game instances; kAsyncSweep is the
// fastest wall-clock and kBestImprovement matches Algorithm 1 literally.
//
// Engine: one serial, incremental loop serves every rule. One applied move
// perturbs exactly two channel slots (the mover's old and new one — see
// radio::MoveDelta), so a user's cached best response stays exact unless
// the user covers the vacated or entered server, or is the mover itself.
// The engine keeps a dirty set seeded from InterferenceField::last_move()
// and ProblemInstance::covered_users(); clean users reuse their cached
// BestResponse with zero SINR work, dirty users are re-priced through the
// batched SoA kernel (radio::BatchEvaluator). The move sequence is
// bit-identical to the seed full-scan, per-slot-priced engine, which lives
// on as the test oracle in tests/oracles/game_full_scan.hpp.
#pragma once

#include <cstddef>
#include <vector>

#include "core/strategy.hpp"
#include "model/instance.hpp"
#include "radio/batch_eval.hpp"

namespace idde::core {

enum class UpdateRule {
  kBestImprovement,
  kFirstImprovement,
  kAsyncSweep,
  /// Adversarial validation rule: the lowest-indexed user with at least
  /// two candidate slots cycles through them round-robin regardless of
  /// benefit, so the dynamics never converge and the potential does not
  /// descend. Exists to exercise convergence watchdogs
  /// (serve::ServeController) end-to-end — never use it to solve.
  kCycleProbe,
};

struct GameOptions {
  UpdateRule rule = UpdateRule::kBestImprovement;
  /// A move must improve the benefit by more than this to be applied;
  /// guards floating-point livelock.
  double improvement_epsilon = 1e-12;
  /// Hard cap on rounds (Theorem 4 guarantees finite convergence; the cap
  /// is a safety net, sized by the driver as ~O(M * candidates)).
  std::size_t max_rounds = 1'000'000;
  /// Optional restriction of each user's candidate servers to a subset of
  /// its coverage (used by DUP-G, which only considers servers caching the
  /// user's requested data). Must outlive the game; nullptr = full V_j.
  const std::vector<std::vector<std::size_t>>* candidate_servers = nullptr;
  /// Per-user move budget. Theorem 3's potential argument assumes
  /// homogeneous channel gains; with fully heterogeneous gains
  /// best-response dynamics can cycle, so each user is frozen after this
  /// many moves. Empirically users move 1-4 times before equilibrium, so
  /// the budget only engages on cycling instances.
  std::size_t max_moves_per_user = 32;
  /// The caller runs the game under a deliberate work budget (max_rounds
  /// sized per event, as the serve controller does): hitting the round cap
  /// is then the expected partial-repair outcome, not a solver anomaly, so
  /// the round-cap warning is suppressed.
  bool budgeted = false;
};

struct GameResult {
  AllocationProfile allocation;
  std::size_t rounds = 0;
  std::size_t moves = 0;
  /// Candidate slots priced, the final Nash-gap refresh included.
  std::size_t benefit_evaluations = 0;
  bool converged = false;
  /// Users frozen by the per-user move budget (0 on potential-game
  /// instances; > 0 means the returned profile is only an approximate
  /// equilibrium).
  std::size_t frozen_users = 0;
  /// Residual Nash gap: the largest unilateral benefit gain any user
  /// (frozen ones included) could still take at the returned profile,
  /// over its candidate slots; 0 when no move improves. At most
  /// improvement_epsilon on a converged run without frozen users.
  double nash_gap = 0.0;
  /// Benefit (Eq. 12) of each user at its final slot, 0 when unallocated.
  /// These come from the engine's cache, so tests can cross-check them
  /// against a from-scratch recomputation.
  std::vector<double> final_benefits;
};

class IddeUGame {
 public:
  explicit IddeUGame(const model::ProblemInstance& instance,
                     GameOptions options = {});

  /// Runs best-response dynamics from the all-unallocated profile to a
  /// Nash equilibrium (Definition 3).
  [[nodiscard]] GameResult run();

  /// Runs from a caller-supplied starting profile.
  [[nodiscard]] GameResult run_from(const AllocationProfile& start);

 private:
  struct BestResponse {
    ChannelSlot slot = kUnallocated;
    double benefit = 0.0;
  };

  /// The user's strategy space: its candidate servers (all of V_j unless
  /// GameOptions::candidate_servers restricts them).
  [[nodiscard]] const std::vector<std::size_t>& candidates(
      std::size_t user) const;

  /// Best candidate over candidates(user) x channels, priced in one batched
  /// sweep; ties keep the first slot in (server, channel) scan order.
  /// Adds the number of slots priced to `evaluations`.
  [[nodiscard]] BestResponse best_response(radio::BatchEvaluator& batch,
                                           std::size_t user,
                                           std::size_t& evaluations) const;

  const model::ProblemInstance* instance_;
  GameOptions options_;
};

/// Definition 3 check: no user can unilaterally improve its benefit by more
/// than `epsilon`. Used by tests and the harness's self-checks.
[[nodiscard]] bool is_nash_equilibrium(const model::ProblemInstance& instance,
                                       const AllocationProfile& allocation,
                                       double epsilon = 1e-9);

}  // namespace idde::core
