// Test oracle for core::IddeUGame: the seed IDDE-U engine. Every round it
// re-prices every movable user from scratch with per-slot
// InterferenceField::benefit() calls — no dirty-set cache, no batched
// kernel. The production engine must replay its dynamics exactly (moves,
// rounds, convergence, frozen users, final allocation) for every update
// rule, so one comparison against this oracle checks both the cache and
// the batched kernel.
#pragma once

#include <cstddef>
#include <vector>

#include "core/game.hpp"
#include "core/strategy.hpp"
#include "model/instance.hpp"

namespace idde::oracles {

/// Runs the full-scan game from `start` under `options`. The returned
/// GameResult is filled like the engine's: nash_gap is priced on the
/// game's own field after the last move, and benefit_evaluations counts
/// the per-round scans (no final refresh).
[[nodiscard]] core::GameResult run_full_scan(
    const model::ProblemInstance& instance, const core::GameOptions& options,
    const core::AllocationProfile& start);

/// As above, from the all-unallocated profile.
[[nodiscard]] core::GameResult run_full_scan(
    const model::ProblemInstance& instance,
    const core::GameOptions& options = {});

/// Largest unilateral benefit gain at `allocation`, priced on a freshly
/// built field (0 when no move improves). Candidate servers default to
/// each user's coverage set.
[[nodiscard]] double nash_gap(
    const model::ProblemInstance& instance,
    const core::AllocationProfile& allocation,
    const std::vector<std::vector<std::size_t>>* candidate_servers = nullptr);

}  // namespace idde::oracles
