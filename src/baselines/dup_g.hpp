// DUP-G — after Xia et al., "Data, user and power allocations for caching
// in multi-access edge computing" (TPDS'22), adapted as in Section 4.1:
// a game-theoretical approach that maximises users' data rates but ignores
// edge-server collaboration. Concretely:
//  1. each server caches the data most demanded within its own coverage
//     (no coordination, heavy duplication),
//  2. users play the allocation game, but — because DUP-G couples the user
//     to the cache serving it — each user's candidates are restricted to
//     covering servers that hold at least one of its requested items
//     (falling back to all covering servers when none do).
// Evaluation still applies the full collaborative latency model (Eq. 8).
#pragma once

#include "core/approach.hpp"
#include "core/game.hpp"

namespace idde::baselines {

class DupG final : public core::Approach {
 public:
  explicit DupG(core::UpdateRule rule = core::UpdateRule::kBestImprovement)
      : rule_(rule) {}

  [[nodiscard]] std::string name() const override { return "DUP-G"; }

  [[nodiscard]] core::Strategy solve(const model::ProblemInstance& instance,
                                     util::Rng& rng) const override;

 private:
  core::UpdateRule rule_;
};

}  // namespace idde::baselines
