// Equivalence and property tests for the IDDE-U engine. The dirty-set
// cache and the batched SoA kernel are pure optimisations: for every update
// rule the engine must replay the full-scan, per-slot-priced oracle
// (tests/oracles/game_full_scan.hpp) exactly, and the cached benefits and
// Nash gap it reports must match a from-scratch recomputation.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/game.hpp"
#include "model/instance_builder.hpp"
#include "oracles/game_full_scan.hpp"
#include "radio/interference.hpp"

namespace {

using namespace idde;
using core::AllocationProfile;
using core::GameOptions;
using core::GameResult;
using core::IddeUGame;
using core::UpdateRule;
using model::InstanceParams;
using model::ProblemInstance;

constexpr UpdateRule kAllRules[] = {UpdateRule::kBestImprovement,
                                    UpdateRule::kFirstImprovement,
                                    UpdateRule::kAsyncSweep};

InstanceParams shape(std::size_t n, std::size_t m, std::size_t k = 3) {
  InstanceParams p;
  p.server_count = n;
  p.user_count = m;
  p.data_count = k;
  return p;
}

GameOptions with_rule(UpdateRule rule) {
  GameOptions options;
  options.rule = rule;
  return options;
}

void expect_same_dynamics(const GameResult& expected, const GameResult& actual,
                          std::uint64_t seed, UpdateRule rule) {
  const auto tag = [&] {
    return ::testing::Message() << "seed " << seed << " rule "
                                << static_cast<int>(rule);
  };
  EXPECT_EQ(expected.moves, actual.moves) << tag();
  EXPECT_EQ(expected.rounds, actual.rounds) << tag();
  EXPECT_EQ(expected.converged, actual.converged) << tag();
  EXPECT_EQ(expected.frozen_users, actual.frozen_users) << tag();
  // Same move sequence, same field bits: the gap priced from the engine's
  // cache equals the oracle's scalar scan of its own field exactly.
  EXPECT_EQ(expected.nash_gap, actual.nash_gap) << tag();
  ASSERT_EQ(expected.allocation.size(), actual.allocation.size());
  for (std::size_t j = 0; j < expected.allocation.size(); ++j) {
    EXPECT_EQ(expected.allocation[j], actual.allocation[j])
        << tag() << " user " << j;
  }
}

// Seeded instances x 3 rules: the engine must replay the oracle's dynamics
// exactly (same move count, same rounds, same final allocation) while
// doing less SINR work. The oracle prices every slot with scalar
// field.benefit() calls, so this checks the dirty-set cache and the
// batched kernel at once.
TEST(IncrementalEngine, ReplaysFullScanDynamicsExactly) {
  struct Case {
    InstanceParams params;
    std::uint64_t seeds;
  };
  for (const Case& c : {Case{shape(8, 40), 20}, Case{shape(10, 60), 8}}) {
    for (std::uint64_t seed = 1; seed <= c.seeds; ++seed) {
      const ProblemInstance inst = model::make_instance(c.params, seed);
      for (const UpdateRule rule : kAllRules) {
        const GameResult full = oracles::run_full_scan(inst, with_rule(rule));
        const GameResult inc = IddeUGame(inst, with_rule(rule)).run();
        expect_same_dynamics(full, inc, seed, rule);
        EXPECT_LE(inc.benefit_evaluations, full.benefit_evaluations);
      }
    }
  }
}

// The point of the dirty set: a move perturbs only two channel slots, so
// on a paper-shaped instance most cached responses survive each round and
// the evaluation count collapses (the bench's acceptance bar is 3x; the
// margin here is far larger).
TEST(IncrementalEngine, SlashesBenefitEvaluations) {
  const ProblemInstance inst = model::make_instance(shape(20, 150, 5), 7);
  const GameResult full = oracles::run_full_scan(inst);
  const GameResult inc = IddeUGame(inst).run();
  EXPECT_GE(full.benefit_evaluations, 3 * inc.benefit_evaluations);
}

// Property: a converged run with no frozen users is a Nash equilibrium
// (Definition 3) — the cache never hides an improving move — and the
// engine reports a residual gap of at most improvement_epsilon.
TEST(IncrementalEngine, ConvergedProfileIsNashEquilibrium) {
  std::size_t checked = 0;
  for (std::uint64_t seed = 30; seed < 42; ++seed) {
    const ProblemInstance inst = model::make_instance(shape(7, 30), seed);
    for (const UpdateRule rule : kAllRules) {
      const GameOptions options = with_rule(rule);
      const GameResult result = IddeUGame(inst, options).run();
      if (result.converged && result.frozen_users == 0) {
        EXPECT_TRUE(core::is_nash_equilibrium(inst, result.allocation))
            << "seed " << seed << " rule " << static_cast<int>(rule);
        EXPECT_LE(result.nash_gap, options.improvement_epsilon)
            << "seed " << seed << " rule " << static_cast<int>(rule);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 20u);
}

// Frozen users and capped runs leave a real gap. The engine prices it from
// its cache plus one final refresh; it must equal the oracle's scan of the
// same field bit for bit, and a scan of a freshly built field to rounding.
TEST(IncrementalEngine, NashGapMatchesFromScratchScan) {
  std::size_t frozen_runs = 0;
  for (std::uint64_t seed = 200; seed < 206; ++seed) {
    const ProblemInstance inst = model::make_instance(shape(10, 60), seed);
    for (const UpdateRule rule : kAllRules) {
      for (const std::size_t max_rounds : {std::size_t{5}, std::size_t{0}}) {
        GameOptions options = with_rule(rule);
        options.max_moves_per_user = 2;
        options.budgeted = true;
        if (max_rounds > 0) options.max_rounds = max_rounds;
        const GameResult full = oracles::run_full_scan(inst, options);
        const GameResult inc = IddeUGame(inst, options).run();
        expect_same_dynamics(full, inc, seed, rule);
        EXPECT_NEAR(inc.nash_gap, oracles::nash_gap(inst, inc.allocation),
                    1e-9)
            << "seed " << seed << " rule " << static_cast<int>(rule);
        if (inc.frozen_users > 0 && inc.nash_gap > 0.0) ++frozen_runs;
      }
    }
  }
  // The move budget must actually have frozen users with gains left.
  EXPECT_GT(frozen_runs, 0u);
}

// Randomized equivalence: the benefits the engine carried in its cache at
// convergence must match a from-scratch recomputation (benefit_reference,
// derived like sinr_reference) to 1e-12 — the incremental field and the
// dirty-set bookkeeping introduce no drift.
TEST(IncrementalEngine, CachedBenefitsMatchReferenceRecomputation) {
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    const ProblemInstance inst = model::make_instance(shape(9, 45), seed);
    const GameResult result = IddeUGame(inst).run();
    ASSERT_EQ(result.final_benefits.size(), inst.user_count());
    for (std::size_t j = 0; j < inst.user_count(); ++j) {
      if (!result.allocation[j].allocated()) {
        EXPECT_EQ(result.final_benefits[j], 0.0);
        continue;
      }
      const double reference = radio::benefit_reference(
          inst.radio_env(), result.allocation, j, result.allocation[j]);
      EXPECT_NEAR(result.final_benefits[j], reference, 1e-12)
          << "seed " << seed << " user " << j;
    }
  }
}

// run_from with a warm profile: the engine accepts an arbitrary starting
// allocation and still matches the full-scan replay.
TEST(IncrementalEngine, WarmStartReplaysFullScan) {
  const ProblemInstance inst = model::make_instance(shape(8, 40), 55);
  const GameResult warm = IddeUGame(inst).run();
  // Perturb: drop every third user back to unallocated.
  AllocationProfile start = warm.allocation;
  for (std::size_t j = 0; j < start.size(); j += 3) start[j] = core::kUnallocated;
  for (const UpdateRule rule : kAllRules) {
    const GameResult full =
        oracles::run_full_scan(inst, with_rule(rule), start);
    const GameResult inc = IddeUGame(inst, with_rule(rule)).run_from(start);
    expect_same_dynamics(full, inc, 55, rule);
  }
}

// DUP-G-style candidate restriction composes with the cache.
TEST(IncrementalEngine, CandidateRestrictionReplaysFullScan) {
  const ProblemInstance inst = model::make_instance(shape(8, 40), 77);
  std::vector<std::vector<std::size_t>> candidates(inst.user_count());
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    const auto& covering = inst.covering_servers(j);
    // Keep every other covering server; some users end up with none.
    for (std::size_t c = 0; c < covering.size(); c += 2) {
      candidates[j].push_back(covering[c]);
    }
  }
  for (const UpdateRule rule : kAllRules) {
    GameOptions options = with_rule(rule);
    options.candidate_servers = &candidates;
    const GameResult full = oracles::run_full_scan(inst, options);
    const GameResult inc = IddeUGame(inst, options).run();
    expect_same_dynamics(full, inc, 77, rule);
  }
}

// The move budget freezes cycling users identically in both engines (the
// dirty set must not resurrect a frozen user's stale cache entry).
TEST(IncrementalEngine, MoveBudgetFreezesIdentically) {
  for (std::uint64_t seed = 200; seed < 206; ++seed) {
    const ProblemInstance inst = model::make_instance(shape(10, 60), seed);
    for (const UpdateRule rule : kAllRules) {
      GameOptions options = with_rule(rule);
      options.max_moves_per_user = 2;
      const GameResult full = oracles::run_full_scan(inst, options);
      const GameResult inc = IddeUGame(inst, options).run();
      expect_same_dynamics(full, inc, seed, rule);
    }
  }
}

// The watchdog-validation rule runs in the same loop: it rotates users
// through their candidates without reading the cache, so the engine must
// replay the oracle's rotation — cold, warm, restricted and frozen.
TEST(IncrementalEngine, CycleProbeReplaysFullScan) {
  const ProblemInstance inst = model::make_instance(shape(8, 40), 91);
  std::vector<std::vector<std::size_t>> candidates(inst.user_count());
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    const auto& covering = inst.covering_servers(j);
    for (std::size_t c = 1; c < covering.size(); c += 2) {
      candidates[j].push_back(covering[c]);
    }
  }
  const AllocationProfile warm = IddeUGame(inst).run().allocation;
  const AllocationProfile cold(inst.user_count(), core::kUnallocated);
  for (const bool restricted : {false, true}) {
    for (const std::size_t budget : {std::size_t{3}, std::size_t{32}}) {
      for (const AllocationProfile* start : {&cold, &warm}) {
        GameOptions options = with_rule(UpdateRule::kCycleProbe);
        options.max_rounds = 150;
        options.max_moves_per_user = budget;
        options.budgeted = true;
        if (restricted) options.candidate_servers = &candidates;
        const GameResult full = oracles::run_full_scan(inst, options, *start);
        const GameResult inc = IddeUGame(inst, options).run_from(*start);
        expect_same_dynamics(full, inc, 91, options.rule);
      }
    }
  }
}

}  // namespace
