// Empirical checks of the paper's theory (Section 3), printed as tables:
//
//  Theorem 3  (potential game)     — fraction of best-response moves that
//                                    increase the Eq. 13 potential. The
//                                    proof assumes homogeneous gains; on
//                                    generic instances a small fraction of
//                                    moves may decrease it (EXPERIMENTS.md
//                                    discusses this known deviation).
//  Theorem 4  (finite convergence) — observed moves per user vs the cap.
//  Definition 3 (Nash equilibrium)  — the residual Nash gap the engine
//                                    reports next to its frozen users; 0
//                                    (up to epsilon) unless the move
//                                    budget froze a cycling user.
//  Theorem 5  (POA)                — equilibrium R_avg over optimal R_avg
//                                    on brute-forceable micro instances;
//                                    must lie in [R_min/R_max, 1].
//  Theorems 6/7 (greedy quality)   — greedy latency reduction over optimal
//                                    reduction; must exceed (e-1)/2e and is
//                                    near 1 in practice.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/delivery.hpp"
#include "core/game.hpp"
#include "core/greedy_delivery.hpp"
#include "core/metrics.hpp"
#include "core/potential.hpp"
#include "model/instance_builder.hpp"
#include "sim/paper.hpp"
#include "solver/exhaustive.hpp"
#include "util/env.hpp"
#include "util/format.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace idde;

model::InstanceParams sized(std::size_t n, std::size_t m, std::size_t k) {
  model::InstanceParams p = sim::paper_default_params();
  p.server_count = n;
  p.user_count = m;
  p.data_count = k;
  return p;
}

void check_potential_and_convergence(int seeds) {
  std::printf("Theorems 3 & 4 — potential trajectory and move counts\n");
  util::TextTable table({"instance", "moves/user", "cap/user",
                         "potential-increasing moves", "converged"});
  for (const auto& [n, m] : {std::pair<std::size_t, std::size_t>{10, 40},
                             {20, 100}, {30, 200}}) {
    util::RunningStats moves_per_user;
    util::RunningStats increase_fraction;
    bool all_converged = true;
    for (int seed = 0; seed < seeds; ++seed) {
      const auto inst = model::make_instance(
          sized(n, m, 5), 31000 + static_cast<std::uint64_t>(seed));
      // Replay round by round to watch the potential.
      core::AllocationProfile profile(inst.user_count(), core::kUnallocated);
      double last = core::potential(inst, profile);
      std::size_t moves = 0;
      std::size_t increases = 0;
      core::GameOptions options;
      options.max_rounds = 1;
      for (std::size_t step = 0; step < 32 * m; ++step) {
        const auto result =
            core::IddeUGame(inst, options).run_from(profile);
        if (result.moves == 0) break;
        const double next = core::potential(inst, result.allocation);
        ++moves;
        if (next > last - 1e-12) ++increases;
        last = next;
        profile = result.allocation;
        if (step + 1 == 32 * m) all_converged = false;
      }
      moves_per_user.add(static_cast<double>(moves) /
                         static_cast<double>(m));
      increase_fraction.add(moves == 0 ? 1.0
                                       : static_cast<double>(increases) /
                                             static_cast<double>(moves));
    }
    table.start_row()
        .add(util::format("N={} M={}", n, m))
        .add(moves_per_user.mean())
        .add(32)
        .add(util::format("{}%", util::fixed(100.0 * increase_fraction.mean(), 1)))
        .add(all_converged ? "yes" : "NO");
  }
  table.print(std::cout);
}

void check_nash_gap(int seeds) {
  std::printf("\nDefinition 3 — residual Nash gap at the returned profile\n");
  util::TextTable table({"instance", "move budget", "frozen users",
                         "max Nash gap", "converged"});
  struct Row {
    std::size_t n, m, budget;
  };
  // The budget-2 row forces freezes, so the gap column shows what an
  // approximate equilibrium looks like.
  for (const Row& row : {Row{10, 40, 32}, Row{20, 100, 32}, Row{30, 200, 32},
                         Row{30, 200, 2}}) {
    util::RunningStats frozen;
    double max_gap = 0.0;
    bool all_converged = true;
    for (int seed = 0; seed < seeds; ++seed) {
      const auto inst = model::make_instance(
          sized(row.n, row.m, 5), 31000 + static_cast<std::uint64_t>(seed));
      core::GameOptions options;
      options.max_moves_per_user = row.budget;
      const auto result = core::IddeUGame(inst, options).run();
      frozen.add(static_cast<double>(result.frozen_users));
      max_gap = std::max(max_gap, result.nash_gap);
      all_converged = all_converged && result.converged;
    }
    table.start_row()
        .add(util::format("N={} M={}", row.n, row.m))
        .add(row.budget)
        .add(frozen.mean())
        .add(util::format("{}", max_gap))
        .add(all_converged ? "yes" : "NO");
  }
  table.print(std::cout);
}

void check_poa(int seeds) {
  std::printf("\nTheorem 5 — Price of Anarchy on micro instances\n");
  util::TextTable table(
      {"seed", "equilibrium R_avg", "optimal R_avg", "rho", "lower bound"});
  util::RunningStats rho_stats;
  for (int seed = 0; seed < seeds; ++seed) {
    const auto inst = model::make_instance(
        sized(3, 5, 2), 32000 + static_cast<std::uint64_t>(seed));
    const auto equilibrium = core::IddeUGame(inst).run();
    const double eq_rate =
        core::average_data_rate_mbps(inst, equilibrium.allocation);
    const double opt_rate =
        core::average_data_rate_mbps(inst, solver::optimal_allocation(inst));
    const double rho = opt_rate == 0.0 ? 1.0 : eq_rate / opt_rate;
    // Theorem 5's lower bound: R_min/R_max over the user population.
    double r_min = 1e300;
    double r_max = 0.0;
    for (const auto& user : inst.users()) {
      r_min = std::min(r_min, user.max_rate_mbps);
      r_max = std::max(r_max, user.max_rate_mbps);
    }
    rho_stats.add(rho);
    table.start_row()
        .add(seed)
        .add(eq_rate)
        .add(opt_rate)
        .add(rho)
        .add(r_min / r_max);
  }
  table.print(std::cout);
  std::printf("mean rho = %.3f (must be within [lower bound, 1])\n",
              rho_stats.mean());
}

void check_greedy_ratio(int seeds) {
  std::printf("\nTheorems 6/7 — greedy delivery vs optimal\n");
  const double paper_bound = (std::exp(1.0) - 1.0) / (2.0 * std::exp(1.0));
  util::TextTable table({"seed", "greedy reduction (s)",
                         "optimal reduction (s)", "ratio", "paper bound"});
  util::RunningStats ratio_stats;
  for (int seed = 0; seed < seeds; ++seed) {
    model::InstanceParams p = sized(4, 12, 3);
    p.min_storage_mb = 60.0;
    p.max_storage_mb = 120.0;
    const auto inst =
        model::make_instance(p, 33000 + static_cast<std::uint64_t>(seed));
    const auto allocation = core::IddeUGame(inst).run().allocation;
    const auto greedy = core::GreedyDeliveryPlanner(inst).plan(allocation);
    const auto optimal = solver::optimal_delivery(inst, allocation);
    core::DeliveryEvaluator base(inst, allocation);
    const double cloud = base.total_latency_seconds();
    const double greedy_reduction =
        cloud - core::total_latency_seconds(inst, allocation, greedy.delivery);
    const double optimal_reduction =
        cloud - core::total_latency_seconds(inst, allocation, optimal);
    const double ratio =
        optimal_reduction == 0.0 ? 1.0 : greedy_reduction / optimal_reduction;
    ratio_stats.add(ratio);
    table.start_row()
        .add(seed)
        .add(greedy_reduction, 4)
        .add(optimal_reduction, 4)
        .add(ratio, 4)
        .add(paper_bound, 4);
  }
  table.print(std::cout);
  std::printf("mean ratio = %.4f (paper guarantees >= %.4f)\n",
              ratio_stats.mean(), paper_bound);
}

}  // namespace

int main() {
  // The round-by-round replay intentionally runs one-round games; silence
  // the (expected) per-round "round cap" warnings.
  idde::util::set_log_level(idde::util::LogLevel::kError);
  const int seeds = static_cast<int>(idde::util::env_int_or("IDDE_SEEDS", 6));
  check_potential_and_convergence(seeds);
  check_nash_gap(seeds);
  check_poa(seeds);
  check_greedy_ratio(seeds);
  return 0;
}
