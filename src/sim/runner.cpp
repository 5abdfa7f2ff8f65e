#include "sim/runner.hpp"

#include "baselines/cdp.hpp"
#include "baselines/dup_g.hpp"
#include "baselines/idde_ip.hpp"
#include "baselines/saa.hpp"
#include "core/idde_g.hpp"
#include "core/validation.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace idde::sim {

RunRecord run_approach(const model::ProblemInstance& instance,
                       const core::Approach& approach, util::Rng& rng,
                       bool require_valid,
                       std::optional<core::Strategy>* strategy_out) {
  RunRecord record;
  record.approach = approach.name();
  std::optional<core::Strategy> solved;
  {
    // The span is both the timer (solve_ms is a reported result) and the
    // trace phase; the name string must outlive the span.
    const std::string span_name = "solve." + record.approach;
    const obs::ScopedSpan span(span_name);
    solved.emplace(approach.solve(instance, rng));
    record.solve_ms = span.elapsed_ms();
  }
  const core::Strategy& strategy = *solved;
  record.metrics = core::evaluate(instance, strategy);
  record.game_rounds = strategy.game_rounds;
  record.game_moves = strategy.game_moves;

  const auto problems = core::validate_strategy(instance, strategy);
  record.strategy_valid = problems.empty();
  for (const std::string& problem : problems) {
    util::log_error("{}: invalid strategy: {}", approach.name(), problem);
  }
  if (require_valid) {
    IDDE_ASSERT(record.strategy_valid, "approach produced invalid strategy");
  }
  if (strategy_out != nullptr) strategy_out->emplace(strategy);
  return record;
}

std::vector<core::ApproachPtr> make_paper_approaches(double ip_budget_ms) {
  std::vector<core::ApproachPtr> approaches;
  approaches.push_back(std::make_unique<baselines::IddeIp>(ip_budget_ms));
  approaches.push_back(std::make_unique<core::IddeG>());
  approaches.push_back(std::make_unique<baselines::Saa>());
  approaches.push_back(std::make_unique<baselines::Cdp>());
  approaches.push_back(std::make_unique<baselines::DupG>());
  return approaches;
}

}  // namespace idde::sim
