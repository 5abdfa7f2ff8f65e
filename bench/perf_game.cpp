// perf_game — microbenchmark for the IDDE-U best-response engine.
//
// Times two configurations on Set-2-sized instances (N=30, K=5; Set #2
// tops out at M=350) under the paper's kBestImprovement rule:
//   full         the seed engine, kept as the test oracle
//                (tests/oracles/game_full_scan.hpp): every user re-priced
//                every round with per-slot field.benefit() calls,
//   incremental  core::IddeUGame: dirty-set caching, batched SoA kernel.
// Both must produce bit-identical move sequences; the run aborts if they
// diverge. Results (evaluation counts, rounds, wall time, derived ratios)
// go to stdout and to a machine-readable JSON trajectory (--out, default
// BENCH_game.json) for cross-PR tracking. bench/perf_kernels tracks the
// batched-over-scalar kernel speed-up on its own.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/game.hpp"
#include "model/instance_builder.hpp"
#include "obs/obs.hpp"
#include "oracles/game_full_scan.hpp"
#include "sim/paper.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace idde;

struct ConfigTotals {
  std::string name;
  std::size_t benefit_evaluations = 0;
  std::size_t moves = 0;
  std::size_t rounds = 0;
  double solve_ms = 0.0;
};

/// Solves `instance` with the named configuration under the default
/// options (kBestImprovement: Algorithm 1 literally).
core::GameResult run_config(const std::string& name,
                            const model::ProblemInstance& instance) {
  if (name == "full") return oracles::run_full_scan(instance);
  IDDE_ASSERT(name == "incremental", "unknown engine config");
  return core::IddeUGame(instance).run();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t servers = 30;
  std::size_t users = 350;
  std::size_t data = 5;
  std::size_t reps = 3;
  std::size_t base_seed = 1;
  std::string out = "BENCH_game.json";
  bool telemetry = false;
  std::string trace_out;
  util::CliParser cli(
      "perf_game: full-scan oracle vs incremental IDDE-U engine on a "
      "Set-2-sized instance");
  cli.add_size("servers", &servers, "edge servers N");
  cli.add_size("users", &users, "users M (Set #2 tops out at 350)");
  cli.add_size("data", &data, "data items K");
  cli.add_size("reps", &reps, "seeded instances to average over");
  cli.add_size("seed", &base_seed, "first instance seed");
  cli.add_string("out", &out, "JSON output path (empty = skip)");
  cli.add_flag("telemetry", &telemetry,
               "enable runtime telemetry (adds a telemetry block to --out)");
  cli.add_string("trace-out", &trace_out,
                 "write a chrome://tracing JSON here (implies --telemetry)");
  if (!cli.parse(argc, argv)) return 0;
  if (telemetry) obs::set_enabled(true);
  if (!trace_out.empty()) obs::set_trace_enabled(true);

  model::InstanceParams params = sim::paper_default_params();
  params.server_count = servers;
  params.user_count = users;
  params.data_count = data;

  const std::vector<std::string> config_names{"full", "incremental"};
  std::vector<ConfigTotals> totals;
  for (const std::string& name : config_names) {
    totals.push_back(ConfigTotals{name, 0, 0, 0, 0.0});
  }

  std::printf("perf_game: N=%zu M=%zu K=%zu, %zu instance(s)\n\n", servers,
              users, data, reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const std::uint64_t seed = base_seed + rep;
    const model::ProblemInstance instance = model::make_instance(params, seed);
    core::AllocationProfile reference_allocation;
    std::size_t reference_moves = 0;
    for (std::size_t c = 0; c < config_names.size(); ++c) {
      const std::string span_name = "perf_game." + config_names[c];
      const obs::ScopedSpan span(span_name);
      const core::GameResult result = run_config(config_names[c], instance);
      const double ms = span.elapsed_ms();
      IDDE_ASSERT(result.converged, "engine hit the round cap");
      if (c == 0) {
        reference_allocation = result.allocation;
        reference_moves = result.moves;
      } else {
        // The cache and the batched kernel must not change the dynamics.
        IDDE_ASSERT(result.moves == reference_moves,
                    "engine variants diverged in move count");
        IDDE_ASSERT(result.allocation == reference_allocation,
                    "engine variants diverged in final allocation");
      }
      totals[c].benefit_evaluations += result.benefit_evaluations;
      totals[c].moves += result.moves;
      totals[c].rounds += result.rounds;
      totals[c].solve_ms += ms;
      std::printf("  seed %-4llu %-12s %10zu evals %6zu moves %8.2f ms\n",
                  static_cast<unsigned long long>(seed),
                  config_names[c].c_str(), result.benefit_evaluations,
                  result.moves, ms);
    }
  }

  const ConfigTotals& full = totals[0];
  const ConfigTotals& incremental = totals[1];
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double eval_ratio =
      ratio(static_cast<double>(full.benefit_evaluations),
            static_cast<double>(incremental.benefit_evaluations));
  const double speedup_incremental = ratio(full.solve_ms, incremental.solve_ms);

  std::printf("\n%-12s %14s %8s %8s %10s\n", "config", "evals", "moves",
              "rounds", "ms");
  for (const ConfigTotals& t : totals) {
    std::printf("%-12s %14zu %8zu %8zu %10.2f\n", t.name.c_str(),
                t.benefit_evaluations, t.moves, t.rounds, t.solve_ms);
  }
  std::printf(
      "\nincremental does %.1fx fewer benefit evaluations than the seed "
      "engine\nwall-clock speedup: incremental %.2fx\n",
      eval_ratio, speedup_incremental);

  if (!out.empty()) {
    util::JsonArray configs;
    for (const ConfigTotals& t : totals) {
      util::JsonObject entry;
      entry["name"] = t.name;
      entry["benefit_evaluations"] = t.benefit_evaluations;
      entry["moves"] = t.moves;
      entry["rounds"] = t.rounds;
      entry["solve_ms"] = t.solve_ms;
      configs.emplace_back(std::move(entry));
    }
    util::JsonObject doc;
    doc["bench"] = std::string("perf_game");
    doc["rule"] = std::string("best_improvement");
    util::JsonObject shape;
    shape["servers"] = servers;
    shape["users"] = users;
    shape["data"] = data;
    shape["reps"] = reps;
    shape["base_seed"] = base_seed;
    doc["instance"] = std::move(shape);
    doc["configs"] = std::move(configs);
    doc["eval_ratio_full_over_incremental"] = eval_ratio;
    doc["speedup_full_over_incremental"] = speedup_incremental;
    doc["telemetry"] = obs::telemetry_json();
    std::ofstream file(out);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    file << util::Json(std::move(doc)).dump(2) << "\n";
    std::printf("wrote %s\n", out.c_str());
  }
  if (!trace_out.empty()) {
    if (!obs::Tracer::global().write_chrome_trace(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", trace_out.c_str());
  }
  return 0;
}
