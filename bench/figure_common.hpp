// Shared driver for the per-figure bench binaries: runs one paper set
// through the sweep harness and prints the series tables the figure plots,
// plus IDDE-G's advantage summary (the percentages quoted in Section 4.5).
//
// Knobs (environment):
//   IDDE_REPS          repetitions per sweep point (default 5; paper: 50)
//   IDDE_IP_BUDGET_MS  IDDE-IP anytime budget in ms (default 200; the paper
//                      capped CPLEX at 100 s of search)
//   IDDE_CSV_DIR       if set, also writes <figure>.csv there
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "sim/paper.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "util/env.hpp"

namespace idde::bench {

/// One point on the failure-severity axis shared by the resilience-style
/// benches (ext_resilience, ext_coding): a named FaultProfile.
struct SeverityProfile {
  const char* name;
  fault::FaultProfile fault;
};

/// The canonical severity grid: "moderate" (occasional outages, light
/// corruption) and "severe" (overlapping outages, 10% corruption). Smoke
/// runs keep only "moderate" so CI stays fast. Both benches iterate the
/// same profiles so their JSON outputs are directly comparable per name.
inline std::vector<SeverityProfile> make_severity_profiles(bool smoke) {
  fault::FaultProfile moderate;
  moderate.horizon_s = 60.0;
  moderate.server_mtbf_s = 40.0;
  moderate.server_mttr_s = 6.0;
  moderate.link_mtbf_s = 30.0;
  moderate.link_mttr_s = 4.0;
  moderate.cloud_mtbf_s = 60.0;
  moderate.cloud_mttr_s = 3.0;
  moderate.replica_corruption_prob = 0.02;

  fault::FaultProfile severe;
  severe.horizon_s = 60.0;
  severe.server_mtbf_s = 12.0;
  severe.server_mttr_s = 8.0;
  severe.link_mtbf_s = 10.0;
  severe.link_mttr_s = 5.0;
  severe.cloud_mtbf_s = 25.0;
  severe.cloud_mttr_s = 5.0;
  severe.replica_corruption_prob = 0.1;

  std::vector<SeverityProfile> profiles{{"moderate", moderate}};
  if (!smoke) profiles.push_back({"severe", severe});
  return profiles;
}

inline int run_figure_set(const sim::PaperSet& set,
                          const std::string& csv_name) {
  const int reps = util::experiment_reps(5);
  const double ip_budget = util::ip_budget_ms(200.0);

  std::printf("%s\n", sim::table2_text().c_str());
  std::printf(
      "Running %s (%s): %d repetitions/point, IDDE-IP budget %.0f ms\n\n",
      set.name.c_str(), set.figure.c_str(), reps, ip_budget);

  sim::SweepOptions options;
  options.repetitions = reps;
  options.ip_budget_ms = ip_budget;
  options.on_point = [](const sim::PointResult& point) {
    std::fprintf(stderr, "  done %s\n", point.label.c_str());
  };
  const auto results = sim::run_paper_sweep(set.points, options);

  std::printf("%s(a)  Average Data Rate R_avg (MB/s) vs %s\n",
              set.figure.c_str(), set.x_label.c_str());
  sim::series_table(results, sim::Metric::kRate, set.x_label)
      .print(std::cout);
  std::printf("\n%s(b)  Average Data Delivery Latency L_avg (ms) vs %s\n",
              set.figure.c_str(), set.x_label.c_str());
  sim::series_table(results, sim::Metric::kLatency, set.x_label)
      .print(std::cout);
  std::printf("\nComputation time (ms) vs %s\n", set.x_label.c_str());
  sim::series_table(results, sim::Metric::kSolveTime, set.x_label)
      .print(std::cout);

  std::printf("\nIDDE-G advantages over the benchmarks in %s:\n",
              set.name.c_str());
  for (const sim::Advantage& adv : sim::advantages_of(results, "IDDE-G")) {
    std::printf("  vs %-8s rate %+6.2f%%, latency %+6.2f%% lower\n",
                adv.versus.c_str(), adv.rate_gain_pct,
                adv.latency_reduction_pct);
  }

  const std::string csv_dir = util::env_or("IDDE_CSV_DIR", "");
  if (!csv_dir.empty()) {
    const std::string path = csv_dir + "/" + csv_name + ".csv";
    std::ofstream out(path);
    if (out) {
      sim::write_csv(out, results, set.x_label);
      std::printf("\nCSV written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace idde::bench
