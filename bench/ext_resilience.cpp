// ext_resilience — how much of IDDE-G's L_avg advantage survives faults?
//
// Sweeps failure severity x repair policy over the paper's five
// approaches at the Section 4.2 default size. Per (profile, approach,
// repetition): solve fault-free, draw a seeded FaultPlan, then score the
// strategy three ways — analytic resilience without repair (ride out the
// outage on surviving replicas + cloud), analytic resilience with greedy
// re-healing (core::RepairPlanner per epoch), and a flow-level DES replay
// through the same plan (retries, backoff, brown-out stalls). Also proves
// the "no single point of failure" property: every request still resolves
// (finitely) under every possible single-server crash.
//
// Emits BENCH_resilience.json (availability + degraded L_avg per approach
// and policy) for cross-PR tracking; --smoke runs the 1-rep moderate
// profile only (CI).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "figure_common.hpp"
#include "core/delivery.hpp"
#include "core/health.hpp"
#include "core/metrics.hpp"
#include "des/flow_sim.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "model/instance_builder.hpp"
#include "obs/obs.hpp"
#include "sim/paper.hpp"
#include "sim/runner.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace idde;

/// Acceptance property: a crash of any single server never aborts a run —
/// every request still resolves via some fallback tier, finitely.
std::size_t check_single_server_crashes(const model::ProblemInstance& instance,
                                        const core::Strategy& strategy) {
  std::size_t fallback_requests = 0;
  std::vector<std::size_t> hosts;
  for (std::size_t dead = 0; dead < instance.server_count(); ++dead) {
    std::vector<std::uint8_t> up(instance.server_count(), 1);
    up[dead] = 0;
    for (std::size_t j = 0; j < instance.user_count(); ++j) {
      const core::ChannelSlot slot = strategy.allocation[j];
      const std::size_t serving =
          slot.allocated() ? slot.server : core::ChannelSlot::kNone;
      for (const std::size_t k : instance.requests().items_of(j)) {
        hosts.clear();
        for (const std::size_t host : strategy.delivery.hosts(k)) {
          if (!strategy.collaborative_delivery && host != serving) continue;
          hosts.push_back(host);
        }
        const core::FailoverDecision decision = core::resolve_with_health(
            instance, hosts, serving, instance.data(k).size_mb, nullptr, up);
        IDDE_ASSERT(decision.seconds >= 0.0 &&
                        decision.seconds < fault::kNeverChanges,
                    "request failed to resolve under a single-server crash");
        if (decision.tier != core::FallbackTier::kPrimary) {
          ++fallback_requests;
        }
      }
    }
  }
  return fallback_requests;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t reps = 3;
  std::size_t base_seed = 7300;
  std::string out = "BENCH_resilience.json";
  util::CliParser cli(
      "ext_resilience: failure-rate x repair-policy sweep — availability "
      "and degraded L_avg per approach under seeded fault plans");
  cli.add_flag("smoke", &smoke, "1-rep moderate profile only (CI)");
  cli.add_size("reps", &reps, "seeded instances per profile");
  cli.add_size("seed", &base_seed, "first instance seed");
  cli.add_string("out", &out, "JSON output path (empty = skip)");
  bool telemetry = false;
  std::string trace_out;
  cli.add_flag("telemetry", &telemetry,
               "enable runtime telemetry (adds a telemetry block to --out)");
  cli.add_string("trace-out", &trace_out,
                 "write a chrome://tracing JSON here (implies --telemetry)");
  if (!cli.parse(argc, argv)) return 0;
  if (smoke) reps = 1;
  if (telemetry) obs::set_enabled(true);
  if (!trace_out.empty()) obs::set_trace_enabled(true);

  const model::InstanceParams params = sim::paper_default_params();
  const model::InstanceBuilder builder(params);
  const auto approaches = sim::make_paper_approaches(100.0);
  const auto profiles = bench::make_severity_profiles(smoke);

  std::printf("ext_resilience: N=%zu M=%zu K=%zu, %zu rep(s)\n\n",
              params.server_count, params.user_count, params.data_count,
              reps);

  util::JsonArray json_profiles;
  std::size_t crash_fallbacks = 0;
  for (const bench::SeverityProfile& profile : profiles) {
    util::TextTable table({"approach", "fault-free L_avg (ms)",
                           "degraded (no repair)", "degraded (greedy repair)",
                           "availability", "DES p99 (ms)", "retries"});
    util::JsonArray json_approaches;
    for (const auto& approach : approaches) {
      util::RunningStats fault_free_ms, none_ms, greedy_ms, avail, des_p99,
          retries;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const std::uint64_t seed = base_seed + rep;
        const model::ProblemInstance instance = builder.build(seed);
        util::Rng rng(seed ^ 0x5e111e5ULL);
        const core::Strategy strategy = approach->solve(instance, rng);
        const fault::FaultPlan plan =
            fault::FaultPlan::generate(instance, profile.fault, seed ^ 0x4a17);

        const fault::ResilienceReport none = fault::evaluate_resilience(
            instance, strategy, plan, fault::RepairPolicy::kNone);
        const fault::ResilienceReport greedy = fault::evaluate_resilience(
            instance, strategy, plan, fault::RepairPolicy::kGreedy);
        fault_free_ms.add(none.fault_free_latency_ms);
        none_ms.add(none.degraded_latency_ms);
        greedy_ms.add(greedy.degraded_latency_ms);
        avail.add(none.availability);

        des::FlowSimOptions options;
        options.arrival_window_s = 10.0;
        options.fault_plan = &plan;
        const des::FlowSimResult replay =
            des::FlowLevelSimulator(instance, options).run(strategy, rng);
        des_p99.add(replay.p99_duration_ms);
        retries.add(static_cast<double>(replay.retry_count));

        if (approach->name() == "IDDE-G") {
          crash_fallbacks += check_single_server_crashes(instance, strategy);
        }
      }
      table.start_row()
          .add(approach->name())
          .add(fault_free_ms.mean())
          .add(none_ms.mean())
          .add(greedy_ms.mean())
          .add(avail.mean())
          .add(des_p99.mean())
          .add(retries.mean());
      util::JsonObject entry;
      entry["name"] = approach->name();
      entry["fault_free_latency_ms"] = fault_free_ms.mean();
      entry["degraded_latency_ms_no_repair"] = none_ms.mean();
      entry["degraded_latency_ms_greedy_repair"] = greedy_ms.mean();
      entry["availability"] = avail.mean();
      entry["des_p99_ms"] = des_p99.mean();
      entry["des_retries"] = retries.mean();
      json_approaches.emplace_back(std::move(entry));
    }
    std::printf("profile %s (server %g/%g, link %g/%g, cloud %g/%g, "
                "corruption %g):\n",
                profile.name, profile.fault.server_mtbf_s,
                profile.fault.server_mttr_s, profile.fault.link_mtbf_s,
                profile.fault.link_mttr_s, profile.fault.cloud_mtbf_s,
                profile.fault.cloud_mttr_s,
                profile.fault.replica_corruption_prob);
    table.print(std::cout);
    std::puts("");
    util::JsonObject json_profile;
    json_profile["name"] = std::string(profile.name);
    json_profile["horizon_s"] = profile.fault.horizon_s;
    json_profile["server_mtbf_s"] = profile.fault.server_mtbf_s;
    json_profile["approaches"] = std::move(json_approaches);
    json_profiles.emplace_back(std::move(json_profile));
  }

  std::printf(
      "single-server-crash sweep: every request resolved under every "
      "1-server crash (%zu request-resolutions fell back)\n",
      crash_fallbacks);

  if (!out.empty()) {
    util::JsonObject doc;
    doc["bench"] = std::string("ext_resilience");
    util::JsonObject shape;
    shape["servers"] = params.server_count;
    shape["users"] = params.user_count;
    shape["data"] = params.data_count;
    shape["reps"] = reps;
    shape["base_seed"] = base_seed;
    doc["instance"] = std::move(shape);
    doc["profiles"] = std::move(json_profiles);
    doc["single_crash_fallback_resolutions"] = crash_fallbacks;
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
