// pipeline_bench: runs one benchmark workload and prints its metrics.
//
//   pipeline_bench --workload paper|metro|online|chaos --seed N --seconds T
//                  --trace 0|1 [--size full|smoke] [--git-sha SHA]
//   pipeline_bench --self-test
//
// A run sets the workload up kSetups times (the median is setup_s), then
// repeats whole rounds of the workload's operations until T seconds have
// passed (at least one round). With --trace 1 it first runs untraced rounds
// for T seconds, then traced rounds for T seconds, and reports the
// per-layer metrics from the traced rounds plus the tracing overhead
// (median traced round minus median untraced round). The last line of
// standard output is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kSetups = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool self_test = false;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pipeline_bench: %s\nusage: pipeline_bench --workload "
               "paper|metro|online|chaos --seed N --seconds T --trace 0|1 "
               "[--size full|smoke] [--git-sha SHA] | --self-test\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (flag == "--self-test") {
      o.self_test = true;
      continue;
    }
    if (a + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++a];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a non-negative integer");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds >= 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "smoke") usage("--size: full|smoke");
      o.smoke = value == "smoke";
    } else if (flag == "--git-sha") {
      o.git_sha = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return o;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

/// Runs rounds until `seconds` have passed; returns each round's wall
/// time (seconds) net of in-round checks.
std::vector<double> run_rounds(Workload& workload, Context& ctx,
                               double seconds) {
  std::vector<double> rounds;
  const Clock::time_point start = Clock::now();
  do {
    Section round(ctx.tracer, "round");
    ctx.check_ms = 0.0;
    workload.round(ctx);
    rounds.push_back((round.stop() - ctx.check_ms) / 1e3);
    std::fprintf(stderr, "round %zu: %.4f s\n", rounds.size(), rounds.back());
    ctx.first_round = false;
  } while (ms_between(start, Clock::now()) < seconds * 1e3);
  return rounds;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Context& ctx, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += ctx.errors.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ctx.attempted);
  out += ", \"failed\": 0";
  out += ", \"metrics\": {";
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[m].value) ? metrics[m].value : 0.0);
    if (m > 0) out += ", ";
    out += "\"" + metrics[m].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[m].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// exp(mean) of log-domain samples: the geometric mean over every replay of
/// the run, so each delivery path weighs the same whatever its size.
double geometric_mean(const Context& ctx, const char* log_samples) {
  const auto it = ctx.samples.find(log_samples);
  if (it == ctx.samples.end() || it->second.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : it->second) sum += v;
  return std::exp(sum / static_cast<double>(it->second.size()));
}

std::vector<Metric> end_to_end(const Context& ctx,
                               const std::vector<double>& setups,
                               const std::vector<double>& rounds) {
  const auto quality = [&](const char* name) {
    const auto it = ctx.quality.find(name);
    return it == ctx.quality.end() ? 0.0 : it->second;
  };
  const auto samples = [&](const char* name) {
    const auto it = ctx.samples.find(name);
    return it == ctx.samples.end() ? std::vector<double>{} : it->second;
  };
  return {
      {"setup_s", median(setups), "s"},
      {"round_s", median(rounds), "s"},
      {"solve_ms", median(samples("solve_ms")), "ms"},
      {"avg_rate_mbps", quality("avg_rate_mbps"), "MB/s"},
      {"avg_latency_ms", quality("avg_latency_ms"), "ms"},
      {"replay_flows_per_s", geometric_mean(ctx, "replay_log_flows_per_s"),
       "flows/s"},
      {"replay_p99_ms", geometric_mean(ctx, "replay_log_p99_ms"), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const Context& ctx,
                              const std::vector<double>& untraced,
                              const std::vector<double>& traced) {
  const auto spans = ctx.tracer.self_times_ms();
  const auto span_q = [&](const char* name, double q) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : percentile(it->second, q);
  };
  const auto count = [&](const char* name) {
    const auto it = ctx.counts.find(name);
    return it == ctx.counts.end() ? 0.0 : it->second;
  };
  const auto ratio = [&](const char* num, const char* den) {
    return count(den) > 0.0 ? count(num) / count(den) : 0.0;
  };
  const auto solves = ctx.samples.find("solve_ms");
  std::vector<Metric> out = {
      {"model.build_ms", span_q("model.build", 0.5), "ms"},
      {"net.apsp_ms", span_q("net.apsp", 0.5), "ms"},
      {"radio.field_build_ms", span_q("radio.field_build", 0.5), "ms"},
      {"radio.evals_per_s", ratio("core.game_evals", "radio.game_s"),
       "evals/s"},
      {"core.game_ms", span_q("core.game", 0.5), "ms"},
      {"core.game_rounds", count("core.game_rounds"), "count"},
      {"core.game_moves", count("core.game_moves"), "count"},
      {"core.game_evals", count("core.game_evals"), "count"},
      {"core.game_frozen_users", count("core.game_frozen_users"), "count"},
      {"core.game_nash_gap", count("core.game_nash_gap"), "benefit"},
      {"core.greedy_ms", span_q("core.greedy", 0.5), "ms"},
      {"core.greedy_placements", count("core.greedy_placements"), "count"},
      {"core.greedy_gain_evals", count("core.greedy_gain_evals"), "count"},
      {"core.evaluate_ms", span_q("core.evaluate", 0.5), "ms"},
      {"core.solve_ms_p95",
       solves == ctx.samples.end() ? 0.0 : percentile(solves->second, 0.95),
       "ms"},
  };
  for (const char* kind :
       {"plain", "fault", "qos", "gray", "hedged", "health", "coded"}) {
    const std::string span = std::string("des.replay.") + kind;
    out.push_back({std::string("des.replay_ms.") + kind,
                   span_q(span.c_str(), 0.5), "ms"});
  }
  const std::vector<Metric> rest = {
      {"des.flows", count("des.flows"), "count"},
      {"des.rate_recomputations", count("des.rate_recomputations"), "count"},
      {"des.retries", count("des.retries"), "count"},
      {"des.hedge_wasted_mb", count("des.hedge_wasted_mb"), "MB"},
      {"fault.plan_ms", span_q("fault.plan", 0.5), "ms"},
      {"fault.injector_ms", span_q("fault.injector", 0.5), "ms"},
      {"fault.epochs", count("fault.epochs"), "count"},
      {"fault.repair_placements", count("fault.repair_placements"), "count"},
      {"fault.resilience_ms.none", span_q("fault.resilience.none", 0.5), "ms"},
      {"fault.resilience_ms.greedy", span_q("fault.resilience.greedy", 0.5),
       "ms"},
      {"fault.degraded_latency_ms.none",
       count("fault.degraded_latency_ms.none"), "ms"},
      {"fault.degraded_latency_ms.greedy",
       count("fault.degraded_latency_ms.greedy"), "ms"},
      {"qos.offered", count("qos.offered"), "count"},
      {"qos.shed", count("qos.shed"), "count"},
      {"qos.rejected", count("qos.rejected"), "count"},
      {"qos.retries_denied", count("qos.retries_denied"), "count"},
      {"qos.breaker_opens", count("qos.breaker_opens"), "count"},
      {"qos.goodput_rps", count("qos.goodput_rps"), "req/s"},
      {"coding.plan_ms", span_q("coding.plan", 0.5), "ms"},
      {"coding.placements", count("coding.placements"), "count"},
      {"serve.ctor_ms", span_q("serve.ctor", 0.5), "ms"},
      {"serve.tick_ms", span_q("serve.tick", 0.5), "ms"},
      {"serve.tick_ms_p99", span_q("serve.tick", 0.99), "ms"},
      {"serve.events_per_s", ratio("serve.events", "serve.tick_wall_s"),
       "events/s"},
      {"serve.repairs", count("serve.repairs"), "count"},
      {"serve.repair_rounds", count("serve.repair_rounds"), "count"},
      {"serve.repair_moves", count("serve.repair_moves"), "count"},
      {"serve.backlog_peak", count("serve.backlog_peak"), "count"},
      {"serve.shed", count("serve.shed"), "count"},
      {"serve.degraded_ticks", count("serve.degraded_ticks"), "count"},
      {"trace.overhead_ms", (median(traced) - median(untraced)) * 1e3, "ms"},
      {"trace.unattributed_ms", span_q("round", 0.5), "ms"},
      {"trace.spans", static_cast<double>(ctx.tracer.span_count()), "count"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

void print_provenance(const Options& o) {
  std::printf(
      "provenance {\"git_sha\": \"%s\", \"compiler\": \"%s\", \"flags\": "
      "\"%s\", \"build_type\": \"%s\", \"nproc\": %u, \"solver_threads\": 1, "
      "\"workload\": \"%s\", \"size\": \"%s\", \"seed\": %llu, "
      "\"reference_seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
      o.git_sha.c_str(), kCompiler, IDDE_BENCH_CXX_FLAGS,
      IDDE_BENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
      o.workload.c_str(), o.smoke ? "smoke" : "full",
      static_cast<unsigned long long>(o.seed),
      static_cast<unsigned long long>(kReferenceSeed), o.seconds,
      o.trace ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  if (options.self_test) {
    const int bad = run_self_test();
    std::printf("self-test: %s\n", bad == 0 ? "every check fires" : "FAILED");
    return bad == 0 ? 0 : 1;
  }
  auto workload = make_workload(options.workload, options.seed, options.smoke);
  if (!workload) usage("unknown or missing --workload");
  print_provenance(options);
  std::fflush(stdout);

  Context ctx;
  try {
    ctx.tracer.set_recording(options.trace);
    std::vector<double> setups;
    for (int s = 0; s < kSetups; ++s) {
      ctx.counts.clear();  // per-layer counts describe one set-up
      const Clock::time_point start = Clock::now();
      workload->setup(ctx);
      setups.push_back(ms_between(start, Clock::now()) / 1e3);
    }
    ctx.tracer.set_recording(false);
    const std::vector<double> rounds =
        run_rounds(*workload, ctx, options.seconds);
    std::vector<double> traced;
    if (options.trace) {
      ctx.tracer.set_recording(true);
      traced = run_rounds(*workload, ctx, options.seconds);
    }
    workload->finish(ctx);
    const std::vector<Metric> metrics =
        options.trace ? per_layer(ctx, rounds, traced)
                      : end_to_end(ctx, setups, rounds);
    for (const Metric& m : metrics) {
      // Every end-to-end metric is a positive, finite figure by design; a
      // zero or non-finite one means a stage did not run.
      if (!options.trace && !(std::isfinite(m.value) && m.value > 0.0)) {
        ctx.errors.push_back("metric " + m.name + " is not positive");
      }
    }
    for (const std::string& error : ctx.errors) {
      std::fprintf(stderr, "check failed: %s\n", error.c_str());
    }
    print_result(ctx, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    return 1;
  }
  return ctx.errors.empty() ? 0 : 1;
}
