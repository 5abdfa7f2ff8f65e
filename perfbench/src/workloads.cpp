#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <deque>
#include <optional>
#include <utility>

#include "checks.hpp"
#include "coding/coded_planner.hpp"
#include "core/game.hpp"
#include "core/greedy_delivery.hpp"
#include "core/metrics.hpp"
#include "des/flow_sim.hpp"
#include "fault/degradation.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "model/instance_builder.hpp"
#include "net/shortest_path.hpp"
#include "serve/checkpoint.hpp"
#include "serve/controller.hpp"
#include "sim/overload.hpp"
#include "sim/paper.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace perfbench {

using namespace idde;

namespace {

/// Child seed for stream `stream` of the workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  util::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + stream);
  return mix.next();
}

/// Builds an instance through model::make_instance and, separately, the
/// all-pairs cost matrix of its graph, which must equal the one the
/// instance's latency model holds.
model::ProblemInstance build_instance(Context& ctx,
                                      const model::InstanceParams& params,
                                      std::uint64_t seed) {
  Section build(ctx.tracer, "model.build");
  model::ProblemInstance instance = model::make_instance(params, seed);
  build.stop();
  Section apsp(ctx.tracer, "net.apsp");
  const net::CostMatrix costs(instance.graph());
  apsp.stop();
  ctx.check("costs", check_costs(instance, flatten(costs)));
  return instance;
}

/// A cold IDDE-G solve: the game from the empty profile, then the greedy
/// planner, each timed as its own layer (the same steps core::IddeG runs).
struct Solve {
  core::GameResult game;
  std::optional<core::Strategy> strategy;
};

Solve solve(Context& ctx, const model::ProblemInstance& instance) {
  core::GameOptions options;
  options.max_rounds =
      std::max<std::size_t>(1000, instance.user_count() * 200);
  Solve out;
  Section game(ctx.tracer, "core.game");
  out.game = core::IddeUGame(instance, options).run();
  const double game_ms = game.stop();
  Section greedy(ctx.tracer, "core.greedy");
  core::GreedyDeliveryPlanner planner(instance);
  core::GreedyDeliveryResult plan = planner.plan(out.game.allocation);
  const double greedy_ms = greedy.stop();
  ctx.attempted += 2;
  ctx.sample("solve_ms", game_ms + greedy_ms);
  ctx.count("core.game_rounds", static_cast<double>(out.game.rounds));
  ctx.count("core.game_moves", static_cast<double>(out.game.moves));
  ctx.count("core.game_evals",
            static_cast<double>(out.game.benefit_evaluations));
  ctx.count("core.game_frozen_users",
            static_cast<double>(out.game.frozen_users));
  ctx.count("radio.game_s", game_ms / 1e3);
  ctx.count("core.greedy_placements", static_cast<double>(plan.placements));
  ctx.count("core.greedy_gain_evals",
            static_cast<double>(plan.gain_evaluations));
  out.strategy.emplace(out.game.allocation, std::move(plan.delivery));
  out.strategy->approach_name = "IDDE-G";
  return out;
}

core::StrategyMetrics evaluate(Context& ctx,
                               const model::ProblemInstance& instance,
                               const core::Strategy& strategy) {
  Section section(ctx.tracer, "core.evaluate");
  const core::StrategyMetrics metrics = core::evaluate(instance, strategy);
  section.stop();
  ++ctx.attempted;
  return metrics;
}

/// Bit pattern of a digest, for check_identical.
std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Linear-interpolated 99th percentile; 0 for no values.
double p99(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = 0.99 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Served-flow durations (ms) of a replay.
void append_durations(const des::FlowSimResult& result,
                      std::vector<double>& out) {
  for (const des::FlowRecord& flow : result.flows) {
    if (flow.outcome == des::FlowOutcome::kServed) {
      out.push_back(flow.duration_s() * 1e3);
    }
  }
}

/// One DES replay, timed as layer span `span` ("des.replay.<path>"). Each
/// replay adds one sample of flows per wall second and one of simulated
/// p99, both in the log domain: main.cpp reports their geometric means.
template <typename Run>
des::FlowSimResult replay(Context& ctx, const char* span, Run&& run) {
  Section section(ctx.tracer, span);
  des::FlowSimResult result = run();
  const double ms = section.stop();
  ++ctx.attempted;
  ctx.sample("replay_log_flows_per_s",
             std::log(static_cast<double>(result.flows.size()) / (ms / 1e3)));
  std::vector<double> durations;
  append_durations(result, durations);
  const double tail = p99(std::move(durations));
  if (tail > 0.0) ctx.sample("replay_log_p99_ms", std::log(tail));
  ctx.count("des.flows", static_cast<double>(result.flows.size()));
  ctx.count("des.rate_recomputations",
            static_cast<double>(result.rate_recomputations));
  ctx.count("des.retries", static_cast<double>(result.retry_count));
  ctx.count("des.hedge_wasted_mb", result.hedge_wasted_mb);
  return result;
}

StrategyView view_of(const model::ProblemInstance& instance, const Solve& s,
                     const core::StrategyMetrics& metrics) {
  StrategyView view;
  view.instance = &instance;
  view.allocation = s.strategy->allocation;
  view.placements = placements_of(s.strategy->delivery);
  view.reported_rate_mbps = metrics.avg_rate_mbps;
  view.reported_latency_ms = metrics.avg_latency_ms;
  view.frozen_users = s.game.frozen_users;
  return view;
}

/// Every check that applies to a solved replication strategy. Returns the
/// largest unilateral gain left (the residual Nash gap).
double check_strategy(Context& ctx, const StrategyView& view,
                      std::size_t rate_stride) {
  ctx.check("allocation", check_allocation(view));
  ctx.check("capacity", check_capacity(view));
  ctx.check("rate", check_rate(view, rate_stride));
  ctx.check("latency", check_latency(view));
  ctx.check("greedy-termination", check_greedy_termination(view));
  Section field_build(ctx.tracer, "radio.field_build");
  const radio::InterferenceField field =
      field_of(*view.instance, view.allocation);
  field_build.stop();
  const NashProbe probe = probe_nash(*view.instance, view.allocation, field);
  ctx.check("nash-bound", check_nash_bound(view, probe));
  return probe.max_gain;
}

// ---------------------------------------------------------------------------
// paper: the Table 2 grid, many small instances.

class PaperWorkload final : public Workload {
 public:
  PaperWorkload(std::uint64_t seed, bool smoke)
      : seed_(seed), reps_(smoke ? 1 : 10) {}

  void setup(Context& ctx) override {
    instances_.clear();
    std::uint64_t point = 0;
    for (const sim::PaperSet& set : sim::paper_sets()) {
      for (const sim::SweepPoint& p : set.points) {
        for (std::size_t rep = 0; rep < reps_; ++rep) {
          instances_.push_back(build_instance(
              ctx, p.params, derive(seed_, point * 1000 + rep)));
        }
        ++point;
      }
    }
  }

  void round(Context& ctx) override {
    double digest = 0.0;
    for (std::size_t n = 0; n < instances_.size(); ++n) {
      const model::ProblemInstance& instance = instances_[n];
      Solve s = solve(ctx, instance);
      const core::StrategyMetrics metrics =
          evaluate(ctx, instance, *s.strategy);
      util::Rng rng(derive(seed_, 7'000'000 + n));
      des::FlowSimResult result = replay(ctx, "des.replay.plain", [&] {
        return des::FlowLevelSimulator(instance).run(*s.strategy, rng);
      });
      digest += metrics.avg_latency_ms + result.mean_duration_ms;
      if (ctx.first_round) {
        outputs_.push_back(Output{view_of(instance, s, metrics),
                                  std::move(result)});
      }
    }
    if (ctx.first_round) digest_ = digest;
    ctx.check("repeat", check_identical(bits(digest_), bits(digest)));
  }

  void finish(Context& ctx) override {
    double rate = 0.0;
    double latency = 0.0;
    double nash_gap = 0.0;
    for (const Output& out : outputs_) {
      nash_gap = std::max(nash_gap, check_strategy(ctx, out.view, 1));
      ctx.check("flows",
                check_flows(out.replay,
                            out.view.instance->requests().total_requests()));
      ctx.check("cloud-exact", check_cloud_exact(*out.view.instance,
                                                 out.replay));
      rate += out.view.reported_rate_mbps;
      latency += out.view.reported_latency_ms;
    }
    const auto n = static_cast<double>(outputs_.size());
    ctx.quality["avg_rate_mbps"] = rate / n;
    ctx.quality["avg_latency_ms"] = latency / n;
    ctx.counts["core.game_nash_gap"] = nash_gap;
  }

 private:
  struct Output {
    StrategyView view;
    des::FlowSimResult replay;
  };
  std::uint64_t seed_;
  std::size_t reps_;
  std::vector<model::ProblemInstance> instances_;
  std::vector<Output> outputs_;
  double digest_ = 0.0;
};

/// The reference city of `params` with the per-user draws that do not
/// shape the radio game taken from `seed` through model::make_instance:
/// the request matrix (which users request which items) and each user's
/// rate cap R_{j,max}. Both are drawn per user index, independent of the
/// layout, so the seed instance needs just two servers. The city's
/// positions, powers, servers and links, hence the game, stay fixed.
model::ProblemInstance city_with_demand(Context& ctx,
                                        const model::InstanceParams& params,
                                        std::uint64_t seed) {
  const model::ProblemInstance city =
      build_instance(ctx, params, kReferenceSeed);
  model::InstanceParams demand_params = params;
  demand_params.server_count = 2;
  const model::ProblemInstance demand =
      model::make_instance(demand_params, seed);
  std::vector<model::User> users = city.users();
  for (std::size_t j = 0; j < users.size(); ++j) {
    users[j].max_rate_mbps = demand.user(j).max_rate_mbps;
  }
  return model::ProblemInstance(city.servers(), std::move(users),
                                city.data_items(), demand.requests(),
                                city.graph(), city.latency(),
                                city.radio_env());
}

// ---------------------------------------------------------------------------
// metro: one large instance on the 2-km layout, cold solve + burst replay.

class MetroWorkload final : public Workload {
 public:
  MetroWorkload(std::uint64_t seed, bool smoke) : seed_(seed) {
    params_ = sim::paper_default_params();
    params_.server_count = smoke ? 40 : 400;
    params_.user_count = smoke ? 1600 : 16000;
    params_.data_count = 5;
    params_.eua.server_count = params_.server_count;
    params_.eua.user_count = params_.user_count;
  }

  void setup(Context& ctx) override {
    instance_.reset();
    instance_.emplace(city_with_demand(ctx, params_, derive(seed_, 1)));
  }

  void round(Context& ctx) override {
    const model::ProblemInstance& instance = *instance_;
    Solve s = solve(ctx, instance);
    const core::StrategyMetrics metrics =
        evaluate(ctx, instance, *s.strategy);
    util::Rng rng(derive(seed_, 2));
    des::FlowSimResult result = replay(ctx, "des.replay.plain", [&] {
      return des::FlowLevelSimulator(instance).run(*s.strategy, rng);
    });
    const double digest = metrics.avg_latency_ms + result.mean_duration_ms;
    if (ctx.first_round) {
      view_ = view_of(instance, s, metrics);
      replay_ = std::move(result);
      digest_ = digest;
    }
    ctx.check("repeat", check_identical(bits(digest_), bits(digest)));
  }

  void finish(Context& ctx) override {
    // sinr_reference is O(M) per user: recompute a sample of 200 users.
    const std::size_t stride = view_.allocation.size() / 200 + 1;
    ctx.counts["core.game_nash_gap"] = check_strategy(ctx, view_, stride);
    ctx.check("flows",
              check_flows(replay_, instance_->requests().total_requests()));
    ctx.check("cloud-exact", check_cloud_exact(*instance_, replay_));
    ctx.quality["avg_rate_mbps"] = view_.reported_rate_mbps;
    ctx.quality["avg_latency_ms"] = view_.reported_latency_ms;
  }

 private:
  std::uint64_t seed_;
  model::InstanceParams params_;
  std::optional<model::ProblemInstance> instance_;
  StrategyView view_;
  des::FlowSimResult replay_;
  double digest_ = 0.0;
};

// ---------------------------------------------------------------------------
// online: the serve controller at city scale under churn, mobility, server
// faults and gray degradation.

class OnlineWorkload final : public Workload {
 public:
  OnlineWorkload(std::uint64_t seed, bool smoke)
      : seed_(seed),
        ticks_(smoke ? 60 : 1000),
        sample_period_(smoke ? 20 : 100),
        sample_phase_(derive(seed, 4) % sample_period_) {
    config_.base = sim::paper_default_params();
    config_.base.server_count = smoke ? 30 : 125;
    config_.base.user_count = smoke ? 200 : 816;
    config_.base.data_count = smoke ? 6 : 12;
    config_.tick_seconds = 1.0;
    config_.churn.arrival_rate_hz = 1.0 / 60.0;
    config_.churn.mean_session_s = 120.0;
    config_.churn.initial_online_fraction = 0.9;
    config_.sigma_refresh_period_ticks = 20;
    config_.faults.horizon_s = static_cast<double>(ticks_);
    config_.faults.server_mtbf_s = 150.0;
    config_.faults.server_mttr_s = 10.0;
    config_.degradation.horizon_s = static_cast<double>(ticks_);
    config_.degradation.gray_fraction = 0.1;
  }

  void setup(Context& ctx) override {
    // The previous set-up's controller is kept as the one a mid-run
    // checkpoint is restored into.
    if (controller_) spare_ = std::move(controller_);
    Section ctor(ctx.tracer, "serve.ctor");
    controller_ =
        std::make_unique<serve::ServeController>(config_, kReferenceSeed);
    ctor.stop();
    start_ = controller_->checkpoint();
  }

  void round(Context& ctx) override {
    serve::ServeController& controller = *controller_;
    if (!ctx.first_round) controller.restore(start_);
    const serve::ServeStatus before = controller.status();
    double tick_wall_ms = 0.0;
    for (std::size_t t = 1; t <= ticks_; ++t) {
      Section tick(ctx.tracer, "serve.tick");
      (void)controller.tick();
      const double ms = tick.stop();
      ++ctx.attempted;
      tick_wall_ms += ms;
      if (ctx.first_round && t == ticks_ - ticks_ / 10) {
        const Clock::time_point start = Clock::now();
        restore_point_ = controller.checkpoint();
        ctx.check_ms += ms_between(start, Clock::now());
      }
      if (t % sample_period_ == sample_phase_) sample_live(ctx, t);
    }
    const serve::ServeStatus& after = controller.status();
    const auto delta = [&](std::size_t a, std::size_t b) {
      return static_cast<double>(a - b);
    };
    ctx.count("serve.repairs",
              delta(after.repairs_total, before.repairs_total));
    ctx.count("serve.repair_rounds",
              delta(after.repair_rounds_total, before.repair_rounds_total));
    ctx.count("serve.repair_moves",
              delta(after.repair_moves_total, before.repair_moves_total));
    ctx.count("serve.shed", delta(after.shed_total, before.shed_total));
    ctx.count("serve.degraded_ticks",
              delta(after.degraded_ticks, before.degraded_ticks));
    ctx.count("serve.events", delta(after.events_total, before.events_total));
    ctx.count("serve.tick_wall_s", tick_wall_ms / 1e3);
    if (ctx.first_round) {
      ctx.counts["serve.backlog_peak"] =
          static_cast<double>(after.backlog_peak);
      final_hash_ = controller.trajectory_hash();
    }
    ctx.check("repeat",
              check_identical(final_hash_, controller.trajectory_hash()));
  }

  void finish(Context& ctx) override {
    // A controller restored from the checkpoint taken at 90% of the run
    // must reach the same final trajectory hash.
    serve::ServeController& other = spare_ ? *spare_ : *controller_;
    other.restore(restore_point_);
    while (other.current_tick() < ticks_) (void)other.tick();
    ctx.check("restore", check_identical(final_hash_, other.trajectory_hash()));
    double rate = 0.0;
    double latency = 0.0;
    double nash_gap = 0.0;
    for (const Sample& s : samples_) {
      const std::size_t requests = s.instance.requests().total_requests();
      ctx.check("online-allocation", check_allocation(s.live));
      ctx.check("online-capacity", check_capacity(s.live));
      ctx.check("online-latency", check_latency(s.live));
      ctx.check("online-rate", check_rate(s.live, 16));
      ctx.check("flows", check_flows(s.replay, requests));
      ctx.check("cloud-exact", check_cloud_exact(s.instance, s.replay));
      nash_gap = std::max(nash_gap, check_strategy(ctx, s.cold, 16));
      rate += s.live.reported_rate_mbps;
      latency += s.live.reported_latency_ms;
    }
    const auto n = static_cast<double>(samples_.size());
    ctx.quality["avg_rate_mbps"] = rate / n;
    ctx.quality["avg_latency_ms"] = latency / n;
    ctx.counts["core.game_nash_gap"] = nash_gap;
  }

 private:
  /// The live world at one sampled tick, with the outputs computed on it.
  /// Held in a deque: the views point at `instance`, which must not move.
  struct Sample {
    model::ProblemInstance instance;
    StrategyView live;  ///< the controller's own allocation and sigma
    StrategyView cold;  ///< a cold IDDE-G solve of the same instance
    des::FlowSimResult replay;
  };

  /// The controller's standing sigma, read from its checkpoint (the only
  /// public view of it).
  static core::DeliveryProfile live_sigma(
      const serve::ServeController& controller) {
    const util::Json payload =
        serve::open_checkpoint(controller.checkpoint());
    core::DeliveryProfile sigma(controller.instance());
    const auto& servers = payload.at("sigma_server").as_array();
    const auto& items = payload.at("sigma_item").as_array();
    for (std::size_t p = 0; p < servers.size(); ++p) {
      sigma.place(serve::hex_to_u64(servers[p].as_string(), "sigma_server"),
                  serve::hex_to_u64(items[p].as_string(), "sigma_item"));
    }
    return sigma;
  }

  /// Samples the live world: R_avg and L_avg of the controller's own
  /// allocation and sigma, a cold re-solve of the same instance and a
  /// burst replay of the live strategy.
  void sample_live(Context& ctx, std::size_t tick) {
    const serve::ServeController& controller = *controller_;
    const model::ProblemInstance& instance = controller.instance();
    const Clock::time_point read_start = Clock::now();
    core::Strategy live(controller.allocation(), live_sigma(controller));
    ctx.check_ms += ms_between(read_start, Clock::now());
    const core::StrategyMetrics metrics = evaluate(ctx, instance, live);
    Solve cold = solve(ctx, instance);
    util::Rng rng(derive(seed_, 3'000'000 + tick));
    des::FlowSimResult result = replay(ctx, "des.replay.plain", [&] {
      return des::FlowLevelSimulator(instance).run(live, rng);
    });
    if (!ctx.first_round) return;

    const Clock::time_point keep_start = Clock::now();
    const core::StrategyMetrics cold_metrics =
        core::evaluate(instance, *cold.strategy);
    Sample& s = samples_.emplace_back(
        Sample{instance, {}, view_of(instance, cold, cold_metrics),
               std::move(result)});
    s.live.instance = &s.instance;
    s.live.allocation = live.allocation;
    s.live.placements = placements_of(live.delivery);
    s.live.reported_rate_mbps = metrics.avg_rate_mbps;
    s.live.reported_latency_ms = metrics.avg_latency_ms;
    s.cold.instance = &s.instance;
    ctx.check_ms += ms_between(keep_start, Clock::now());
  }

  std::uint64_t seed_;
  std::size_t ticks_;
  std::size_t sample_period_;
  std::size_t sample_phase_;  ///< seed-chosen tick within each period
  serve::ServeConfig config_;
  std::unique_ptr<serve::ServeController> controller_;
  std::unique_ptr<serve::ServeController> spare_;
  std::string start_;
  std::string restore_point_;
  std::uint64_t final_hash_ = 0;
  std::deque<Sample> samples_;
};

// ---------------------------------------------------------------------------
// chaos: one solved strategy replayed through every degraded delivery path.

class ChaosWorkload final : public Workload {
 public:
  ChaosWorkload(std::uint64_t seed, bool smoke) : seed_(seed) {
    params_ = sim::paper_default_params();
    params_.server_count = smoke ? 20 : 200;
    params_.user_count = smoke ? 300 : 4000;
    params_.data_count = 5;
    params_.eua.server_count = std::max(params_.eua.server_count,
                                        params_.server_count);
    params_.eua.user_count = std::max(params_.eua.user_count,
                                      params_.user_count);
    qos_ = sim::chaos_qos_config(3.0, qos::SheddingPolicy::kDeadlineAware,
                                 0.1);
    // Metastable plateaus with per-leg loss: the "metastable-lossy" gray
    // profile, covering the whole arrival window.
    gray_profile_.horizon_s = 120.0;
    gray_profile_.gray_fraction = 0.35;
    gray_profile_.peak_multiplier_min = 6.0;
    gray_profile_.peak_multiplier_max = 10.0;
    gray_profile_.loss_prob_max = 0.05;
    gray_profile_.onset_latest_s = 2.0;
    gray_profile_.ramp_weight = 0.0;
    gray_profile_.plateau_weight = 1.0;
    gray_profile_.flap_weight = 0.0;
    gray_profile_.plateau_s = 60.0;
  }

  void setup(Context& ctx) override {
    coded_.reset();
    solved_.reset();
    instance_.reset();
    instance_.emplace(city_with_demand(ctx, params_, derive(seed_, 1)));
    const model::ProblemInstance& instance = *instance_;
    solved_.emplace(solve(ctx, instance));
    metrics_ = evaluate(ctx, instance, *solved_->strategy);
    {
      Section plan(ctx.tracer, "fault.plan");
      plan_ = fault::FaultPlan::generate(instance, sim::chaos_fault_profile(),
                                         kReferenceSeed);
      plan.stop();
    }
    gray_ = fault::DegradationPlan::generate(instance, gray_profile_,
                                             derive(seed_, 3));
    Section coded(ctx.tracer, "coding.plan");
    coding::CodedGreedyPlanner planner(instance);
    coding::CodedPlanResult result =
        planner.plan(solved_->strategy->allocation, kCode);
    coded.stop();
    coded_placements_ = result.placements;
    coded_.emplace(solved_->strategy->allocation, std::move(result.delivery));
  }

  void round(Context& ctx) override {
    const model::ProblemInstance& instance = *instance_;
    const core::Strategy& strategy = *solved_->strategy;
    const auto run = [&](const char* span, const des::FlowSimOptions& options,
                         std::uint64_t stream) {
      util::Rng rng(derive(seed_, stream));
      return replay(ctx, span, [&] {
        return des::FlowLevelSimulator(instance, options).run(strategy, rng);
      });
    };
    des::FlowSimOptions plain;
    plain.arrival_window_s = 20.0;
    des::FlowSimOptions faulty;
    faulty.arrival_window_s = 10.0;
    faulty.fault_plan = &plan_;
    des::FlowSimOptions chaos = faulty;
    chaos.qos = &qos_;
    des::FlowSimOptions gray;
    gray.arrival_window_s = 10.0;
    gray.degradation = &gray_;
    des::FlowSimOptions hedged = gray;
    hedged.hedge.enabled = true;
    des::FlowSimOptions health = gray;
    health.hedge.health_aware = true;

    std::vector<des::FlowSimResult> results;
    results.push_back(run("des.replay.plain", plain, 10));
    results.push_back(run("des.replay.fault", faulty, 11));
    results.push_back(run("des.replay.qos", chaos, 12));
    results.push_back(run("des.replay.gray", gray, 13));
    results.push_back(run("des.replay.hedged", hedged, 13));
    results.push_back(run("des.replay.health", health, 13));
    {
      util::Rng rng(derive(seed_, 14));
      results.push_back(replay(ctx, "des.replay.coded", [&] {
        return des::FlowLevelSimulator(instance, faulty).run_coded(*coded_,
                                                                   rng);
      }));
    }

    Section injector(ctx.tracer, "fault.injector");
    const fault::FaultInjector built(instance, plan_);
    injector.stop();
    ++ctx.attempted;
    ctx.count("fault.epochs", static_cast<double>(built.epoch_count()));

    Section none(ctx.tracer, "fault.resilience.none");
    fault::ResilienceReport no_repair = fault::evaluate_resilience(
        instance, strategy, plan_, fault::RepairPolicy::kNone);
    none.stop();
    Section greedy(ctx.tracer, "fault.resilience.greedy");
    fault::ResilienceReport repaired = fault::evaluate_resilience(
        instance, strategy, plan_, fault::RepairPolicy::kGreedy);
    greedy.stop();
    ctx.attempted += 2;
    ctx.count("fault.repair_placements",
              static_cast<double>(repaired.repair_placements));
    const des::QosStats& q = results[2].qos;
    ctx.count("qos.offered", static_cast<double>(q.offered));
    ctx.count("qos.shed", static_cast<double>(q.shed));
    ctx.count("qos.rejected", static_cast<double>(q.rejected));
    ctx.count("qos.retries_denied", static_cast<double>(q.retries_denied));
    ctx.count("qos.breaker_opens", static_cast<double>(q.breaker_opens));
    ctx.count("qos.goodput_rps", q.goodput_rps);

    double digest =
        no_repair.degraded_latency_ms + repaired.degraded_latency_ms;
    for (const auto& r : results) digest += r.mean_duration_ms;
    if (ctx.first_round) {
      results_ = std::move(results);
      no_repair_ = no_repair;
      repaired_ = repaired;
      digest_ = digest;
    }
    ctx.check("repeat", check_identical(bits(digest_), bits(digest)));
  }

  void finish(Context& ctx) override {
    const model::ProblemInstance& instance = *instance_;
    const StrategyView view = view_of(instance, *solved_, metrics_);
    ctx.counts["core.game_nash_gap"] = check_strategy(ctx, view, 20);
    StrategyView coded_view = view;
    coded_view.placements.clear();
    for (std::size_t i = 0; i < instance.server_count(); ++i) {
      for (std::size_t k = 0; k < instance.data_count(); ++k) {
        if (coded_->delivery.placed(i, k)) {
          coded_view.placements.emplace_back(i, k);
        }
      }
    }
    ctx.check("coded-capacity", check_capacity(coded_view, kCode.k));
    const std::size_t requests = instance.requests().total_requests();
    for (std::size_t r = 0; r < results_.size(); ++r) {
      // The QoS cell generates open-loop arrivals: no fixed flow count.
      ctx.check("flows", check_flows(results_[r], r == 2 ? 0 : requests));
    }
    ctx.check("cloud-exact", check_cloud_exact(instance, results_[0]));
    const double fault_free_ms = recompute_latency_ms(view);
    ctx.check("resilience-none",
              check_resilience(no_repair_, fault_free_ms, true));
    ctx.check("resilience-greedy",
              check_resilience(repaired_, fault_free_ms, false));
    ctx.counts["coding.placements"] = static_cast<double>(coded_placements_);
    ctx.counts["fault.degraded_latency_ms.none"] =
        no_repair_.degraded_latency_ms;
    ctx.counts["fault.degraded_latency_ms.greedy"] =
        repaired_.degraded_latency_ms;
    ctx.quality["avg_rate_mbps"] = metrics_.avg_rate_mbps;
    ctx.quality["avg_latency_ms"] = metrics_.avg_latency_ms;
  }

 private:
  static constexpr coding::FragmentConfig kCode{3, 2};
  std::uint64_t seed_;
  model::InstanceParams params_;
  qos::QosConfig qos_;
  fault::DegradationProfile gray_profile_;
  std::optional<model::ProblemInstance> instance_;
  std::optional<Solve> solved_;
  core::StrategyMetrics metrics_;
  fault::FaultPlan plan_;
  fault::DegradationPlan gray_;
  std::optional<coding::CodedStrategy> coded_;
  std::size_t coded_placements_ = 0;
  std::vector<des::FlowSimResult> results_;
  fault::ResilienceReport no_repair_;
  fault::ResilienceReport repaired_;
  double digest_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, bool smoke) {
  if (name == "paper") return std::make_unique<PaperWorkload>(seed, smoke);
  if (name == "metro") return std::make_unique<MetroWorkload>(seed, smoke);
  if (name == "online") return std::make_unique<OnlineWorkload>(seed, smoke);
  if (name == "chaos") return std::make_unique<ChaosWorkload>(seed, smoke);
  return nullptr;
}

}  // namespace perfbench
