#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <functional>

#include "core/game.hpp"
#include "core/greedy_delivery.hpp"
#include "core/metrics.hpp"
#include "fault/fault_plan.hpp"
#include "geo/point.hpp"
#include "model/instance_builder.hpp"
#include "radio/interference.hpp"
#include "serve/controller.hpp"
#include "sim/overload.hpp"
#include "sim/paper.hpp"

namespace perfbench {

using idde::core::AllocationProfile;
using idde::core::ChannelSlot;
using idde::model::ProblemInstance;

namespace {

std::string fail(const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  return buffer;
}

constexpr double kKbInMb = 1.0 / 1024.0;

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> placements_of(
    const idde::core::DeliveryProfile& delivery) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < delivery.server_count(); ++i) {
    for (std::size_t k = 0; k < delivery.data_count(); ++k) {
      if (delivery.placed(i, k)) out.emplace_back(i, k);
    }
  }
  return out;
}

std::vector<double> flatten(const idde::net::CostMatrix& costs) {
  const std::size_t n = costs.size();
  std::vector<double> out(n * n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) out[a * n + b] = costs.cost(a, b);
  }
  return out;
}

std::string check_costs(const ProblemInstance& instance,
                        const std::vector<double>& rebuilt) {
  const idde::net::CostMatrix& held = instance.latency().costs();
  const std::size_t n = held.size();
  if (rebuilt.size() != n * n) {
    return fail("%zu rebuilt costs for %zu servers", rebuilt.size(), n);
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (rebuilt[a * n + b] != held.cost(a, b)) {
        return fail("cost %zu->%zu rebuilt %.17g, instance holds %.17g", a, b,
                    rebuilt[a * n + b], held.cost(a, b));
      }
    }
  }
  return {};
}

std::string check_identical(std::uint64_t first, std::uint64_t again) {
  if (first != again) {
    return fail("digest %016llx, then %016llx",
                static_cast<unsigned long long>(first),
                static_cast<unsigned long long>(again));
  }
  return {};
}

std::string check_allocation(const StrategyView& view) {
  const ProblemInstance& instance = *view.instance;
  if (view.allocation.size() != instance.user_count()) {
    return fail("allocation has %zu entries for %zu users",
                view.allocation.size(), instance.user_count());
  }
  const std::size_t channels = instance.radio_env().channels_per_server;
  for (std::size_t j = 0; j < view.allocation.size(); ++j) {
    const ChannelSlot slot = view.allocation[j];
    if (!slot.allocated()) continue;
    if (slot.server >= instance.server_count() || slot.channel >= channels) {
      return fail("user %zu on out-of-range slot (%zu, %zu)", j, slot.server,
                  slot.channel);
    }
    const auto& server = instance.server(slot.server);
    const double d =
        idde::geo::distance_m(server.position, instance.user(j).position);
    if (d > server.coverage_radius_m) {
      return fail("user %zu is %.1f m from server %zu (radius %.1f m)", j, d,
                  slot.server, server.coverage_radius_m);
    }
  }
  return {};
}

std::string check_capacity(const StrategyView& view,
                           std::size_t fragments_needed) {
  const ProblemInstance& instance = *view.instance;
  std::vector<double> used(instance.server_count(), 0.0);
  for (const auto& [i, k] : view.placements) {
    used[i] += instance.data(k).size_mb / static_cast<double>(fragments_needed);
  }
  for (std::size_t i = 0; i < used.size(); ++i) {
    if (used[i] > instance.server(i).storage_mb + kKbInMb) {
      return fail("server %zu holds %.3f MB of %.3f MB", i, used[i],
                  instance.server(i).storage_mb);
    }
  }
  return {};
}

double reference_rate_mbps(const StrategyView& view, std::size_t user) {
  const ChannelSlot slot = view.allocation[user];
  if (!slot.allocated()) return 0.0;
  const auto& env = view.instance->radio_env();
  const double sinr =
      idde::radio::sinr_reference(env, view.allocation, user, slot);
  const double shannon =
      env.bandwidth_mbps_at(slot.server, slot.channel) * std::log2(1.0 + sinr);
  return std::min(view.instance->user(user).max_rate_mbps, shannon);
}

namespace {

bool close_rel(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace

std::string check_rate(const StrategyView& view, std::size_t sample_stride) {
  const std::size_t m = view.instance->user_count();
  if (m == 0) return {};
  if (sample_stride <= 1) {
    double sum = 0.0;
    for (std::size_t j = 0; j < m; ++j) sum += reference_rate_mbps(view, j);
    const double mean = sum / static_cast<double>(m);
    if (!close_rel(mean, view.reported_rate_mbps, 1e-9)) {
      return fail("R_avg recomputed %.12g MB/s, reported %.12g MB/s", mean,
                  view.reported_rate_mbps);
    }
    return {};
  }
  const std::vector<double> rates =
      idde::core::user_rates(*view.instance, view.allocation);
  for (std::size_t j = 0; j < m; j += sample_stride) {
    const double expected = reference_rate_mbps(view, j);
    if (!close_rel(expected, rates[j], 1e-9)) {
      return fail("user %zu rate recomputed %.12g, library %.12g", j, expected,
                  rates[j]);
    }
  }
  double sum = 0.0;
  for (const double r : rates) sum += r;
  const double mean = sum / static_cast<double>(m);
  if (!close_rel(mean, view.reported_rate_mbps, 1e-9)) {
    return fail("R_avg from user rates %.12g MB/s, reported %.12g MB/s", mean,
                view.reported_rate_mbps);
  }
  return {};
}

namespace {

/// Hosts per item from the placement list.
std::vector<std::vector<std::size_t>> hosts_by_item(const StrategyView& view) {
  std::vector<std::vector<std::size_t>> hosts(view.instance->data_count());
  for (const auto& [i, k] : view.placements) hosts[k].push_back(i);
  return hosts;
}

/// Eq. 8 for one request served at `serving` (kNone = unallocated).
double request_seconds(const ProblemInstance& instance,
                       const std::vector<std::size_t>& hosts,
                       std::size_t serving, double size_mb) {
  const auto& latency = instance.latency();
  double best = size_mb / latency.cloud_speed_mbps();
  if (serving == ChannelSlot::kNone) return best;
  for (const std::size_t o : hosts) {
    best = std::min(best, latency.costs().cost(o, serving) * size_mb);
  }
  return best;
}

}  // namespace

double recompute_latency_ms(const StrategyView& view) {
  const ProblemInstance& instance = *view.instance;
  const auto hosts = hosts_by_item(view);
  double total = 0.0;
  std::size_t requests = 0;
  for (std::size_t j = 0; j < instance.user_count(); ++j) {
    const std::size_t serving = view.allocation[j].server;
    for (std::size_t k = 0; k < instance.data_count(); ++k) {
      if (!instance.requests().requests(j, k)) continue;
      total += request_seconds(instance, hosts[k], serving,
                               instance.data(k).size_mb);
      ++requests;
    }
  }
  return requests == 0 ? 0.0 : total / static_cast<double>(requests) * 1e3;
}

std::string check_latency(const StrategyView& view) {
  const double recomputed = recompute_latency_ms(view);
  if (std::fabs(recomputed - view.reported_latency_ms) > 1e-9) {
    return fail("L_avg recomputed %.15g ms, reported %.15g ms", recomputed,
                view.reported_latency_ms);
  }
  return {};
}

idde::radio::InterferenceField field_of(const ProblemInstance& instance,
                                        const AllocationProfile& alloc) {
  idde::radio::InterferenceField field(instance.radio_env());
  for (std::size_t j = 0; j < alloc.size(); ++j) {
    if (alloc[j].allocated()) field.add_user(j, alloc[j]);
  }
  return field;
}

NashProbe probe_nash(const ProblemInstance& instance,
                     const AllocationProfile& alloc,
                     const idde::radio::InterferenceField& field) {
  const std::size_t channels = instance.radio_env().channels_per_server;
  NashProbe probe;
  for (std::size_t j = 0; j < alloc.size(); ++j) {
    const double current =
        alloc[j].allocated() ? field.benefit(j, alloc[j]) : 0.0;
    double best = current;
    for (const std::size_t i : instance.covering_servers(j)) {
      for (std::size_t x = 0; x < channels; ++x) {
        best = std::max(best, field.benefit(j, ChannelSlot{i, x}));
      }
    }
    const double gain = best - current;
    if (gain > 1e-9) ++probe.improvable_users;
    probe.max_gain = std::max(probe.max_gain, gain);
  }
  return probe;
}

std::string check_nash_bound(const StrategyView& view, const NashProbe& probe) {
  if (probe.improvable_users > view.frozen_users) {
    return fail("%zu users can still improve, only %zu frozen",
                probe.improvable_users, view.frozen_users);
  }
  return {};
}

std::string check_greedy_termination(const StrategyView& view) {
  const ProblemInstance& instance = *view.instance;
  const auto hosts = hosts_by_item(view);
  std::vector<double> used(instance.server_count(), 0.0);
  std::vector<std::uint8_t> placed(
      instance.server_count() * instance.data_count(), 0);
  for (const auto& [i, k] : view.placements) {
    used[i] += instance.data(k).size_mb;
    placed[i * instance.data_count() + k] = 1;
  }
  const double requests =
      static_cast<double>(instance.requests().total_requests());
  if (requests == 0.0) return {};
  for (std::size_t k = 0; k < instance.data_count(); ++k) {
    const double size = instance.data(k).size_mb;
    const auto users = instance.requests().users_of(k);
    std::vector<double> current(users.size());
    for (std::size_t r = 0; r < users.size(); ++r) {
      current[r] = request_seconds(instance, hosts[k],
                                   view.allocation[users[r]].server, size);
    }
    for (std::size_t i = 0; i < instance.server_count(); ++i) {
      if (placed[i * instance.data_count() + k]) continue;
      if (used[i] + size > instance.server(i).storage_mb - kKbInMb) continue;
      double gain = 0.0;
      for (std::size_t r = 0; r < users.size(); ++r) {
        const std::size_t serving = view.allocation[users[r]].server;
        if (serving == ChannelSlot::kNone) continue;
        const double candidate =
            instance.latency().costs().cost(i, serving) * size;
        if (candidate < current[r]) gain += current[r] - candidate;
      }
      const double gain_ms = gain / requests * 1e3;
      if (gain_ms > 1e-9) {
        return fail("placing item %zu on server %zu lowers L_avg by %.3g ms",
                    k, i, gain_ms);
      }
    }
  }
  return {};
}

std::string check_flows(const idde::des::FlowSimResult& result,
                        std::size_t expected_flows) {
  const auto& qos = result.qos;
  if (expected_flows != 0 && result.flows.size() != expected_flows) {
    return fail("%zu flows replayed for %zu requests", result.flows.size(),
                expected_flows);
  }
  if (result.flows.size() != qos.offered) {
    return fail("%zu flows but %zu offered", result.flows.size(), qos.offered);
  }
  if (qos.admitted + qos.shed + qos.rejected != qos.offered) {
    return fail("admitted %zu + shed %zu + rejected %zu != offered %zu",
                qos.admitted, qos.shed, qos.rejected, qos.offered);
  }
  for (std::size_t f = 0; f < result.flows.size(); ++f) {
    const auto& flow = result.flows[f];
    if (!(flow.completion_s >= flow.arrival_s)) {
      return fail("flow %zu completes at %.9g s before arriving at %.9g s", f,
                  flow.completion_s, flow.arrival_s);
    }
  }
  return {};
}

std::string check_cloud_exact(const ProblemInstance& instance,
                              const idde::des::FlowSimResult& result) {
  const double speed = instance.latency().cloud_speed_mbps();
  for (std::size_t f = 0; f < result.flows.size(); ++f) {
    const auto& flow = result.flows[f];
    if (!flow.from_cloud) continue;
    const double expected = instance.data(flow.item).size_mb / speed;
    if (!close_rel(flow.duration_s(), expected, 1e-9)) {
      return fail("cloud flow %zu lasts %.12g s, size/speed is %.12g s", f,
                  flow.duration_s(), expected);
    }
  }
  return {};
}

std::string check_resilience(const idde::fault::ResilienceReport& report,
                             double fault_free_ms, bool no_repair) {
  double sum = 0.0;
  for (const double fraction : report.tier_fraction) sum += fraction;
  if (std::fabs(sum - 1.0) > 1e-9) {
    return fail("tier fractions sum to %.12g", sum);
  }
  if (std::fabs(report.fault_free_latency_ms - fault_free_ms) > 1e-9) {
    return fail("fault-free L_avg %.15g ms, recomputed %.15g ms",
                report.fault_free_latency_ms, fault_free_ms);
  }
  if (no_repair && report.degraded_latency_ms < fault_free_ms - 1e-9) {
    return fail("degraded L_avg %.12g ms below fault-free %.12g ms",
                report.degraded_latency_ms, fault_free_ms);
  }
  return {};
}

// ---------------------------------------------------------------------------
// Self-test.

int run_self_test() {
  using namespace idde;
  model::InstanceParams params = sim::paper_default_params();
  params.server_count = 6;
  params.user_count = 150;
  params.data_count = 4;
  const ProblemInstance instance = model::make_instance(params, 7);

  core::GameOptions game_options;
  game_options.max_rounds = 1000 + instance.user_count() * 200;
  const core::GameResult game = core::IddeUGame(instance, game_options).run();
  core::GreedyDeliveryPlanner planner(instance);
  const core::GreedyDeliveryResult greedy = planner.plan(game.allocation);
  core::Strategy strategy(game.allocation, greedy.delivery);
  const core::StrategyMetrics metrics = core::evaluate(instance, strategy);

  StrategyView good;
  good.instance = &instance;
  good.allocation = game.allocation;
  good.placements = placements_of(greedy.delivery);
  good.reported_rate_mbps = metrics.avg_rate_mbps;
  good.reported_latency_ms = metrics.avg_latency_ms;
  good.frozen_users = game.frozen_users;

  util::Rng rng(11);
  const des::FlowSimResult replay =
      des::FlowLevelSimulator(instance).run(strategy, rng);
  const std::size_t requests = instance.requests().total_requests();

  const fault::FaultPlan plan =
      fault::FaultPlan::generate(instance, sim::chaos_fault_profile(), 3);
  const fault::ResilienceReport resilience = fault::evaluate_resilience(
      instance, strategy, plan, fault::RepairPolicy::kNone);
  const double fault_free_ms = recompute_latency_ms(good);

  const std::vector<double> costs = flatten(net::CostMatrix(instance.graph()));

  // A small controller restored from a mid-run checkpoint.
  serve::ServeConfig serve_config;
  serve_config.base = params;
  serve_config.faults.horizon_s = 30.0;
  serve_config.faults.server_mtbf_s = 20.0;
  serve::ServeController first(serve_config, 5);
  std::string checkpoint;
  for (int t = 1; t <= 30; ++t) {
    (void)first.tick();
    if (t == 20) checkpoint = first.checkpoint();
  }
  serve::ServeController again(serve_config, 5);
  again.restore(checkpoint);
  while (again.current_tick() < 30) (void)again.tick();

  struct Case {
    const char* name;
    const char* corruption;
    std::function<std::string(bool corrupt)> run;
  };
  const std::vector<Case> cases = {
      {"costs", "one rebuilt cost raised by 1e-12 s/MB",
       [&](bool corrupt) {
         std::vector<double> rebuilt = costs;
         if (corrupt) rebuilt[1] += 1e-12;
         return check_costs(instance, rebuilt);
       }},
      {"identical", "one bit of the restored trajectory hash flipped",
       [&](bool corrupt) {
         return check_identical(first.trajectory_hash(),
                                again.trajectory_hash() ^ (corrupt ? 1 : 0));
       }},
      {"allocation", "a user moved to a server that does not cover it",
       [&](bool corrupt) {
         StrategyView view = good;
         if (corrupt) {
           for (std::size_t j = 0; j < instance.user_count(); ++j) {
             for (std::size_t i = 0; i < instance.server_count(); ++i) {
               const double d = geo::distance_m(instance.server(i).position,
                                                instance.user(j).position);
               if (d > instance.server(i).coverage_radius_m) {
                 view.allocation[j] = ChannelSlot{i, 0};
                 return check_allocation(view);
               }
             }
           }
         }
         return check_allocation(view);
       }},
      {"capacity", "every item placed on the smallest server",
       [&](bool corrupt) {
         StrategyView view = good;
         if (corrupt) {
           std::size_t smallest = 0;
           for (std::size_t i = 1; i < instance.server_count(); ++i) {
             if (instance.server(i).storage_mb <
                 instance.server(smallest).storage_mb) {
               smallest = i;
             }
           }
           for (std::size_t k = 0; k < instance.data_count(); ++k) {
             for (int copies = 0; copies < 4; ++copies) {
               view.placements.emplace_back(smallest, k);
             }
           }
         }
         return check_capacity(view);
       }},
      {"rate", "R_avg raised by 0.1 MB/s",
       [&](bool corrupt) {
         StrategyView view = good;
         if (corrupt) view.reported_rate_mbps += 0.1;
         return check_rate(view);
       }},
      {"rate-sampled", "R_avg raised by 0.1 MB/s",
       [&](bool corrupt) {
         StrategyView view = good;
         if (corrupt) view.reported_rate_mbps += 0.1;
         return check_rate(view, 7);
       }},
      {"latency", "L_avg shifted by 1 ms",
       [&](bool corrupt) {
         StrategyView view = good;
         if (corrupt) view.reported_latency_ms += 1.0;
         return check_latency(view);
       }},
      {"nash-bound", "every user unallocated, none frozen",
       [&](bool corrupt) {
         StrategyView view = good;
         if (corrupt) {
           view.allocation.assign(instance.user_count(), core::kUnallocated);
           view.frozen_users = 0;
         }
         return check_nash_bound(
             view, probe_nash(instance, view.allocation,
                              field_of(instance, view.allocation)));
       }},
      {"greedy-termination", "all placements dropped",
       [&](bool corrupt) {
         StrategyView view = good;
         if (corrupt) view.placements.clear();
         return check_greedy_termination(view);
       }},
      {"flows", "one flow dropped",
       [&](bool corrupt) {
         des::FlowSimResult result = replay;
         if (corrupt) result.flows.pop_back();
         return check_flows(result, requests);
       }},
      {"flow-order", "a completion moved before its arrival",
       [&](bool corrupt) {
         des::FlowSimResult result = replay;
         if (corrupt) result.flows.front().completion_s = -1.0;
         return check_flows(result, requests);
       }},
      {"cloud-exact", "a cloud flow stretched by 1 ms",
       [&](bool corrupt) {
         des::FlowSimResult result = replay;
         if (corrupt) {
           for (auto& flow : result.flows) {
             if (flow.from_cloud) {
               flow.completion_s += 1e-3;
               break;
             }
           }
         }
         return check_cloud_exact(instance, result);
       }},
      {"resilience-tiers", "primary tier fraction raised by 0.01",
       [&](bool corrupt) {
         fault::ResilienceReport report = resilience;
         if (corrupt) report.tier_fraction[0] += 0.01;
         return check_resilience(report, fault_free_ms, true);
       }},
      {"resilience-order", "degraded L_avg set 1 ms below fault-free",
       [&](bool corrupt) {
         fault::ResilienceReport report = resilience;
         if (corrupt) report.degraded_latency_ms = fault_free_ms - 1.0;
         return check_resilience(report, fault_free_ms, true);
       }},
  };

  bool cloud_flow_seen = false;
  for (const auto& flow : replay.flows) cloud_flow_seen |= flow.from_cloud;

  int bad = 0;
  for (const Case& c : cases) {
    const std::string clean = c.run(false);
    const std::string corrupted = c.run(true);
    const bool ok = clean.empty() && !corrupted.empty();
    if (!ok) ++bad;
    std::printf("self-test %-20s %s  (corruption: %s)%s%s\n", c.name,
                ok ? "ok  " : "FAIL", c.corruption,
                clean.empty() ? "" : "; fails on clean output: ",
                clean.empty() ? "" : clean.c_str());
  }
  if (!cloud_flow_seen) {
    std::printf("self-test cloud-exact has no cloud flow to corrupt\n");
    ++bad;
  }
  return bad;
}

}  // namespace perfbench
