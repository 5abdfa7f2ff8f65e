// Golden digests of the flow-level DES.
//
// Every replay mode (plain, fault, QoS, chaos, gray, hedged, health-aware,
// coded) is pinned on three small instances by two FNV-1a digests:
//
//   full      every FlowRecord field and every FlowSimResult field except
//             rate_recomputations (bookkeeping, not behaviour), doubles by
//             bit pattern;
//   decision  the discrete fields only (sources, tiers, hops, retries,
//             outcomes, counts), with the time aggregates pinned as values.
//
// Configurations with an active fault plan, QoS config, gray plan, hedge
// policy or coded strategy must reproduce the full digest bit for bit.
// The plain configurations (none of those active) must reproduce the
// decision digest exactly and every time aggregate within 1e-12 relative:
// the order in which simultaneous fluid flows enter the water-filling may
// move a completion time by an ulp without changing any decision.
//
// The pins below were generated once and are never edited. Set
// IDDE_DES_GOLDEN_PRINT=1 to print the current values in pin format.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "coding/coded_planner.hpp"
#include "coding/coded_profile.hpp"
#include "core/idde_g.hpp"
#include "des/flow_sim.hpp"
#include "fault/degradation.hpp"
#include "fault/fault_plan.hpp"
#include "model/instance_builder.hpp"
#include "qos/config.hpp"
#include "sim/paper.hpp"

namespace {

using namespace idde;

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (v >> (8 * b)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(bool v) { add(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Time aggregates of one run, in pin order.
constexpr std::size_t kAggregates = 15;
using Aggregates = std::array<double, kAggregates>;

Aggregates aggregates_of(const des::FlowSimResult& r) {
  return {r.mean_duration_ms,    r.p95_duration_ms,
          r.p99_duration_ms,     r.max_duration_ms,
          r.makespan_s,          r.qos.goodput_rps,
          r.qos.offered_rps,     r.qos.mean_queue_wait_ms,
          r.qos.tier_p50_ms[0],  r.qos.tier_p50_ms[1],
          r.qos.tier_p50_ms[2],  r.qos.tier_p99_ms[0],
          r.qos.tier_p99_ms[1],  r.qos.tier_p99_ms[2],
          r.hedge_wasted_mb};
}

void add_decisions(Fnv& h, const des::FlowSimResult& r) {
  for (const des::FlowRecord& f : r.flows) {
    h.add(static_cast<std::uint64_t>(f.user));
    h.add(static_cast<std::uint64_t>(f.item));
    h.add(f.from_cloud);
    h.add(f.local_hit);
    h.add(static_cast<std::uint64_t>(f.hops));
    h.add(static_cast<std::uint64_t>(f.retries));
    h.add(f.forced_cloud);
    h.add(static_cast<std::uint64_t>(f.tier));
    h.add(static_cast<std::uint64_t>(f.outcome));
    h.add(f.deadline_missed);
    h.add(f.hedged);
    h.add(f.hedge_won);
    h.add(static_cast<std::uint64_t>(f.losses));
  }
  const des::QosStats& q = r.qos;
  for (const std::size_t v :
       {r.flows.size(), r.local_hits, r.cloud_fetches, r.retry_count,
        r.forced_cloud_fetches, r.tier_counts[0], r.tier_counts[1],
        r.tier_counts[2], q.offered, q.admitted, q.shed, q.rejected,
        q.deadline_misses, q.goodput_flows, q.retries_denied, q.breaker_opens,
        r.hedge_launches, r.hedge_wins, r.hedge_cancelled, r.loss_aborts}) {
    h.add(static_cast<std::uint64_t>(v));
  }
  h.add(r.availability);
}

std::uint64_t decision_digest(const des::FlowSimResult& r) {
  Fnv h;
  add_decisions(h, r);
  return h.value();
}

std::uint64_t full_digest(const des::FlowSimResult& r) {
  Fnv h;
  add_decisions(h, r);
  for (const des::FlowRecord& f : r.flows) {
    h.add(f.arrival_s);
    h.add(f.completion_s);
    h.add(f.queue_wait_s);
  }
  for (const double v : aggregates_of(r)) h.add(v);
  return h.value();
}

// --- configurations --------------------------------------------------------

model::InstanceParams small_params() {
  model::InstanceParams p = sim::paper_default_params();
  p.server_count = 10;
  p.user_count = 50;
  p.data_count = 4;
  return p;
}

fault::FaultProfile busy_faults() {
  fault::FaultProfile profile;
  profile.horizon_s = 45.0;
  profile.server_mtbf_s = 15.0;
  profile.server_mttr_s = 5.0;
  profile.link_mtbf_s = 12.0;
  profile.link_mttr_s = 4.0;
  profile.cloud_mtbf_s = 30.0;
  profile.cloud_mttr_s = 3.0;
  profile.replica_corruption_prob = 0.05;
  return profile;
}

fault::DegradationProfile gray_profile() {
  fault::DegradationProfile profile;
  profile.horizon_s = 60.0;
  profile.gray_fraction = 0.8;
  profile.peak_multiplier_min = 3.0;
  profile.peak_multiplier_max = 8.0;
  profile.loss_prob_max = 0.6;
  profile.onset_latest_s = 5.0;
  return profile;
}

qos::QosConfig qos_config(bool coded) {
  qos::QosConfig config;
  config.arrivals.process = qos::ArrivalProcess::kFlashCrowd;
  config.arrivals.load_multiplier = 4.0;
  config.arrivals.window_s = 10.0;
  config.arrivals.flash_fraction = 0.5;
  config.arrivals.flash_start_s = 3.0;
  config.arrivals.flash_width_s = 1.0;
  config.admission.policy = qos::SheddingPolicy::kDeadlineAware;
  config.admission.service_slots = coded ? 0 : 2;
  config.admission.queue_capacity = 8;
  config.admission.deadline_s = 1.5;
  config.admission.local_service_s_per_mb = coded ? 0.0 : 0.01;
  config.retry_budget.ratio = 0.2;
  config.retry_budget.burst = 4.0;
  config.breaker.enabled = true;
  config.breaker.window = 12;
  config.breaker.min_samples = 4;
  config.breaker.failure_threshold = 0.5;
  config.breaker.open_duration_s = 1.0;
  config.breaker.half_open_probes = 1;
  config.breaker.slow_ratio = 3.0;
  return config;
}

/// One pinned run: builds the world for `seed` and replays it.
struct World {
  model::ProblemInstance instance;
  core::Strategy strategy;
  fault::FaultPlan faults;
  fault::DegradationPlan gray;
  qos::QosConfig qos;
  qos::QosConfig coded_qos;
};

World make_world(std::uint64_t seed) {
  model::ProblemInstance instance = model::make_instance(small_params(), seed);
  util::Rng rng(seed);
  core::Strategy strategy = core::IddeG().solve(instance, rng);
  fault::FaultPlan faults =
      fault::FaultPlan::generate(instance, busy_faults(), seed ^ 0x4a17);
  fault::DegradationPlan gray =
      fault::DegradationPlan::generate(instance, gray_profile(), seed);
  return World{std::move(instance), std::move(strategy), std::move(faults),
               std::move(gray),     qos_config(false),   qos_config(true)};
}

coding::CodedStrategy coded_strategy(const World& w, std::size_t n,
                                     std::size_t k) {
  if (k == 1) {
    coding::CodedDeliveryProfile coded(w.instance,
                                       {w.instance.server_count(), 1});
    for (std::size_t item = 0; item < w.instance.data_count(); ++item) {
      for (const std::size_t i : w.strategy.delivery.hosts(item)) {
        coded.place(i, item);
      }
    }
    return coding::CodedStrategy(w.strategy.allocation, std::move(coded));
  }
  coding::CodedGreedyPlanner planner(w.instance);
  coding::CodedPlanResult plan = planner.plan(w.strategy.allocation, {n, k});
  return coding::CodedStrategy(w.strategy.allocation,
                               std::move(plan.delivery));
}

struct Config {
  const char* name;
  bool exact;  ///< full digest must match (false: plain replay)
  std::function<des::FlowSimResult(const World&, util::Rng&)> run;
};

/// Link capacity scale that stretches transfers to seconds, so fault
/// epochs and gray slowdowns catch flows in flight.
constexpr double kBusyLinks = 0.005;

des::FlowSimResult replay(const World& w, const des::FlowSimOptions& options,
                          util::Rng& rng) {
  return des::FlowLevelSimulator(w.instance, options).run(w.strategy, rng);
}

std::vector<Config> configs() {
  std::vector<Config> out;
  out.push_back({"plain_w0", false, [](const World& w, util::Rng& rng) {
                   return replay(w, {}, rng);
                 }});
  out.push_back({"plain_w10_cap02", false, [](const World& w, util::Rng& rng) {
                   des::FlowSimOptions o;
                   o.arrival_window_s = 10.0;
                   o.link_capacity_scale = 0.2;
                   return replay(w, o, rng);
                 }});
  out.push_back({"plain_noncollab", false, [](const World& w, util::Rng& rng) {
                   core::Strategy local = w.strategy;
                   local.collaborative_delivery = false;
                   des::FlowSimOptions o;
                   o.arrival_window_s = 10.0;
                   o.link_capacity_scale = 0.2;
                   return des::FlowLevelSimulator(w.instance, o)
                       .run(local, rng);
                 }});
  out.push_back({"fault_corrupt", true, [](const World& w, util::Rng& rng) {
                   des::FlowSimOptions o;
                   o.arrival_window_s = 15.0;
                   o.link_capacity_scale = kBusyLinks;
                   o.fault_plan = &w.faults;
                   return replay(w, o, rng);
                 }});
  out.push_back({"qos", true, [](const World& w, util::Rng& rng) {
                   des::FlowSimOptions o;
                   o.link_capacity_scale = kBusyLinks;
                   o.qos = &w.qos;
                   return replay(w, o, rng);
                 }});
  out.push_back({"chaos", true, [](const World& w, util::Rng& rng) {
                   des::FlowSimOptions o;
                   o.link_capacity_scale = kBusyLinks;
                   o.qos = &w.qos;
                   o.fault_plan = &w.faults;
                   return replay(w, o, rng);
                 }});
  out.push_back({"gray", true, [](const World& w, util::Rng& rng) {
                   des::FlowSimOptions o;
                   o.arrival_window_s = 15.0;
                   o.link_capacity_scale = 0.05;
                   o.degradation = &w.gray;
                   return replay(w, o, rng);
                 }});
  out.push_back({"hedged", true, [](const World& w, util::Rng& rng) {
                   des::FlowSimOptions o;
                   o.arrival_window_s = 15.0;
                   o.link_capacity_scale = 0.05;
                   o.degradation = &w.gray;
                   o.hedge.enabled = true;
                   o.hedge.deadline_factor = 1.5;
                   return replay(w, o, rng);
                 }});
  out.push_back({"health", true, [](const World& w, util::Rng& rng) {
                   des::FlowSimOptions o;
                   o.arrival_window_s = 15.0;
                   o.link_capacity_scale = 0.05;
                   o.degradation = &w.gray;
                   o.hedge.health_aware = true;
                   o.hedge.health.min_samples = 2;
                   return replay(w, o, rng);
                 }});
  out.push_back({"hedged_fault", true, [](const World& w, util::Rng& rng) {
                   des::FlowSimOptions o;
                   o.arrival_window_s = 15.0;
                   o.link_capacity_scale = kBusyLinks;
                   o.fault_plan = &w.faults;
                   o.degradation = &w.gray;
                   o.hedge.enabled = true;
                   o.hedge.health_aware = true;
                   o.hedge.deadline_factor = 2.0;
                   return replay(w, o, rng);
                 }});
  out.push_back({"coded_k1_fault", true, [](const World& w, util::Rng& rng) {
                   des::FlowSimOptions o;
                   o.arrival_window_s = 15.0;
                   o.link_capacity_scale = kBusyLinks;
                   o.fault_plan = &w.faults;
                   return des::FlowLevelSimulator(w.instance, o)
                       .run_coded(coded_strategy(w, 0, 1), rng);
                 }});
  out.push_back({"coded_32", true, [](const World& w, util::Rng& rng) {
                   des::FlowSimOptions o;
                   o.arrival_window_s = 10.0;
                   o.link_capacity_scale = 0.2;
                   return des::FlowLevelSimulator(w.instance, o)
                       .run_coded(coded_strategy(w, 3, 2), rng);
                 }});
  out.push_back({"coded_32_fault", true, [](const World& w, util::Rng& rng) {
                   des::FlowSimOptions o;
                   o.arrival_window_s = 15.0;
                   o.link_capacity_scale = kBusyLinks;
                   o.fault_plan = &w.faults;
                   return des::FlowLevelSimulator(w.instance, o)
                       .run_coded(coded_strategy(w, 3, 2), rng);
                 }});
  out.push_back({"coded_qos", true, [](const World& w, util::Rng& rng) {
                   des::FlowSimOptions o;
                   o.link_capacity_scale = kBusyLinks;
                   o.fault_plan = &w.faults;
                   o.qos = &w.coded_qos;
                   return des::FlowLevelSimulator(w.instance, o)
                       .run_coded(coded_strategy(w, 3, 2), rng);
                 }});
  return out;
}

// --- pins ------------------------------------------------------------------

struct Pin {
  const char* config;
  std::uint64_t seed;
  std::uint64_t full;
  std::uint64_t decision;
  Aggregates aggregates;
};

constexpr std::uint64_t kSeeds[] = {41, 42, 43};

// clang-format off
const Pin kPins[] = {
    {"plain_w0", 41, 0x307405acd606fefeULL, 0xef70a94b0f301fffULL,
     {9.3184576023916126, 56.359302854898949, 58.839112180514491, 61.995233140388841,
      0.061995233140388843, 919.42552858738213, 919.42552858738213, 0,
      0, 0, 0, 58.839112180514491,
      0, 0, 0}},
    {"plain_w10_cap02", 41, 0x2e442119d1a4a82aULL, 0xef70a94b0f301fffULL,
     {13.194599710680647, 86.330578659114423, 93.497076166178815, 93.497076166179312,
      9.9345668863657153, 5.7375425272164895, 5.7375425272164895, 0,
      0, 0, 0, 93.497076166178815,
      0, 0, 0}},
    {"plain_noncollab", 41, 0xbddd5253d8223dadULL, 0x6ccbc60315acae28ULL,
     {22.80701754385969, 150.00000000000034, 150.00000000000034, 150.00000000000034,
      9.9576294214809966, 5.7242539953372154, 5.7242539953372154, 0,
      0, 0, 0, 150.00000000000034,
      0, 0, 0}},
    {"fault_corrupt", 41, 0x2c3e147c2a225269ULL, 0xa6b9b805074059eaULL,
     {744.28770458371571, 4077.162507720911, 7255.4837708270979, 10048.788320129974,
      16.007988775357848, 3.5607221369210262, 3.5607221369210262, 0,
      0, 4054.9662935420879, 1046.5446431363575, 2823.0463199185933,
      4054.9662935420879, 9250.7013060434401, 0}},
    {"qos", 41, 0x79d97da976895c11ULL, 0x6283cb3f2b7a7e4bULL,
     {1640.0048400273431, 7595.9400802553573, 9663.6323445248436, 10959.079285260728,
      14.839264871287815, 9.4000000000000004, 22.800000000000001, 258.35767901205952,
      899.99999999999989, 0, 0, 9663.6323445248436,
      0, 0, 0}},
    {"chaos", 41, 0x0d964f32b2c39281ULL, 0xfacfd52adcba8dfdULL,
     {981.81078771265629, 2868.3901718355, 6779.8396049554112, 8280.1360096612279,
      12.803656216665468, 12.300000000000001, 22.800000000000001, 200.46516819314286,
      867.12958975472668, 0, 159.92220082229426, 7197.550462476629,
      0, 4451.7916009761311, 0}},
    {"gray", 41, 0xed92f29d529b34c8ULL, 0x942f4f65c9f8e501ULL,
     {308.37845571828603, 2410.0422365205054, 3783.8923541314816, 4314.6450792519363,
      17.664952906256861, 3.2267281040874334, 3.2267281040874334, 0,
      0, 0, 0, 3783.8923541314816,
      0, 0, 270}},
    {"hedged", 41, 0xd36db0d349e140b6ULL, 0x6f94cdac9d9b06efULL,
     {166.07243296219826, 1447.4917294770712, 1650.2406147399097, 1846.1373314107714,
      15.926997920129208, 3.5788288719471111, 3.5788288719471111, 0,
      0, 1445.6217879537476, 0, 1225.7132066254617,
      1494.6677551128225, 0, 450.54449495864787}},
    {"health", 41, 0x8d07256164853265ULL, 0x30ff2034eca1b0adULL,
     {851.51402291988984, 6873.3499629011221, 13489.061698205822, 13489.061698205822,
      27.970437830381282, 2.0378658477089342, 2.0378658477089342, 0,
      0, 6376.4534448748109, 0, 284.05088638869034,
      13489.061698205822, 0, 300}},
    {"hedged_fault", 41, 0xc86baad6908134b7ULL, 0xa0a7a7da22e480acULL,
     {925.14455481307039, 5634.8606912390424, 9726.2633291262682, 9998.7883201299755,
      16.007988775357848, 3.5607221369210262, 3.5607221369210262, 0,
      0, 0, 1526.6126431823875, 1516.9377228012049,
      0, 9911.1910015930698, 205.58677033530435}},
    {"coded_k1_fault", 41, 0x2c3e147c2a225269ULL, 0xa6b9b805074059eaULL,
     {744.28770458371571, 4077.162507720911, 7255.4837708270979, 10048.788320129974,
      16.007988775357848, 3.5607221369210262, 3.5607221369210262, 0,
      0, 4054.9662935420879, 1046.5446431363575, 2823.0463199185933,
      4054.9662935420879, 9250.7013060434401, 0}},
    {"coded_32", 41, 0x99e7f34152843e71ULL, 0x65c6122b991339cdULL,
     {90.718860481875296, 197.51450289934604, 197.68560125311845, 197.90336279428323,
      9.9210981539233565, 5.7453317279659224, 5.7453317279659224, 0,
      86.057933335562893, 0, 0, 197.68560125311845,
      0, 0, 0}},
    {"coded_32_fault", 41, 0x7311fa6fa3e3019fULL, 0x33c746219374a9c3ULL,
     {2381.7163593366845, 8640.4425006584243, 9829.6743542011773, 9998.7883201299755,
      16.057988775357849, 3.5496350631076941, 3.5496350631076941, 0,
      1724.6148676400803, 5694.5209165106771, 824.70488241407566, 2716.4852484306562,
      5694.5209165106771, 9856.8533844397352, 0}},
    {"coded_qos", 41, 0x59d3a90c25aa5480ULL, 0xd588c35edd233082ULL,
     {2778.7242939576331, 8713.3512658230193, 10202.352103296873, 10504.741457858607,
      11.454358785705345, 12.6, 22.800000000000001, 0,
      3752.442805597404, 1778.4972561740044, 1252.8360256581932, 6383.6350452275683,
      1778.4972561740044, 10202.568382957921, 0}},
    {"plain_w0", 42, 0x0795ba63664fdf92ULL, 0x94eb7f9f058a2a30ULL,
     {76.551543391476628, 308.6511834268282, 308.6511834268282, 308.6511834268282,
      0.30865118342682818, 210.59371708325079, 210.59371708325079, 0,
      49.887080485270999, 0, 0, 308.6511834268282,
      0, 0, 0}},
    {"plain_w10_cap02", 42, 0x0a9aa512b9d957eaULL, 0x94eb7f9f058a2a30ULL,
     {47.516044686600615, 169.14424710459119, 169.14424710459207, 169.14424710459207,
      10.08718338992562, 6.4438205877091015, 6.4438205877091015, 0,
      27.867568368385832, 0, 0, 169.14424710459207,
      0, 0, 0}},
    {"plain_noncollab", 42, 0xfa1cff59a963137aULL, 0x2633b0f5d7560dd4ULL,
     {60.000000000000071, 150.00000000000034, 150.00000000000034, 150.00000000000034,
      10.068039142821029, 6.4560734297847828, 6.4560734297847828, 0,
      49.999999999999822, 0, 0, 150.00000000000034,
      0, 0, 0}},
    {"fault_corrupt", 42, 0x3d85ab036c0ea69bULL, 0x4f138c4ee5da1539ULL,
     {548.84638201147834, 2319.0309859791159, 7252.0414769544532, 8540.304528396462,
      15.658801237733998, 4.1510201843143273, 4.1510201843143273, 0,
      0, 0, 150.00000000000034, 813.73299635686681,
      0, 7815.6565619603334, 0}},
    {"qos", 42, 0xcadd9f45472d6205ULL, 0x05260cb157d40f26ULL,
     {4809.9909012346152, 24994.292503359859, 30880.737297953754, 30880.737297953754,
      31.347657911233867, 4.5, 26, 275.52817845925932,
      985.78952135280292, 14672.122518412762, 0, 30880.737297953754,
      14791.579123722342, 0, 0}},
    {"chaos", 42, 0x0430023002c30160ULL, 0xfb4ce8ea5d1edf1cULL,
     {747.97967710317903, 2275.165748632578, 4561.3590343850865, 5742.1005609510285,
      12.120170254054557, 16.699999999999999, 26, 179.10838258230481,
      899.99999999999989, 0, 252.02974525676746, 1759.2217791378075,
      0, 4567.3899305467685, 0}},
    {"gray", 42, 0xb53e898f5c99d2c7ULL, 0x5b5929d30a1d68b7ULL,
     {954.96970071267583, 3704.2347511469143, 5635.1461547242061, 5912.3461794101095,
      17.422180986470721, 3.7308761773555252, 3.7308761773555252, 0,
      186.30164824897034, 0, 0, 5635.1461547242061,
      0, 0, 840}},
    {"hedged", 42, 0x4d5024a421f7a7e8ULL, 0xea713024ad3f890aULL,
     {642.82595838665713, 2953.4559923465049, 3778.3613221586893, 3794.4935181497553,
      17.04021277154672, 3.8145063604214622, 3.8145063604214622, 0,
      0, 904.45781432303102, 0, 3783.1505678435369,
      3259.0679550799841, 0, 1172.9782462393985}},
    {"health", 42, 0x229c903ec4a85c8bULL, 0x5c1d5f90638390d4ULL,
     {743.06382470893186, 5692.3560404953296, 7019.0877389833904, 7689.9434302388363,
      19.467715909850476, 3.3388611330161555, 3.3388611330161555, 0,
      0, 2874.2188807648131, 99.999999999999645, 3795.6136700211969,
      7616.5685890077712, 5924.4818686136177, 270}},
    {"hedged_fault", 42, 0x34c088f9ca854265ULL, 0x4f041ad9a2e8653aULL,
     {398.24920191962178, 1392.7096113784194, 7152.0414769544532, 8440.304528396462,
      15.658801237733998, 4.1510201843143273, 4.1510201843143273, 0,
      0, 0, 150.00000000000034, 972.88572508751838,
      0, 7715.6565619603334, 123.0745471267124}},
    {"coded_k1_fault", 42, 0x3d85ab036c0ea69bULL, 0x4f138c4ee5da1539ULL,
     {548.84638201147834, 2319.0309859791159, 7252.0414769544532, 8540.304528396462,
      15.658801237733998, 4.1510201843143273, 4.1510201843143273, 0,
      0, 0, 150.00000000000034, 813.73299635686681,
      0, 7815.6565619603334, 0}},
    {"coded_32", 42, 0x4373e97dfba8b04cULL, 0x1347d021e5b371adULL,
     {79.833021053547483, 172.74141586445882, 206.33567542912701, 206.40344640960606,
      10.08718338992562, 6.4438205877091015, 6.4438205877091015, 0,
      56.38141570153099, 0, 0, 206.33567542912701,
      0, 0, 0}},
    {"coded_32_fault", 42, 0xe4624fea241b44c8ULL, 0x6d72f5abdc8fd4faULL,
     {477.87764366027, 1780.40479071606, 2432.2197806883455, 2866.7742869755966,
      17.448122471418529, 3.7253291926667402, 3.7253291926667402, 0,
      1469.2764145416515, 0, 150.00000000000034, 1847.3586711556834,
      0, 2459.379437331298, 0}},
    {"coded_qos", 42, 0x97aa5a11e6b794abULL, 0x70c4ef9456d3e367ULL,
     {635.85467877132328, 2549.3642916943204, 2971.4895126098008, 4885.0402598527544,
      11.740366228247852, 21.899999999999999, 26, 0,
      673.25622439488961, 0, 158.58361107187991, 1569.7203617061607,
      0, 2972.6745824381078, 0}},
    {"plain_w0", 43, 0x85e7a5b37bedb273ULL, 0x461fcb17502d9d3aULL,
     {13.41058965497597, 68.910745061235048, 72.120754127520442, 76.805914938786415,
      0.076805914938786413, 807.22949592376335, 807.22949592376335, 0,
      0, 0, 0, 72.120754127520442,
      0, 0, 0}},
    {"plain_w10_cap02", 43, 0x270e4cedad4559abULL, 0x461fcb17502d9d3aULL,
     {21.565922900015334, 100.44490228844855, 167.08931941920105, 216.89148664784906,
      9.8239016644960167, 6.3111380913013964, 6.3111380913013964, 0,
      0, 0, 0, 167.08931941920105,
      0, 0, 0}},
    {"plain_noncollab", 43, 0x075a3860cb5259e9ULL, 0xfd0b15a076cb0bb1ULL,
     {27.419354838709669, 150.00000000000003, 150.00000000000034, 150.00000000000034,
      9.8239016644960167, 6.3111380913013964, 6.3111380913013964, 0,
      0, 0, 0, 150.00000000000034,
      0, 0, 0}},
    {"fault_corrupt", 43, 0x9bf593d741c9d553ULL, 0x0c8ffdff408b5634ULL,
     {381.92767697482952, 2626.4689409572889, 4814.1336949569586, 5135.9928415317308,
      18.585451769651108, 3.3359425839323507, 3.3359425839323507, 0,
      0, 0, 99.999999999999645, 3041.5142315759263,
      0, 4503.0360579954313, 0}},
    {"qos", 43, 0xac313c9b173f9c22ULL, 0x20c54748ce96ab24ULL,
     {2211.8564971857918, 12472.939424429122, 17051.754706965945, 17132.513489362991,
      20.714933654439147, 8.8000000000000007, 24.800000000000001, 324.96331930756423,
      851.83879525693214, 0, 0, 17051.754706965945,
      0, 0, 0}},
    {"chaos", 43, 0x5b8a622e47e4c791ULL, 0x6f7b8f85c5d5771cULL,
     {827.06019786359366, 1698.3672877867432, 4929.0228965302849, 5766.0147895501559,
      12.216761741055061, 15.5, 24.800000000000001, 288.22914367875472,
      619.20240917241779, 0, 369.42412180070858, 4593.6196942132528,
      0, 4548.8970309605211, 0}},
    {"gray", 43, 0xa6b5b5ac57b6e9e1ULL, 0x51ddf7d86d952df8ULL,
     {359.69218547424504, 2483.2023037796766, 5347.9614456169402, 5516.6167998372657,
      19.493713673161189, 3.1805124995429259, 3.1805124995429259, 0,
      0, 0, 0, 5347.9614456169402,
      0, 0, 390}},
    {"hedged", 43, 0xf823614cc9d06b37ULL, 0x6850193991a1d479ULL,
     {275.80739290732015, 1026.6627253480874, 4064.8685353780093, 5763.8491656044689,
      18.674125066869387, 3.3201020009230322, 3.3201020009230322, 0,
      0, 884.44752283464118, 0, 3120.6997341185638,
      2899.6200230264085, 0, 618.17218555763031}},
    {"health", 43, 0xa04514c5dca14231ULL, 0xa90dc174f940427eULL,
     {423.89123692478842, 2786.1355554157121, 6185.1226594253139, 8766.9852858161667,
      19.252122880155135, 3.220424074059328, 3.220424074059328, 0,
      0, 2799.7365514054877, 150.00000000000034, 1664.4382754003202,
      8597.6828185118484, 3907.0951543081214, 300}},
    {"hedged_fault", 43, 0x441fee2286e99b8dULL, 0xe14de94dd3a0381fULL,
     {419.15922170035827, 2626.4689409572889, 6434.9791757675648, 8544.9321600851454,
      22.522029033409069, 2.7528603176929352, 2.7528603176929352, 0,
      0, 8544.9321600851454, 99.999999999999645, 0,
      8544.9321600851454, 4466.0360579954313, 138.87150263263325}},
    {"coded_k1_fault", 43, 0x9bf593d741c9d553ULL, 0x0c8ffdff408b5634ULL,
     {381.92767697482952, 2626.4689409572889, 4814.1336949569586, 5135.9928415317308,
      18.585451769651108, 3.3359425839323507, 3.3359425839323507, 0,
      0, 0, 99.999999999999645, 3041.5142315759263,
      0, 4503.0360579954313, 0}},
    {"coded_32", 43, 0x8989f9c29f08e876ULL, 0x6731c3b2c5120df0ULL,
     {91.347762179957087, 206.35716702823149, 302.44444398463509, 304.09649178504947,
      9.856318542381743, 6.2903811127250693, 6.2903811127250693, 0,
      75.392934782692933, 0, 0, 302.44444398463509,
      0, 0, 0}},
    {"coded_32_fault", 43, 0x48bd3dc9f225a396ULL, 0x3ad81819bf71b8c7ULL,
     {1182.0792543694804, 5603.2618242048948, 7200.3880249166423, 7493.5249316391782,
      20.101008086323326, 3.0844224196986736, 3.0844224196986736, 0,
      2358.1122856811903, 0, 100.00000000000009, 2358.1122856811903,
      0, 7205.1935479776666, 0}},
    {"coded_qos", 43, 0x24900d8685d95124ULL, 0x6db758365f8a86a7ULL,
     {704.39287635018877, 3507.5648588273466, 5041.5802270457152, 5284.8383347442232,
      10.125179178899989, 20.5, 24.800000000000001, 0,
      0, 0, 100.00000000000009, 0,
      0, 5041.5802270457152, 0}},
};
// clang-format on

const Pin* find_pin(const std::string& config, std::uint64_t seed) {
  for (const Pin& pin : kPins) {
    if (config == pin.config && seed == pin.seed) return &pin;
  }
  return nullptr;
}

void print_pin(const char* config, std::uint64_t seed,
               const des::FlowSimResult& r) {
  std::printf(
      "    // retries %zu forced %zu shed %zu rejected %zu denied %zu opens %zu"
      " hedges %zu losses %zu\n",
      r.retry_count, r.forced_cloud_fetches, r.qos.shed, r.qos.rejected,
      r.qos.retries_denied, r.qos.breaker_opens, r.hedge_launches,
      r.loss_aborts);
  std::printf("    {\"%s\", %llu, 0x%016llxULL, 0x%016llxULL,\n     {", config,
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(full_digest(r)),
              static_cast<unsigned long long>(decision_digest(r)));
  const Aggregates a = aggregates_of(r);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : (i % 4 == 0 ? ",\n      " : ", "),
                a[i]);
  }
  std::printf("}},\n");
}

TEST(DesGolden, EveryModeReproducesItsPinnedDigests) {
  const bool print = std::getenv("IDDE_DES_GOLDEN_PRINT") != nullptr;
  const std::vector<Config> all = configs();
  for (const std::uint64_t seed : kSeeds) {
    const World world = make_world(seed);
    ASSERT_FALSE(world.faults.inert());
    ASSERT_FALSE(world.gray.inert());
    for (const Config& config : all) {
      util::Rng rng(seed);
      const des::FlowSimResult result = config.run(world, rng);
      if (print) {
        print_pin(config.name, seed, result);
        continue;
      }
      const Pin* pin = find_pin(config.name, seed);
      ASSERT_NE(pin, nullptr) << config.name << " seed " << seed;
      SCOPED_TRACE(std::string(config.name) + " seed " +
                   std::to_string(seed));
      EXPECT_EQ(decision_digest(result), pin->decision);
      if (config.exact) {
        EXPECT_EQ(full_digest(result), pin->full);
      }
      const Aggregates got = aggregates_of(result);
      for (std::size_t i = 0; i < kAggregates; ++i) {
        const double want = pin->aggregates[i];
        EXPECT_LE(std::fabs(got[i] - want), 1e-12 * std::fabs(want))
            << "aggregate " << i << ": " << got[i] << " vs " << want;
      }
    }
  }
}

// A request whose routed attempt was aborted and that then finished at the
// cloud or locally carries no hops from the dead route.
TEST(DesGolden, CloudAndLocalCompletionsReportZeroHops) {
  for (const std::uint64_t seed : kSeeds) {
    const World w = make_world(seed);
    des::FlowSimOptions o;
    o.arrival_window_s = 15.0;
    o.link_capacity_scale = kBusyLinks;
    o.fault_plan = &w.faults;
    const des::FlowLevelSimulator simulator(w.instance, o);
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    const des::FlowSimResult replicated = simulator.run(w.strategy, rng_a);
    const des::FlowSimResult coded =
        simulator.run_coded(coded_strategy(w, 0, 1), rng_b);
    std::size_t retried = 0;
    for (const des::FlowSimResult* r : {&replicated, &coded}) {
      for (const des::FlowRecord& f : r->flows) {
        if (f.retries > 0) ++retried;
        if (f.from_cloud || f.local_hit) {
          EXPECT_EQ(f.hops, 0u) << "seed " << seed << " user " << f.user
                                << " item " << f.item;
        }
      }
    }
    EXPECT_GT(retried, 0u) << "the fault plan aborted nothing";
  }
}

}  // namespace
