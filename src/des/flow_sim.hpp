// Flow-level event-driven replay of a delivery strategy.
//
// The paper's Eq. 8/9 latency is analytic: no two transfers contend. This
// module replays the same deliveries as fluid flows over the edge network
// — each non-local request a transfer from its chosen source to the
// user's serving server along the cheapest route, links shared max-min
// fairly — and so measures the contention error of the paper's model
// (bench/ext_contention). One event core (flow_sim.cpp, DESIGN.md §18)
// serves every mode; a fault plan, a QoS config, a gray plan and a hedge
// policy each switch on an optional stage. A null or inert option switches
// its stage off entirely: the replay is bit-identical to one without it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "coding/coded_profile.hpp"
#include "core/delivery.hpp"
#include "core/health.hpp"
#include "core/strategy.hpp"
#include "fault/degradation.hpp"
#include "fault/fault_plan.hpp"
#include "model/instance.hpp"
#include "qos/config.hpp"
#include "util/random.hpp"

namespace idde::des {

/// Hedged-delivery policy of the gray/hedge stage. A routed leg still
/// running at start + max(min_deadline_s, deadline_factor * expected_s *
/// (health_aware ? score(source) : 1)) launches one backup leg (another
/// replica, or the cloud); the first genuine completion wins and the
/// losers' transferred bytes are charged to hedge_wasted_mb.
struct HedgeConfig {
  bool enabled = false;  ///< launch speculative backup legs
  /// Hedge deadline as a multiple of the leg's expected (uncontended,
  /// health-blind) transfer time.
  double deadline_factor = 8.0;
  /// Deadline floor, so near-zero expected times cannot hedge instantly.
  double min_deadline_s = 0.01;
  /// Speculative backup legs per request.
  std::size_t max_hedges = 1;
  /// Route new legs through core::resolve_with_health (demote gray
  /// servers) and scale hedge deadlines by the source's health score.
  bool health_aware = false;
  /// Tracker parameters used when health_aware is set.
  core::HealthConfig health;

  /// True when the policy adds nothing over the plain replay.
  [[nodiscard]] bool inert() const noexcept {
    return !enabled && !health_aware;
  }
};

struct FlowSimOptions {
  /// Scale factor on every edge-link capacity (1.0 = the instance's
  /// 2000-6000 MB/s links; < 1 stresses contention).
  double link_capacity_scale = 1.0;
  /// Requests arrive over [0, window); 0 = everything at t = 0 (the
  /// worst-case burst). Cloud legs run uncontended at the instance's cloud
  /// speed (the bottleneck the paper assumes); local hits are instant.
  double arrival_window_s = 0.0;

  /// The optional stages below are not owned and must outlive the run.
  /// Fault schedule: epochs, aborts and retries, cloud brown-outs.
  const fault::FaultPlan* fault_plan = nullptr;
  /// First retry delay after an aborted flow; doubles per attempt.
  double retry_backoff_s = 0.05;
  /// Cap on the exponential backoff.
  double retry_backoff_max_s = 2.0;
  /// Aborted flows retry at most this many times, then go cloud-direct.
  std::size_t max_retries = 8;
  /// A request older than this is forced to the cloud on its next abort.
  double timeout_s = 120.0;

  /// Overload protection: arrivals, admission, retry budget, breakers.
  const qos::QosConfig* qos = nullptr;
  /// Gray-failure schedule: legs from a degraded server drain at rate /
  /// multiplier and may be lost. Composes with `fault_plan`, not yet with
  /// an active `qos` config or run_coded (enforced at construction).
  const fault::DegradationPlan* degradation = nullptr;
  /// Hedged-delivery / health-aware routing policy (see HedgeConfig).
  HedgeConfig hedge;
};

/// What finally happened to one offered arrival.
enum class FlowOutcome : std::uint8_t {
  kServed = 0,    ///< admitted and delivered (any tier)
  kShed = 1,      ///< dropped by deadline-aware shedding
  kRejected = 2,  ///< dropped by reject-newest on a full queue
};

struct FlowRecord {
  std::size_t user = 0;
  std::size_t item = 0;
  double arrival_s = 0.0;
  double completion_s = 0.0;
  /// Transfer duration (completion - arrival).
  [[nodiscard]] double duration_s() const { return completion_s - arrival_s; }
  bool from_cloud = false;
  bool local_hit = false;
  std::size_t hops = 0;
  // Fault-mode diagnostics (defaults describe the fault-free replay).
  std::size_t retries = 0;    ///< aborted attempts before success
  bool forced_cloud = false;  ///< hit the retry/timeout cap (or an empty
                              ///< retry budget / unmeetable retry deadline)
  core::FallbackTier tier = core::FallbackTier::kPrimary;
  // QoS-mode diagnostics (defaults describe the pre-QoS replay).
  FlowOutcome outcome = FlowOutcome::kServed;
  double queue_wait_s = 0.0;     ///< admission-queue wait before service
  bool deadline_missed = false;  ///< served, but after the SLO deadline
  // Gray/hedge-mode diagnostics (defaults describe the unhedged replay).
  bool hedged = false;        ///< at least one speculative leg was launched
  bool hedge_won = false;     ///< a speculative leg delivered the request
  std::size_t losses = 0;     ///< legs lost to gray integrity failures
};

/// SLO accounting of one run. For a run without an active QosConfig the
/// invariant collapses to offered == admitted == flows.size().
struct QosStats {
  std::size_t offered = 0;    ///< arrivals generated (open- or closed-loop)
  std::size_t admitted = 0;   ///< started service (== served: the schedule
                              ///< is finite, so every admitted request ends)
  std::size_t shed = 0;       ///< dropped by deadline-aware shedding
  std::size_t rejected = 0;   ///< dropped by reject-newest on a full queue
  std::size_t deadline_misses = 0;  ///< served but past the deadline
  std::size_t goodput_flows = 0;    ///< served within the deadline
  /// goodput_flows / arrival window — comparable across load multipliers.
  double goodput_rps = 0.0;
  double offered_rps = 0.0;
  std::size_t retries_denied = 0;  ///< retry-budget bucket was empty
  std::size_t breaker_opens = 0;   ///< breaker trips (closed/half-open -> open)
  double mean_queue_wait_ms = 0.0;
  /// Per-fallback-tier latency percentiles over served flows (0 when the
  /// tier served nothing).
  std::array<double, core::kFallbackTiers> tier_p50_ms{};
  std::array<double, core::kFallbackTiers> tier_p99_ms{};
};

struct FlowSimResult {
  std::vector<FlowRecord> flows;          ///< one per offered arrival
  double mean_duration_ms = 0.0;          ///< the DES analogue of L_avg
  double p95_duration_ms = 0.0;
  double p99_duration_ms = 0.0;           ///< degraded tail (faults live here)
  double max_duration_ms = 0.0;
  double makespan_s = 0.0;                ///< last completion
  std::size_t local_hits = 0;
  std::size_t cloud_fetches = 0;
  std::size_t rate_recomputations = 0;    ///< DES bookkeeping
  // Resilience aggregates (trivial — availability 1, zero counts — for a
  // fault-free replay).
  double availability = 1.0;  ///< flows served first-try at the primary tier
  std::size_t retry_count = 0;          ///< total aborted attempts
  std::size_t forced_cloud_fetches = 0;
  std::array<std::size_t, core::kFallbackTiers> tier_counts{};
  /// Overload/SLO accounting. Trivially consistent (offered == admitted,
  /// zero shed/rejected) for a run without an active QosConfig.
  QosStats qos;
  // Gray/hedge accounting (all zero outside the hedged engine).
  std::size_t hedge_launches = 0;   ///< speculative legs launched
  std::size_t hedge_wins = 0;       ///< requests delivered by a hedge leg
  std::size_t hedge_cancelled = 0;  ///< legs cancelled after losing a race
  std::size_t loss_aborts = 0;      ///< legs lost to gray integrity failures
  /// Exact bytes transferred by legs that did not deliver their request:
  /// race losers' partial transfers plus lost legs' full sizes.
  double hedge_wasted_mb = 0.0;
};

class FlowLevelSimulator {
 public:
  explicit FlowLevelSimulator(const model::ProblemInstance& instance,
                              FlowSimOptions options = {});

  /// Replays the strategy's deliveries. `rng` only drives arrival jitter
  /// (unused when arrival_window_s == 0).
  [[nodiscard]] FlowSimResult run(const core::Strategy& strategy,
                                  util::Rng& rng) const;

  /// Replays a coded strategy: e fragment legs plus one uncontended cloud
  /// top-up for the other k - e fragments; the request completes when the
  /// last leg lands, and an epoch that kills any leg aborts the attempt.
  /// Admission slots (service_slots must be 0) and the gray/hedge stage
  /// are not modelled. At k = 1 without QoS the result is bit-identical to
  /// run() on the equivalent replication strategy.
  [[nodiscard]] FlowSimResult run_coded(const coding::CodedStrategy& strategy,
                                        util::Rng& rng) const;

 private:
  const model::ProblemInstance* instance_;
  FlowSimOptions options_;
  struct Link {  // one undirected edge
    std::size_t a;
    std::size_t b;
    double capacity_mbps;
  };
  std::vector<Link> links_;
  /// link index by (min(a,b), max(a,b)); kNoLink when absent.
  [[nodiscard]] std::size_t link_between(std::size_t a, std::size_t b) const;
  static constexpr std::size_t kNoLink = static_cast<std::size_t>(-1);

  /// The event core shared by run() and run_coded() (flow_sim.cpp).
  class Replay;
  /// `deadline_s` > 0 enables goodput/deadline accounting; `window_s` is
  /// the offered-load period the rates are normalised by (0 = makespan).
  static void finalize(FlowSimResult& result, double deadline_s = 0.0,
                       double window_s = 0.0);
};

}  // namespace idde::des
