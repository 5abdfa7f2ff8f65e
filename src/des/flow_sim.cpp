// The DES event core (DESIGN.md §18).
//
// One loop serves every replay mode. Events sit in one (time, rank,
// record) order: fresh arrivals, retries and, under the admission stage,
// timed local-service completions and aborts. Between events the routed
// legs drain as fluid flows water-filled over the link table; the loop
// stops at the next event, leg completion, hedge deadline, gray/hedge
// cloud completion or fault-epoch boundary, whichever comes first.
//
// An attempt resolves its legs against the epoch it starts in: one replica
// from the Eq. 8 resolver, or e fragment hosts plus a cloud top-up from
// coding::CodedResolver. Local reads and the cloud take no link capacity.
// Where the modes differ, the options decide:
//
//   admission   replication under an active QoS config: slots and queues,
//               fresh arrivals before retries at equal times, retry caps
//               checked when an attempt aborts, corrupt replicas caught by
//               checksum on completion. Elsewhere corrupt replicas are
//               hidden from the resolver and the caps are checked when the
//               next attempt starts.
//   gray/hedge  legs race and the first genuine completion wins; cloud
//               legs are timed events only here, where they can lose.
//
// Rates are recomputed only when the set of routed legs changes. The
// engine is single-threaded and every tie breaks on ids, so results are
// bit-identical across runs and host thread counts.
#include "des/flow_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <span>

#include "coding/coded_resolver.hpp"
#include "des/fluid.hpp"
#include "fault/injector.hpp"
#include "net/shortest_path.hpp"
#include "obs/obs.hpp"
#include "qos/admission.hpp"
#include "qos/arrivals.hpp"
#include "qos/breaker.hpp"
#include "qos/retry_budget.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace idde::des {

using detail::Leg;

FlowLevelSimulator::FlowLevelSimulator(const model::ProblemInstance& instance,
                                       FlowSimOptions options)
    : instance_(&instance), options_(options) {
  IDDE_EXPECTS(options.link_capacity_scale > 0.0);
  IDDE_EXPECTS(options.arrival_window_s >= 0.0);
  // The gray/hedge stage does not compose with an active QoS config yet:
  // reject the combination so neither can silently ignore the other.
  const bool gray_active =
      (options.degradation != nullptr && !options.degradation->inert()) ||
      !options.hedge.inert();
  IDDE_EXPECTS(!gray_active || options.qos == nullptr ||
               options.qos->inert());
  // Deduplicated undirected link table; parallel edges keep the fastest.
  std::map<std::pair<std::size_t, std::size_t>, double> best;
  const net::Graph& graph = instance.graph();
  for (std::size_t a = 0; a < graph.node_count(); ++a) {
    for (const net::Neighbor& nb : graph.neighbors(a)) {
      if (a >= nb.node) continue;
      const double capacity = options.link_capacity_scale / nb.weight;  // MB/s
      auto [it, inserted] = best.try_emplace({a, nb.node}, capacity);
      if (!inserted) it->second = std::max(it->second, capacity);
    }
  }
  for (const auto& [key, capacity] : best) {
    links_.push_back(Link{key.first, key.second, capacity});
  }
}

std::size_t FlowLevelSimulator::link_between(std::size_t a,
                                             std::size_t b) const {
  const auto key = std::pair{std::min(a, b), std::max(a, b)};
  for (std::size_t l = 0; l < links_.size(); ++l) {
    if (links_[l].a == key.first && links_[l].b == key.second) return l;
  }
  return kNoLink;
}

namespace {

enum class EventKind : std::uint8_t {
  kLocalDone = 0,   ///< timed local service completed (admission)
  kLocalAbort = 1,  ///< local service failed: server died or corrupt read
  kFresh = 2,
  kRetry = 3,
  kDeadline = 4,  ///< hedge timer; `record` holds the leg id
};

struct Event {
  double time = 0.0;
  std::uint8_t rank = 0;  ///< tie-break at equal times
  EventKind kind = EventKind::kFresh;
  std::size_t record = 0;
};

struct EventLater {
  bool operator()(const Event& x, const Event& y) const {
    if (x.time != y.time) return x.time > y.time;
    if (x.rank != y.rank) return x.rank > y.rank;
    return x.record > y.record;
  }
};

using EventQueue = std::priority_queue<Event, std::vector<Event>, EventLater>;

/// A gray/hedge-stage cloud leg: uncontended and reliable, but it can lose
/// the race to an edge leg.
struct CloudLeg {
  std::size_t record = 0;
  std::size_t id = 0;
  double start_s = 0.0;
  double completion_s = 0.0;
  bool is_hedge = false;
  bool alive = true;
  core::FallbackTier tier = core::FallbackTier::kCloud;
};

/// What one attempt fetches: edge sources (the serving server itself is a
/// local read) and an optional cloud part.
struct Attempt {
  core::FallbackTier tier = core::FallbackTier::kPrimary;
  std::span<const std::size_t> sources;
  bool cloud = false;
  double cloud_s = 0.0;     ///< cloud transfer seconds when `cloud`
  double expected_s = 0.0;  ///< replica leg seconds (0 for coded legs)
  double leg_mb = 0.0;
};

}  // namespace

class FlowLevelSimulator::Replay {
 public:
  Replay(const FlowLevelSimulator& sim,
         const core::AllocationProfile& allocation, bool collaborative,
         const core::DeliveryProfile* replicas,
         const coding::CodedDeliveryProfile* coded, util::Rng& rng)
      : sim_(sim), inst_(*sim.instance_), opt_(sim.options_),
        allocation_(allocation), collaborative_(collaborative),
        replicas_(replicas), coded_(coded) {
    IDDE_EXPECTS(allocation.size() == inst_.user_count());
    if (opt_.fault_plan != nullptr && !opt_.fault_plan->inert()) {
      plan_ = opt_.fault_plan;
      injector_.emplace(inst_, *plan_);
      corruption_ = plan_->replica_corruption_prob() > 0.0;
    }
    if (opt_.qos != nullptr && !opt_.qos->inert()) qos_ = opt_.qos;
    if (opt_.degradation != nullptr && !opt_.degradation->inert()) {
      gray_ = opt_.degradation;
    }
    hedge_ = gray_ != nullptr || !opt_.hedge.inert();
    admission_ = qos_ != nullptr && coded_ == nullptr;
    if (coded_ != nullptr) {
      IDDE_EXPECTS(!hedge_);
      IDDE_EXPECTS(qos_ == nullptr || qos_->admission.service_slots == 0);
      resolver_.emplace(inst_);
    }
    if (hedge_) {
      IDDE_EXPECTS(opt_.hedge.deadline_factor > 0.0);
      IDDE_EXPECTS(opt_.hedge.min_deadline_s >= 0.0);
      health_.emplace(inst_.server_count(), opt_.hedge.health);
    }
    make_records(rng);
    const std::size_t records = result_.flows.size();
    legs_alive_.assign(records, 0);
    cloud_done_.assign(records, 0.0);
    if (hedge_) launched_.assign(records, 0);
    if (hedge_) hedges_.assign(records, 0);
    if (qos_ != nullptr) setup_qos();
    // Fresh arrivals in (time, record) order; the heap holds the rest.
    for (std::size_t r = 0; r < records; ++r) arrivals_.push_back(r);
    const auto earlier = [&](std::size_t x, std::size_t y) {
      return result_.flows[x].arrival_s < result_.flows[y].arrival_s;
    };
    if (!std::is_sorted(arrivals_.begin(), arrivals_.end(), earlier)) {
      std::stable_sort(arrivals_.begin(), arrivals_.end(), earlier);
    }
    for (const Link& link : sim_.links_) {
      capacities_.push_back(link.capacity_mbps);
    }
  }

  FlowSimResult run() {
    double now = 0.0;
    while (!legs_.empty() || cloud_alive_ > 0 || pending()) {
      if (legs_.empty() && cloud_alive_ == 0) {
        now = std::max(now, next_event_time());
      }
      while (pending() && next_event_time() <= now) dispatch(pop_event(), now);
      if (legs_.empty() && cloud_alive_ == 0) continue;  // re-anchor `now`

      if (rates_dirty_) {
        detail::assign_max_min_rates(legs_, capacities_);
        ++result_.rate_recomputations;
        rates_dirty_ = false;
      }
      double dt = next_event_time() - now;
      for (const Leg& leg : legs_) {
        IDDE_ASSERT(leg.rate_mbps > 0.0, "starved leg");
        dt = std::min(dt, leg.remaining_mb / (leg.rate_mbps * leg.rate_scale));
      }
      for (const CloudLeg& leg : cloud_legs_) {
        if (leg.alive) dt = std::min(dt, leg.completion_s - now);
      }
      if (!deadlines_.empty()) dt = std::min(dt, deadlines_.top().time - now);
      // Stop at the next edge-availability change so in-flight legs can be
      // validated against the new epoch.
      bool epoch = false;
      if (plan_ != nullptr) {
        const double next_epoch = plan_->next_edge_change_after(now);
        epoch = next_epoch - now <= dt;
        if (epoch) dt = next_epoch - now;
      }
      dt = std::max(dt, 0.0);
      for (Leg& leg : legs_) {
        leg.remaining_mb -= leg.rate_mbps * leg.rate_scale * dt;
      }
      now += dt;

      retire_legs(now);
      if (hedge_) retire_cloud_legs(now);
      if (hedge_) fire_deadlines(now);
      if (epoch) abort_dead_legs(now);
    }
    return finish();
  }

 private:
  // --- set-up and helpers ---------------------------------------------------

  void make_records(util::Rng& rng) {
    if (qos_ != nullptr && !qos_->arrivals.inert()) {
      for (const qos::Arrival& a :
           qos::generate_arrivals(inst_, qos_->arrivals, rng)) {
        result_.flows.push_back(
            FlowRecord{.user = a.user, .item = a.item, .arrival_s = a.time_s});
      }
      return;
    }
    // Replay: every (user, item) request once, user-major, jittered over
    // the arrival window.
    result_.flows.reserve(inst_.requests().total_requests());
    for (std::size_t j = 0; j < inst_.user_count(); ++j) {
      for (const std::size_t k : inst_.requests().items_of(j)) {
        const double arrival = opt_.arrival_window_s > 0.0
                                   ? rng.uniform(0.0, opt_.arrival_window_s)
                                   : 0.0;
        result_.flows.push_back(
            FlowRecord{.user = j, .item = k, .arrival_s = arrival});
      }
    }
  }

  void setup_qos() {
    const qos::AdmissionConfig& admission = qos_->admission;
    const std::size_t servers = inst_.server_count();
    const std::size_t records = result_.flows.size();
    budget_.emplace(qos_->retry_budget);
    if (!qos_->breaker.inert()) {
      breakers_.assign(servers, qos::CircuitBreaker(qos_->breaker));
      sources_.resize(records);
    }
    if (admission_) {
      slots_ = admission.service_slots;
      in_service_.assign(servers, 0);
      queues_.assign(servers, qos::AdmissionQueue(admission));
      holds_slot_.assign(records, 0);
    }
    deadline_aware_ =
        admission.policy == qos::SheddingPolicy::kDeadlineAware &&
        admission.deadline_s > 0.0;
    if (!deadline_aware_) return;
    // Optimistic service estimate: the fault-free Eq. 8 seconds (plus the
    // local service time when admission makes local hits non-free), a
    // lower bound on any real completion — shedding drops only requests
    // that provably cannot make their deadline.
    estimate_s_.resize(records);
    for (std::size_t r = 0; r < records; ++r) {
      const std::size_t item = result_.flows[r].item;
      const std::size_t serving = serving_of(r);
      const double size = inst_.data(item).size_mb;
      const std::span<const std::size_t> hosts = eligible_hosts(r, serving);
      double best = inst_.latency().cloud_transfer_seconds(size);
      if (coded_ != nullptr) {
        best = resolver_->resolve(hosts, serving, size,
                                  coded_->item_fragment_mb(item),
                                  coded_->config().k).seconds;
      } else if (serving != core::ChannelSlot::kNone) {
        for (const std::size_t host : hosts) {
          best = std::min(
              best, inst_.latency().edge_transfer_seconds(host, serving, size));
        }
      }
      if (best <= 0.0 && slots_ > 0) {
        best = size * admission.local_service_s_per_mb;
      }
      estimate_s_[r] = best;
    }
  }

  [[nodiscard]] std::size_t serving_of(std::size_t r) const {
    const core::ChannelSlot slot = allocation_[result_.flows[r].user];
    return slot.allocated() ? slot.server : core::ChannelSlot::kNone;
  }

  /// The hosts the delivery semantics let serve record `r`.
  std::span<const std::size_t> eligible_hosts(std::size_t r,
                                              std::size_t serving) {
    const std::size_t item = result_.flows[r].item;
    const std::span<const std::size_t> hosts =
        coded_ != nullptr ? coded_->hosts(item) : replicas_->hosts(item);
    if (collaborative_) return hosts;
    eligible_.clear();
    for (const std::size_t host : hosts) {
      if (host == serving) eligible_.push_back(host);
    }
    return eligible_;
  }

  /// Only the admission stage ranks kinds at equal times (fresh before
  /// retry); elsewhere equal times break on the record alone.
  [[nodiscard]] Event make_event(double time, EventKind kind,
                                std::size_t r) const {
    return Event{time,
                 admission_ ? static_cast<std::uint8_t>(kind) : std::uint8_t{0},
                 kind, r};
  }

  void push(double time, EventKind kind, std::size_t r) {
    events_.push(make_event(time, kind, r));
  }

  [[nodiscard]] bool pending() const {
    return next_arrival_ < arrivals_.size() || !events_.empty();
  }

  [[nodiscard]] double next_event_time() const {
    double t = std::numeric_limits<double>::infinity();
    if (next_arrival_ < arrivals_.size()) {
      t = result_.flows[arrivals_[next_arrival_]].arrival_s;
    }
    return events_.empty() ? t : std::min(t, events_.top().time);
  }

  /// Merges the arrival sequence into the heap's order.
  Event pop_event() {
    if (next_arrival_ < arrivals_.size()) {
      const std::size_t r = arrivals_[next_arrival_];
      const Event fresh =
          make_event(result_.flows[r].arrival_s, EventKind::kFresh, r);
      if (events_.empty() || EventLater{}(events_.top(), fresh)) {
        ++next_arrival_;
        return fresh;
      }
    }
    const Event top = events_.top();
    events_.pop();
    return top;
  }

  [[nodiscard]] double cloud_done(double start, double seconds) const {
    return plan_ != nullptr ? plan_->cloud_completion(start, seconds)
                            : start + seconds;
  }

  [[nodiscard]] bool capped(std::size_t r, double now) const {
    const FlowRecord& record = result_.flows[r];
    return record.retries > opt_.max_retries ||
           now - record.arrival_s > opt_.timeout_s;
  }

  /// Checksum-on-read (admission stage): did `source` hand over corrupt
  /// bytes for record `r`?
  [[nodiscard]] bool corrupt_read(std::size_t source, std::size_t r) const {
    return admission_ && corruption_ &&
           plan_->replica_corrupted(source, result_.flows[r].item);
  }

  [[nodiscard]] bool leg_dead(const Leg& leg, double now) const {
    for (const std::size_t l : leg.links) {
      const Link& link = sim_.links_[l];
      if (!plan_->server_up(link.a, now) || !plan_->server_up(link.b, now) ||
          !plan_->link_up(link.a, link.b, now)) {
        return true;
      }
    }
    return false;
  }

  /// Swap-removes routed leg `f` and returns it.
  Leg take_leg(std::size_t f) {
    Leg leg = std::move(legs_[f]);
    if (f + 1 != legs_.size()) legs_[f] = std::move(legs_.back());
    legs_.pop_back();
    rates_dirty_ = true;
    return leg;
  }

  // --- the admission stage --------------------------------------------------

  void dispatch(const Event& event, double now) {
    const std::size_t r = event.record;
    switch (event.kind) {
      case EventKind::kFresh:
      case EventKind::kRetry:
        admit(r, now, event.kind == EventKind::kFresh);
        break;
      case EventKind::kLocalDone:
        // completion_s was fixed when the service started; a corrupt
        // replica spent the service time shipping garbage.
        if (corrupt_read(serving_of(r), r)) {
          abort(r, now);
        } else {
          credit(r, now, 0.0, 0.0);
          release_slot(r, now);
        }
        break;
      case EventKind::kLocalAbort:
        abort(r, now);
        break;
      case EventKind::kDeadline:  // hedge timers live in deadlines_
        break;
    }
  }

  /// Sheds a fresh request, or sends an admitted retry to the cloud, once
  /// its deadline is provably out of reach.
  bool give_up(std::size_t r, double now, bool fresh) {
    if (!deadline_aware_ ||
        now + estimate_s_[r] <=
            result_.flows[r].arrival_s + qos_->admission.deadline_s) {
      return false;
    }
    if (fresh) {
      drop(r, now, FlowOutcome::kShed);
    } else {
      force_cloud(r, now);
    }
    return true;
  }

  /// QoS gate in front of the core: budget deposit, shedding, slots.
  void admit(std::size_t r, double now, bool fresh) {
    if (qos_ != nullptr) {
      if (fresh) budget_->on_fresh_arrival();
      if (give_up(r, now, fresh)) return;
      const std::size_t serving = serving_of(r);
      if (slots_ > 0 && serving != core::ChannelSlot::kNone &&
          in_service_[serving] >= slots_) {
        // Retries bypass the capacity check: their population is bounded
        // by the retry budget / max_retries, and dropping an admitted
        // request would leak the accounting invariant.
        if (fresh && queues_[serving].full()) {
          drop(r, now, FlowOutcome::kRejected);
        } else {
          queues_[serving].push(qos::QueueEntry{r, now, !fresh});
        }
        return;
      }
    }
    start(r, now);
  }

  void drop(std::size_t r, double now, FlowOutcome outcome) {
    result_.flows[r].outcome = outcome;
    result_.flows[r].completion_s = now;
  }

  /// Frees the record's service slot and admits waiting requests into it.
  void release_slot(std::size_t r, double now) {
    if (!admission_ || holds_slot_[r] == 0) return;
    holds_slot_[r] = 0;
    const std::size_t server = serving_of(r);
    IDDE_ASSERT(in_service_[server] > 0, "slot release underflow");
    --in_service_[server];
    qos::AdmissionQueue& queue = queues_[server];
    while (in_service_[server] < slots_ && !queue.empty()) {
      const qos::QueueEntry entry = queue.pop_front();
      if (give_up(entry.record, now, !entry.retry)) continue;
      result_.flows[entry.record].queue_wait_s += now - entry.enqueue_s;
      start(entry.record, now);
    }
  }

  // --- attempts -------------------------------------------------------------

  void start(std::size_t r, double now) {
    FlowRecord& record = result_.flows[r];
    record.from_cloud = false;
    record.local_hit = false;
    record.hops = 0;
    if (!admission_ && capped(r, now)) {
      force_cloud(r, now);
    } else {
      launch(r, now, /*hedge=*/false);
    }
  }

  /// Gives up on the edge: one final, unabortable cloud transfer.
  void force_cloud(std::size_t r, double now) {
    FlowRecord& record = result_.flows[r];
    record.forced_cloud = true;
    record.from_cloud = true;
    record.local_hit = false;
    record.hops = 0;
    record.tier = core::FallbackTier::kCloud;
    const double seconds = inst_.latency().cloud_transfer_seconds(
        inst_.data(record.item).size_mb);
    if (hedge_) {
      add_cloud_leg(r, now, seconds, core::FallbackTier::kCloud, false);
    } else {
      record.completion_s = cloud_done(now, seconds);
    }
  }

  /// Resolves and launches one attempt (or, with `hedge`, one speculative
  /// backup leg whose sources must avoid exclude_).
  void launch(std::size_t r, double now, bool hedge) {
    FlowRecord& record = result_.flows[r];
    const std::size_t serving = serving_of(r);
    const double size = inst_.data(record.item).size_mb;

    // Liveness view: the epoch's survivors, minus breaker-open servers.
    std::span<const std::uint8_t> up;
    const net::CostMatrix* costs = nullptr;
    const net::Graph* graph = &inst_.graph();
    if (injector_) {
      const fault::AvailabilitySnapshot& snap = injector_->snapshot_at(now);
      up = snap.server_up;
      costs = &snap.costs;
      graph = &snap.graph;
    }
    if (!breakers_.empty()) {
      up_buf_.assign(inst_.server_count(), 1);
      if (!up.empty()) up_buf_.assign(up.begin(), up.end());
      for (std::size_t i = 0; i < up_buf_.size(); ++i) {
        if (!breakers_[i].allows(now)) up_buf_[i] = 0;
      }
      up = up_buf_;
    }

    // Hidden corrupt replicas and sources already racing are filtered out;
    // the tiers still classify against the unfiltered hosts.
    const std::span<const std::size_t> eligible = eligible_hosts(r, serving);
    std::span<const std::size_t> usable = eligible;
    if (hedge || (!admission_ && corruption_)) {
      usable_.clear();
      for (const std::size_t host : eligible) {
        const bool hidden = !admission_ && corruption_ &&
                            plan_->replica_corrupted(host, record.item);
        if (!hidden && std::find(exclude_.begin(), exclude_.end(), host) ==
                           exclude_.end()) {
          usable_.push_back(host);
        }
      }
      usable = usable_;
    }
    const std::span<const std::size_t> reference =
        usable.size() == eligible.size() ? std::span<const std::size_t>{}
                                         : eligible;

    Attempt a;
    core::FailoverDecision replica;
    if (coded_ != nullptr) {
      const std::size_t k = coded_->config().k;
      a.leg_mb = coded_->item_fragment_mb(record.item);
      const coding::CodedDecision d = resolver_->resolve(
          usable, serving, size, a.leg_mb, k, up, costs, reference);
      a.tier = d.tier;
      a.sources = resolver_->selected_hosts();
      a.cloud = d.cloud_fragments > 0;
      if (a.cloud) {
        a.cloud_s = resolver_->cloud_topup_seconds(d.cloud_fragments, k, size,
                                                   a.leg_mb);
      }
    } else {
      const core::HealthTracker* health =
          hedge_ && opt_.hedge.health_aware ? &*health_ : nullptr;
      replica = core::resolve_with_health(inst_, usable, serving, size,
                                          health, up, costs, reference);
      a.tier = replica.tier;
      a.leg_mb = size;
      a.cloud = replica.source == core::kCloudSource;
      a.cloud_s = replica.seconds;
      if (!a.cloud) a.sources = {&replica.source, 1};
      if (!a.cloud) a.expected_s = replica.seconds;
    }
    if (!hedge) record.tier = a.tier;
    if (!hedge) record.from_cloud = a.cloud;
    if (a.cloud && hedge_) {
      add_cloud_leg(r, now, a.cloud_s, a.tier, hedge);
      return;
    }
    cloud_done_[r] = a.cloud ? cloud_done(now, a.cloud_s) : now;
    if (!breakers_.empty()) {
      sources_[r].assign(a.sources.begin(), a.sources.end());
      for (const std::size_t host : a.sources) {
        breakers_[host].on_attempt_started(now);
      }
    }
    bool routed = false;
    for (const std::size_t host : a.sources) {
      if (host == serving) continue;  // local read: no network leg
      add_leg(r, now, host, serving, *graph, a, hedge);
      routed = true;
    }
    if (routed) return;

    // No routed leg: a local read and/or the cloud top-up.
    if (!hedge) record.local_hit = !a.cloud;
    if (hedge_) {
      (void)win(r, now, next_leg_id_++, a.tier, hedge, false, 0);
      return;
    }
    const double service_s =
        slots_ > 0 && !a.cloud ? size * qos_->admission.local_service_s_per_mb
                               : 0.0;
    if (service_s > 0.0) {
      start_local_service(r, now, serving, service_s);
    } else if (!a.cloud && corrupt_read(serving, r)) {
      // Instant local read of a corrupt replica: fail it through the
      // same-time event queue (kLocalAbort sorts before fresh work).
      push(now, EventKind::kLocalAbort, r);
    } else {
      settle(r, now, 0.0, 0.0);
    }
  }

  /// Timed local service under admission slots. A crash of the serving
  /// server aborts it at the first epoch boundary where it is down.
  void start_local_service(std::size_t r, double now, std::size_t serving,
                           double service_s) {
    const double done = now + service_s;
    double abort_at = -1.0;
    for (double t = plan_ != nullptr ? plan_->next_edge_change_after(now) : done;
         t < done; t = plan_->next_edge_change_after(t)) {
      if (!plan_->server_up(serving, t)) {
        abort_at = t;
        break;
      }
    }
    ++in_service_[serving];
    holds_slot_[r] = 1;
    if (abort_at >= 0.0) {
      push(abort_at, EventKind::kLocalAbort, r);
    } else {
      result_.flows[r].completion_s = done;
      push(done, EventKind::kLocalDone, r);
    }
  }

  void add_leg(std::size_t r, double now, std::size_t source,
               std::size_t serving, const net::Graph& graph, const Attempt& a,
               bool hedge) {
    const net::Route route = net::shortest_route(graph, source, serving);
    IDDE_ASSERT(!route.nodes.empty(), "resolver picked an unreachable source");
    FlowRecord& record = result_.flows[r];
    if (!hedge) record.hops = std::max(record.hops, route.hops());
    Leg leg{.record = r, .remaining_mb = a.leg_mb, .id = next_leg_id_++,
            .source = source, .start_s = now, .expected_s = a.expected_s,
            .size_mb = a.leg_mb, .is_hedge = hedge, .tier = a.tier};
    for (std::size_t s = 0; s + 1 < route.nodes.size(); ++s) {
      const std::size_t l =
          sim_.link_between(route.nodes[s], route.nodes[s + 1]);
      IDDE_ASSERT(l != kNoLink, "route uses a missing link");
      leg.links.push_back(l);
    }
    if (hedge_) {
      // Gray slowness is sampled at launch; the leg still holds its full
      // max-min share of every link (a slow server does not free the
      // network). The loss lottery is drawn now, detected at transfer end.
      if (gray_ != nullptr) {
        leg.rate_scale = 1.0 / gray_->latency_multiplier(source, now);
        leg.lost = gray_->leg_lost(source, r, launched_[r], now);
      }
      ++launched_[r];
      const HedgeConfig& h = opt_.hedge;
      if (h.enabled && hedges_[r] < h.max_hedges && leg.expected_s > 0.0) {
        double factor = h.deadline_factor;
        if (h.health_aware) factor *= health_->score(source);
        deadlines_.push(
            Event{now + std::max(h.min_deadline_s, factor * leg.expected_s), 0,
                  EventKind::kDeadline, leg.id});
      }
    }
    if (slots_ > 0 && serving != core::ChannelSlot::kNone) {
      ++in_service_[serving];
      holds_slot_[r] = 1;
    }
    ++legs_alive_[r];
    legs_.push_back(std::move(leg));
    rates_dirty_ = true;
  }

  void add_cloud_leg(std::size_t r, double now, double seconds,
                     core::FallbackTier tier, bool hedge) {
    cloud_legs_.push_back(CloudLeg{.record = r, .id = next_leg_id_++,
                                   .start_s = now,
                                   .completion_s = cloud_done(now, seconds),
                                   .is_hedge = hedge, .tier = tier});
    ++cloud_alive_;
    ++legs_alive_[r];
  }

  // --- outcomes -------------------------------------------------------------

  /// Feeds the attempt's sources to their breakers: with slow_ratio set, a
  /// completion inflated past slow_ratio x expected counts as a failure;
  /// expected 0 is a plain success.
  void credit(std::size_t r, double now, double observed, double expected) {
    if (breakers_.empty()) return;
    for (const std::size_t host : sources_[r]) {
      breakers_[host].record_completion(now, observed, expected);
    }
  }

  /// The attempt delivered: the cloud top-up may still be the tail.
  void settle(std::size_t r, double now, double observed, double expected) {
    result_.flows[r].completion_s = std::max(now, cloud_done_[r]);
    credit(r, now, observed, expected);
    release_slot(r, now);
  }

  /// Gray/hedge stage: the first genuine completion wins the record and
  /// cancels its racing siblings. True when routed legs were cancelled.
  bool win(std::size_t r, double now, std::size_t leg_id,
           core::FallbackTier tier, bool is_hedge, bool from_cloud,
           std::size_t hops) {
    FlowRecord& record = result_.flows[r];
    record.completion_s = now;
    if (is_hedge) {
      record.tier = tier;
      record.from_cloud = from_cloud;
      record.local_hit = !from_cloud && hops == 0;
      record.hops = hops;
      record.hedge_won = true;
      ++result_.hedge_wins;
    }
    bool moved = false;
    for (std::size_t f = 0; f < legs_.size();) {
      if (legs_[f].record != r || legs_[f].id == leg_id) {
        ++f;
        continue;
      }
      const Leg loser = take_leg(f);
      ++result_.hedge_cancelled;
      result_.hedge_wasted_mb += loser.size_mb - loser.remaining_mb;
      --legs_alive_[r];
      moved = true;
    }
    for (CloudLeg& leg : cloud_legs_) {
      if (!leg.alive || leg.record != r || leg.id == leg_id) continue;
      ++result_.hedge_cancelled;
      // Cloud legs are uncontended: bytes transfer pro rata over the leg.
      const double duration = leg.completion_s - leg.start_s;
      if (duration > 0.0) {
        result_.hedge_wasted_mb +=
            inst_.data(record.item).size_mb *
            std::clamp((now - leg.start_s) / duration, 0.0, 1.0);
      }
      leg.alive = false;
      --cloud_alive_;
      --legs_alive_[r];
    }
    return moved;
  }

  /// One failed attempt: count the retry, feed the breakers, then retry
  /// after backoff or — past the caps or with an empty budget — go
  /// cloud-direct.
  void abort(std::size_t r, double now) {
    FlowRecord& record = result_.flows[r];
    ++record.retries;
    if (qos_ != nullptr) IDDE_OBS_COUNT("qos.attempt_aborts_total", 1);
    if (!breakers_.empty()) {
      for (const std::size_t host : sources_[r]) {
        breakers_[host].record_failure(now);
      }
    }
    if ((admission_ && capped(r, now)) ||
        (budget_ && !budget_->try_spend_retry())) {
      force_cloud(r, now);
    } else {
      const double backoff = std::min(
          opt_.retry_backoff_s *
              std::ldexp(1.0, static_cast<int>(record.retries) - 1),
          opt_.retry_backoff_max_s);
      push(now + backoff, EventKind::kRetry, r);
    }
    release_slot(r, now);
  }

  // --- fluid-phase events ---------------------------------------------------

  /// Completions may start queued work (appended with full remaining_mb)
  /// or cancel siblings; the index loop keeps appended legs.
  void retire_legs(double now) {
    for (std::size_t f = 0; f < legs_.size();) {
      if (legs_[f].remaining_mb > 1e-9) {
        ++f;
        continue;
      }
      const Leg leg = take_leg(f);
      const std::size_t r = leg.record;
      --legs_alive_[r];
      if (leg.lost) {
        // Full transfer, failed integrity check: bytes burned.
        IDDE_OBS_COUNT("des.gray_losses_total", 1);
        ++result_.loss_aborts;
        ++result_.flows[r].losses;
        result_.hedge_wasted_mb += leg.size_mb;
        health_->record_loss(leg.source);
        if (legs_alive_[r] == 0) abort(r, now);
      } else if (corrupt_read(leg.source, r)) {
        abort(r, now);
      } else if (hedge_) {
        if (leg.expected_s > 0.0) {
          health_->record_leg(leg.source, leg.expected_s, now - leg.start_s);
        }
        // Cancelled siblings may have moved unvisited legs behind f.
        if (win(r, now, leg.id, leg.tier, leg.is_hedge, false,
                leg.links.size())) {
          f = 0;
        }
      } else if (legs_alive_[r] == 0) {
        settle(r, now, now - leg.start_s, leg.expected_s);
      }
    }
  }

  void retire_cloud_legs(double now) {
    bool retired = false;
    for (CloudLeg& leg : cloud_legs_) {
      if (!leg.alive || leg.completion_s > now) continue;
      leg.alive = false;
      --cloud_alive_;
      --legs_alive_[leg.record];
      retired = true;
      (void)win(leg.record, now, leg.id, leg.tier, leg.is_hedge, true, 0);
    }
    if (retired && cloud_alive_ == 0) cloud_legs_.clear();
  }

  /// A routed leg still running at its hedge deadline launches one backup
  /// leg from a source not already in flight (or the cloud).
  void fire_deadlines(double now) {
    while (!deadlines_.empty() && deadlines_.top().time <= now) {
      const std::size_t id = deadlines_.top().record;
      deadlines_.pop();
      const auto it = std::find_if(legs_.begin(), legs_.end(),
                                   [&](const Leg& leg) { return leg.id == id; });
      if (it == legs_.end()) continue;  // leg already resolved: stale
      const std::size_t r = it->record;
      if (hedges_[r] >= opt_.hedge.max_hedges) continue;
      ++hedges_[r];
      ++result_.hedge_launches;
      result_.flows[r].hedged = true;
      IDDE_OBS_COUNT("des.hedge_launches_total", 1);
      for (const Leg& leg : legs_) {
        if (leg.record == r) exclude_.push_back(leg.source);
      }
      launch(r, now, /*hedge=*/true);
      exclude_.clear();
    }
  }

  /// Epoch boundary: abort legs whose path died. A dead fragment leg
  /// invalidates its whole fragment set, so coded attempts abort as a
  /// unit, in record order.
  void abort_dead_legs(double now) {
    aborted_.clear();
    if (coded_ != nullptr) {
      for (const Leg& leg : legs_) {
        if (leg_dead(leg, now)) aborted_.push_back(leg.record);
      }
      std::sort(aborted_.begin(), aborted_.end());
      aborted_.erase(std::unique(aborted_.begin(), aborted_.end()),
                     aborted_.end());
    }
    for (std::size_t f = 0; f < legs_.size();) {
      const bool dead =
          coded_ != nullptr
              ? std::binary_search(aborted_.begin(), aborted_.end(),
                                   legs_[f].record)
              : leg_dead(legs_[f], now);
      if (!dead) {
        ++f;
        continue;
      }
      const Leg leg = take_leg(f);
      if (coded_ != nullptr) continue;
      IDDE_OBS_COUNT("des.epoch_aborts_total", 1);
      if (--legs_alive_[leg.record] == 0) {
        abort(leg.record, now);
      } else {
        // A racing sibling lives on: this leg just drops out.
        ++result_.hedge_cancelled;
        result_.hedge_wasted_mb += leg.size_mb - leg.remaining_mb;
      }
    }
    for (const std::size_t r : aborted_) {
      IDDE_OBS_COUNT("des.epoch_aborts_total", 1);
      legs_alive_[r] = 0;
      abort(r, now);
    }
  }

  FlowSimResult finish() {
    for (std::size_t i = 0; i < in_service_.size(); ++i) {
      IDDE_ASSERT(queues_[i].empty(), "stuck admission queue at shutdown");
      IDDE_ASSERT(in_service_[i] == 0, "leaked service slot at shutdown");
    }
    if (qos_ == nullptr) {
      finalize(result_);
    } else {
      result_.qos.retries_denied = budget_->denied();
      for (const qos::CircuitBreaker& breaker : breakers_) {
        result_.qos.breaker_opens += breaker.times_opened();
      }
      finalize(result_, qos_->admission.deadline_s,
               qos_->arrivals.inert() ? opt_.arrival_window_s
                                      : qos_->arrivals.window_s);
    }
    if (hedge_) {
      IDDE_OBS_COUNT("des.hedge_wins_total", result_.hedge_wins);
      IDDE_OBS_COUNT("des.hedge_cancelled_total", result_.hedge_cancelled);
    }
    return std::move(result_);
  }

  const FlowLevelSimulator& sim_;
  const model::ProblemInstance& inst_;
  const FlowSimOptions& opt_;
  const core::AllocationProfile& allocation_;
  bool collaborative_;
  const core::DeliveryProfile* replicas_;
  const coding::CodedDeliveryProfile* coded_;

  // Active stages (null / false when off or inert).
  const fault::FaultPlan* plan_ = nullptr;
  const qos::QosConfig* qos_ = nullptr;
  const fault::DegradationPlan* gray_ = nullptr;
  bool hedge_ = false;      ///< gray/hedge stage: racing legs
  bool admission_ = false;  ///< replication under an active QoS config
  bool corruption_ = false;
  bool deadline_aware_ = false;
  std::size_t slots_ = 0;
  std::optional<fault::FaultInjector> injector_;
  std::optional<coding::CodedResolver> resolver_;
  std::optional<core::HealthTracker> health_;
  std::optional<qos::RetryBudget> budget_;
  std::vector<qos::CircuitBreaker> breakers_;
  std::vector<qos::AdmissionQueue> queues_;
  std::vector<std::size_t> in_service_;

  FlowSimResult result_;
  std::vector<double> capacities_;
  std::vector<std::size_t> arrivals_;  ///< records by arrival time
  std::size_t next_arrival_ = 0;
  EventQueue events_;
  EventQueue deadlines_;  ///< hedge timers, lazily invalidated
  std::vector<Leg> legs_;
  bool rates_dirty_ = true;
  std::vector<CloudLeg> cloud_legs_;  ///< compacted when all retire
  std::size_t cloud_alive_ = 0;
  std::size_t next_leg_id_ = 0;

  // Per record.
  std::vector<std::size_t> legs_alive_;  ///< routed + timed cloud legs
  std::vector<double> cloud_done_;       ///< cloud top-up completion
  std::vector<std::size_t> launched_;    ///< routed legs (loss lottery)
  std::vector<std::size_t> hedges_;      ///< speculative legs launched
  std::vector<std::vector<std::size_t>> sources_;  ///< breaker bookkeeping
  std::vector<std::uint8_t> holds_slot_;
  std::vector<double> estimate_s_;

  // Scratch.
  std::vector<std::size_t> eligible_, usable_, exclude_, aborted_;
  std::vector<std::uint8_t> up_buf_;
};

FlowSimResult FlowLevelSimulator::run(const core::Strategy& strategy,
                                      util::Rng& rng) const {
  IDDE_OBS_SPAN("des.run");
  return Replay(*this, strategy.allocation, strategy.collaborative_delivery,
                &strategy.delivery, nullptr, rng)
      .run();
}

FlowSimResult FlowLevelSimulator::run_coded(
    const coding::CodedStrategy& strategy, util::Rng& rng) const {
  IDDE_OBS_SPAN("des.run_coded");
  return Replay(*this, strategy.allocation, strategy.collaborative_delivery,
                nullptr, &strategy.delivery, rng)
      .run();
}

void FlowLevelSimulator::finalize(FlowSimResult& result, double deadline_s,
                                  double window_s) {
  std::vector<double> durations_ms;
  durations_ms.reserve(result.flows.size());
  std::array<std::vector<double>, core::kFallbackTiers> tier_ms;
  double makespan = 0.0;
  double queue_wait_s = 0.0;
  std::size_t first_try_primary = 0;
  QosStats& q = result.qos;
  q.offered = result.flows.size();
  for (FlowRecord& record : result.flows) {
    if (record.outcome != FlowOutcome::kServed) {
      ++(record.outcome == FlowOutcome::kShed ? q.shed : q.rejected);
      continue;
    }
    ++q.admitted;
    const auto tier = static_cast<std::size_t>(record.tier);
    durations_ms.push_back(record.duration_s() * 1e3);
    tier_ms[tier].push_back(durations_ms.back());
    makespan = std::max(makespan, record.completion_s);
    queue_wait_s += record.queue_wait_s;
    result.local_hits += record.local_hit ? 1 : 0;
    result.cloud_fetches += record.from_cloud ? 1 : 0;
    result.forced_cloud_fetches += record.forced_cloud ? 1 : 0;
    result.retry_count += record.retries;
    ++result.tier_counts[tier];
    if (record.tier == core::FallbackTier::kPrimary && record.retries == 0) {
      ++first_try_primary;
    }
    record.deadline_missed =
        deadline_s > 0.0 && record.duration_s() > deadline_s;
    ++(record.deadline_missed ? q.deadline_misses : q.goodput_flows);
  }
  IDDE_ASSERT(q.admitted + q.shed + q.rejected == q.offered,
              "overload accounting leak: admitted + shed + rejected != "
              "offered");
  if (!durations_ms.empty()) {
    const auto served = static_cast<double>(durations_ms.size());
    result.mean_duration_ms = util::mean_of(durations_ms);
    result.p95_duration_ms = util::percentile(durations_ms, 95.0);
    result.p99_duration_ms = util::percentile(durations_ms, 99.0);
    result.max_duration_ms =
        *std::max_element(durations_ms.begin(), durations_ms.end());
    result.availability = static_cast<double>(first_try_primary) / served;
    q.mean_queue_wait_ms = queue_wait_s / served * 1e3;
  }
  result.makespan_s = makespan;
  for (std::size_t t = 0; t < core::kFallbackTiers; ++t) {
    if (tier_ms[t].empty()) continue;
    q.tier_p50_ms[t] = util::percentile(tier_ms[t], 50.0);
    q.tier_p99_ms[t] = util::percentile(tier_ms[t], 99.0);
  }
  // Throughput rates are normalised by the offered-load window so they stay
  // comparable across load multipliers; makespan is the closed-loop proxy.
  const double period = window_s > 0.0 ? window_s : makespan;
  if (period > 0.0) {
    q.goodput_rps = static_cast<double>(q.goodput_flows) / period;
    q.offered_rps = static_cast<double>(q.offered) / period;
  }

  IDDE_OBS_COUNT("des.runs_total", 1);
  IDDE_OBS_COUNT("des.flows_total", result.flows.size());
  IDDE_OBS_COUNT("des.retries_total", result.retry_count);
  IDDE_OBS_COUNT("des.forced_cloud_total", result.forced_cloud_fetches);
  IDDE_OBS_COUNT("des.local_hits_total", result.local_hits);
  IDDE_OBS_COUNT("des.cloud_fetches_total", result.cloud_fetches);
  IDDE_OBS_COUNT("des.rate_recomputations_total", result.rate_recomputations);
  IDDE_OBS_COUNT("qos.offered_total", q.offered);
  IDDE_OBS_COUNT("qos.shed_total", q.shed);
  IDDE_OBS_COUNT("qos.rejected_total", q.rejected);
  IDDE_OBS_COUNT("qos.deadline_misses_total", q.deadline_misses);
  IDDE_OBS_COUNT("qos.retries_denied_total", q.retries_denied);
  IDDE_OBS_COUNT("qos.breaker_opens_total", q.breaker_opens);
#if IDDE_OBS
  if (obs::enabled()) {
    static constexpr const char* kHistograms[core::kFallbackTiers + 1] = {
        "qos.tier_duration_ms.primary", "qos.tier_duration_ms.replica",
        "qos.tier_duration_ms.cloud", "des.flow_duration_ms"};
    for (std::size_t t = 0; t <= core::kFallbackTiers; ++t) {
      const bool all = t == core::kFallbackTiers;
      const std::vector<double>& samples = all ? durations_ms : tier_ms[t];
      if (samples.empty() && !all) continue;
      obs::Histogram& histogram =
          obs::MetricsRegistry::global().histogram(kHistograms[t]);
      for (const double ms : samples) histogram.record(ms);
    }
  }
#endif
}

}  // namespace idde::des
