// The four benchmark workloads. Each one sets up its inputs from the seed,
// then runs rounds of the same operations; main.cpp times set-up and rounds
// and turns the samples below into metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Instance seed of the reference cities (metro, chaos), of the chaos fault
/// schedule and of the online world. Two 4,000-user cities drawn from
/// different seeds differ by 10-20% in L_avg, solve time and replay tail,
/// far more than run-to-run noise, so these workloads keep one city and let
/// --seed draw what varies per run: the demand (which users request which
/// items) and rate caps, the gray schedule, arrival jitter, open-loop
/// arrivals and the ticks at which the online world is sampled. The fault
/// schedule stays fixed because its epoch count sets the resilience
/// evaluation's time and the fault injector's memory. The paper workload
/// draws all its instances from the seed.
inline constexpr std::uint64_t kReferenceSeed = 2022;

struct Context {
  Tracer tracer;
  /// Samples feeding the end-to-end metrics: cold-solve times (ms) and,
  /// per replay, log flows per second and log simulated p99 (ms).
  std::map<std::string, std::vector<double>> samples;
  /// Per-layer counters, taken from the first measured round only (every
  /// round repeats the same operations).
  std::map<std::string, double> counts;
  /// Output-derived figures (R_avg, L_avg); a pure function of the seed.
  std::map<std::string, double> quality;
  std::vector<std::string> errors;
  /// Layer calls made. None fails on these workloads: an exception ends
  /// the run without a result.
  std::size_t attempted = 0;
  bool first_round = true;
  /// Wall ms spent on checks inside a round; subtracted from round time.
  double check_ms = 0.0;

  void count(const std::string& name, double value) {
    if (first_round) counts[name] += value;
  }
  void sample(const std::string& name, double value) {
    samples[name].push_back(value);
  }
  void check(const char* name, const std::string& failure) {
    if (!failure.empty()) errors.push_back(std::string(name) + ": " + failure);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs; called several times, the last set-up is kept.
  virtual void setup(Context& ctx) = 0;
  /// One round of the workload's operations.
  virtual void round(Context& ctx) = 0;
  /// Checks the outputs of the first round and fills ctx.quality.
  virtual void finish(Context& ctx) = 0;
};

/// nullptr for an unknown name. `smoke` selects toy sizes.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed,
                                                      bool smoke);

}  // namespace perfbench
