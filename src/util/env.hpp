// Environment-variable knobs shared by benches and tests (repetition counts,
// the IDDE-IP time budget), so the full suite can be scaled for CI without
// code edits.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace idde::util {

/// Returns env var value, or fallback when unset/empty.
[[nodiscard]] std::string env_or(std::string_view name, std::string fallback);
[[nodiscard]] std::int64_t env_int_or(std::string_view name,
                                      std::int64_t fallback);
[[nodiscard]] double env_double_or(std::string_view name, double fallback);

/// Repetitions per experiment point. Env: IDDE_REPS (default `fallback`).
[[nodiscard]] int experiment_reps(int fallback);

/// Time budget for the IDDE-IP anytime solver in milliseconds.
/// Env: IDDE_IP_BUDGET_MS (default `fallback`).
[[nodiscard]] double ip_budget_ms(double fallback);

}  // namespace idde::util
