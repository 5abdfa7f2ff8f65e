#include "util/env.hpp"

#include <charconv>
#include <cstdlib>

namespace idde::util {

std::string env_or(std::string_view name, std::string fallback) {
  const char* value = std::getenv(std::string(name).c_str());
  if (value == nullptr || *value == '\0') return fallback;
  return value;
}

std::int64_t env_int_or(std::string_view name, std::int64_t fallback) {
  const std::string raw = env_or(name, "");
  if (raw.empty()) return fallback;
  std::int64_t out = fallback;
  const auto result = std::from_chars(raw.data(), raw.data() + raw.size(), out);
  if (result.ec != std::errc{}) return fallback;
  return out;
}

double env_double_or(std::string_view name, double fallback) {
  const std::string raw = env_or(name, "");
  if (raw.empty()) return fallback;
  double out = fallback;
  const auto result = std::from_chars(raw.data(), raw.data() + raw.size(), out);
  if (result.ec != std::errc{}) return fallback;
  return out;
}

int experiment_reps(int fallback) {
  return static_cast<int>(env_int_or("IDDE_REPS", fallback));
}

double ip_budget_ms(double fallback) {
  return env_double_or("IDDE_IP_BUDGET_MS", fallback);
}

}  // namespace idde::util
