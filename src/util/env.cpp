#include "util/env.hpp"

#include <cstdlib>

#include "util/log.hpp"

namespace piom::util::env {

std::optional<std::string> raw(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

std::string str(const char* name, const std::string& fallback) {
  return raw(name).value_or(fallback);
}

int64_t integer(const char* name, int64_t fallback) {
  const std::optional<std::string> v = raw(name);
  if (!v) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 0);
  if (end == nullptr || *end != '\0' || end == v->c_str()) {
    PIOM_LOG_WARN("ignoring $%s='%s': expected an integer", name, v->c_str());
    return fallback;
  }
  return parsed;
}

bool boolean(const char* name, bool fallback) {
  const std::optional<std::string> v = raw(name);
  if (!v) return fallback;
  const std::string& s = *v;
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  PIOM_LOG_WARN("ignoring $%s='%s': expected a boolean (1/0, true/false, "
                "yes/no, on/off)",
                name, s.c_str());
  return fallback;
}

}  // namespace piom::util::env
