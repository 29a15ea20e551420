#include "util/log.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "util/env.hpp"

namespace piom::util {

namespace {
LogLevel parse_level() {
  // Validated here rather than with a warning through the logger: the
  // logger cannot warn through itself while its own level is still being
  // initialized.
  const std::optional<std::string> env = env::raw("PIOM_LOG");
  if (!env) return LogLevel::kWarn;
  if (*env == "debug") return LogLevel::kDebug;
  if (*env == "info") return LogLevel::kInfo;
  if (*env == "warn") return LogLevel::kWarn;
  if (*env == "error") return LogLevel::kError;
  if (*env == "off") return LogLevel::kOff;
  std::fprintf(stderr,
               "piom: ignoring $PIOM_LOG='%s': expected "
               "debug|info|warn|error|off\n",
               env->c_str());
  return LogLevel::kWarn;
}

const char* level_tag(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    default: return "?";
  }
}
}  // namespace

LogLevel log_level() {
  static const LogLevel lvl = parse_level();
  return lvl;
}

void log_emit(LogLevel lvl, const char* fmt, ...) {
  char msg[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(msg, sizeof(msg), fmt, ap);
  va_end(ap);
  char line[1100];
  const int n =
      std::snprintf(line, sizeof(line), "[piom %s] %s\n", level_tag(lvl), msg);
  if (n > 0) {
    std::fwrite(line, 1, static_cast<std::size_t>(n), stderr);
  }
}

}  // namespace piom::util
