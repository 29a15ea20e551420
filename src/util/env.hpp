// The one front door for $PIOM_* environment knobs: typed parsing with
// log-on-junk semantics. Every knob the library reads goes through here
// and is listed in the table in docs/architecture.md (piom_lint rule
// env-knob), so a typo'd value is reported once instead of being silently
// swallowed the way raw getenv/strtol call sites used to.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace piom::util::env {

/// Raw value of $name; nullopt when unset or empty.
[[nodiscard]] std::optional<std::string> raw(const char* name);

/// String from $name, or `fallback` when unset/empty.
[[nodiscard]] std::string str(const char* name, const std::string& fallback);

/// Integer from $name (strtoll base 0: decimal, 0x-hex and 0-octal all
/// parse, so seed knobs may be given in hex). Unset -> `fallback`; junk ->
/// `fallback` plus one warning through the logger.
[[nodiscard]] int64_t integer(const char* name, int64_t fallback);

/// Boolean from $name: "1"/"true"/"yes"/"on" -> true, "0"/"false"/"no"/
/// "off" -> false. Unset -> `fallback`, junk -> `fallback` + warning.
[[nodiscard]] bool boolean(const char* name, bool fallback);

}  // namespace piom::util::env
