#include <cstdlib>
// A comment naming util::env::str("PIOM_COMMENTED", "") is fine.
bool documented() { return util::env::boolean("PIOM_TRANSPORT", false); }
int undocumented() {
  return static_cast<int>(util::env::integer("PIOM_FANOUT", 4));  // VIOLATION
}
const char* raw_read() { return std::getenv("PIOM_UNLISTED"); }  // VIOLATION
const char* by_name(const char* n) { return std::getenv(n); }  // VIOLATION
const char* elsewhere() { return getenv("PIOM_ELSEWHERE"); }  // VIOLATION
std::string split() {
  return util::env::str(
      "PIOM_LOG", "warn");  // fine: documented, name on the next line
}
std::string text() { return "env::raw(\"PIOM_IN_A_STRING\")"; }  // fine
