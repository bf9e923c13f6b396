#ifndef PPFR_COMMON_FLAGS_H_
#define PPFR_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ppfr {

// Strict scalar parsers shared by Flags and the list-valued runner flags
// (--seeds=0,1,2). False on empty input, trailing garbage ("12abc") or
// out-of-range values — a numeric token either parses exactly or not at all.
bool ParseInt64Strict(const std::string& s, int64_t* out);
bool ParseUint64Strict(const std::string& s, uint64_t* out);
bool ParseDoubleStrict(const std::string& s, double* out);

// Reads the integer environment variable `name` with ParseInt64Strict: unset
// or empty yields `def`; a value that does not parse or lies outside
// [lo, hi] aborts naming the variable and the value, so a typo such as
// PPFR_CG_BLOCK=16x never silently runs some other configuration.
int64_t EnvInt64OrDie(const char* name, int64_t def, int64_t lo, int64_t hi);

// Minimal --key=value command-line parsing for the bench/example binaries.
// Unknown flags are kept and queryable; "--flag" alone parses as "true".
// Typed getters parse strictly: a malformed value ("--seed=12abc", overflow,
// "--lr=fast") prints the flag name and exits(2) instead of silently
// truncating to something plausible.
class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name, const std::string& def) const;
  int GetInt(const std::string& name, int def) const;
  // Full-width unsigned parse — seeds are uint64_t and must not round-trip
  // through int (see runner::ApplyCommonOverrides).
  uint64_t GetUint64(const std::string& name, uint64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;

  // Names present on the command line that are not in `known` (sorted). The
  // bench binaries turn a non-empty result into a usage listing + exit so a
  // typo like --epoch=10 fails loudly instead of silently running defaults.
  std::vector<std::string> UnknownFlags(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace ppfr

#endif  // PPFR_COMMON_FLAGS_H_
