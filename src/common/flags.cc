#include "common/flags.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "common/check.h"

namespace ppfr {
namespace {

// All strict parsers share the shape: reject leading whitespace (strtoX
// would skip it, letting " -1" smuggle a sign past any first-character
// check), reset errno, parse with an end pointer, then reject (a) nothing
// consumed, (b) trailing garbage, and (c) out-of-range values.
// `--seed=12abc` and `--epochs=99999999999999` must never silently truncate
// into a plausible number.

bool LeadingWhitespace(const std::string& s) {
  return std::isspace(static_cast<unsigned char>(s[0])) != 0;
}

[[noreturn]] void DieBadFlag(const std::string& name, const std::string& value,
                             const char* why) {
  std::fprintf(stderr, "invalid value for --%s: '%s' (%s)\n", name.c_str(),
               value.c_str(), why);
  std::exit(2);
}

}  // namespace

bool ParseInt64Strict(const std::string& s, int64_t* out) {
  if (s.empty() || LeadingWhitespace(s)) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

int64_t EnvInt64OrDie(const char* name, int64_t def, int64_t lo, int64_t hi) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return def;
  int64_t v = 0;
  PPFR_CHECK(ParseInt64Strict(env, &v) && v >= lo && v <= hi)
      << name << " wants an integer in [" << lo << ", " << hi << "], got '" << env
      << "'";
  return v;
}

bool ParseUint64Strict(const std::string& s, uint64_t* out) {
  if (s.empty() || LeadingWhitespace(s)) return false;
  // strtoull happily parses "-1" as ULLONG_MAX; a sign has no business in an
  // unsigned flag.
  if (s[0] == '-' || s[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParseDoubleStrict(const std::string& s, double* out) {
  if (s.empty() || LeadingWhitespace(s)) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') return false;
  // Non-finite results are garbage flags whether they came from overflow
  // ("1e999") or from strtod's literal forms ("inf", "nan") — a NaN/Inf
  // config value would poison a whole sweep. Gradual underflow to a
  // subnormal (ERANGE on some libcs) is a representable value and fine.
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) continue;
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string(arg)] = "true";
    } else {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

bool Flags::Has(const std::string& name) const { return values_.count(name) > 0; }

std::string Flags::GetString(const std::string& name, const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

int Flags::GetInt(const std::string& name, int def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  int64_t v = 0;
  if (!ParseInt64Strict(it->second, &v) ||
      v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    DieBadFlag(name, it->second, "want an integer in int range");
  }
  return static_cast<int>(v);
}

uint64_t Flags::GetUint64(const std::string& name, uint64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  uint64_t v = 0;
  if (!ParseUint64Strict(it->second, &v)) {
    DieBadFlag(name, it->second, "want an unsigned 64-bit integer");
  }
  return v;
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  double v = 0.0;
  if (!ParseDoubleStrict(it->second, &v)) {
    DieBadFlag(name, it->second, "want a finite-range decimal number");
  }
  return v;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  DieBadFlag(name, v, "want true/false/1/0/yes/no");
}

std::vector<std::string> Flags::UnknownFlags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    bool found = false;
    for (const std::string& k : known) {
      if (name == k) {
        found = true;
        break;
      }
    }
    if (!found) unknown.push_back(name);
  }
  return unknown;
}

}  // namespace ppfr
