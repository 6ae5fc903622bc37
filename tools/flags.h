#ifndef TOPL_TOOLS_FLAGS_H_
#define TOPL_TOOLS_FLAGS_H_

// The validated --key=value flag parser shared by topl_cli and the
// standalone benches. Each program passes the table of flags it knows with
// each flag's value shape; an unknown flag or a value such as --k=abc,
// --theta=0.2x or --vertices=8k is an InvalidArgument error, never a silent
// default.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace topl {

// The value shape of a flag.
enum class FlagKind { kString, kBool, kUint, kDouble, kUintList };

using FlagTable = std::map<std::string, FlagKind>;

// A decimal unsigned integer with nothing before or after it.
inline bool IsUint(const std::string& text) {
  if (text.empty() || std::isdigit(static_cast<unsigned char>(text[0])) == 0) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  std::strtoull(text.c_str(), &end, 10);
  return errno != ERANGE && *end == '\0';
}

// A finite decimal number with nothing after it.
inline bool IsDouble(const std::string& text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) != 0) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0' && std::isfinite(value);
}

// The items of a comma-separated list in order; empty items (e.g. a trailing
// comma) are skipped.
inline std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> items;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = std::min(csv.find(',', pos), csv.size());
    if (comma > pos) items.push_back(csv.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return items;
}

inline bool IsValidValue(FlagKind kind, const std::string& value) {
  switch (kind) {
    case FlagKind::kString:
      return true;
    case FlagKind::kBool:
      return value == "0" || value == "1";
    case FlagKind::kUint:
      return IsUint(value);
    case FlagKind::kDouble:
      return IsDouble(value);
    case FlagKind::kUintList: {
      const std::vector<std::string> items = SplitList(value);
      return std::all_of(items.begin(), items.end(), IsUint);
    }
  }
  return false;
}

// --key=value flags from argv[first..] into a map (a bare --key means
// --key=1 and is only valid for a boolean flag). Rejects positional
// arguments, flags outside `known`, and values that do not have their flag's
// shape.
inline Status ParseFlags(int argc, char** argv, int first,
                         const FlagTable& known,
                         std::map<std::string, std::string>* flags) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument: " + arg);
    }
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    const std::string value =
        eq == std::string::npos ? "1" : arg.substr(eq + 1);
    const auto it = known.find(key);
    if (it == known.end()) {
      return Status::InvalidArgument("unknown flag: --" + key);
    }
    if (eq == std::string::npos && it->second != FlagKind::kBool) {
      return Status::InvalidArgument("missing value for --" + key);
    }
    if (!IsValidValue(it->second, value)) {
      return Status::InvalidArgument("malformed value for --" + key + ": '" +
                                     value + "'");
    }
    (*flags)[key] = value;
  }
  return Status::OK();
}

inline std::string FlagOr(const std::map<std::string, std::string>& flags,
                          const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

// Typed accessors; ParseFlags has already checked every value's shape.
inline std::uint64_t IntFlag(const std::map<std::string, std::string>& flags,
                             const std::string& key, std::uint64_t fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback
                           : std::strtoull(it->second.c_str(), nullptr, 10);
}

inline double DoubleFlag(const std::map<std::string, std::string>& flags,
                         const std::string& key, double fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

inline std::vector<std::uint64_t> UintListFlag(
    const std::map<std::string, std::string>& flags, const std::string& key,
    std::vector<std::uint64_t> fallback) {
  auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  std::vector<std::uint64_t> values;
  for (const std::string& item : SplitList(it->second)) {
    values.push_back(std::strtoull(item.c_str(), nullptr, 10));
  }
  return values;
}

}  // namespace topl

#endif  // TOPL_TOOLS_FLAGS_H_
