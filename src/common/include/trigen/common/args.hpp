#pragma once
/// \file args.hpp
/// \brief Tiny `--key value` / positional command-line parser for the tools.
///
/// Lives in a header (rather than inside the CLI binary) so its parsing
/// rules are unit-testable.  The one subtle rule: a `--key` consumes the
/// following token as its value whenever one is present and that token is
/// not itself a `--flag` — so values that start with a single `-` (negative
/// numbers like `--seed -5`, the conventional bare `-` for stdin/stdout)
/// parse as values, not as switches.  Flags that never take a value
/// (`--help`, `--progress`, ...) must be declared in `switches`, otherwise
/// a following positional argument would be swallowed as their value.

#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "trigen/common/durable.hpp"

namespace trigen {

/// Parsed command line: `--key value` pairs plus positional arguments.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  /// Parses argv[first..argc).  `switches` lists the flag names (without
  /// the leading `--`) that never consume a value; they and any `--key`
  /// with no usable value are stored as "1".
  static Args parse(int argc, const char* const* argv, int first,
                    const std::set<std::string>& switches = {}) {
    Args a;
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        a.positional.push_back(arg);
        continue;
      }
      const std::string key = arg.substr(2);
      const bool next_is_flag =
          i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) == 0;
      if (switches.count(key) != 0 || i + 1 >= argc || next_is_flag) {
        // Moved in from a std::string: gcc 12 flags `= "1"` here with a
        // false -Wrestrict.
        a.flags[key] = std::string("1");
      } else {
        a.flags[key] = argv[++i];
      }
    }
    return a;
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  long get_int(const std::string& key, long fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : std::atol(it->second.c_str());
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : std::atof(it->second.c_str());
  }
  /// Strict parse for count-like flags (ranks, shard indices, intervals):
  /// the full unsigned range is accepted, but a negative, non-numeric or
  /// overflowing value throws std::invalid_argument naming the flag — a
  /// `--stop-after -1` must fail loudly, not silently become ~2^64 via a
  /// signed-to-unsigned cast.
  std::uint64_t get_uint(const std::string& key, std::uint64_t fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const auto parsed = parse_u64(it->second);
    if (!parsed) {
      throw std::invalid_argument("--" + key +
                                  " expects a non-negative integer in [0, "
                                  "2^64), got '" + it->second + "'");
    }
    return *parsed;
  }
  bool has(const std::string& key) const { return flags.count(key) != 0; }
};

}  // namespace trigen
