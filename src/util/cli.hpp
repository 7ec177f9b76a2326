// Tiny command-line flag parser used by benches and examples.
//
// Flags follow the paper artifact's convention: `-o 80 -p 4` style
// single-dash options with a value, plus `--name=value` long options and
// boolean `--name` switches. A single-dash flag followed by another flag, or
// given last, is a bare switch too: has() sees it, and reading it as a value
// throws, so a value flag whose value went missing (`si_trace ... -out`)
// fails loudly instead of running with a made-up value. A lone "-" and a
// negative number (`-offset -5`) are values, not flags.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace si::util {

class Cli {
 public:
  Cli(int argc, char** argv);

  /// Value of `-name value` / `--name=value`, or `def` if absent. Throws
  /// std::invalid_argument naming the flag when it was given as a bare
  /// switch (so do get_int and get_double).
  std::string get(std::string_view name, std::string_view def = "") const;
  std::int64_t get_int(std::string_view name, std::int64_t def) const;
  double get_double(std::string_view name, double def) const;
  bool has(std::string_view name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const noexcept { return positional_; }

  const std::string& program() const noexcept { return program_; }

 private:
  /// The value of `name`, null if absent; throws on a bare switch.
  const std::string* find(std::string_view name) const;

  std::string program_;
  std::map<std::string, std::string, std::less<>> values_;
  std::set<std::string, std::less<>> switches_;
  std::vector<std::string> positional_;
};

/// Parses a comma-separated integer list ("1,2,4,8"); returns `def` on empty.
std::vector<int> parse_int_list(std::string_view text, std::vector<int> def);

}  // namespace si::util
