#include "util/cli.hpp"

#include <charconv>
#include <cstdlib>

namespace si::util {

Cli::Cli(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.size() >= 2 && arg[0] == '-') {
      const bool long_form = arg[1] == '-';
      std::string_view name = arg.substr(long_form ? 2 : 1);
      if (auto eq = name.find('='); eq != std::string_view::npos) {
        values_.emplace(std::string(name.substr(0, eq)), std::string(name.substr(eq + 1)));
      } else if (long_form) {
        values_.emplace(std::string(name), "1");  // --flag: boolean switch
      } else if (i + 1 < argc && (argv[i + 1][0] != '-' ||
                                  std::string_view(argv[i + 1]) == "-")) {
        // -f value; a lone "-" is a value too (stdin/stdout by convention).
        values_.emplace(std::string(name), std::string(argv[++i]));
      } else {
        values_.emplace(std::string(name), "1");
      }
    } else {
      positional_.emplace_back(arg);
    }
  }
}

std::string Cli::get(std::string_view name, std::string_view def) const {
  auto it = values_.find(name);
  return it == values_.end() ? std::string(def) : it->second;
}

std::int64_t Cli::get_int(std::string_view name, std::int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  std::int64_t out = def;
  std::from_chars(it->second.data(), it->second.data() + it->second.size(), out);
  return out;
}

double Cli::get_double(std::string_view name, double def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

bool Cli::has(std::string_view name) const { return values_.count(name) != 0; }

std::vector<int> parse_int_list(std::string_view text, std::vector<int> def) {
  if (text.empty()) return def;
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto comma = text.find(',', pos);
    const auto piece = text.substr(pos, comma == std::string_view::npos ? text.size() - pos
                                                                        : comma - pos);
    if (!piece.empty()) {
      int v = 0;
      std::from_chars(piece.data(), piece.data() + piece.size(), v);
      out.push_back(v);
    }
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return out.empty() ? def : out;
}

}  // namespace si::util
