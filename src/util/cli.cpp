#include "util/cli.hpp"

#include <charconv>
#include <cstdlib>
#include <stdexcept>

namespace si::util {

namespace {

/// Whether the argument after `-f` is f's value rather than the next flag:
/// anything not starting with '-', a lone "-" (stdin/stdout by convention),
/// and a negative number.
bool is_value(std::string_view arg) {
  return arg.empty() || arg[0] != '-' || arg.size() == 1 ||
         (arg[1] >= '0' && arg[1] <= '9') || arg[1] == '.';
}

}  // namespace

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
        switches_.emplace(name);  // --flag: boolean switch
      } else if (i + 1 < argc && is_value(argv[i + 1])) {
        values_.emplace(std::string(name), std::string(argv[++i]));
      } else {
        switches_.emplace(name);
      }
    } else {
      positional_.emplace_back(arg);
    }
  }
}

const std::string* Cli::find(std::string_view name) const {
  if (auto it = values_.find(name); it != values_.end()) return &it->second;
  if (switches_.count(name) != 0) {
    throw std::invalid_argument("flag -" + std::string(name) +
                                " needs a value");
  }
  return nullptr;
}

std::string Cli::get(std::string_view name, std::string_view def) const {
  const std::string* v = find(name);
  return v == nullptr ? std::string(def) : *v;
}

std::int64_t Cli::get_int(std::string_view name, std::int64_t def) const {
  const std::string* v = find(name);
  if (v == nullptr) return def;
  std::int64_t out = def;
  std::from_chars(v->data(), v->data() + v->size(), out);
  return out;
}

double Cli::get_double(std::string_view name, double def) const {
  const std::string* v = find(name);
  return v == nullptr ? def : std::strtod(v->c_str(), nullptr);
}

bool Cli::has(std::string_view name) const {
  return values_.count(name) != 0 || switches_.count(name) != 0;
}

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
