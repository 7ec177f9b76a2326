// The concurrency controls the paper evaluates (section 4) — HTM, SI-HTM,
// P8TM, Silo — plus the unsafe raw-ROT ablation, named once: one enum and
// one table of the spellings every front end prints or accepts.
#pragma once

#include <array>
#include <stdexcept>
#include <string>
#include <string_view>

namespace si::runtime {

/// Enumerator values are stable: parameterised test names print them.
enum class Backend { kHtm, kSiHtm, kP8tm, kSilo, kRawRot };

struct BackendName {
  Backend backend;
  std::string_view display;  ///< bench rows, si_serve, si_trace ("SI-HTM")
  std::string_view cli;      ///< si_fuzz's canonical spelling ("si-htm")
  std::string_view alias;    ///< one more accepted spelling, or empty
};

/// Indexed by Backend value.
inline constexpr std::array<BackendName, 5> kBackendNames{{
    {Backend::kHtm, "HTM", "htm", "htm-sgl"},
    {Backend::kSiHtm, "SI-HTM", "si-htm", "sihtm"},
    {Backend::kP8tm, "P8TM", "p8tm", ""},
    {Backend::kSilo, "Silo", "silo", ""},
    {Backend::kRawRot, "raw-ROT", "raw-rot", "rawrot"},
}};
static_assert([] {
  for (std::size_t i = 0; i < kBackendNames.size(); ++i) {
    if (static_cast<std::size_t>(kBackendNames[i].backend) != i) return false;
  }
  return true;
}());

inline constexpr const BackendName& names_of(Backend b) noexcept {
  return kBackendNames[static_cast<std::size_t>(b)];
}

inline constexpr std::string_view to_string(Backend b) noexcept {
  return names_of(b).display;
}

inline constexpr std::string_view cli_name(Backend b) noexcept {
  return names_of(b).cli;
}

/// Accepts the display name, the CLI name or the alias of any backend.
inline Backend backend_from_string(std::string_view name) {
  for (const auto& n : kBackendNames) {
    if (name == n.display || name == n.cli ||
        (!n.alias.empty() && name == n.alias)) {
      return n.backend;
    }
  }
  throw std::invalid_argument("unknown backend: " + std::string(name));
}

}  // namespace si::runtime
