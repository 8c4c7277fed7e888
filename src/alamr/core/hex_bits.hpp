#pragma once

// Text codecs shared by checkpoint payloads (core/checkpoint.cpp) and
// backend save_state strings (gp/backend.cpp). A double travels as its
// exact-bit form, "0x" plus the 16 hex digits of its 64-bit image, so
// round-trips are exact (NaN payloads and infinities included) and
// independent of locale and printf precision.
//
// Header-only and standard-library-only, like trace.hpp, so the gp layer
// can use it without linking the core module's library.

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace alamr::core {

inline std::string hex_bits(double v) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buffer;
}

/// Parses what hex_bits wrote; hex digits of either case are accepted.
/// Throws std::runtime_error prefixed with `who` on anything else.
inline double bits_from_hex(std::string_view text, std::string_view who) {
  std::uint64_t bits = 0;
  const char* end = text.data() + text.size();
  if (text.size() != 18 || text.substr(0, 2) != "0x" ||
      std::from_chars(text.data() + 2, end, bits, 16).ptr != end) {
    throw std::runtime_error(std::string(who) + ": bad double bit pattern '" +
                             std::string(text) + "'");
  }
  return std::bit_cast<double>(bits);
}

/// `values` as comma-separated hex_bits images ("" for none).
inline std::string hex_bits_list(std::span<const double> values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += hex_bits(values[i]);
  }
  return out;
}

/// Parses what hex_bits_list wrote; every cell must parse.
inline std::vector<double> bits_from_hex_list(std::string_view text,
                                              std::string_view who) {
  std::vector<double> out;
  if (text.empty()) return out;
  for (;;) {
    const std::size_t comma = text.find(',');
    out.push_back(bits_from_hex(text.substr(0, comma), who));
    if (comma == std::string_view::npos) return out;
    text.remove_prefix(comma + 1);
  }
}

/// A non-empty run of decimal digits that fits 64 bits. Throws
/// std::runtime_error prefixed with `who` on anything else.
inline std::uint64_t parse_decimal(std::string_view text, std::string_view who) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) {
    throw std::runtime_error(std::string(who) + ": bad number '" +
                             std::string(text) + "'");
  }
  return v;
}

}  // namespace alamr::core
