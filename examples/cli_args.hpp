// Strict command-line number parsing shared by the socket examples
// (kv_server, kv_loadgen): a malformed value exits 2 instead of silently
// turning into something else.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace bjrw::examples {

// Parses a non-negative decimal integer no larger than `max`; rejects
// signs, blanks, trailing junk and overflow.
inline bool parse_count(const char* s, std::uint64_t max, std::uint64_t* out) {
  if (*s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || v > max) return false;
  *out = v;
  return true;
}

// An int in [lo, hi] (lo >= 0), by the same rules as parse_count.
inline bool parse_int(const char* s, int lo, int hi, int* out) {
  std::uint64_t v = 0;
  if (!parse_count(s, static_cast<std::uint64_t>(hi), &v) ||
      v < static_cast<std::uint64_t>(lo))
    return false;
  *out = static_cast<int>(v);
  return true;
}

// A TCP port: 0 (ephemeral) through 65535.
inline bool parse_port(const char* s, std::uint16_t* out) {
  std::uint64_t v = 0;
  if (!parse_count(s, UINT16_MAX, &v)) return false;
  *out = static_cast<std::uint16_t>(v);
  return true;
}

// A whole-string finite decimal number; rejects blanks, trailing junk,
// nan and inf.
inline bool parse_finite(const char* s, double* out) {
  if (*s == '\0' || std::isspace(static_cast<unsigned char>(*s)) != 0)
    return false;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (*end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

// A fraction in [0, 1].
inline bool parse_fraction(const char* s, double* out) {
  double v = 0.0;
  if (!parse_finite(s, &v) || v < 0.0 || v > 1.0) return false;
  *out = v;
  return true;
}

// A finite, non-negative duration in milliseconds, stored as nanoseconds;
// refuses one past the largest u64 nanosecond count rather than casting it.
inline bool parse_ms_as_ns(const char* s, std::uint64_t* out_ns) {
  double ms = 0.0;
  if (!parse_finite(s, &ms) || ms < 0.0) return false;
  const double ns = ms * 1e6;
  if (ns >= 0x1p64) return false;
  *out_ns = static_cast<std::uint64_t>(ns);
  return true;
}

}  // namespace bjrw::examples
