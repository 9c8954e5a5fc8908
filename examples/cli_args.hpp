// Strict command-line number parsing shared by the socket examples
// (kv_server, kv_loadgen): a malformed value exits 2 instead of silently
// turning into something else.
#pragma once

#include <cerrno>
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

// A TCP port: 0 (ephemeral) through 65535.
inline bool parse_port(const char* s, std::uint16_t* out) {
  std::uint64_t v = 0;
  if (!parse_count(s, UINT16_MAX, &v)) return false;
  *out = static_cast<std::uint16_t>(v);
  return true;
}

}  // namespace bjrw::examples
