// The bad-request matrix shared by net_wire_test (against unpack_request)
// and net_loopback_test (against a live NetServer).  Every entry is a whole
// frame whose length prefix matches its bytes, so the frame boundary is
// intact: a server must answer it with kErrorResp(code), echo `id`, and keep
// the connection.  Built from the packers alone, so the same matrix runs
// against any build that speaks this layout.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/net/wire.hpp"

namespace bjrw::net {

struct BadFrame {
  std::string name;
  std::vector<std::uint8_t> bytes;  // length prefix included
  ErrorCode code;
  std::uint64_t id;
};

inline std::vector<std::uint8_t> frame_bytes(const PackBuffer& b) {
  return std::vector<std::uint8_t>(b.data(), b.data() + b.size());
}

// Rewrites the u32 length prefix to match the frame's bytes.
inline void fix_len(std::vector<std::uint8_t>& f) {
  const std::uint32_t len = static_cast<std::uint32_t>(f.size() - 4);
  for (int i = 0; i < 4; ++i)
    f[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (24 - 8 * i));
}

// Overwrites the get_many count (the first body field).
inline void set_count(std::vector<std::uint8_t>& f, std::uint32_t n) {
  const std::size_t at = kFrameLenSize + kHeaderSize;
  for (std::size_t i = 0; i < 4; ++i)
    f[at + i] = static_cast<std::uint8_t>(n >> (24 - 8 * i));
}

inline std::vector<BadFrame> bad_request_frames() {
  std::vector<BadFrame> out;
  std::uint64_t id = 500;
  const std::uint64_t keys[3] = {11, 12, 13};
  struct Good {
    const char* name;
    std::vector<std::uint8_t> bytes;
    std::uint64_t id;
  };
  std::vector<Good> good;
  const auto add_good = [&](const char* name, auto&& pack) {
    PackBuffer b;
    pack(b, ++id);
    good.push_back({name, frame_bytes(b), id});
  };
  add_good("get", [](PackBuffer& b, std::uint64_t i) {
    pack_get_req(b, i, 1, 7);
  });
  add_good("put", [](PackBuffer& b, std::uint64_t i) {
    pack_put_req(b, i, 1, 2, 7);
  });
  add_good("erase", [](PackBuffer& b, std::uint64_t i) {
    pack_erase_req(b, i, 1, 7);
  });
  add_good("get_many", [&](PackBuffer& b, std::uint64_t i) {
    pack_get_many_req(b, i, keys, 3, 7);
  });
  add_good("put_ttl", [](PackBuffer& b, std::uint64_t i) {
    pack_put_ttl_req(b, i, 1, 2, 3, 7);
  });
  add_good("touch", [](PackBuffer& b, std::uint64_t i) {
    pack_touch_req(b, i, 1, 3, 7);
  });
  // Each request type one byte short and one byte long.
  for (const Good& g : good) {
    std::vector<std::uint8_t> shorter = g.bytes;
    shorter.pop_back();
    fix_len(shorter);
    std::vector<std::uint8_t> longer = g.bytes;
    longer.push_back(0);
    fix_len(longer);
    out.push_back({std::string(g.name) + " one byte short", shorter,
                   ErrorCode::kMalformed, g.id});
    out.push_back({std::string(g.name) + " one byte long", longer,
                   ErrorCode::kMalformed, g.id});
  }
  // A get_many whose count exceeds its keys, and the largest count.
  for (const std::uint32_t n : {4u, 0xFFFFFFFFu}) {
    PackBuffer b;
    pack_get_many_req(b, ++id, keys, 3, 7);
    std::vector<std::uint8_t> f = frame_bytes(b);
    set_count(f, n);
    out.push_back({"get_many count " + std::to_string(n), f,
                   ErrorCode::kMalformed, id});
  }
  // Every response type, and a type nothing defines, sent as a request.
  const std::optional<std::uint64_t> vals[1] = {5};
  const auto add_unknown = [&](const char* name, auto&& pack) {
    PackBuffer b;
    pack(b, ++id);
    out.push_back({name, frame_bytes(b), ErrorCode::kUnknownType, id});
  };
  add_unknown("get_resp as request", [](PackBuffer& b, std::uint64_t i) {
    pack_get_resp(b, i, true, 5);
  });
  add_unknown("put_resp as request", [](PackBuffer& b, std::uint64_t i) {
    pack_put_resp(b, i);
  });
  add_unknown("erase_resp as request", [](PackBuffer& b, std::uint64_t i) {
    pack_erase_resp(b, i, true);
  });
  add_unknown("get_many_resp as request",
              [&](PackBuffer& b, std::uint64_t i) {
                pack_get_many_resp(b, i, vals, 1);
              });
  add_unknown("error_resp as request", [](PackBuffer& b, std::uint64_t i) {
    pack_error_resp(b, i, ErrorCode::kMalformed, "x");
  });
  add_unknown("touch_resp as request", [](PackBuffer& b, std::uint64_t i) {
    pack_touch_resp(b, i, true);
  });
  add_unknown("type 12345", [](PackBuffer& b, std::uint64_t i) {
    const std::size_t at = b.begin_frame();
    pack_header(b, static_cast<MsgType>(12345), i);
    b.end_frame(at);
  });
  return out;
}

}  // namespace bjrw::net
