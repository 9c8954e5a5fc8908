// Tier-1 suite for the wire protocol (src/net/wire.hpp): big-endian scalar
// layout, frame length back-patching, header magic/version gating, every
// request/response body roundtripping through its own pack helper, one
// byte-exact golden frame per message type, the Unpacker's latching bounds
// checks, and the message-type dispatch table.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "src/net/wire.hpp"

namespace bjrw::net {
namespace {

// Frame payload of a single-frame buffer (skips the length prefix).
Unpacker payload_of(const PackBuffer& b) {
  EXPECT_GE(b.size(), kFrameLenSize);
  return Unpacker(b.data() + kFrameLenSize, b.size() - kFrameLenSize);
}

std::uint32_t frame_len(const PackBuffer& b) {
  return (static_cast<std::uint32_t>(b.data()[0]) << 24) |
         (static_cast<std::uint32_t>(b.data()[1]) << 16) |
         (static_cast<std::uint32_t>(b.data()[2]) << 8) | b.data()[3];
}

TEST(Wire, ScalarsPackBigEndianAndRoundtrip) {
  PackBuffer b;
  b.put_u8(0xAB);
  b.put_u16(0x1234);
  b.put_u32(0xDEADBEEF);
  b.put_u64(0x0102030405060708ULL);
  ASSERT_EQ(b.size(), 1u + 2 + 4 + 8);
  // Network byte order on the wire, byte for byte.
  const std::uint8_t expect[] = {0xAB, 0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF,
                                 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                                 0x08};
  for (std::size_t i = 0; i < sizeof expect; ++i)
    ASSERT_EQ(b.data()[i], expect[i]) << "byte " << i;
  Unpacker u(b.data(), b.size());
  EXPECT_EQ(u.u8(), 0xAB);
  EXPECT_EQ(u.u16(), 0x1234);
  EXPECT_EQ(u.u32(), 0xDEADBEEFu);
  EXPECT_EQ(u.u64(), 0x0102030405060708ULL);
  EXPECT_TRUE(u.exhausted());
  EXPECT_FALSE(u.failed());
}

TEST(Wire, FrameLengthIsBackPatchedAndExcludesItself) {
  PackBuffer b;
  const std::size_t at = b.begin_frame();
  b.put_u32(0x11223344);
  b.put_u8(7);
  b.end_frame(at);
  EXPECT_EQ(b.size(), kFrameLenSize + 5);
  EXPECT_EQ(frame_len(b), 5u);
  // Frames concatenate: a second frame's length slot is patched
  // independently of the first.
  const std::size_t at2 = b.begin_frame();
  b.put_u16(9);
  b.end_frame(at2);
  EXPECT_EQ(b.data()[at2 + 3], 2);
}

TEST(Wire, UnpackerLatchesOnUnderflowAndNeverReadsPast) {
  const std::uint8_t bytes[] = {0x01, 0x02, 0x03};
  Unpacker u(bytes, sizeof bytes);
  EXPECT_EQ(u.u16(), 0x0102);
  EXPECT_EQ(u.u32(), 0u);  // 1 byte left: underflow latches
  EXPECT_TRUE(u.failed());
  EXPECT_EQ(u.u8(), 0u);  // still latched, even though a byte remains
  EXPECT_FALSE(u.exhausted());
  EXPECT_EQ(u.bytes(1), nullptr);

  Unpacker trailing(bytes, sizeof bytes);
  EXPECT_EQ(trailing.u16(), 0x0102);
  EXPECT_FALSE(trailing.exhausted()) << "trailing bytes are not exhausted";
  EXPECT_EQ(trailing.u8(), 0x03);
  EXPECT_TRUE(trailing.exhausted());
}

TEST(Wire, HeaderRejectsBadMagicThenBadVersion) {
  PackBuffer b;
  pack_header(b, MsgType::kGetReq, 42);
  ASSERT_EQ(b.size(), kHeaderSize);
  {
    Unpacker u(b.data(), b.size());
    MsgHeader h;
    ErrorCode err;
    ASSERT_TRUE(unpack_header(u, &h, &err));
    EXPECT_EQ(h.magic, kMagic);
    EXPECT_EQ(h.version, kVersion);
    EXPECT_EQ(h.type, MsgType::kGetReq);
    EXPECT_EQ(h.request_id, 42u);
  }
  // Corrupt the magic: kBadMagic even though the version is also wrong
  // when read at the shifted offset — magic is checked first.
  std::vector<std::uint8_t> bad(b.data(), b.data() + b.size());
  bad[0] ^= 0xFF;
  {
    Unpacker u(bad.data(), bad.size());
    MsgHeader h;
    ErrorCode err;
    ASSERT_FALSE(unpack_header(u, &h, &err));
    EXPECT_EQ(err, ErrorCode::kBadMagic);
  }
  // Right magic, any other version — the previous layout included.
  for (const int v : {kVersion - 1, kVersion + 1}) {
    std::vector<std::uint8_t> wrongv(b.data(), b.data() + b.size());
    wrongv[5] = static_cast<std::uint8_t>(v);
    Unpacker u(wrongv.data(), wrongv.size());
    MsgHeader h;
    ErrorCode err;
    ASSERT_FALSE(unpack_header(u, &h, &err)) << "version " << v;
    EXPECT_EQ(err, ErrorCode::kBadVersion) << "version " << v;
  }
  // Truncated header: malformed, not a magic/version complaint.
  {
    Unpacker u(b.data(), kHeaderSize - 3);
    MsgHeader h;
    ErrorCode err;
    ASSERT_FALSE(unpack_header(u, &h, &err));
    EXPECT_EQ(err, ErrorCode::kMalformed);
  }
}

TEST(Wire, RequestBodiesRoundtrip) {
  MsgHeader h;
  ErrorCode err;
  {
    PackBuffer b;
    pack_get_req(b, 7, 0xAABB);
    Unpacker u = payload_of(b);
    ASSERT_TRUE(unpack_header(u, &h, &err));
    EXPECT_EQ(h.type, MsgType::kGetReq);
    EXPECT_EQ(u.u64(), 0xAABBu);
    EXPECT_EQ(u.u64(), 0u);  // no deadline budget
    EXPECT_TRUE(u.exhausted());
  }
  {
    PackBuffer b;
    pack_put_req(b, 8, 5, 500, /*deadline_budget_ns=*/9'000);
    Unpacker u = payload_of(b);
    ASSERT_TRUE(unpack_header(u, &h, &err));
    EXPECT_EQ(h.type, MsgType::kPutReq);
    EXPECT_EQ(u.u64(), 5u);
    EXPECT_EQ(u.u64(), 500u);
    EXPECT_EQ(u.u64(), 9'000u);
    EXPECT_TRUE(u.exhausted());
  }
  {
    PackBuffer b;
    pack_erase_req(b, 9, 11);
    Unpacker u = payload_of(b);
    ASSERT_TRUE(unpack_header(u, &h, &err));
    EXPECT_EQ(h.type, MsgType::kEraseReq);
    EXPECT_EQ(u.u64(), 11u);
    EXPECT_EQ(u.u64(), 0u);
    EXPECT_TRUE(u.exhausted());
  }
  {
    const std::uint64_t keys[] = {3, 1, 4, 1, 5};
    PackBuffer b;
    pack_get_many_req(b, 10, keys, 5);
    EXPECT_EQ(frame_len(b), kHeaderSize + 4 + 5 * 8 + 8);
    Unpacker u = payload_of(b);
    ASSERT_TRUE(unpack_header(u, &h, &err));
    EXPECT_EQ(h.type, MsgType::kGetManyReq);
    ASSERT_EQ(u.u32(), 5u);
    for (const std::uint64_t k : keys) EXPECT_EQ(u.u64(), k);
    EXPECT_EQ(u.u64(), 0u);
    EXPECT_TRUE(u.exhausted());
    // Empty batch is a legal frame: count 0, no keys, then the budget.
    PackBuffer e;
    pack_get_many_req(e, 11, nullptr, 0);
    Unpacker ue = payload_of(e);
    ASSERT_TRUE(unpack_header(ue, &h, &err));
    EXPECT_EQ(ue.u32(), 0u);
    EXPECT_EQ(ue.u64(), 0u);
    EXPECT_TRUE(ue.exhausted());
  }
}

TEST(Wire, ResponseBodiesRoundtrip) {
  MsgHeader h;
  ErrorCode err;
  {
    // Data responses lead with the u8 WireStatus.
    PackBuffer b;
    pack_get_resp(b, 1, true, 77);
    Unpacker u = payload_of(b);
    ASSERT_TRUE(unpack_header(u, &h, &err));
    EXPECT_EQ(h.type, MsgType::kGetResp);
    EXPECT_EQ(h.version, kVersion);
    EXPECT_EQ(u.u8(), static_cast<std::uint8_t>(WireStatus::kOk));
    EXPECT_EQ(u.u8(), 1u);
    EXPECT_EQ(u.u64(), 77u);
    EXPECT_TRUE(u.exhausted());
  }
  {
    PackBuffer b;
    pack_put_resp(b, 2);
    EXPECT_EQ(frame_len(b), kHeaderSize + 1);  // status byte only
    Unpacker u = payload_of(b);
    ASSERT_TRUE(unpack_header(u, &h, &err));
    EXPECT_EQ(h.type, MsgType::kPutResp);
    EXPECT_EQ(u.u8(), static_cast<std::uint8_t>(WireStatus::kOk));
    EXPECT_TRUE(u.exhausted());
  }
  {
    PackBuffer b;
    pack_erase_resp(b, 3, false);
    Unpacker u = payload_of(b);
    ASSERT_TRUE(unpack_header(u, &h, &err));
    EXPECT_EQ(h.type, MsgType::kEraseResp);
    EXPECT_EQ(u.u8(), static_cast<std::uint8_t>(WireStatus::kOk));
    EXPECT_EQ(u.u8(), 0u);
    EXPECT_TRUE(u.exhausted());
  }
  {
    const std::optional<std::uint64_t> vals[] = {std::nullopt, 42};
    PackBuffer b;
    pack_get_many_resp(b, 6, vals, 2);
    Unpacker u = payload_of(b);
    ASSERT_TRUE(unpack_header(u, &h, &err));
    EXPECT_EQ(h.type, MsgType::kGetManyResp);
    EXPECT_EQ(u.u8(), static_cast<std::uint8_t>(WireStatus::kOk));
    ASSERT_EQ(u.u32(), 2u);
    EXPECT_EQ(u.u8(), 0u);
    EXPECT_EQ(u.u64(), 0u);
    EXPECT_EQ(u.u8(), 1u);
    EXPECT_EQ(u.u64(), 42u);
    EXPECT_TRUE(u.exhausted());
  }
  {
    // Refusal frame: the would-be response type carrying just the non-kOk
    // status — nothing was executed, so there is no payload.
    PackBuffer b;
    pack_status_resp(b, MsgType::kGetResp, 5, WireStatus::kShed);
    EXPECT_EQ(frame_len(b), kHeaderSize + 1);
    Unpacker u = payload_of(b);
    ASSERT_TRUE(unpack_header(u, &h, &err));
    EXPECT_EQ(h.type, MsgType::kGetResp);
    EXPECT_EQ(u.u8(), static_cast<std::uint8_t>(WireStatus::kShed));
    EXPECT_TRUE(u.exhausted());
  }
  {
    PackBuffer b;
    pack_error_resp(b, 4, ErrorCode::kUnknownType, "nope");
    Unpacker u = payload_of(b);
    ASSERT_TRUE(unpack_header(u, &h, &err));
    EXPECT_EQ(h.type, MsgType::kErrorResp);
    EXPECT_EQ(u.u16(), static_cast<std::uint16_t>(ErrorCode::kUnknownType));
    const std::uint16_t n = u.u16();
    ASSERT_EQ(n, 4u);
    const std::uint8_t* p = u.bytes(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(p), n), "nope");
    EXPECT_TRUE(u.exhausted());
  }
}

TEST(Wire, DispatchTableFindsEveryRequestTypeAndRejectsOthers) {
  using Handler = int;
  const DispatchEntry<Handler> table[] = {
      {MsgType::kGetReq, "get", 1},
      {MsgType::kPutReq, "put", 2},
      {MsgType::kEraseReq, "erase", 3},
      {MsgType::kGetManyReq, "get_many", 4},
  };
  for (const MsgType t : {MsgType::kGetReq, MsgType::kPutReq,
                          MsgType::kEraseReq, MsgType::kGetManyReq}) {
    const auto* e = dispatch_lookup(table, t);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->type, t);
  }
  EXPECT_EQ(dispatch_lookup(table, MsgType::kGetResp), nullptr);
  EXPECT_EQ(dispatch_lookup(table, static_cast<MsgType>(999)), nullptr);
}


TEST(Wire, TtlRequestAndResponseBodiesRoundtrip) {
  MsgHeader h;
  ErrorCode err;
  {
    PackBuffer b;
    pack_put_ttl_req(b, 30, 5, 500, 1'000'000);
    EXPECT_EQ(frame_len(b), kHeaderSize + 4 * 8);
    Unpacker u = payload_of(b);
    ASSERT_TRUE(unpack_header(u, &h, &err));
    EXPECT_EQ(h.type, MsgType::kPutTtlReq);
    EXPECT_EQ(h.version, kVersion);
    EXPECT_EQ(u.u64(), 5u);
    EXPECT_EQ(u.u64(), 500u);
    EXPECT_EQ(u.u64(), 1'000'000u);
    EXPECT_EQ(u.u64(), 0u);
    EXPECT_TRUE(u.exhausted());
  }
  {
    PackBuffer b;
    pack_touch_req(b, 31, 9, 2'000'000);
    Unpacker u = payload_of(b);
    ASSERT_TRUE(unpack_header(u, &h, &err));
    EXPECT_EQ(h.type, MsgType::kTouchReq);
    EXPECT_EQ(u.u64(), 9u);
    EXPECT_EQ(u.u64(), 2'000'000u);
    EXPECT_EQ(u.u64(), 0u);
    EXPECT_TRUE(u.exhausted());
  }
  {
    PackBuffer b;
    pack_touch_resp(b, 32, true);
    Unpacker u = payload_of(b);
    ASSERT_TRUE(unpack_header(u, &h, &err));
    EXPECT_EQ(h.type, MsgType::kTouchResp);
    EXPECT_EQ(u.u8(), static_cast<std::uint8_t>(WireStatus::kOk));
    EXPECT_EQ(u.u8(), 1u);
    EXPECT_TRUE(u.exhausted());
  }
}

// The layout pinned byte for byte: one golden frame per request type and
// per response type.  The expected buffers are written out longhand —
// golden bytes, not a second copy of the packer — so a layout change
// cannot slip through without touching this test (and bumping kVersion).
std::vector<std::uint8_t> golden(MsgType type, std::uint64_t id,
                                 const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> f;
  const std::uint32_t len =
      static_cast<std::uint32_t>(kHeaderSize + body.size());
  for (int s = 24; s >= 0; s -= 8)
    f.push_back(static_cast<std::uint8_t>(len >> s));
  for (int s = 24; s >= 0; s -= 8)
    f.push_back(static_cast<std::uint8_t>(kMagic >> s));
  f.push_back(0);
  f.push_back(5);  // version
  const auto t = static_cast<std::uint16_t>(type);
  f.push_back(static_cast<std::uint8_t>(t >> 8));
  f.push_back(static_cast<std::uint8_t>(t));
  for (int s = 56; s >= 0; s -= 8)
    f.push_back(static_cast<std::uint8_t>(id >> s));
  f.insert(f.end(), body.begin(), body.end());
  return f;
}

void expect_bytes(const PackBuffer& b, const std::vector<std::uint8_t>& want) {
  ASSERT_EQ(b.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(b.data()[i], want[i]) << "byte " << i;
}

// Big-endian u64 bytes, for readable body literals.
std::vector<std::uint8_t> be64(std::uint64_t v) {
  std::vector<std::uint8_t> out;
  for (int s = 56; s >= 0; s -= 8)
    out.push_back(static_cast<std::uint8_t>(v >> s));
  return out;
}

std::vector<std::uint8_t> cat(
    std::initializer_list<std::vector<std::uint8_t>> parts) {
  std::vector<std::uint8_t> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

TEST(Wire, RequestFramesMatchGoldens) {
  constexpr std::uint64_t kBudget = 0x1122334455667788ULL;
  {
    // get: u64 key | u64 budget.
    PackBuffer b;
    pack_get_req(b, 0x0102030405060708ULL, 0x0B, kBudget);
    expect_bytes(b, golden(MsgType::kGetReq, 0x0102030405060708ULL,
                           cat({be64(0x0B), be64(kBudget)})));
  }
  {
    // put: u64 key | u64 value | u64 budget; no budget is a zero field,
    // never an absent one.
    PackBuffer b;
    pack_put_req(b, 2, 0x0B, 0x0C);
    expect_bytes(b, golden(MsgType::kPutReq, 2,
                           cat({be64(0x0B), be64(0x0C), be64(0)})));
  }
  {
    // erase: u64 key | u64 budget.
    PackBuffer b;
    pack_erase_req(b, 3, 0x0D, kBudget);
    expect_bytes(b, golden(MsgType::kEraseReq, 3,
                           cat({be64(0x0D), be64(kBudget)})));
  }
  {
    // get_many: u32 n | n x u64 key | u64 budget.
    PackBuffer b;
    const std::uint64_t keys[2] = {0x01, 0x02};
    pack_get_many_req(b, 4, keys, 2, kBudget);
    expect_bytes(b, golden(MsgType::kGetManyReq, 4,
                           cat({{0, 0, 0, 2}, be64(1), be64(2),
                                be64(kBudget)})));
  }
  {
    // put_ttl: u64 key | u64 value | u64 ttl | u64 budget.
    PackBuffer b;
    pack_put_ttl_req(b, 5, 0x0B, 0x0C, 0x0E, kBudget);
    expect_bytes(b, golden(MsgType::kPutTtlReq, 5,
                           cat({be64(0x0B), be64(0x0C), be64(0x0E),
                                be64(kBudget)})));
  }
  {
    // touch: u64 key | u64 ttl | u64 budget.
    PackBuffer b;
    pack_touch_req(b, 6, 0x0B, 0x0E, kBudget);
    expect_bytes(b, golden(MsgType::kTouchReq, 6,
                           cat({be64(0x0B), be64(0x0E), be64(kBudget)})));
  }
}

TEST(Wire, ResponseFramesMatchGoldens) {
  {
    // get: u8 status | u8 found | u64 value.
    PackBuffer b;
    pack_get_resp(b, 0x0102030405060708ULL, true, 0x0A);
    expect_bytes(b, golden(MsgType::kGetResp, 0x0102030405060708ULL,
                           cat({{0, 1}, be64(0x0A)})));
  }
  {
    // put (also answers put_ttl): u8 status.
    PackBuffer b;
    pack_put_resp(b, 2);
    expect_bytes(b, golden(MsgType::kPutResp, 2, {0}));
  }
  {
    // erase: u8 status | u8 erased.
    PackBuffer b;
    pack_erase_resp(b, 3, true);
    expect_bytes(b, golden(MsgType::kEraseResp, 3, {0, 1}));
  }
  {
    // get_many: u8 status | u32 n | n x (u8 found | u64 value).
    const std::optional<std::uint64_t> vals[] = {0x0F, std::nullopt};
    PackBuffer b;
    pack_get_many_resp(b, 4, vals, 2);
    expect_bytes(b, golden(MsgType::kGetManyResp, 4,
                           cat({{0, 0, 0, 0, 2, 1}, be64(0x0F), {0},
                                be64(0)})));
  }
  {
    // touch: u8 status | u8 touched.
    PackBuffer b;
    pack_touch_resp(b, 5, true);
    expect_bytes(b, golden(MsgType::kTouchResp, 5, {0, 1}));
  }
  {
    // A refusal: the would-be response type, the status byte, nothing else.
    PackBuffer b;
    pack_status_resp(b, MsgType::kGetManyResp, 6, WireStatus::kDeadline);
    expect_bytes(b, golden(MsgType::kGetManyResp, 6, {4}));
  }
  {
    // error: u16 code | u16 detail_len | detail bytes; no status byte.
    PackBuffer b;
    pack_error_resp(b, 7, ErrorCode::kUnknownType, "x");
    expect_bytes(b, golden(MsgType::kErrorResp, 7, {0, 3, 0, 1, 'x'}));
  }
}

TEST(Wire, PackBufferConsumeDropsLeadingBytesOnly) {
  PackBuffer b;
  b.put_u32(0xAABBCCDD);
  b.put_u16(0xEEFF);
  b.consume(3);  // partial socket write of 3 bytes
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b.data()[0], 0xDD);
  EXPECT_EQ(b.data()[1], 0xEE);
  EXPECT_EQ(b.data()[2], 0xFF);
  b.consume(3);
  EXPECT_TRUE(b.empty());
}

}  // namespace
}  // namespace bjrw::net
