// Binary wire protocol for the KV serving runtime (DESIGN.md §10).
//
// The format follows the classic pack/unpack + message-type-dispatch idiom
// (slurm's src/common/pack.h lineage): every scalar is packed big-endian
// (network order) into a growing byte buffer, every frame is
// length-prefixed, and every message starts with a fixed header —
//
//   frame   := u32 payload_len | payload           (len excludes itself)
//   payload := u32 magic | u16 version | u16 type | u64 request_id | body
//   request body  := type fields | u64 deadline_budget_ns   (0 = none)
//   data response := u8 WireStatus | type fields    (kOk only; a refusal
//                                                    carries the status alone)
//   kErrorResp    := u16 code | u16 detail_len | detail bytes
//
// so a reader can (1) find frame boundaries without understanding any
// message, (2) reject foreign or incompatible traffic from the first 6
// bytes, and (3) dispatch on `type` through a table without a parser per
// peer.  `request_id` is chosen by the client and echoed verbatim in the
// response — responses may be delivered out of order (the server completes
// requests as the owning nodes finish them), so the id is the correlation
// key, not the position in the stream.
//
// There is one layout, named by kVersion, and one rule: any change to it
// bumps kVersion.  A header whose version is anything else gets
// kErrorResp(kBadVersion) and a close — the peer speaks a layout this
// build cannot parse.  Unknown message types, by contrast, answer
// kErrorResp(kUnknownType) and the connection survives (the frame boundary
// is intact).
//
// Unpacking is bounds-checked by construction: an Unpacker never reads
// past its span — any underflow latches `failed()` and every later read
// returns zero, so parse code can unpack a whole body and check once at
// the end (a malformed frame yields kErrorResp(kMalformed), never OOB).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

namespace bjrw::net {

inline constexpr std::uint32_t kMagic = 0x424A5257;  // "BJRW"
inline constexpr std::uint16_t kVersion = 5;

// Frame length prefix (u32) + fixed message header.
inline constexpr std::size_t kFrameLenSize = 4;
inline constexpr std::size_t kHeaderSize = 4 + 2 + 2 + 8;
// Default per-frame ceiling: a get_many of ~64k keys.  Frames above the
// limit are refused with kErrorResp(kFrameTooLarge) — a length prefix the
// reader will not buffer is indistinguishable from garbage, so the
// connection closes too.
inline constexpr std::size_t kDefaultMaxFrame = 1u << 19;

enum class MsgType : std::uint16_t {
  // Requests (client -> server); each body ends with the u64 budget.
  kGetReq = 0,      // body: u64 key
  kPutReq = 1,      // body: u64 key | u64 value
  kEraseReq = 2,    // body: u64 key
  kGetManyReq = 3,  // body: u32 count | count * u64 key
  kPutTtlReq = 4,   // body: u64 key | u64 value | u64 ttl_ns
  kTouchReq = 5,    // body: u64 key | u64 ttl_ns
  // Responses (server -> client); a data response's fields follow its
  // status byte, kErrorResp has none.
  kGetResp = 16,      // body: u8 found | u64 value (0 when absent)
  kPutResp = 17,      // body: (empty) — also answers kPutTtlReq
  kEraseResp = 18,    // body: u8 erased
  kGetManyResp = 19,  // body: u32 count | count * (u8 found | u64 value)
  kErrorResp = 20,    // body: u16 code | u16 detail_len | detail bytes
  kTouchResp = 21,    // body: u8 touched
};

enum class ErrorCode : std::uint16_t {
  kBadMagic = 1,      // first 4 payload bytes are not kMagic (close)
  kBadVersion = 2,    // protocol generation mismatch (close)
  kUnknownType = 3,   // no dispatch entry for `type` (connection survives)
  kMalformed = 4,     // body underflow or trailing bytes (connection survives)
  kFrameTooLarge = 5, // length prefix exceeds the server's ceiling (close)
};

// Per-response admission status, mirroring serve::AdmitResult on the wire.
// Every data response leads with it; non-kOk responses have no further
// body (there is no result to report).  Value 2 is retired and never
// reused (DESIGN.md §10): a peer sending it is malformed, like any other
// undefined byte.
enum class WireStatus : std::uint8_t {
  kOk = 0,        // request executed; payload follows
  kShed = 1,      // admission shed (token bucket): retry after backoff
  kShutdown = 3,  // server stopping
  kDeadline = 4,  // deadline budget expired: do not retry
};

// True when `b` names a WireStatus value.
constexpr bool is_wire_status(std::uint8_t b) {
  switch (static_cast<WireStatus>(b)) {
    case WireStatus::kOk:
    case WireStatus::kShed:
    case WireStatus::kShutdown:
    case WireStatus::kDeadline: return true;
  }
  return false;
}

// --- packing -----------------------------------------------------------------

// Append-only byte buffer with big-endian scalar packing and frame-length
// back-patching.  clear() keeps the capacity, so a connection's write
// buffer stops allocating once it has seen its largest response.
class PackBuffer {
 public:
  void clear() { buf_.clear(); }
  bool empty() const { return buf_.empty(); }
  std::size_t size() const { return buf_.size(); }
  const std::uint8_t* data() const { return buf_.data(); }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void put_u32(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 24));
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void put_u64(std::uint64_t v) {
    put_u32(static_cast<std::uint32_t>(v >> 32));
    put_u32(static_cast<std::uint32_t>(v));
  }
  void put_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  // Frame helpers: begin_frame() reserves the u32 length slot and returns
  // its offset; end_frame() patches it with everything packed since.
  std::size_t begin_frame() {
    const std::size_t at = buf_.size();
    put_u32(0);
    return at;
  }
  void end_frame(std::size_t at) {
    const std::uint32_t len =
        static_cast<std::uint32_t>(buf_.size() - at - kFrameLenSize);
    buf_[at] = static_cast<std::uint8_t>(len >> 24);
    buf_[at + 1] = static_cast<std::uint8_t>(len >> 16);
    buf_[at + 2] = static_cast<std::uint8_t>(len >> 8);
    buf_[at + 3] = static_cast<std::uint8_t>(len);
  }

  // Consume `n` leading bytes (after a partial socket write).  O(size);
  // callers batch it (drop everything written, not byte by byte).
  void consume(std::size_t n) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(n));
  }

 private:
  std::vector<std::uint8_t> buf_;
};

// --- unpacking ---------------------------------------------------------------

// Bounds-checked big-endian reader over a borrowed span.  Underflow
// latches failed(); reads after a failure return 0 and never touch memory
// past the span.
class Unpacker {
 public:
  Unpacker(const std::uint8_t* data, std::size_t len)
      : p_(data), len_(len) {}

  bool failed() const { return failed_; }
  std::size_t remaining() const { return len_ - off_; }
  // A well-formed body consumes its frame exactly: trailing bytes are as
  // malformed as missing ones.
  bool exhausted() const { return !failed_ && off_ == len_; }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return p_[off_ - 1];
  }
  std::uint16_t u16() {
    if (!take(2)) return 0;
    return static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(p_[off_ - 2]) << 8) | p_[off_ - 1]);
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (std::size_t i = off_ - 4; i < off_; ++i) v = (v << 8) | p_[i];
    return v;
  }
  std::uint64_t u64() {
    const std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }
  // Borrow `n` raw bytes from the span (no copy); nullptr on underflow.
  const std::uint8_t* bytes(std::size_t n) {
    if (!take(n)) return nullptr;
    return p_ + (off_ - n);
  }

 private:
  bool take(std::size_t n) {
    if (failed_ || len_ - off_ < n) {
      failed_ = true;
      return false;
    }
    off_ += n;
    return true;
  }

  const std::uint8_t* p_;
  std::size_t len_;
  std::size_t off_ = 0;
  bool failed_ = false;
};

// --- message header ----------------------------------------------------------

struct MsgHeader {
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  MsgType type = MsgType::kGetReq;
  std::uint64_t request_id = 0;
};

inline void pack_header(PackBuffer& b, MsgType type,
                        std::uint64_t request_id) {
  b.put_u32(kMagic);
  b.put_u16(kVersion);
  b.put_u16(static_cast<std::uint16_t>(type));
  b.put_u64(request_id);
}

// Reads the fixed header.  On false, `*err` says which precondition broke
// (magic before version: a foreign peer fails on magic, not on a
// coincidental version number).
inline bool unpack_header(Unpacker& u, MsgHeader* h, ErrorCode* err) {
  h->magic = u.u32();
  h->version = u.u16();
  h->type = static_cast<MsgType>(u.u16());
  h->request_id = u.u64();
  if (u.failed()) {
    *err = ErrorCode::kMalformed;
    return false;
  }
  if (h->magic != kMagic) {
    *err = ErrorCode::kBadMagic;
    return false;
  }
  if (h->version != kVersion) {
    *err = ErrorCode::kBadVersion;
    return false;
  }
  return true;
}

// --- request bodies (client packs, server unpacks) ---------------------------
//
// Every request body ends with the u64 deadline budget: the nanoseconds
// the client grants the server, 0 for none.  The server converts it to an
// absolute deadline on its own clock at parse time.

inline void pack_get_req(PackBuffer& b, std::uint64_t id, std::uint64_t key,
                         std::uint64_t deadline_budget_ns = 0) {
  const std::size_t at = b.begin_frame();
  pack_header(b, MsgType::kGetReq, id);
  b.put_u64(key);
  b.put_u64(deadline_budget_ns);
  b.end_frame(at);
}

inline void pack_put_req(PackBuffer& b, std::uint64_t id, std::uint64_t key,
                         std::uint64_t value,
                         std::uint64_t deadline_budget_ns = 0) {
  const std::size_t at = b.begin_frame();
  pack_header(b, MsgType::kPutReq, id);
  b.put_u64(key);
  b.put_u64(value);
  b.put_u64(deadline_budget_ns);
  b.end_frame(at);
}

inline void pack_erase_req(PackBuffer& b, std::uint64_t id, std::uint64_t key,
                           std::uint64_t deadline_budget_ns = 0) {
  const std::size_t at = b.begin_frame();
  pack_header(b, MsgType::kEraseReq, id);
  b.put_u64(key);
  b.put_u64(deadline_budget_ns);
  b.end_frame(at);
}

inline void pack_get_many_req(PackBuffer& b, std::uint64_t id,
                              const std::uint64_t* keys, std::uint32_t n,
                              std::uint64_t deadline_budget_ns = 0) {
  const std::size_t at = b.begin_frame();
  pack_header(b, MsgType::kGetManyReq, id);
  b.put_u32(n);
  for (std::uint32_t i = 0; i < n; ++i) b.put_u64(keys[i]);
  b.put_u64(deadline_budget_ns);
  b.end_frame(at);
}

// A put with an attached lease TTL.  Answered with a plain kPutResp — the
// response vocabulary is unchanged, only the request carries more.
inline void pack_put_ttl_req(PackBuffer& b, std::uint64_t id,
                             std::uint64_t key, std::uint64_t value,
                             std::uint64_t ttl_ns,
                             std::uint64_t deadline_budget_ns = 0) {
  const std::size_t at = b.begin_frame();
  pack_header(b, MsgType::kPutTtlReq, id);
  b.put_u64(key);
  b.put_u64(value);
  b.put_u64(ttl_ns);
  b.put_u64(deadline_budget_ns);
  b.end_frame(at);
}

// Extends an existing key's lease.
inline void pack_touch_req(PackBuffer& b, std::uint64_t id, std::uint64_t key,
                           std::uint64_t ttl_ns,
                           std::uint64_t deadline_budget_ns = 0) {
  const std::size_t at = b.begin_frame();
  pack_header(b, MsgType::kTouchReq, id);
  b.put_u64(key);
  b.put_u64(ttl_ns);
  b.put_u64(deadline_budget_ns);
  b.end_frame(at);
}

// --- response bodies (server packs, client unpacks) --------------------------
//
// The data-response packers write a kOk status byte; refusals go through
// pack_status_resp.

inline std::size_t begin_ok_resp(PackBuffer& b, MsgType type,
                                 std::uint64_t id) {
  const std::size_t at = b.begin_frame();
  pack_header(b, type, id);
  b.put_u8(static_cast<std::uint8_t>(WireStatus::kOk));
  return at;
}

inline void pack_get_resp(PackBuffer& b, std::uint64_t id, bool found,
                          std::uint64_t value) {
  const std::size_t at = begin_ok_resp(b, MsgType::kGetResp, id);
  b.put_u8(found ? 1 : 0);
  b.put_u64(found ? value : 0);
  b.end_frame(at);
}

inline void pack_put_resp(PackBuffer& b, std::uint64_t id) {
  b.end_frame(begin_ok_resp(b, MsgType::kPutResp, id));
}

inline void pack_erase_resp(PackBuffer& b, std::uint64_t id, bool erased) {
  const std::size_t at = begin_ok_resp(b, MsgType::kEraseResp, id);
  b.put_u8(erased ? 1 : 0);
  b.end_frame(at);
}

inline void pack_touch_resp(PackBuffer& b, std::uint64_t id, bool touched) {
  const std::size_t at = begin_ok_resp(b, MsgType::kTouchResp, id);
  b.put_u8(touched ? 1 : 0);
  b.end_frame(at);
}

inline void pack_get_many_resp(PackBuffer& b, std::uint64_t id,
                               const std::optional<std::uint64_t>* values,
                               std::uint32_t n) {
  const std::size_t at = begin_ok_resp(b, MsgType::kGetManyResp, id);
  b.put_u32(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    b.put_u8(values[i].has_value() ? 1 : 0);
    b.put_u64(values[i].value_or(0));
  }
  b.end_frame(at);
}

// Refusal frame: the response type the request would have gotten,
// carrying just the non-kOk status (no payload — nothing was executed).
inline void pack_status_resp(PackBuffer& b, MsgType type, std::uint64_t id,
                             WireStatus status) {
  const std::size_t at = b.begin_frame();
  pack_header(b, type, id);
  b.put_u8(static_cast<std::uint8_t>(status));
  b.end_frame(at);
}

inline void pack_error_resp(PackBuffer& b, std::uint64_t id, ErrorCode code,
                            const std::string& detail) {
  const std::size_t at = b.begin_frame();
  pack_header(b, MsgType::kErrorResp, id);
  b.put_u16(static_cast<std::uint16_t>(code));
  const std::uint16_t n = static_cast<std::uint16_t>(
      detail.size() > 0xFFFF ? 0xFFFF : detail.size());
  b.put_u16(n);
  b.put_bytes(detail.data(), n);
  b.end_frame(at);
}

// --- message-type dispatch table ---------------------------------------------

// One row per *request* type: the server walks this table instead of
// switch-casing, so adding a message type is one row + one handler, and
// the wire test can assert every request type is reachable.  `Handler` is
// an opaque tag the server instantiates with its member-function type.
template <class Handler>
struct DispatchEntry {
  MsgType type;
  const char* name;
  Handler handler;
};

template <class Handler, std::size_t N>
const DispatchEntry<Handler>* dispatch_lookup(
    const DispatchEntry<Handler> (&table)[N], MsgType type) {
  for (const auto& e : table)
    if (e.type == type) return &e;
  return nullptr;
}

}  // namespace bjrw::net
