// Binary wire protocol for the KV serving runtime (DESIGN.md §10).
//
// The format follows the classic pack/unpack idiom (slurm's
// src/common/pack.h lineage): every scalar is packed big-endian (network
// order) into a growing byte buffer, every frame is length-prefixed, and
// every message starts with a fixed header —
//
//   frame   := u32 payload_len | payload           (len excludes itself)
//   payload := u32 magic | u16 version | u16 type | u64 request_id | body
//   request body  := type fields | u64 deadline_budget_ns   (0 = none)
//   data response := u8 WireStatus | type fields    (kOk only; a refusal
//                                                    carries the status alone)
//   kErrorResp    := u16 code | u16 detail_len | detail bytes
//
// so a reader can (1) find frame boundaries without understanding any
// message and (2) reject foreign or incompatible traffic from the first 6
// bytes.  This file is the one place that knows the layout: the pack_*
// functions write every frame, and one decoder per direction reads them —
// unpack_request (one switch over the request types, run by the server)
// and unpack_response (run by the client).  `request_id` is chosen by the
// client and echoed verbatim in the response — responses may be delivered
// out of order (the server completes requests as the owning nodes finish
// them), so the id is the correlation key, not the position in the stream.
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
// returns zero, so a decoder can unpack a whole body and check once at
// the end (a malformed frame yields kErrorResp(kMalformed), never OOB).
#pragma once

#include <bit>
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
  kUnknownType = 3,   // `type` names no request (connection survives)
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

// Short reason text carried in a kErrorResp's detail field.
constexpr const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::kBadMagic: return "bad magic";
    case ErrorCode::kBadVersion: return "protocol version mismatch";
    case ErrorCode::kUnknownType: return "unknown message type";
    case ErrorCode::kMalformed: return "frame does not match its message";
    case ErrorCode::kFrameTooLarge: return "frame exceeds server limit";
  }
  return "?";
}

// The response type that answers request type `t` (kPutResp answers both
// puts); kErrorResp for anything that is not a request.
constexpr MsgType response_type(MsgType t) {
  switch (t) {
    case MsgType::kGetReq: return MsgType::kGetResp;
    case MsgType::kPutReq:
    case MsgType::kPutTtlReq: return MsgType::kPutResp;
    case MsgType::kEraseReq: return MsgType::kEraseResp;
    case MsgType::kGetManyReq: return MsgType::kGetManyResp;
    case MsgType::kTouchReq: return MsgType::kTouchResp;
    default: return MsgType::kErrorResp;
  }
}

// Converts a u16/u32/u64 between host and big-endian order (the swap is
// its own inverse; a no-op on big-endian hosts).
template <class T>
constexpr T big_endian(T v) {
  if constexpr (std::endian::native == std::endian::little) {
    if constexpr (sizeof v == 2) return __builtin_bswap16(v);
    if constexpr (sizeof v == 4) return __builtin_bswap32(v);
    if constexpr (sizeof v == 8) return __builtin_bswap64(v);
  }
  return v;
}

// Reads one big-endian scalar from `p` as a single word (memcpy: any
// alignment; a u8 needs no swap).  No bounds check — callers check first (Unpacker::take, a
// buffered length).
template <class T>
T load_be(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return big_endian(v);
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
  void put_u16(std::uint16_t v) { put_be(v); }
  void put_u32(std::uint32_t v) { put_be(v); }
  void put_u64(std::uint64_t v) { put_be(v); }
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
    const std::uint32_t len = big_endian(
        static_cast<std::uint32_t>(buf_.size() - at - kFrameLenSize));
    std::memcpy(buf_.data() + at, &len, sizeof len);
  }

  // Consume `n` leading bytes (after a partial socket write).  O(size);
  // callers batch it (drop everything written, not byte by byte).
  void consume(std::size_t n) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(n));
  }

 private:
  template <class T>
  void put_be(T v) {
    v = big_endian(v);
    put_bytes(&v, sizeof v);
  }

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

  std::uint8_t u8() { return load<std::uint8_t>(); }
  std::uint16_t u16() { return load<std::uint16_t>(); }
  std::uint32_t u32() { return load<std::uint32_t>(); }
  std::uint64_t u64() { return load<std::uint64_t>(); }
  // Borrow `n` raw bytes from the span (no copy); nullptr on underflow.
  const std::uint8_t* bytes(std::size_t n) {
    if (!take(n)) return nullptr;
    return p_ + (off_ - n);
  }

 private:
  template <class T>
  T load() {
    if (!take(sizeof(T))) return 0;
    return load_be<T>(p_ + (off_ - sizeof(T)));
  }

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

// --- receive buffering -------------------------------------------------------

// A socket's receive buffer: bytes [head, tail) arrived and are not yet
// consumed.  Reads land in the free tail; reserve() makes room by moving
// the unconsumed bytes to the front, growing only when they would not
// fit, so a connection's steady state neither allocates nor zero-fills.
class RecvBuffer {
 public:
  const std::uint8_t* data() const { return buf_.data() + head_; }
  std::size_t size() const { return tail_ - head_; }
  // Length prefix of the frame at the head; needs size() >= kFrameLenSize.
  std::uint32_t frame_len() const { return load_be<std::uint32_t>(data()); }

  // Makes room for `n` unconsumed bytes in all.
  void reserve(std::size_t n) {
    if (buf_.size() - head_ >= n) return;
    if (head_ > 0) {
      std::memmove(buf_.data(), buf_.data() + head_, size());
      tail_ -= head_;
      head_ = 0;
    }
    if (buf_.size() < n) buf_.resize(n < kMinCapacity ? kMinCapacity : n);
  }
  std::uint8_t* tail() { return buf_.data() + tail_; }
  std::size_t tail_room() const { return buf_.size() - tail_; }
  void commit(std::size_t n) { tail_ += n; }
  void consume(std::size_t n) {
    head_ += n;
    if (head_ == tail_) head_ = tail_ = 0;
  }
  void clear() { head_ = tail_ = 0; }

 private:
  static constexpr std::size_t kMinCapacity = 16 * 1024;

  std::vector<std::uint8_t> buf_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
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

// --- request packers (client side; unpack_request reads them) ----------------
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

// --- response packers (server side; unpack_response reads them) --------------
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

// --- decoding ----------------------------------------------------------------
//
// One decoder per direction, each a single switch over the types it
// accepts.  Both take a payload (the frame after its length prefix) and
// require the body to fill it exactly.

// One decoded request frame, whichever type it was.
struct WireRequest {
  std::uint64_t id = 0;
  MsgType type = MsgType::kGetReq;
  std::uint64_t key = 0;        // put, erase, put_ttl, touch
  std::uint64_t value = 0;      // put, put_ttl
  std::uint64_t ttl_ns = 0;     // put_ttl, touch
  std::uint64_t budget_ns = 0;  // every request; 0 = none
  // get and get_many: `count` big-endian u64 keys, borrowed from the frame
  // (a get is a batch of one).
  const std::uint8_t* keys = nullptr;
  std::uint32_t count = 0;

  std::uint64_t key_at(std::uint32_t i) const {
    return load_be<std::uint64_t>(keys + std::size_t{i} * 8);
  }
};

// Decodes one request payload.  On false, `*err` says why: kBadMagic or
// kBadVersion (the header: the stream cannot be trusted), kUnknownType or
// kMalformed (the body: the frame boundary is intact).  `r->id` is set
// whenever the header was long enough to carry it, so an error reply can
// echo it.  Nothing is allocated, whatever the frame claims.
inline bool unpack_request(const std::uint8_t* payload, std::size_t len,
                           WireRequest* r, ErrorCode* err) {
  Unpacker u(payload, len);
  MsgHeader h;
  const bool header_ok = unpack_header(u, &h, err);
  r->id = h.request_id;
  r->type = h.type;
  if (!header_ok) return false;
  switch (h.type) {
    case MsgType::kGetReq:
      r->count = 1;
      r->keys = u.bytes(8);
      break;
    case MsgType::kPutReq:
      r->key = u.u64();
      r->value = u.u64();
      break;
    case MsgType::kEraseReq:
      r->key = u.u64();
      break;
    case MsgType::kGetManyReq: {
      r->count = u.u32();
      // The count must agree with the frame length (keys, then the
      // budget) before anything is sized by it: a lying count is a
      // malformed body, not an allocation.
      const std::size_t keys_len = std::size_t{r->count} * 8;
      if (u.remaining() != keys_len + 8) {
        *err = ErrorCode::kMalformed;
        return false;
      }
      r->keys = u.bytes(keys_len);
      break;
    }
    case MsgType::kPutTtlReq:
      r->key = u.u64();
      r->value = u.u64();
      r->ttl_ns = u.u64();
      break;
    case MsgType::kTouchReq:
      r->key = u.u64();
      r->ttl_ns = u.u64();
      break;
    default:
      *err = ErrorCode::kUnknownType;
      return false;
  }
  r->budget_ns = u.u64();
  if (!u.exhausted()) {
    *err = ErrorCode::kMalformed;
    return false;
  }
  return true;
}

// One decoded response frame, whichever type it was.
struct Response {
  std::uint64_t id = 0;
  MsgType type = MsgType::kErrorResp;
  // Admission status; a non-kOk data response carries no payload.
  WireStatus status = WireStatus::kOk;
  // kGetResp
  bool found = false;
  std::uint64_t value = 0;
  // kEraseResp
  bool erased = false;
  // kTouchResp
  bool touched = false;
  // kGetManyResp
  std::vector<std::optional<std::uint64_t>> values;
  // kErrorResp
  ErrorCode error_code = ErrorCode::kMalformed;
  std::string error_detail;
};

// Decodes one response payload.  False on anything a server built from
// this file never sends: a bad header, a request or unknown type, a
// status byte outside WireStatus (the retired value 2 included), or a
// body that does not fill the frame exactly.
inline bool unpack_response(const std::uint8_t* payload, std::size_t len,
                            Response* r) {
  Unpacker u(payload, len);
  MsgHeader h;
  ErrorCode err;
  if (!unpack_header(u, &h, &err)) return false;
  r->id = h.request_id;
  r->type = h.type;
  r->status = WireStatus::kOk;
  r->values.clear();
  // Data responses lead with the admission status; a refusal carries
  // nothing else.
  if (h.type != MsgType::kErrorResp) {
    const std::uint8_t status = u.u8();
    if (!is_wire_status(status)) return false;
    r->status = static_cast<WireStatus>(status);
    if (r->status != WireStatus::kOk) return u.exhausted();
  }
  switch (h.type) {
    case MsgType::kGetResp:
      r->found = u.u8() != 0;
      r->value = u.u64();
      break;
    case MsgType::kPutResp:
      break;
    case MsgType::kEraseResp:
      r->erased = u.u8() != 0;
      break;
    case MsgType::kTouchResp:
      r->touched = u.u8() != 0;
      break;
    case MsgType::kGetManyResp: {
      const std::uint32_t n = u.u32();
      if (u.remaining() != std::size_t{n} * 9) return false;
      r->values.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        const bool found = u.u8() != 0;
        const std::uint64_t v = u.u64();
        r->values.push_back(found ? std::optional<std::uint64_t>(v)
                                  : std::nullopt);
      }
      break;
    }
    case MsgType::kErrorResp: {
      r->error_code = static_cast<ErrorCode>(u.u16());
      const std::uint16_t n = u.u16();
      const std::uint8_t* p = u.bytes(n);
      r->error_detail.assign(p ? reinterpret_cast<const char*>(p) : "",
                             p ? n : 0);
      break;
    }
    default:
      return false;
  }
  return u.exhausted();
}

}  // namespace bjrw::net
