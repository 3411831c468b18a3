// Framed binary wire protocol for the decimation service.
//
// Every message is one frame: a fixed 24-byte little-endian header plus a
// variable payload, protected end to end by a CRC-32 (IEEE 802.3
// polynomial) over the header (with the CRC field zeroed) and the
// payload:
//
//   offset  size  field
//        0     4  magic 0x44534443 ("DSDC")
//        4     1  type (FrameType)
//        5     1  flags (bit 0: LOCKSTEP on OPEN; other bits reserved, 0)
//        6     2  reserved (0)
//        8     4  channel id
//       12     4  sequence number
//       16     4  payload length in bytes
//       20     4  CRC-32
//
// Client -> server: OPEN / CONFIG (payload: u32 preset id, or a full
// serialized ChainConfig -- see encode_chain_config), DATA
// (payload: int32 modulator codes, little-endian; `seq` must increment by
// one per DATA frame per channel starting at 0 after OPEN), DRAIN, CLOSE.
//
// Server -> client: ACK (payload: u32 acknowledged FrameType), DATA_OUT
// (payload: int64 decimated samples in the chain's output format; `seq`
// is a per-channel output frame counter), DRAINED (end of a drain's
// flush tail), SHED (the DATA frame with this `seq` was dropped by the
// overload policy), ERROR (payload: u32 ErrorCode).
//
// A frame that fails validation (bad magic, oversized payload, bad CRC,
// unknown type) means the byte stream itself cannot be trusted, so the
// parser reports kBad and the server drops the connection; per-session
// errors (unknown channel, bad sequence number, unknown preset) are
// well-formed ERROR frames on an intact connection.
//
// docs/SERVICE.md holds the full protocol specification.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/decimator/chain.h"

namespace dsadc::service {

inline constexpr std::uint32_t kMagic = 0x44534443u;  // "DSDC" (LE "CDSD")
inline constexpr std::size_t kHeaderBytes = 24;
/// Upper bound on payload size: 256K codes per DATA frame.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;

/// OPEN flag LOCKSTEP: accepted, ignored. Every session runs on its own
/// chain whatever the flag says; the bit stays reserved so clients that
/// set it keep working.
inline constexpr std::uint8_t kFlagLockstep = 0x01;

enum class FrameType : std::uint8_t {
  // client -> server
  kOpen = 1,
  kConfig = 2,
  kData = 3,
  kDrain = 4,
  kClose = 5,
  // server -> client
  kAck = 6,
  kDataOut = 7,
  kDrained = 8,
  kShed = 9,
  kError = 10,
};

enum class ErrorCode : std::uint32_t {
  kNone = 0,
  kBadSeq = 1,       ///< DATA sequence number out of order (frame dropped)
  kNotOpen = 2,      ///< operation on a channel that is not open
  kAlreadyOpen = 3,  ///< OPEN on a channel that is already open
  kBadPreset = 4,    ///< unknown configuration preset id
  kBadPayload = 5,   ///< payload malformed for the frame type
  kInternal = 6,     ///< server-side execution failure
};

const char* frame_type_name(FrameType t);
const char* error_code_name(ErrorCode c);

struct Frame {
  FrameType type = FrameType::kData;
  std::uint8_t flags = 0;
  std::uint32_t channel = 0;
  std::uint32_t seq = 0;
  std::vector<std::uint8_t> payload;
};

/// A parsed frame whose payload BORROWS the caller's receive buffer
/// (zero-copy). The span is valid only until the underlying buffer is
/// compacted, grown, or refilled -- i.e. within the current scan pass.
/// Anything that must outlive the pass (e.g. a session job's code block)
/// must be decoded out of the span before the next buffer mutation.
struct FrameView {
  FrameType type = FrameType::kData;
  std::uint8_t flags = 0;
  std::uint32_t channel = 0;
  std::uint32_t seq = 0;
  std::span<const std::uint8_t> payload;
};

enum class ScanResult { kFrame, kNeedMore, kBad };

/// Validate one frame at the start of `data` (magic, type, length, CRC).
/// On kFrame: fills `*out` with spans into `data` and sets `*consumed` to
/// the frame's total wire size. On kBad: `*error` (when non-null) says
/// why. Never copies the payload -- this is the borrowing core both the
/// server's event loop and FrameParser are built on.
ScanResult scan_frame(const std::uint8_t* data, std::size_t n,
                      FrameView* out, std::size_t* consumed,
                      std::string* error);

/// CRC-32 (IEEE 802.3, reflected, init/final 0xffffffff) of `n` bytes.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

/// Serialize a frame (header CRC included) onto `out`.
void append_frame(std::vector<std::uint8_t>& out, const Frame& f);
std::vector<std::uint8_t> encode_frame(const Frame& f);

/// An outbound frame held as header + detached payload, so the event
/// thread can hand both to sendmsg() as two iovecs without gluing them
/// into one buffer.
struct OutFrame {
  std::array<std::uint8_t, kHeaderBytes> header{};
  std::vector<std::uint8_t> payload;
};

/// Fill `f.header` for `f.payload` (CRC over header + payload).
void seal_frame(OutFrame& f, FrameType type, std::uint8_t flags,
                std::uint32_t channel, std::uint32_t seq);

// --- payload codecs ------------------------------------------------------

std::vector<std::uint8_t> encode_u32(std::uint32_t v);
bool decode_u32(std::span<const std::uint8_t> payload, std::uint32_t* v);

std::vector<std::uint8_t> encode_codes(std::span<const std::int32_t> codes);
bool decode_codes(std::span<const std::uint8_t> payload,
                  std::vector<std::int32_t>* codes);

std::vector<std::uint8_t> encode_samples(
    std::span<const std::int64_t> samples);
bool decode_samples(std::span<const std::uint8_t> payload,
                    std::vector<std::int64_t>* samples);

// --- configuration presets ----------------------------------------------

/// OPEN/CONFIG payloads name a chain preset instead of serializing a full
/// ChainConfig: 0 is the paper chain, 1 a half-scale variant (different
/// CSD scaler, observably distinct output). Unknown ids -> nullptr.
/// Presets are designed once and shared (the design flow is expensive).
std::shared_ptr<const decim::ChainConfig> preset_config(std::uint32_t id);
inline constexpr std::uint32_t kNumPresets = 2;

// --- full ChainConfig serialization --------------------------------------

/// Serialize a complete ChainConfig (every field, including the designed
/// HBF's CSD digit lists) for OPEN/CONFIG payloads. Doubles travel as
/// bit-cast u64 so a round trip is exact; the blob starts with its own
/// magic + version so a 4-byte preset id can never be confused with it.
std::vector<std::uint8_t> encode_chain_config(const decim::ChainConfig& cfg);

/// Strict inverse of encode_chain_config: bounds-checked, rejects unknown
/// versions, trailing bytes, or absurd element counts. Returns false
/// without touching `*cfg` on malformed input.
bool decode_chain_config(std::span<const std::uint8_t> payload,
                         decim::ChainConfig* cfg);

// --- incremental parser --------------------------------------------------

/// Feed raw received bytes, pull whole validated frames. After kBad the
/// stream is unsynchronized and the connection must be dropped.
class FrameParser {
 public:
  enum class Result { kFrame, kNeedMore, kBad };

  void feed(const std::uint8_t* data, std::size_t n);
  Result next(Frame* out);
  const std::string& error() const { return error_; }
  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const { return buf_.size() - off_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;
  std::string error_;
};

}  // namespace dsadc::service
