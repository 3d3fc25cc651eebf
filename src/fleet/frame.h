// Copyright 2026 The TrustLite Reproduction Authors.
//
// The fleet wire format in one place (docs/WIRE_PROTOCOL.md): the table of
// frame kinds that cross the link fabric, the one encoder and the one
// resyncing scanner for them, the per-reader RX cursor, and the
// stop-and-wait retransmit state that OTA chunks and config pushes share.
//
// A frame is `marker ‖ body ‖ CRC-32(marker ‖ body)`; the marker is the
// first byte and names the kind. The kind table says which way the kind
// travels, which RX stream it lands in, whether it carries a CRC, and how
// long its body is. Everything is little-endian and packed.
//
// The attestation report ('R') is not in the table: the guest trustlet
// forms it, its length depends on its status byte, and it carries no CRC.
// It reaches the verifier through the default node->verifier stream
// (RxStream::kAttest), where ScanAttestationResponse parses it.

#ifndef TRUSTLITE_SRC_FLEET_FRAME_H_
#define TRUSTLITE_SRC_FLEET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace trustlite {

class Fleet;

// Where a delivered frame lands. The first four are per-node byte streams
// the Fleet buffers (Fleet::Rx); kGuestUart is the node's own UART input.
enum class RxStream : uint8_t {
  kAttest,     // Verifier side: attestation reports and other node output.
  kControl,    // Verifier side: config acks and health beacons.
  kUpdate,     // Node side: staged OTA chunks (read by the update agent).
  kConfig,     // Node side: staged config pushes (read by the config agent).
  kGuestUart,  // Node side: the guest firmware's UART.
};
inline constexpr size_t kNumRxStreams = 4;  // Fleet-buffered streams.

enum class FrameDir : uint8_t { kToNode, kToVerifier };

inline constexpr uint8_t kAttestRequestMarker = 'A';  // verifier -> node
inline constexpr uint8_t kUpdateFrameMarker = 0xD5;   // verifier -> node
inline constexpr uint8_t kConfigFrameMarker = 0xC6;   // verifier -> node
inline constexpr uint8_t kConfigAckMarker = 0xC7;     // node -> verifier
inline constexpr uint8_t kHealthFrameMarker = 0xC8;   // node -> verifier

// Length-prefixed kinds carry 8 fixed body bytes, then a u16 data length
// at body offset 8, then the data run.
inline constexpr size_t kFrameHeadBytes = 8;
inline constexpr size_t kFrameLengthBytes = 2;
// Per-kind data maxima. A larger length field is line noise: it would
// otherwise stall the scanner waiting for bytes that never come.
inline constexpr uint16_t kMaxUpdateFrameData = 4096;
inline constexpr uint16_t kMaxConfigFrameData = 1016;  // kMaxConfigBlobBytes

struct FrameKind {
  uint8_t marker;
  FrameDir dir;
  RxStream stream;
  bool crc;             // A CRC-32 over marker and body follows the body.
  uint16_t fixed_body;  // Body bytes when max_data == 0.
  uint16_t max_data;    // Nonzero: length-prefixed, data run <= max_data.
};

inline constexpr FrameKind kFrameKinds[] = {
    // Attestation challenge: target_id(4) challenge(4). A corrupted
    // request yields a report for a nonce never issued, so no CRC.
    {kAttestRequestMarker, FrameDir::kToNode, RxStream::kGuestUart, false, 8,
     0},
    // OTA chunk: campaign_id(4) chunk_offset(4) len(2) data(len).
    {kUpdateFrameMarker, FrameDir::kToNode, RxStream::kUpdate, true, 0,
     kMaxUpdateFrameData},
    // Config push: push_id(4) generation(4) len(2) blob(len).
    {kConfigFrameMarker, FrameDir::kToNode, RxStream::kConfig, true, 0,
     kMaxConfigFrameData},
    // Config ack: push_id(4) generation(4) region_digest(32).
    {kConfigAckMarker, FrameDir::kToVerifier, RxStream::kControl, true, 40,
     0},
    // Health beacon: cycle(8) instructions(8) tx(8) rx(8) config_gen(4)
    // halted(1).
    {kHealthFrameMarker, FrameDir::kToVerifier, RxStream::kControl, true, 37,
     0},
};

// The kind with `marker`, or nullptr.
const FrameKind* FindFrameKind(uint8_t marker);

// The stream a payload travelling `dir` lands in: its kind's stream when
// the first byte is a marker for that direction, else the direction's
// default (guest UART toward a node, kAttest toward the verifier). A
// corrupted marker misroutes a frame, and the receiving stream's scanner
// then drops it as noise.
RxStream RouteFrame(FrameDir dir, const std::string& payload);

// Encodes `marker ‖ head ‖ [u16 len] ‖ data ‖ [CRC-32]` for the kind with
// `marker`. Fixed kinds take their whole body in `head` and no `data`;
// length-prefixed kinds take the kFrameHeadBytes fixed bytes in `head` and
// the variable run in `data`, and the encoder writes the length between.
std::string EncodeFrame(uint8_t marker, const std::vector<uint8_t>& head,
                        std::string_view data = {});

// A scanned frame. Both views point into the scanned stream and stay valid
// until that stream is next appended to or consumed.
struct Frame {
  const FrameKind* kind = nullptr;
  const uint8_t* head = nullptr;  // Body bytes after the marker.
  std::string_view data;          // Length-prefixed run (empty if fixed).
};

enum class FrameScan {
  kFrame,     // A valid frame parsed; resume at *next_offset.
  kNeedMore,  // A marker at *frame_start whose frame is still streaming.
  kNoFrame,   // No marker in the tail: [offset, end) is noise.
};

// Scans rx[offset, end) for the next frame of a kind routed to `stream`.
// Candidates with a bad CRC or an oversized length are skipped as noise
// (the scan resumes one byte past their marker), so no input can wedge a
// stream and one bad frame never hides the next.
FrameScan ScanFrame(const std::string& rx, size_t offset, RxStream stream,
                    size_t* frame_start, size_t* next_offset, Frame* frame);

// One reader's position in one Fleet RX stream. Next() scans forward,
// counts the bytes it skips as noise and moves past each frame; Reclaim()
// hands everything before the cursor back to the fleet, so a garbage flood
// cannot grow the stream without bound.
struct RxCursor {
  size_t offset = 0;
  uint64_t noise_bytes = 0;

  // `scan(rx, offset, &frame_start, &next_offset)` is any ScanFrame-shaped
  // scanner whose result enum has kFrame/kNeedMore/kNoFrame. Returns true
  // when it found a frame (the cursor is then past it).
  template <typename ScanFn>
  bool Next(const std::string& rx, ScanFn&& scan) {
    size_t frame_start = 0;
    size_t next_offset = 0;
    const auto result = scan(rx, offset, &frame_start, &next_offset);
    using Result = decltype(result);
    const size_t resume = result == Result::kNoFrame ? rx.size() : frame_start;
    noise_bytes += resume - offset;
    offset = result == Result::kFrame ? next_offset : resume;
    return result == Result::kFrame;
  }
  bool Next(const std::string& rx, RxStream stream, Frame* frame) {
    return Next(rx, [&](const std::string& s, size_t at, size_t* start,
                        size_t* next) {
      return ScanFrame(s, at, stream, start, next, frame);
    });
  }
  void Reclaim(Fleet* fleet, int node, RxStream stream);
};

// Stop-and-wait retransmit state for one node: one frame outstanding, a
// cycle deadline, and a retry budget shared by every frame of one
// transfer. OTA chunks and config pushes both use it.
inline constexpr int kMaxRetransmits = 25;

class StopAndWait {
 public:
  enum class Poll { kWait, kResend, kExhausted };

  explicit StopAndWait(uint64_t timeout_cycles) : timeout_(timeout_cycles) {}

  // Opens a transfer with a full retry budget.
  void Open() { retries_ = 0; }
  // Arms the deadline for a frame sent at `now`.
  void Sent(uint64_t now) { deadline_ = now + timeout_; }
  // kWait before the deadline. After it: kResend (spending one retry) while
  // the budget lasts, then kExhausted — so the last resend still gets its
  // full deadline to be answered.
  Poll Check(uint64_t now) {
    if (now < deadline_) {
      return Poll::kWait;
    }
    if (retries_ >= kMaxRetransmits) {
      return Poll::kExhausted;
    }
    ++retries_;
    return Poll::kResend;
  }
  int retries() const { return retries_; }

 private:
  uint64_t timeout_;
  uint64_t deadline_ = 0;
  int retries_ = 0;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_FLEET_FRAME_H_
