// Copyright 2026 The TrustLite Reproduction Authors.
// Fleet wire-format tests (src/fleet/frame.h): every worked frame in
// docs/WIRE_PROTOCOL.md encodes byte for byte to its hexdump and
// round-trips through the one scanner, every truncation waits for more
// bytes, and for each CRC-framed kind no single-bit flip ever scans as a
// frame while a good frame behind the damaged one is still found.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/fleet/control.h"
#include "src/fleet/frame.h"
#include "src/services/attestation.h"

namespace trustlite {
namespace {

struct WorkedFrame {
  const char* name;
  uint8_t marker;
  std::vector<uint8_t> head;
  std::string data;
  const char* doc_hex;  // Hexdump from docs/WIRE_PROTOCOL.md, spaces only.
};

void PrintTo(const WorkedFrame& frame, std::ostream* os) { *os << frame.name; }

std::vector<uint8_t> Le32s(std::initializer_list<uint32_t> words) {
  std::vector<uint8_t> out;
  for (uint32_t word : words) {
    AppendLe32(out, word);
  }
  return out;
}

std::string FromHex(const char* hex) {
  std::string out;
  std::string digits;
  for (const char* p = hex; *p != '\0'; ++p) {
    if (*p != ' ') {
      digits += *p;
    }
  }
  for (size_t i = 0; i + 1 < digits.size(); i += 2) {
    out += static_cast<char>(std::stoi(digits.substr(i, 2), nullptr, 16));
  }
  return out;
}

const std::string kWorkedBlob = "mode=eco\nrate=9600\n";

WorkedFrame AttestRequest() {
  return {"AttestRequest", kAttestRequestMarker, Le32s({7, 0x1329291b}), "",
          "41 07 00 00 00 1b 29 29 13"};
}

WorkedFrame UpdateChunk() {
  return {"UpdateChunk", kUpdateFrameMarker, Le32s({0x00c0ffee, 0x200}),
          std::string("\x13\x00\x00\xef\xbe\xad\xde\x42", 8),
          "d5 ee ff c0 00 00 02 00 00 08 00 13 00 00 ef be "
          "ad de 42 71 f6 32 9a"};
}

WorkedFrame ConfigPush() {
  return {"ConfigPush", kConfigFrameMarker, Le32s({0x1b2e9d47, 1}),
          kWorkedBlob,
          "c6 47 9d 2e 1b 01 00 00 00 13 00 6d 6f 64 65 3d "
          "65 63 6f 0a 72 61 74 65 3d 39 36 30 30 0a 4e a7 "
          "ec 1a"};
}

WorkedFrame ConfigAck() {
  std::vector<uint8_t> head = Le32s({0x1b2e9d47, 1});
  const Sha256Digest digest = ConfigRegionDigest(1, kWorkedBlob);
  head.insert(head.end(), digest.begin(), digest.end());
  return {"ConfigAck", kConfigAckMarker, head, "",
          "c7 47 9d 2e 1b 01 00 00 00 96 5d 8d 1a be 19 02 "
          "40 ff 90 d3 81 86 9d d2 28 ad 70 8d a1 47 4b 37 "
          "f8 7c e5 ee 2f f0 c0 2f 6e 6c 80 e3 6b"};
}

WorkedFrame HealthBeacon() {
  std::vector<uint8_t> head;
  AppendLe64(head, 660000);  // cycle
  AppendLe64(head, 287466);  // instructions
  AppendLe64(head, 45);      // tx bytes
  AppendLe64(head, 121);     // rx bytes
  AppendLe32(head, 1);       // config generation
  head.push_back(0);         // running
  return {"HealthBeacon", kHealthFrameMarker, head, "",
          "c8 20 12 0a 00 00 00 00 00 ea 62 04 00 00 00 00 "
          "00 2d 00 00 00 00 00 00 00 79 00 00 00 00 00 00 "
          "00 01 00 00 00 00 74 7b b3 40"};
}

const FrameKind& KindOf(const WorkedFrame& worked) {
  const FrameKind* kind = FindFrameKind(worked.marker);
  EXPECT_NE(kind, nullptr);
  return *kind;
}

std::string Encode(const WorkedFrame& worked) {
  return EncodeFrame(worked.marker, worked.head, worked.data);
}

// Scans `rx` from 0 and returns every frame found, in order.
std::vector<std::string> ScanAll(const std::string& rx, RxStream stream) {
  std::vector<std::string> frames;
  size_t offset = 0;
  while (true) {
    size_t frame_start = 0;
    size_t next_offset = 0;
    Frame frame;
    if (ScanFrame(rx, offset, stream, &frame_start, &next_offset, &frame) !=
        FrameScan::kFrame) {
      return frames;
    }
    frames.push_back(rx.substr(frame_start, next_offset - frame_start));
    offset = next_offset;
  }
}

class WireFrameTest : public testing::TestWithParam<WorkedFrame> {};
class CrcFrameTest : public WireFrameTest {};

TEST_P(WireFrameTest, EncodesDocHexdump) {
  const WorkedFrame& worked = GetParam();
  EXPECT_EQ(Encode(worked), FromHex(worked.doc_hex));
  if (worked.marker == kAttestRequestMarker) {
    // The guest protocol's own encoder agrees with the table.
    EXPECT_EQ(EncodeAttestationRequest(7, 0x1329291b), Encode(worked));
  }
}

TEST_P(WireFrameTest, RoundTripsThroughNoise) {
  const WorkedFrame& worked = GetParam();
  const FrameKind& kind = KindOf(worked);
  const std::string frame = Encode(worked);
  // Control-stream kinds share one stream: put the other kind ahead so one
  // scanner must separate them.
  std::string lead;
  if (kind.stream == RxStream::kControl) {
    lead = Encode(worked.marker == kConfigAckMarker ? HealthBeacon()
                                                    : ConfigAck());
  }
  const std::string rx = lead + "noise" + frame + "tail";
  size_t frame_start = 0;
  size_t next_offset = 0;
  Frame scanned;
  size_t offset = 0;
  if (!lead.empty()) {
    ASSERT_EQ(ScanFrame(rx, 0, kind.stream, &frame_start, &offset, &scanned),
              FrameScan::kFrame);
    EXPECT_EQ(frame_start, 0u);
    EXPECT_NE(scanned.kind->marker, worked.marker);
  }
  ASSERT_EQ(ScanFrame(rx, offset, kind.stream, &frame_start, &next_offset,
                      &scanned),
            FrameScan::kFrame);
  EXPECT_EQ(frame_start, lead.size() + 5);
  EXPECT_EQ(next_offset, frame_start + frame.size());
  EXPECT_EQ(scanned.kind, &kind);
  EXPECT_EQ(std::vector<uint8_t>(scanned.head,
                                 scanned.head + worked.head.size()),
            worked.head);
  EXPECT_EQ(scanned.data, worked.data);
  // The tail is noise.
  EXPECT_EQ(ScanFrame(rx, next_offset, kind.stream, &frame_start,
                      &next_offset, &scanned),
            FrameScan::kNoFrame);
}

TEST_P(WireFrameTest, EveryTruncationNeedsMore) {
  const WorkedFrame& worked = GetParam();
  const std::string frame = Encode(worked);
  for (size_t len = 1; len < frame.size(); ++len) {
    size_t frame_start = 99;
    size_t next_offset = 0;
    Frame scanned;
    EXPECT_EQ(ScanFrame(frame.substr(0, len), 0, KindOf(worked).stream,
                        &frame_start, &next_offset, &scanned),
              FrameScan::kNeedMore)
        << "truncated to " << len;
    EXPECT_EQ(frame_start, 0u);
  }
}

TEST_P(CrcFrameTest, EveryBitFlipIsRejected) {
  const WorkedFrame& worked = GetParam();
  const FrameKind& kind = KindOf(worked);
  ASSERT_TRUE(kind.crc);
  const std::string frame = Encode(worked);
  // A later frame of the same kind with one head byte changed.
  WorkedFrame next = worked;
  next.head[4] ^= 0x01;
  const std::string good = Encode(next);
  const size_t length_at = 1 + kFrameHeadBytes;
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = frame;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_TRUE(ScanAll(flipped, kind.stream).empty())
          << "byte " << byte << " bit " << bit;
      // A damaged length field may claim more bytes than follow and wait
      // for them; any other damage resyncs onto the good frame behind it.
      const bool length_field = kind.max_data != 0 && byte >= length_at &&
                                byte < length_at + kFrameLengthBytes;
      if (!length_field) {
        EXPECT_EQ(ScanAll(flipped + good, kind.stream),
                  std::vector<std::string>{good})
            << "byte " << byte << " bit " << bit;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WorkedFrames, WireFrameTest,
                         testing::Values(AttestRequest(), UpdateChunk(),
                                         ConfigPush(), ConfigAck(),
                                         HealthBeacon()));

INSTANTIATE_TEST_SUITE_P(CrcKinds, CrcFrameTest,
                         testing::Values(UpdateChunk(), ConfigPush(),
                                         ConfigAck(), HealthBeacon()));

}  // namespace
}  // namespace trustlite
