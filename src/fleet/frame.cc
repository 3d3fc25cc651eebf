// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/fleet/frame.h"

#include <array>
#include <cassert>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/fleet/fleet.h"

namespace trustlite {
namespace {

// kStreamKinds[stream][byte]: index into kFrameKinds of the kind with that
// marker routed to that stream, or -1. Lets the scanner test each byte in
// one lookup.
constexpr auto kStreamKinds = [] {
  std::array<std::array<int8_t, 256>, kNumRxStreams + 1> table{};
  for (auto& row : table) {
    row.fill(-1);
  }
  for (size_t k = 0; k < std::size(kFrameKinds); ++k) {
    const FrameKind& kind = kFrameKinds[k];
    table[static_cast<size_t>(kind.stream)][kind.marker] =
        static_cast<int8_t>(k);
  }
  return table;
}();

size_t BodyBytes(const FrameKind& kind, size_t data_len) {
  return kind.max_data == 0 ? kind.fixed_body
                            : kFrameHeadBytes + kFrameLengthBytes + data_len;
}

}  // namespace

const FrameKind* FindFrameKind(uint8_t marker) {
  for (const FrameKind& kind : kFrameKinds) {
    if (kind.marker == marker) {
      return &kind;
    }
  }
  return nullptr;
}

RxStream RouteFrame(FrameDir dir, const std::string& payload) {
  const FrameKind* kind =
      payload.empty() ? nullptr
                      : FindFrameKind(static_cast<uint8_t>(payload[0]));
  if (kind != nullptr && kind->dir == dir) {
    return kind->stream;
  }
  return dir == FrameDir::kToNode ? RxStream::kGuestUart : RxStream::kAttest;
}

std::string EncodeFrame(uint8_t marker, const std::vector<uint8_t>& head,
                        std::string_view data) {
  const FrameKind* kind = FindFrameKind(marker);
  assert(kind != nullptr);
  assert(kind->max_data == 0 ? head.size() == kind->fixed_body && data.empty()
                             : head.size() == kFrameHeadBytes &&
                                   data.size() <= kind->max_data);
  std::string frame;
  frame.reserve(1 + BodyBytes(*kind, data.size()) + 4);
  frame.push_back(static_cast<char>(marker));
  frame.append(head.begin(), head.end());
  if (kind->max_data != 0) {
    frame.push_back(static_cast<char>(data.size()));
    frame.push_back(static_cast<char>(data.size() >> 8));
  }
  frame.append(data);
  if (kind->crc) {
    uint8_t crc[4];
    StoreLe32(crc, Crc32(reinterpret_cast<const uint8_t*>(frame.data()),
                         frame.size()));
    frame.append(reinterpret_cast<const char*>(crc), sizeof(crc));
  }
  return frame;
}

FrameScan ScanFrame(const std::string& rx, size_t offset, RxStream stream,
                    size_t* frame_start, size_t* next_offset, Frame* frame) {
  const std::array<int8_t, 256>& kinds =
      kStreamKinds[static_cast<size_t>(stream)];
  const size_t n = rx.size();
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(rx.data());
  size_t pos = offset;
  while (true) {
    while (pos < n && kinds[bytes[pos]] < 0) {
      ++pos;
    }
    if (pos >= n) {
      return FrameScan::kNoFrame;
    }
    *frame_start = pos;
    const FrameKind& kind = kFrameKinds[kinds[bytes[pos]]];
    const uint8_t* p = bytes + pos;
    size_t data_len = 0;
    if (kind.max_data != 0) {
      if (n - pos < 1 + kFrameHeadBytes + kFrameLengthBytes) {
        return FrameScan::kNeedMore;
      }
      data_len = LoadLe16(p + 1 + kFrameHeadBytes);
      if (data_len > kind.max_data) {
        ++pos;
        continue;
      }
    }
    const size_t body = BodyBytes(kind, data_len);
    const size_t total = 1 + body + (kind.crc ? 4 : 0);
    if (n - pos < total) {
      return FrameScan::kNeedMore;
    }
    if (kind.crc && LoadLe32(p + 1 + body) != Crc32(p, 1 + body)) {
      ++pos;  // CRC-invalid candidate: resync from the next byte.
      continue;
    }
    frame->kind = &kind;
    frame->head = p + 1;
    frame->data =
        kind.max_data == 0
            ? std::string_view()
            : std::string_view(
                  rx.data() + pos + 1 + kFrameHeadBytes + kFrameLengthBytes,
                  data_len);
    *next_offset = pos + total;
    return FrameScan::kFrame;
  }
}

void RxCursor::Reclaim(Fleet* fleet, int node, RxStream stream) {
  offset -= fleet->Consume(node, stream, offset);
}

}  // namespace trustlite
