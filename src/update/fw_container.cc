// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/update/fw_container.h"

#include <algorithm>
#include <cstring>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/crypto/hmac.h"

namespace trustlite {
namespace {

constexpr size_t kMaxNameLen = 64;
constexpr uint32_t kMaxChunkBytes = 64 * 1024;
// Generous ceiling for a tiny-device firmware payload; bounds allocation
// before any CRC has been checked.
constexpr uint32_t kMaxPayloadBytes = 16 * 1024 * 1024;

// Domain-separation label for the update key derivation. Fixed string, so
// the update key family is disjoint from attestation MACs by construction.
constexpr char kUpdateKeyInfo[] = "trustlite-fw-update-key-v1";

void AppendChunk(std::vector<uint8_t>& out, uint32_t tag,
                 const std::vector<uint8_t>& payload) {
  AppendLe32(out, tag);
  AppendLe32(out, static_cast<uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  AppendLe32(out, Crc32(payload.data(), payload.size()));
}

// The byte string the SIGN chunk authenticates: version || payload. The
// version is inside the MAC so an attacker cannot splice a fresh payload
// under a stale (lower) version or vice versa.
std::vector<uint8_t> SignedMessage(uint32_t fw_version,
                                   const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> msg;
  msg.reserve(4 + payload.size());
  AppendLe32(msg, fw_version);
  msg.insert(msg.end(), payload.begin(), payload.end());
  return msg;
}

std::string TagName(uint32_t tag) {
  std::string name(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xFF);
    name[i] = (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  return name;
}

struct RawChunk {
  uint32_t tag = 0;
  std::vector<uint8_t> payload;
};

// Framing-level walk shared by ParseFirmware and InspectFirmware: validates
// magic, format version, per-chunk CRC, chunk count and the END terminator,
// and rejects trailing bytes. Semantic (FWHD/FWPL/SIGN) validation happens
// in ParseFirmware on top of this.
Result<std::vector<RawChunk>> ReadChunks(const std::vector<uint8_t>& container,
                                         uint32_t* format_version_out) {
  ByteReader reader(container.data(), container.size());
  uint8_t magic[8] = {};
  if (!reader.ReadBytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kFirmwareMagic, sizeof(magic)) != 0) {
    return InvalidArgument("tlfw: bad magic");
  }
  uint32_t format_version = 0;
  uint32_t chunk_count = 0;
  if (!reader.ReadU32(&format_version) || !reader.ReadU32(&chunk_count)) {
    return InvalidArgument("tlfw: truncated header");
  }
  if (format_version != kFirmwareFormatVersion) {
    return InvalidArgument("tlfw: unsupported format version " +
                           std::to_string(format_version));
  }
  std::vector<RawChunk> chunks;
  chunks.reserve(std::min<uint32_t>(chunk_count, 256));
  for (uint32_t i = 0; i < chunk_count; ++i) {
    uint32_t tag = 0;
    uint32_t len = 0;
    if (!reader.ReadU32(&tag) || !reader.ReadU32(&len)) {
      return InvalidArgument("tlfw: truncated chunk header");
    }
    if (len > reader.remaining()) {
      return InvalidArgument("tlfw: chunk length exceeds container");
    }
    RawChunk chunk;
    chunk.tag = tag;
    if (!reader.ReadBytes(&chunk.payload, len)) {
      return InvalidArgument("tlfw: truncated chunk payload");
    }
    uint32_t crc = 0;
    if (!reader.ReadU32(&crc)) {
      return InvalidArgument("tlfw: truncated chunk CRC");
    }
    if (crc != Crc32(chunk.payload.data(), chunk.payload.size())) {
      return InvalidArgument("tlfw: CRC mismatch in chunk " + TagName(tag));
    }
    const bool is_end = tag == kFwChunkEnd;
    if (is_end != (i + 1 == chunk_count)) {
      return InvalidArgument("tlfw: END chunk misplaced");
    }
    chunks.push_back(std::move(chunk));
  }
  if (!reader.Done()) {
    return InvalidArgument("tlfw: trailing bytes after END");
  }
  if (chunks.empty() || chunks.back().tag != kFwChunkEnd) {
    return InvalidArgument("tlfw: missing END chunk");
  }
  if (format_version_out != nullptr) {
    *format_version_out = format_version;
  }
  return chunks;
}

}  // namespace

std::array<uint8_t, 32> DeriveUpdateKey(
    const std::array<uint8_t, 32>& device_key) {
  return HmacSha256(device_key.data(), device_key.size(),
                    reinterpret_cast<const uint8_t*>(kUpdateKeyInfo),
                    sizeof(kUpdateKeyInfo) - 1);
}

Result<std::vector<uint8_t>> PackFirmware(const FirmwareContainerSpec& spec) {
  if (spec.fw_version == 0) {
    return InvalidArgument("tlfw: fw_version must be > 0");
  }
  if (spec.name.size() > kMaxNameLen) {
    return InvalidArgument("tlfw: image name too long");
  }
  if (spec.payload.empty()) {
    return InvalidArgument("tlfw: empty payload");
  }
  if (spec.payload.size() > kMaxPayloadBytes) {
    return InvalidArgument("tlfw: payload too large");
  }
  if (spec.chunk_bytes == 0 || spec.chunk_bytes > kMaxChunkBytes) {
    return InvalidArgument("tlfw: chunk_bytes out of range");
  }

  const uint32_t payload_size = static_cast<uint32_t>(spec.payload.size());
  const uint32_t payload_chunks =
      (payload_size + spec.chunk_bytes - 1) / spec.chunk_bytes;

  std::vector<uint8_t> out;
  out.insert(out.end(), kFirmwareMagic, kFirmwareMagic + 8);
  AppendLe32(out, kFirmwareFormatVersion);
  AppendLe32(out, 1 /* FWHD */ + payload_chunks + 1 /* END */);

  std::vector<uint8_t> header;
  AppendLe32(header, spec.fw_version);
  AppendLe32(header, 0);  // flags, reserved
  AppendLe32(header, payload_size);
  AppendLe32(header, static_cast<uint32_t>(spec.name.size()));
  header.insert(header.end(), spec.name.begin(), spec.name.end());
  const Sha256Digest measurement = Sha256Hash(spec.payload);
  header.insert(header.end(), measurement.begin(), measurement.end());
  AppendChunk(out, kFwChunkHeader, header);

  for (uint32_t offset = 0; offset < payload_size;
       offset += spec.chunk_bytes) {
    const uint32_t n = std::min(spec.chunk_bytes, payload_size - offset);
    std::vector<uint8_t> chunk;
    chunk.reserve(4 + n);
    AppendLe32(chunk, offset);
    chunk.insert(chunk.end(), spec.payload.begin() + offset,
                 spec.payload.begin() + offset + n);
    AppendChunk(out, kFwChunkPayload, chunk);
  }

  AppendChunk(out, kFwChunkEnd, {});
  return out;
}

Result<std::vector<uint8_t>> SignFirmware(
    const std::vector<uint8_t>& container,
    const std::array<uint8_t, 32>& update_key) {
  Result<std::vector<RawChunk>> chunks = ReadChunks(container, nullptr);
  if (!chunks.ok()) {
    return chunks.status();
  }
  // Validate semantics via the full parser so we never sign garbage.
  Result<FirmwareImage> image = ParseFirmware(container);
  if (!image.ok()) {
    return image.status();
  }
  const std::vector<uint8_t> msg =
      SignedMessage(image->fw_version, image->payload);
  const Sha256Digest mac =
      HmacSha256(update_key.data(), update_key.size(), msg.data(), msg.size());

  // Re-pack: all chunks except any previous SIGN and the END terminator,
  // then the fresh SIGN, then END.
  std::vector<uint8_t> out;
  out.insert(out.end(), kFirmwareMagic, kFirmwareMagic + 8);
  AppendLe32(out, kFirmwareFormatVersion);
  uint32_t kept = 0;
  for (const RawChunk& c : *chunks) {
    if (c.tag != kFwChunkSignature && c.tag != kFwChunkEnd) {
      ++kept;
    }
  }
  AppendLe32(out, kept + 2);
  for (const RawChunk& c : *chunks) {
    if (c.tag != kFwChunkSignature && c.tag != kFwChunkEnd) {
      AppendChunk(out, c.tag, c.payload);
    }
  }
  AppendChunk(out, kFwChunkSignature,
              std::vector<uint8_t>(mac.begin(), mac.end()));
  AppendChunk(out, kFwChunkEnd, {});
  return out;
}

Result<FirmwareImage> ParseFirmware(const std::vector<uint8_t>& container) {
  Result<std::vector<RawChunk>> chunks_or = ReadChunks(container, nullptr);
  if (!chunks_or.ok()) {
    return chunks_or.status();
  }
  const std::vector<RawChunk>& chunks = *chunks_or;

  FirmwareImage image;
  bool saw_header = false;
  uint32_t declared_payload_size = 0;
  uint32_t next_offset = 0;

  for (size_t i = 0; i + 1 < chunks.size(); ++i) {  // skip END (validated)
    const RawChunk& c = chunks[i];
    if (c.tag == kFwChunkHeader) {
      if (saw_header) {
        return InvalidArgument("tlfw: duplicate FWHD chunk");
      }
      if (i != 0) {
        return InvalidArgument("tlfw: FWHD must be the first chunk");
      }
      ByteReader r(c.payload.data(), c.payload.size());
      uint32_t flags = 0;
      uint32_t name_len = 0;
      if (!r.ReadU32(&image.fw_version) || !r.ReadU32(&flags) ||
          !r.ReadU32(&declared_payload_size) || !r.ReadU32(&name_len)) {
        return InvalidArgument("tlfw: malformed FWHD chunk");
      }
      if (name_len > kMaxNameLen || !r.ReadString(&image.name, name_len) ||
          !r.ReadBytes(image.measurement.data(), image.measurement.size()) ||
          !r.Done()) {
        return InvalidArgument("tlfw: malformed FWHD chunk");
      }
      if (image.fw_version == 0) {
        return InvalidArgument("tlfw: fw_version must be > 0");
      }
      if (declared_payload_size == 0 ||
          declared_payload_size > kMaxPayloadBytes) {
        return InvalidArgument("tlfw: declared payload size out of range");
      }
      image.payload.reserve(declared_payload_size);
      saw_header = true;
    } else if (c.tag == kFwChunkPayload) {
      if (!saw_header) {
        return InvalidArgument("tlfw: FWPL before FWHD");
      }
      if (c.payload.size() < 5) {
        return InvalidArgument("tlfw: malformed FWPL chunk");
      }
      const uint32_t offset = LoadLe32(c.payload.data());
      const size_t n = c.payload.size() - 4;
      // Contiguity: chunks must tile the payload in order with no gaps or
      // overlaps, so a dropped or reordered chunk is structurally visible.
      if (offset != next_offset) {
        return InvalidArgument("tlfw: FWPL offset discontinuity");
      }
      if (static_cast<uint64_t>(offset) + n > declared_payload_size) {
        return InvalidArgument("tlfw: FWPL overruns declared payload size");
      }
      image.payload.insert(image.payload.end(), c.payload.begin() + 4,
                           c.payload.end());
      next_offset = offset + static_cast<uint32_t>(n);
    } else if (c.tag == kFwChunkSignature) {
      if (!saw_header) {
        return InvalidArgument("tlfw: SIGN before FWHD");
      }
      if (image.has_signature) {
        return InvalidArgument("tlfw: duplicate SIGN chunk");
      }
      if (c.payload.size() != image.signature.size()) {
        return InvalidArgument("tlfw: malformed SIGN chunk");
      }
      std::copy(c.payload.begin(), c.payload.end(), image.signature.begin());
      image.has_signature = true;
    } else {
      return InvalidArgument("tlfw: unknown chunk tag " + TagName(c.tag));
    }
  }

  if (!saw_header) {
    return InvalidArgument("tlfw: missing FWHD chunk");
  }
  if (next_offset != declared_payload_size) {
    return InvalidArgument("tlfw: payload incomplete");
  }
  if (Sha256Hash(image.payload) != image.measurement) {
    return InvalidArgument("tlfw: payload measurement mismatch");
  }
  return image;
}

Status VerifyFirmwareSignature(const FirmwareImage& image,
                               const std::array<uint8_t, 32>& update_key) {
  if (!image.has_signature) {
    return PermissionDenied("tlfw: image is unsigned");
  }
  const std::vector<uint8_t> msg =
      SignedMessage(image.fw_version, image.payload);
  const Sha256Digest expected =
      HmacSha256(update_key.data(), update_key.size(), msg.data(), msg.size());
  if (!ConstantTimeEqual(expected, image.signature)) {
    return PermissionDenied("tlfw: signature verification failed");
  }
  return OkStatus();
}

Result<FirmwareContainerInfo> InspectFirmware(
    const std::vector<uint8_t>& container) {
  FirmwareContainerInfo info;
  Result<std::vector<RawChunk>> chunks =
      ReadChunks(container, &info.format_version);
  if (!chunks.ok()) {
    return chunks.status();
  }
  Result<FirmwareImage> image = ParseFirmware(container);
  if (!image.ok()) {
    return image.status();
  }
  info.image = std::move(*image);
  info.container_bytes = container.size();
  for (const RawChunk& c : *chunks) {
    FirmwareChunkInfo ci;
    ci.tag = c.tag;
    ci.payload_size = static_cast<uint32_t>(c.payload.size());
    if (c.tag == kFwChunkPayload && c.payload.size() >= 4) {
      ci.label = "FWPL offset " + std::to_string(LoadLe32(c.payload.data())) +
                 ": " + std::to_string(c.payload.size() - 4) + " bytes";
    } else {
      ci.label =
          TagName(c.tag) + ": " + std::to_string(c.payload.size()) + " bytes";
    }
    info.chunks.push_back(std::move(ci));
  }
  return info;
}

}  // namespace trustlite
