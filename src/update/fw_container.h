// Copyright 2026 The TrustLite Reproduction Authors.
//
// .tlfw — the signed, versioned firmware update container
// (docs/UPDATE_FORMAT.md). Same framing discipline as the .tlsnap snapshot
// format: an 8-byte magic + format version + chunk count header followed by
// CRC-framed chunks (tag, length, payload, CRC-32), so a bit flip anywhere
// in the file is caught before any byte reaches a device.
//
// Chunks:
//   FWHD  firmware version (the monotonic anti-rollback value), flags,
//         payload size, image name, SHA-256 measurement of the payload.
//         Exactly one, first.
//   FWPL  payload bytes, split into bounded chunks each carrying its
//         offset — the transfer granule of fleet campaigns.
//   SIGN  HMAC-SHA256 over (version || payload) under the per-device
//         *update key*, derived from the device key (so possession of a
//         container for device A proves nothing to device B). At most one.
//   END   terminator, last.
//
// Fail-closed parse contract (mirrors snapshot.cc): malformed magic,
// version, framing, CRC, chunk order, payload discontinuity, size or
// measurement mismatch all reject with a Status before any state exists
// that a caller could half-trust.

#ifndef TRUSTLITE_SRC_UPDATE_FW_CONTAINER_H_
#define TRUSTLITE_SRC_UPDATE_FW_CONTAINER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/crypto/sha256.h"

namespace trustlite {

inline constexpr uint8_t kFirmwareMagic[8] = {'T', 'L', 'F', 'W',
                                              'U', 'P', 0x1A, 0x0A};
inline constexpr uint32_t kFirmwareFormatVersion = 1;

constexpr uint32_t FirmwareTag(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<uint8_t>(a)) |
         (static_cast<uint32_t>(static_cast<uint8_t>(b)) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(c)) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(d)) << 24);
}

inline constexpr uint32_t kFwChunkHeader = FirmwareTag('F', 'W', 'H', 'D');
inline constexpr uint32_t kFwChunkPayload = FirmwareTag('F', 'W', 'P', 'L');
inline constexpr uint32_t kFwChunkSignature = FirmwareTag('S', 'I', 'G', 'N');
inline constexpr uint32_t kFwChunkEnd = FirmwareTag('E', 'N', 'D', ' ');

// Authoring input for PackFirmware.
struct FirmwareContainerSpec {
  uint32_t fw_version = 1;   // Monotonic anti-rollback version. Must be > 0.
  std::string name;          // Optional human-readable image name (<= 64).
  std::vector<uint8_t> payload;
  uint32_t chunk_bytes = 512;  // FWPL granule; also the CRC failure domain.
};

// A parsed, framing- and measurement-validated container. Signature
// *presence* is known after parse; signature *validity* requires the key
// (VerifyFirmwareSignature).
struct FirmwareImage {
  uint32_t fw_version = 0;
  std::string name;
  std::vector<uint8_t> payload;
  Sha256Digest measurement{};  // == SHA-256(payload), enforced by parse.
  bool has_signature = false;
  Sha256Digest signature{};
};

// Derives the update-signing key of a device from its provisioning key —
// the "key family" separation: a leaked update key cannot forge attestation
// reports and vice versa.
std::array<uint8_t, 32> DeriveUpdateKey(
    const std::array<uint8_t, 32>& device_key);

// Serializes an unsigned container. Byte-stable for identical specs.
Result<std::vector<uint8_t>> PackFirmware(const FirmwareContainerSpec& spec);

// Returns `container` re-packed with a SIGN chunk: HMAC-SHA256 over
// (fw_version || payload) under `update_key`. Signing is idempotent — an
// existing signature is replaced (fleet campaigns re-sign one base
// container per device).
Result<std::vector<uint8_t>> SignFirmware(
    const std::vector<uint8_t>& container,
    const std::array<uint8_t, 32>& update_key);

// Fail-closed parse + integrity validation (see header note).
Result<FirmwareImage> ParseFirmware(const std::vector<uint8_t>& container);

// Constant-time signature check. Unsigned images always fail.
Status VerifyFirmwareSignature(const FirmwareImage& image,
                               const std::array<uint8_t, 32>& update_key);

// Human-readable inventory (tlfw info).
struct FirmwareChunkInfo {
  uint32_t tag = 0;
  uint32_t payload_size = 0;
  std::string label;  // e.g. "FWPL offset 512: 512 bytes"
};
struct FirmwareContainerInfo {
  uint32_t format_version = 0;
  FirmwareImage image;
  std::vector<FirmwareChunkInfo> chunks;
  size_t container_bytes = 0;
};
Result<FirmwareContainerInfo> InspectFirmware(
    const std::vector<uint8_t>& container);

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_UPDATE_FW_CONTAINER_H_
