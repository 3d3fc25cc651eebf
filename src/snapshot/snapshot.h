// Copyright 2026 The TrustLite Reproduction Authors.
//
// Whole-platform snapshot/restore (DESIGN.md §14, docs/SNAPSHOT_FORMAT.md).
//
// A snapshot is a versioned, byte-stable serialization of the full guest-
// visible Platform state: CPU architectural state, every memory device
// (zero pages elided), the EA-MPU register file including lock bits, the
// Trustlet Table (it lives in SRAM and travels with it), and every
// peripheral's state via the Device::SaveState/LoadState hook — UART
// buffers, timer countdown, TRNG stream cursor, SHA engine mid-stream
// state, free-running cycle counter.
//
// The restore invariant: a restored Platform produces the same
// PlatformStateDigest as the live one at the checkpoint, and its subsequent
// execution transcript is bit-identical to the uninterrupted run. The
// optional self-digest chunk lets RestorePlatform assert the first half of
// that invariant on every load.
//
// Fail-closed contract: a malformed snapshot (truncated, bit-flipped,
// wrong magic/version/CRC, mismatched platform shape) is rejected with a
// Status *before* any target state is mutated.

#ifndef TRUSTLITE_SRC_SNAPSHOT_SNAPSHOT_H_
#define TRUSTLITE_SRC_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/crypto/sha256.h"
#include "src/platform/platform.h"

namespace trustlite {

// On-disk format constants (docs/SNAPSHOT_FORMAT.md).
inline constexpr uint8_t kSnapshotMagic[8] = {'T', 'L', 'S', 'N',
                                              'A', 'P', 0x1A, 0x0A};
inline constexpr uint32_t kSnapshotVersion = 1;
inline constexpr uint32_t kSnapshotPageSize = 4096;

constexpr uint32_t SnapshotTag(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<uint8_t>(a)) |
         (static_cast<uint32_t>(static_cast<uint8_t>(b)) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(c)) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(d)) << 24);
}

inline constexpr uint32_t kChunkPlatform = SnapshotTag('P', 'C', 'F', 'G');
inline constexpr uint32_t kChunkCpu = SnapshotTag('C', 'P', 'U', ' ');
inline constexpr uint32_t kChunkMemory = SnapshotTag('M', 'E', 'M', ' ');
inline constexpr uint32_t kChunkDevice = SnapshotTag('D', 'E', 'V', ' ');
inline constexpr uint32_t kChunkDigest = SnapshotTag('D', 'I', 'G', 'E');
inline constexpr uint32_t kChunkEnd = SnapshotTag('E', 'N', 'D', ' ');

struct SnapshotSaveOptions {
  // Embed the SHA-256 state digest. Costs one PlatformStateDigest (a hash
  // over all of SRAM + DRAM); high-frequency checkpointing (the
  // differential harness) turns it off and relies on per-chunk CRCs.
  bool include_digest = true;
};

struct SnapshotRestoreOptions {
  // Recompute the state digest after restore and require it to match the
  // embedded one (no-op when the snapshot was saved without a digest).
  bool verify_digest = true;
  // Check every chunk's CRC before touching target state. Leave on for
  // bytes that crossed a file system or network. Warm-boot fleet
  // provisioning restores the *same in-memory golden buffer* dozens of
  // times; it verifies the buffer on the first restore and skips the
  // checksum for the remaining clones by turning this off (DESIGN.md §14).
  bool verify_checksums = true;
};

// SHA-256 over the architectural state of a platform: registers, IP,
// FLAGS, halt latch, cycle counter, SRAM, DRAM, GPIO output and captured
// UART output, fed to the hasher in that order straight from the live
// state (no copy of the 1.28 MiB of RAM). This is the fleet determinism
// digest — FleetNode::StateDigest delegates here, Fleet::FleetDigest folds
// it in node order — and the snapshot self-digest.
Sha256Digest PlatformStateDigest(const Platform& platform);

// Serializes the platform into the snapshot byte format. Byte-stable:
// saving the same state twice produces identical bytes, and
// save -> restore -> save round-trips bit-exactly.
Result<std::vector<uint8_t>> SavePlatform(
    Platform& platform, const SnapshotSaveOptions& options = {});

// Restores `snapshot` into `platform`, which must have been constructed
// with a structurally identical PlatformConfig (MPU shape, DMA presence,
// memory map — see SnapshotPlatformConfig). Fails closed on malformed
// input; on success the platform's state digest equals the live state the
// snapshot captured.
Status RestorePlatform(Platform* platform,
                       const std::vector<uint8_t>& snapshot,
                       const SnapshotRestoreOptions& options = {});

// Reads the structural platform configuration out of a snapshot, so tools
// can construct a compatible Platform before restoring. Host-side timing
// configuration that is not part of guest state (CycleModel) is returned
// at defaults; callers resuming a run with a non-default cycle model must
// supply it themselves for cycle-exact continuation.
Result<PlatformConfig> SnapshotPlatformConfig(
    const std::vector<uint8_t>& snapshot);

// Human-readable inventory of a snapshot (tlsnap info).
struct SnapshotChunkInfo {
  uint32_t tag = 0;
  uint32_t payload_size = 0;
  std::string label;  // e.g. "MEM sram: 12/64 pages, 47.3 KiB"
};
struct SnapshotInfo {
  uint32_t version = 0;
  std::vector<SnapshotChunkInfo> chunks;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint32_t ip = 0;
  bool halted = false;
  bool digest_present = false;
  Sha256Digest digest{};
  uint64_t memory_bytes_present = 0;  // Non-zero page payload.
  uint64_t memory_bytes_total = 0;    // Sum of device sizes.
};
Result<SnapshotInfo> InspectSnapshot(const std::vector<uint8_t>& snapshot);

// Structured comparison of two snapshots (tlsnap diff): one line per
// difference, empty vector when bit-identical state. Both snapshots must
// parse; mismatched platform shapes are reported as differences.
Result<std::vector<std::string>> DiffSnapshots(
    const std::vector<uint8_t>& a, const std::vector<uint8_t>& b);

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_SNAPSHOT_SNAPSHOT_H_
