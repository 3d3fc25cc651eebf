// Copyright 2026 The TrustLite Reproduction Authors.
//
// Fleet provisioning: boots every node of a fleet with the remote
// attestation stack of tests/remote_attestation_test.cc — a measured FW
// trustlet, a per-node-keyed UART attestation trustlet (trusted path, Secs.
// 1/2.3) and nanOS with the UART withheld from the OS — and optionally
// tampers a deterministic subset of nodes by flipping a bit in their live
// FW code (the paper's remote-detection scenario at population scale).
//
// Keys model a per-device provisioning secret shared with the verifier:
// each node's key is drawn from a stream seeded by (fleet_seed, node) with
// a fixed salt, so the host-side FleetAttestor can re-derive them without
// any state channel besides the fleet seed.

#ifndef TRUSTLITE_SRC_FLEET_PROVISION_H_
#define TRUSTLITE_SRC_FLEET_PROVISION_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/fleet/fleet.h"

namespace trustlite {

struct FleetProvisionConfig {
  // Extra payload measured as part of the FW trustlet (e.g. an assembled
  // guest image): emitted as .word data after the idle loop, so a byte
  // change anywhere in it changes every node's attestation report.
  std::vector<uint8_t> payload;
  // Reserved capacity of the FW payload window, in bytes. The window is the
  // never-executed data tail of the FW code region; update campaigns swap
  // its contents (src/update/). Rounded up to whole words; when smaller
  // than `payload`, the payload size wins. Zero keeps the window exactly
  // payload-sized (no headroom for larger updates).
  uint32_t payload_capacity = 0;
  // Number of nodes to tamper post-boot (deterministic choice from the
  // fleet seed; one code bit flipped in FW's never-executed tail word).
  int tamper_count = 0;
  uint32_t timer_period = 2000;
  // Warm-boot cloning: run the Secure Loader once on node 0 ("golden"
  // node), snapshot its post-boot state, and provision every other node by
  // restoring the snapshot and re-keying it with RekeyClonedNode — the same
  // routine live scale-up uses. Attestation still verifies on every node;
  // fleet digests are NOT expected to match a cold boot (TRNG cursors
  // differ by construction).
  bool warm_boot = false;
};

struct NodeProvision {
  std::array<uint8_t, 32> key{};     // Device key (verifier re-derives it).
  uint32_t fw_id = 0;                // MakeTrustletId("FW").
  uint32_t fw_code_addr = 0;
  std::vector<uint8_t> fw_code;      // Golden (pre-tamper) code bytes.
  // FW payload window (tail of the code region; see
  // FleetProvisionConfig::payload_capacity). Offsets are relative to
  // fw_code_addr; capacity 0 means no window was reserved.
  uint32_t fw_payload_offset = 0;
  uint32_t fw_payload_capacity = 0;
  // Attestation-trustlet code geometry — mid-run snapshot cloning
  // (RekeyClonedNode) locates the embedded device key and the Trustlet-
  // Table measurement row through this.
  uint32_t attn_code_addr = 0;
  uint32_t attn_code_size = 0;
  bool tampered = false;
};

// Derives node `i`'s device key from the fleet seed (shared derivation
// with the host verifier).
std::array<uint8_t, 32> DeriveDeviceKey(uint64_t fleet_seed, int node);

// Builds, installs and boots the attestation image on every node of
// `fleet`, then applies the tamper plan. On success the returned vector has
// one entry per node (fw_code holds the *golden* bytes even for tampered
// nodes — exactly what the verifier expects).
Result<std::vector<NodeProvision>> ProvisionAttestationFleet(
    Fleet* fleet, const FleetProvisionConfig& config);

// Flips one bit in the never-executed tail word of the node's live FW code:
// the node keeps running but its measurement diverges from the golden
// bytes. Safe mid-run between fleet quanta (the hostile-link campaigns
// tamper nodes after their first verified report this way) as well as at
// provision time. Marks the provision tampered.
Status TamperNode(FleetNode& node, NodeProvision* provision);

// Re-keys a snapshot-restored clone (DESIGN.md §14, §17): `node` holds a
// byte-exact restore of the platform whose identity is `source` — the
// golden node at warm-boot provisioning, a running node at live scale-up.
// Derives the clone's own device key from (fleet_seed, node.id()), splices
// it over the source key in the live attestation code and the PROM image,
// rewrites the Trustlet-Table measurement row for the re-keyed code, and
// reseeds the TRNG with the clone's derived stream. Every patch site must
// be unique (one live key copy, one Trustlet-Table row) or the call fails
// before mutating anything; the measurement row is rewritten last, so no
// partial patch is observable via attestation. Returns the clone's
// provision: `source` with the new key, tampered cleared.
Result<NodeProvision> RekeyClonedNode(FleetNode& node,
                                      const NodeProvision& source,
                                      uint64_t fleet_seed);

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_FLEET_PROVISION_H_
