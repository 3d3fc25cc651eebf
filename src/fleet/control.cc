// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/fleet/control.h"

#include <algorithm>
#include <cstdio>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/snapshot/snapshot.h"

namespace trustlite {
namespace {

// Domain-separation salt for config push ids (unrelated to the
// key/tamper/challenge/campaign streams).
constexpr uint64_t kConfigSalt = 0x636F6E6669672020ull;  // "config  "

void AppendU64(std::string* out, uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  *out += buf;
}

// The node config region image holding (generation, blob); see control.h.
std::vector<uint8_t> ConfigRegion(uint32_t generation, std::string_view blob) {
  std::vector<uint8_t> region(kNodeConfigRegionSize, 0);
  StoreLe32(region.data(), generation);
  StoreLe32(region.data() + 4, static_cast<uint32_t>(blob.size()));
  std::copy(blob.begin(), blob.end(), region.begin() + 8);
  return region;
}

std::string EncodeConfigPush(uint32_t push_id, uint32_t generation,
                             const std::string& blob) {
  std::vector<uint8_t> head;
  AppendLe32(head, push_id);
  AppendLe32(head, generation);
  return EncodeFrame(kConfigFrameMarker, head, blob);
}

std::vector<uint8_t> HealthBody(const HealthBeacon& beacon) {
  std::vector<uint8_t> body;
  AppendLe64(body, beacon.cycle);
  AppendLe64(body, beacon.instructions);
  AppendLe64(body, beacon.tx_bytes);
  AppendLe64(body, beacon.rx_bytes);
  AppendLe32(body, beacon.config_generation);
  body.push_back(beacon.halted ? 1 : 0);
  return body;
}

HealthBeacon ParseHealthBody(const uint8_t* p) {
  HealthBeacon beacon;
  beacon.cycle = LoadLe64(p);
  beacon.instructions = LoadLe64(p + 8);
  beacon.tx_bytes = LoadLe64(p + 16);
  beacon.rx_bytes = LoadLe64(p + 24);
  beacon.config_generation = LoadLe32(p + 32);
  beacon.halted = p[36] != 0;
  return beacon;
}

}  // namespace

const char* RosterStateName(RosterState state) {
  switch (state) {
    case RosterState::kPending:
      return "pending";
    case RosterState::kAdmitted:
      return "admitted";
    case RosterState::kQuarantined:
      return "quarantined";
  }
  return "?";
}

std::string EncodeConfigBlob(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  std::string blob;
  for (const auto& [key, value] : entries) {
    blob += key;
    blob += '=';
    blob += value;
    blob += '\n';
  }
  return blob;
}

Sha256Digest ConfigRegionDigest(uint32_t generation, const std::string& blob) {
  return Sha256Hash(ConfigRegion(generation, blob));
}

// --- FleetController -----------------------------------------------------

FleetController::FleetController(Fleet* fleet,
                                 std::vector<NodeProvision> provisions,
                                 const FleetdPolicy& policy)
    : fleet_(fleet),
      attestor_(fleet, std::move(provisions), policy.attest),
      policy_(policy) {
  const size_t n = static_cast<size_t>(fleet_->num_nodes());
  health_.resize(n);
  agents_.resize(n);
  control_rx_.resize(n);
  push_.resize(n);
}

void FleetController::Log(const std::string& event) {
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "@%llu fleetd ",
                static_cast<unsigned long long>(fleet_->now()));
  transcript_ += prefix;
  transcript_ += event;
  transcript_ += '\n';
}

void FleetController::Pump() {
  fleet_->RunQuantum();
  ++quanta_run_;
  PumpNodeAgents();
  ProcessControlRx();
  attestor_.OnQuantumBoundary();
}

void FleetController::RunIdle(uint64_t quanta) {
  for (uint64_t i = 0; i < quanta; ++i) {
    Pump();
  }
}

template <typename DoneFn>
bool FleetController::PumpUntil(DoneFn done) {
  for (uint64_t i = 0; i < kPhaseQuanta; ++i) {
    if (done()) {
      return true;
    }
    Pump();
  }
  return done();
}

void FleetController::PumpNodeAgents() {
  // Strictly node-id order; each agent touches only node-local state plus
  // serial fabric sends — the determinism contract of SendToVerifier.
  for (int i = 0; i < fleet_->num_nodes(); ++i) {
    NodeAgent& agent = agents_[static_cast<size_t>(i)];
    FleetNode& node = fleet_->node(i);

    // Config agent: apply staged 0xC6 frames, ack each one. A frame with a
    // newer generation is applied (region write + ack); any other valid
    // frame re-acks the currently applied state, which makes verifier
    // retransmits idempotent.
    const std::string& rx = fleet_->Rx(i, RxStream::kConfig);
    Frame frame;
    while (agent.config_rx.Next(rx, RxStream::kConfig, &frame)) {
      const uint32_t push_id = LoadLe32(frame.head);
      const uint32_t generation = LoadLe32(frame.head + 4);
      if (generation > agent.applied_generation || !agent.has_applied) {
        const std::vector<uint8_t> region =
            ConfigRegion(generation, frame.data);
        node.platform().bus().HostWriteBytes(kNodeConfigRegionAddr, region);
        agent.applied_generation = generation;
        agent.applied_push_id = push_id;
        agent.applied_digest = Sha256Hash(region);
        agent.has_applied = true;
      }
      std::vector<uint8_t> ack;
      AppendLe32(ack, agent.applied_push_id);
      AppendLe32(ack, agent.applied_generation);
      ack.insert(ack.end(), agent.applied_digest.begin(),
                 agent.applied_digest.end());
      fleet_->SendToVerifier(i, EncodeFrame(kConfigAckMarker, ack));
    }
    agent.config_rx.Reclaim(fleet_, i, RxStream::kConfig);

    // Health agent: one beacon every beacon_every_quanta quanta.
    if (policy_.beacon_every_quanta > 0 && --agent.beacon_countdown == 0) {
      agent.beacon_countdown = policy_.beacon_every_quanta;
      HealthBeacon beacon;
      beacon.cycle = node.platform().cpu().cycles();
      beacon.instructions = node.platform().cpu().stats().instructions;
      beacon.tx_bytes = node.tx_bytes();
      beacon.rx_bytes = node.rx_bytes();
      beacon.config_generation = agent.applied_generation;
      beacon.halted = node.platform().cpu().halted();
      fleet_->SendToVerifier(
          i, EncodeFrame(kHealthFrameMarker, HealthBody(beacon)));
    }
  }
}

void FleetController::ProcessControlRx() {
  const bool push_active = active_push_id_ != 0;
  for (int i = 0; i < fleet_->num_nodes(); ++i) {
    RxCursor& cursor = control_rx_[static_cast<size_t>(i)];
    const std::string& rx = fleet_->Rx(i, RxStream::kControl);
    Frame frame;
    while (cursor.Next(rx, RxStream::kControl, &frame)) {
      NodeHealth& health = health_[static_cast<size_t>(i)];
      if (frame.kind->marker == kHealthFrameMarker) {
        health.beacon = ParseHealthBody(frame.head);
        health.beacon_seen_cycle = fleet_->now();
        continue;
      }
      // Config ack. Only an ack for the active push with the exact region
      // digest settles the node; a digest mismatch means the region the
      // node applied is not the one we pushed (corruption that survived to
      // the agent, or a hostile replay of an old ack) — keep waiting, the
      // retransmit path re-sends until the retry budget runs out.
      PushState& push = push_[static_cast<size_t>(i)];
      const uint32_t generation = LoadLe32(frame.head + 4);
      if (push_active && push.target && !push.acked &&
          LoadLe32(frame.head) == active_push_id_ &&
          generation == config_generation_) {
        if (std::equal(active_digest_.begin(), active_digest_.end(),
                       frame.head + 8)) {
          push.acked = true;
          health.config_generation = generation;
          char event[64];
          std::snprintf(event, sizeof(event), "config-ack node=%d gen=%u", i,
                        generation);
          Log(event);
        } else {
          char event[80];
          std::snprintf(event, sizeof(event),
                        "config-ack DIGEST MISMATCH node=%d gen=%u", i,
                        generation);
          Log(event);
        }
      }
    }
    cursor.Reclaim(fleet_, i, RxStream::kControl);
  }

  // Retransmit pass for the active push (stop-and-wait per node).
  if (push_active) {
    const uint64_t now = fleet_->now();
    for (int i = 0; i < fleet_->num_nodes(); ++i) {
      PushState& push = push_[static_cast<size_t>(i)];
      if (!push.target || push.acked || push.exhausted) {
        continue;
      }
      switch (push.channel.Check(now)) {
        case StopAndWait::Poll::kWait:
          break;
        case StopAndWait::Poll::kExhausted:
          push.exhausted = true;
          break;
        case StopAndWait::Poll::kResend: {
          push.channel.Sent(now);
          fleet_->SendToNode(i, EncodeConfigPush(active_push_id_,
                                                 config_generation_,
                                                 active_blob_));
          char event[64];
          std::snprintf(event, sizeof(event), "config-resend node=%d try=%d",
                        i, push.channel.retries());
          Log(event);
          break;
        }
      }
    }
  }
}

int FleetController::RefreshRoster(const std::vector<int>& subset) {
  int newly_quarantined = 0;
  for (int node : subset) {
    NodeHealth& health = health_[static_cast<size_t>(node)];
    const AttestNodeState state = attestor_.state(node);
    if (state == AttestNodeState::kVerified) {
      health.roster = RosterState::kAdmitted;
      health.reason = QuarantineReason::kNone;
      health.last_verified_cycle = attestor_.last_verified_cycle(node);
    } else if (state == AttestNodeState::kQuarantined) {
      if (health.roster != RosterState::kQuarantined) {
        ++newly_quarantined;
      }
      health.roster = RosterState::kQuarantined;
      health.reason = attestor_.quarantine_reason(node);
      char event[80];
      std::snprintf(event, sizeof(event), "demoted node=%d reason=%s", node,
                    QuarantineReasonName(health.reason));
      Log(event);
    }
  }
  return newly_quarantined;
}

std::vector<int> FleetController::Admitted() const {
  std::vector<int> out;
  for (int i = 0; i < num_nodes(); ++i) {
    if (health_[static_cast<size_t>(i)].roster == RosterState::kAdmitted) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<int> FleetController::Quarantined() const {
  std::vector<int> out;
  for (int i = 0; i < num_nodes(); ++i) {
    if (health_[static_cast<size_t>(i)].roster == RosterState::kQuarantined) {
      out.push_back(i);
    }
  }
  return out;
}

Status FleetController::RunAdmission() {
  char event[48];
  std::snprintf(event, sizeof(event), "admission begin nodes=%d",
                fleet_->num_nodes());
  Log(event);
  attestor_.Begin();
  if (!PumpUntil([&] { return attestor_.Done(); })) {
    return Internal("admission round did not resolve within the phase budget");
  }
  const int quarantined = RefreshRoster([&] {
    std::vector<int> all(static_cast<size_t>(fleet_->num_nodes()));
    for (int i = 0; i < fleet_->num_nodes(); ++i) {
      all[static_cast<size_t>(i)] = i;
    }
    return all;
  }());
  EmitEpoch("admission");
  if (policy_.halt_on_quarantine && quarantined > 0) {
    return FailedPrecondition("halt-on-quarantine: admission quarantined " +
                              std::to_string(quarantined) + " node(s)");
  }
  return OkStatus();
}

Status FleetController::RunReattestEpoch() {
  RunIdle(policy_.epoch_idle_quanta);
  const std::vector<int> roster = Admitted();
  if (roster.empty()) {
    return FailedPrecondition("re-attestation with an empty roster");
  }
  ++epochs_;
  char event[48];
  std::snprintf(event, sizeof(event), "reattest epoch=%d roster=%zu", epochs_,
                roster.size());
  Log(event);
  attestor_.Begin(roster);
  auto resolved = [&] {
    for (int node : roster) {
      const AttestNodeState state = attestor_.state(node);
      if (state != AttestNodeState::kVerified &&
          state != AttestNodeState::kQuarantined) {
        return false;
      }
    }
    return true;
  };
  if (!PumpUntil(resolved)) {
    return Internal("re-attestation epoch did not resolve within the budget");
  }
  const int quarantined = RefreshRoster(roster);
  EmitEpoch("reattest");
  if (policy_.halt_on_quarantine && quarantined > 0) {
    return FailedPrecondition("halt-on-quarantine: epoch " +
                              std::to_string(epochs_) + " quarantined " +
                              std::to_string(quarantined) + " node(s)");
  }
  return OkStatus();
}

Status FleetController::PushConfig(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  const std::string blob = EncodeConfigBlob(entries);
  if (blob.size() > kMaxConfigBlobBytes) {
    return InvalidArgument("config blob exceeds the node region (" +
                           std::to_string(blob.size()) + " > " +
                           std::to_string(kMaxConfigBlobBytes) + " bytes)");
  }
  const std::vector<int> roster = Admitted();
  if (roster.empty()) {
    return FailedPrecondition("config push with an empty roster");
  }
  ++config_generation_;
  active_push_id_ = static_cast<uint32_t>(DeriveDeviceSeed(
      fleet_->config().seed ^ kConfigSalt, config_generation_));
  if (active_push_id_ == 0) {
    active_push_id_ = 1;  // 0 means "no active push".
  }
  active_blob_ = blob;
  active_digest_ = ConfigRegionDigest(config_generation_, blob);
  char event[96];
  std::snprintf(event, sizeof(event),
                "config-push gen=%u id=%08x entries=%zu bytes=%zu targets=%zu",
                config_generation_, active_push_id_, entries.size(),
                blob.size(), roster.size());
  Log(event);
  std::fill(push_.begin(), push_.end(), PushState{});
  for (int node : roster) {
    PushState& push = push_[static_cast<size_t>(node)];
    push.target = true;
    push.channel.Sent(fleet_->now());
    fleet_->SendToNode(node, EncodeConfigPush(active_push_id_,
                                              config_generation_,
                                              active_blob_));
  }
  auto settled = [&] {
    for (int node : roster) {
      const PushState& push = push_[static_cast<size_t>(node)];
      if (!push.acked && !push.exhausted) {
        return false;
      }
    }
    return true;
  };
  const bool in_budget = PumpUntil(settled);
  std::vector<int> failed;
  for (int node : roster) {
    if (!push_[static_cast<size_t>(node)].acked) {
      failed.push_back(node);
    }
  }
  active_push_id_ = 0;  // Push transport phase over; stop retransmits.
  if (!in_budget || !failed.empty()) {
    EmitEpoch("config-push");
    std::string detail = in_budget ? "retries exhausted for node(s)"
                                   : "push did not settle in budget; node(s)";
    for (int node : failed) {
      detail += ' ';
      detail += std::to_string(node);
    }
    return Internal("config push failed: " + detail);
  }
  // Re-measure: the acks pinned the config content; a re-attestation round
  // over the pushed nodes pins the code that consumes it.
  attestor_.Begin(roster);
  auto resolved = [&] {
    for (int node : roster) {
      const AttestNodeState state = attestor_.state(node);
      if (state != AttestNodeState::kVerified &&
          state != AttestNodeState::kQuarantined) {
        return false;
      }
    }
    return true;
  };
  if (!PumpUntil(resolved)) {
    return Internal("post-push re-attestation did not resolve in budget");
  }
  const int quarantined = RefreshRoster(roster);
  EmitEpoch("config-push");
  if (policy_.halt_on_quarantine && quarantined > 0) {
    return FailedPrecondition(
        "halt-on-quarantine: post-push re-attestation quarantined " +
        std::to_string(quarantined) + " node(s)");
  }
  return OkStatus();
}

Status FleetController::ScaleUp(int count) {
  if (count <= 0) {
    return InvalidArgument("scale-up count must be positive");
  }
  const std::vector<int> sources = Admitted();
  if (sources.empty()) {
    return FailedPrecondition("scale-up with an empty roster");
  }
  std::vector<int> new_ids;
  new_ids.reserve(static_cast<size_t>(count));
  for (int k = 0; k < count; ++k) {
    const int src =
        sources[static_cast<size_t>(scale_up_round_robin_++) %
                sources.size()];
    FleetNode& source = fleet_->node(src);
    SnapshotSaveOptions save_options;
    save_options.include_digest = false;  // In-memory hop; CRCs cover it.
    auto snapshot = SavePlatform(source.platform(), save_options);
    if (!snapshot.ok()) {
      return snapshot.status();
    }
    source.platform().ReleaseThreadAffinity();
    const int id = fleet_->AddNode();
    if (id < 0) {
      return FailedPrecondition(
          "scale-up requires a star topology with free port space");
    }
    FleetNode& clone = fleet_->node(id);
    SnapshotRestoreOptions restore_options;
    restore_options.verify_checksums = false;  // Same in-memory buffer.
    TL_RETURN_IF_ERROR(
        RestorePlatform(&clone.platform(), *snapshot, restore_options));
    auto provision = RekeyClonedNode(clone, attestor_.provision(src),
                                     fleet_->config().seed);
    if (!provision.ok()) {
      return provision.status();
    }
    const int attestor_id = attestor_.AddNode(std::move(*provision));
    if (attestor_id != id) {
      return Internal("attestor/fleet node id mismatch during scale-up");
    }
    health_.emplace_back();
    health_.back().cloned_from = src;
    agents_.emplace_back();
    // The clone starts with a copy of the source's applied config region;
    // its agent state must agree or the next push would mis-ack.
    agents_.back() = agents_[static_cast<size_t>(src)];
    agents_.back().config_rx = RxCursor{};
    agents_.back().beacon_countdown = 1;
    control_rx_.emplace_back();
    push_.emplace_back();
    new_ids.push_back(id);
    char event[64];
    std::snprintf(event, sizeof(event), "clone node=%d from=%d", id, src);
    Log(event);
  }
  attestor_.Begin(new_ids);
  auto resolved = [&] {
    for (int node : new_ids) {
      const AttestNodeState state = attestor_.state(node);
      if (state != AttestNodeState::kVerified &&
          state != AttestNodeState::kQuarantined) {
        return false;
      }
    }
    return true;
  };
  if (!PumpUntil(resolved)) {
    return Internal("scale-up re-attestation did not resolve in budget");
  }
  const int quarantined = RefreshRoster(new_ids);
  EmitEpoch("scale-up");
  if (policy_.halt_on_quarantine && quarantined > 0) {
    return FailedPrecondition(
        "halt-on-quarantine: scale-up admission quarantined " +
        std::to_string(quarantined) + " node(s)");
  }
  return OkStatus();
}

void FleetController::Drain() {
  PumpUntil([&] { return fleet_->fabric().in_flight() == 0; });
  char event[48];
  std::snprintf(event, sizeof(event), "drain in-flight=%zu",
                fleet_->fabric().in_flight());
  Log(event);
  EmitEpoch("drain");
}

void FleetController::EmitEpoch(const char* phase) {
  std::string json = "{\"phase\":\"";
  json += phase;
  json += "\",\"epoch\":";
  AppendU64(&json, static_cast<uint64_t>(epochs_));
  json += ",\"cycle\":";
  AppendU64(&json, fleet_->now());
  json += ",\"quanta\":";
  AppendU64(&json, quanta_run_);
  json += ",\"nodes\":";
  AppendU64(&json, static_cast<uint64_t>(num_nodes()));
  json += ",\"admitted\":";
  AppendU64(&json, static_cast<uint64_t>(Admitted().size()));
  json += ",\"quarantined\":";
  AppendU64(&json, static_cast<uint64_t>(Quarantined().size()));
  json += ",\"config_generation\":";
  AppendU64(&json, config_generation_);
  json += ",\"health\":[";
  for (int i = 0; i < num_nodes(); ++i) {
    const NodeHealth& health = health_[static_cast<size_t>(i)];
    if (i > 0) {
      json += ',';
    }
    json += "{\"node\":";
    AppendU64(&json, static_cast<uint64_t>(i));
    json += ",\"roster\":\"";
    json += RosterStateName(health.roster);
    json += "\",\"reason\":\"";
    json += QuarantineReasonName(health.reason);
    json += "\",\"last_verified_cycle\":";
    AppendU64(&json, health.last_verified_cycle);
    json += ",\"beacon_cycle\":";
    AppendU64(&json, health.beacon.cycle);
    json += ",\"beacon_instructions\":";
    AppendU64(&json, health.beacon.instructions);
    json += ",\"beacon_tx\":";
    AppendU64(&json, health.beacon.tx_bytes);
    json += ",\"beacon_rx\":";
    AppendU64(&json, health.beacon.rx_bytes);
    json += ",\"config_generation\":";
    AppendU64(&json, health.config_generation);
    json += ",\"halted\":";
    json += health.beacon.halted ? "true" : "false";
    json += ",\"cloned_from\":";
    if (health.cloned_from < 0) {
      json += "-1";
    } else {
      AppendU64(&json, static_cast<uint64_t>(health.cloned_from));
    }
    json += '}';
  }
  json += "]}";
  status_epochs_.push_back(std::move(json));
}

std::string FleetController::WatchSummary() const {
  uint64_t beacons_live = 0;
  for (const NodeHealth& health : health_) {
    if (health.beacon_seen_cycle > 0) {
      ++beacons_live;
    }
  }
  char buf[160];
  std::snprintf(
      buf, sizeof(buf),
      "fleetd @%llu epoch=%d nodes=%d admitted=%zu quarantined=%zu "
      "gen=%u beacons=%llu in-flight=%zu",
      static_cast<unsigned long long>(fleet_->now()), epochs_, num_nodes(),
      Admitted().size(), Quarantined().size(), config_generation_,
      static_cast<unsigned long long>(beacons_live),
      fleet_->fabric().in_flight());
  return buf;
}

}  // namespace trustlite
