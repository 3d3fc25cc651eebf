// Copyright 2026 The TrustLite Reproduction Authors.
//
// tlfleet — networked multi-device fleet simulator and control plane
// (DESIGN.md §13, §16, §17; docs/FLEET.md).
//
//   tlfleet workload guest.s [options]
//   tlfleet attest [guest.s] [options]
//   tlfleet update [guest.s] --update-image FILE... [options]
//   tlfleet serve [guest.s] [options]
//
// `tlfleet --help` lists every option with the subcommands that take it;
// one table (kFlags) drives both that text and the parser.
//
//  * workload: the guest image runs bare on every node; UART bytes travel
//    the fabric to topology neighbours (and ring fleets bridge GPIO at
//    quantum boundaries).
//  * attest: every node boots the remote-attestation stack (FW trustlet +
//    per-node-keyed UART attestation trustlet + nanOS without the UART);
//    the host verifier challenges all nodes concurrently, retries with
//    backoff, and quarantines nodes whose measurements never match. With a
//    guest.s argument the assembled image is embedded in FW as measured
//    payload; with --tamper K, K deterministically-chosen nodes get one FW
//    code bit flipped post-boot — they keep running but fail attestation.
//  * update: attest, then roll out each --update-image FILE (a .tlfw
//    container, tools/tlfw) in flag order — canary subset first, chunked
//    transfer over the links, post-update re-attestation against the new
//    golden measurement, commit of the anti-rollback counter only after
//    the canaries verify. Campaigns share the monotonic counter, so
//    replaying an older signed image is rejected fleet-wide.
//  * serve: owns the fleet across a whole operator session —
//    provision -> admission -> E re-attestation epochs -> config push ->
//    snapshot scale-up -> drain — appending one JSON status epoch per
//    phase (--status-json) and a --watch summary line. Star topology only:
//    the control plane is hub-and-spoke by construction, and live scale-up
//    cannot splice a ring.
//
// Results are bit-identical for a fixed --seed regardless of --threads; the
// fleet digest printed at the end pins the architectural state of every
// node, so two runs can be compared with string equality.

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/file_io.h"
#include "src/fleet/attest.h"
#include "src/fleet/control.h"
#include "src/fleet/fleet.h"
#include "src/fleet/link.h"
#include "src/fleet/provision.h"
#include "src/fleet/update.h"
#include "src/harness/fleet_campaign.h"
#include "src/isa/assembler.h"
#include "src/platform/observe/fleet_trace.h"
#include "src/platform/observe/json.h"
#include "tools/parse_number.h"

namespace trustlite {
namespace {

constexpr uint32_t kGuestOrigin = 0x0003'0000;
constexpr uint32_t kGuestSp = 0x0004'0000;
// Host threads cap: QuantumPool starts one OS thread per participant.
constexpr uint64_t kMaxThreads = 256;
constexpr uint64_t kMaxPpm = 1'000'000;

// Subcommand bits; a flag's mask says which subcommands accept it.
enum Command : unsigned {
  kWorkload = 1u << 0,
  kAttest = 1u << 1,
  kUpdate = 1u << 2,
  kServe = 1u << 3,
};
constexpr unsigned kEvery = kWorkload | kAttest | kUpdate | kServe;
constexpr unsigned kAttested = kAttest | kUpdate | kServe;
constexpr unsigned kOneRound = kWorkload | kAttest | kUpdate;

struct Subcommand {
  const char* name;
  Command command;
  const char* synopsis;
};

constexpr Subcommand kSubcommands[] = {
    {"workload", kWorkload, "guest.s [options]"},
    {"attest", kAttest, "[guest.s] [options]"},
    {"update", kUpdate, "[guest.s] --update-image FILE... [options]"},
    {"serve", kServe, "[guest.s] [options]"},
};

struct Options {
  std::string guest;
  int nodes = 4;
  // serve takes no --topology, so its fleet stays a star.
  Topology topology = Topology::kStar;
  uint64_t seed = 1;
  int threads = 1;
  uint64_t quantum = 20'000;
  uint32_t batch_quanta = 1;
  uint32_t latency = 1'000;
  uint32_t loss_ppm = 0;
  uint32_t reorder_ppm = 0;
  HostileMode hostile = HostileMode::kNone;
  uint32_t hostile_ppm = 150'000;
  uint32_t corrupt_ppm = 0;
  uint32_t replay_ppm = 0;
  uint32_t reflect_ppm = 0;
  bool stats = false;
  bool quiet = false;
  // attest / update / serve.
  bool warm_boot = false;
  int tamper = 0;
  std::string transcript;
  bool halt_on_quarantine = false;
  // workload / attest / update.
  uint64_t quanta = 5'000;  // Budget; attest and update stop when resolved.
  std::string trace_json;
  // update.
  std::vector<std::string> update_images;
  int canary_pct = 10;
  bool update_tamper_canary = false;
  // serve.
  int epochs = 3;
  std::vector<std::pair<std::string, std::string>> config_entries;
  int scale_up = 0;
  uint64_t idle_quanta = 32;
  uint32_t beacon_quanta = 8;
  std::string status_json;
  bool watch = false;
};

// Setters return "" on success, else what is wrong with the value.
using Setter = std::string (*)(Options*, const std::string&);

template <auto Field, uint64_t Lo, uint64_t Hi>
std::string SetNumber(Options* opt, const std::string& text) {
  return ParseNumber(text, Lo, Hi, &(opt->*Field));
}

template <auto Field>
std::string SetText(Options* opt, const std::string& text) {
  opt->*Field = text;
  return "";
}

template <auto Field>
std::string SetSwitch(Options* opt, const std::string&) {
  opt->*Field = true;
  return "";
}

std::string SetTopology(Options* opt, const std::string& name) {
  if (name == "star") {
    opt->topology = Topology::kStar;
  } else if (name == "ring") {
    opt->topology = Topology::kRing;
  } else {
    return "unknown topology '" + name + "'";
  }
  return "";
}

std::string SetHostile(Options* opt, const std::string& name) {
  if (name == "corrupt") {
    opt->hostile = HostileMode::kCorrupt;
  } else if (name == "replay") {
    opt->hostile = HostileMode::kReplay;
  } else if (name == "reflect") {
    opt->hostile = HostileMode::kReflect;
  } else if (name == "all") {
    opt->hostile = HostileMode::kAll;
  } else {
    return "unknown hostile mode '" + name + "'";
  }
  return "";
}

std::string AddUpdateImage(Options* opt, const std::string& path) {
  opt->update_images.push_back(path);
  return "";
}

std::string AddConfigEntry(Options* opt, const std::string& entry) {
  const size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) {
    return "needs KEY=VAL, got '" + entry + "'";
  }
  opt->config_entries.emplace_back(entry.substr(0, eq), entry.substr(eq + 1));
  return "";
}

struct Flag {
  const char* name;
  const char* value;  // Value placeholder in --help; nullptr for a switch.
  unsigned commands;  // Subcommands that accept the flag.
  const char* help;
  Setter set;
};

using O = Options;
constexpr Flag kFlags[] = {
    {"--nodes", "N", kEvery, "fleet size (default 4)",
     SetNumber<&O::nodes, 1, INT_MAX>},
    {"--seed", "S", kEvery, "fleet seed (default 1)",
     SetNumber<&O::seed, 0, UINT64_MAX>},
    {"--threads", "T", kEvery, "host threads, 0 = all cores (default 1)",
     SetNumber<&O::threads, 0, kMaxThreads>},
    {"--quantum", "Q", kEvery, "cycles per run-quantum (default 20000)",
     SetNumber<&O::quantum, 1, UINT64_MAX>},
    {"--batch-quanta", "K", kEvery, "hold a growing TX burst K quanta (1)",
     SetNumber<&O::batch_quanta, 0, UINT32_MAX>},
    {"--latency", "C", kEvery, "link latency in cycles (default 1000)",
     SetNumber<&O::latency, 0, UINT32_MAX>},
    {"--loss-ppm", "P", kEvery, "frame loss per million",
     SetNumber<&O::loss_ppm, 0, kMaxPpm>},
    {"--reorder-ppm", "P", kEvery, "frame reordering per million",
     SetNumber<&O::reorder_ppm, 0, kMaxPpm>},
    {"--hostile", "MODE", kEvery,
     "attack every link: corrupt|replay|reflect|all", SetHostile},
    {"--hostile-ppm", "P", kEvery, "--hostile rate per message (150000)",
     SetNumber<&O::hostile_ppm, 0, kMaxPpm>},
    {"--corrupt-ppm", "P", kEvery, "corruption rate, overrides --hostile",
     SetNumber<&O::corrupt_ppm, 0, kMaxPpm>},
    {"--replay-ppm", "P", kEvery, "stale-replay rate, overrides --hostile",
     SetNumber<&O::replay_ppm, 0, kMaxPpm>},
    {"--reflect-ppm", "P", kEvery, "reflection rate, overrides --hostile",
     SetNumber<&O::reflect_ppm, 0, kMaxPpm>},
    {"--stats", nullptr, kEvery, "print link and hostile-link counters",
     SetSwitch<&O::stats>},
    {"--quiet", nullptr, kEvery, "print only results and the fleet digest",
     SetSwitch<&O::quiet>},
    {"--warm-boot", nullptr, kAttested,
     "boot node 0, clone the rest by snapshot restore",
     SetSwitch<&O::warm_boot>},
    {"--tamper", "K", kAttested, "flip one FW code bit on K nodes",
     SetNumber<&O::tamper, 0, INT_MAX>},
    {"--transcript", "FILE", kAttested,
     "write the transcripts (same at any --threads)",
     SetText<&O::transcript>},
    {"--halt-on-quarantine", nullptr, kUpdate | kServe,
     "a quarantine fails the campaign / session phase",
     SetSwitch<&O::halt_on_quarantine>},
    {"--topology", "star|ring", kOneRound, "fleet topology (default star)",
     SetTopology},
    {"--quanta", "K", kOneRound, "quantum budget (default 5000)",
     SetNumber<&O::quanta, 0, UINT64_MAX>},
    {"--trace-json", "FILE", kOneRound, "write a merged Chrome trace",
     SetText<&O::trace_json>},
    {"--update-image", "FILE", kUpdate,
     "roll out this .tlfw; repeatable, run in order", AddUpdateImage},
    {"--canary-pct", "P", kUpdate, "percent of nodes updated first (10)",
     SetNumber<&O::canary_pct, 1, 100>},
    {"--update-tamper-canary", nullptr, kUpdate,
     "test hook: tamper the first canary mid-campaign",
     SetSwitch<&O::update_tamper_canary>},
    {"--epochs", "E", kServe, "re-attestation epochs (default 3)",
     SetNumber<&O::epochs, 0, INT_MAX>},
    {"--config", "KEY=VAL", kServe,
     "push KEY=VAL to admitted nodes (repeatable)", AddConfigEntry},
    {"--scale-up", "K", kServe, "clone K nodes by snapshot, then admit",
     SetNumber<&O::scale_up, 0, INT_MAX>},
    {"--idle-quanta", "Q", kServe, "idle quanta between epochs (32)",
     SetNumber<&O::idle_quanta, 0, UINT64_MAX>},
    {"--beacon-quanta", "K", kServe, "health beacon period, 0 = off (8)",
     SetNumber<&O::beacon_quanta, 0, UINT32_MAX>},
    {"--status-json", "FILE", kServe,
     "write one JSON epoch per phase (docs/FLEET.md)",
     SetText<&O::status_json>},
    {"--watch", nullptr, kServe, "print a roster summary after each phase",
     SetSwitch<&O::watch>},
};

// Prints the synopsis of the subcommands in `commands` and the options
// they take; the column letters name the subcommands of each option.
void Usage(FILE* out, unsigned commands) {
  std::fprintf(out, "usage:\n  tlfleet --help\n");
  for (const Subcommand& sub : kSubcommands) {
    if ((commands & sub.command) != 0) {
      std::fprintf(out, "  tlfleet %s %s\n", sub.name, sub.synopsis);
    }
  }
  std::fprintf(out, "\noptions (w=workload a=attest u=update s=serve):\n");
  for (const Flag& flag : kFlags) {
    if ((commands & flag.commands) == 0) {
      continue;
    }
    const std::string spec =
        std::string(flag.name) + (flag.value ? std::string(" ") + flag.value
                                             : std::string());
    char mask[5] = "....";
    for (int i = 0; i < 4; ++i) {
      if ((flag.commands & (1u << i)) != 0) {
        mask[i] = "waus"[i];
      }
    }
    std::fprintf(out, "  %-23s %s  %s\n", spec.c_str(), mask, flag.help);
  }
}

bool ParseOptions(const Subcommand& sub, const std::vector<std::string>& args,
                  Options* opt) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0 && opt->guest.empty()) {
      opt->guest = arg;
      continue;
    }
    const Flag* flag = nullptr;
    for (const Flag& row : kFlags) {
      if (arg == row.name && (row.commands & sub.command) != 0) {
        flag = &row;
      }
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "tlfleet %s: '%s' is not a %s argument\n",
                   sub.name, arg.c_str(), sub.name);
      return false;
    }
    std::string value;
    if (flag->value != nullptr) {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "tlfleet %s: %s needs a value\n", sub.name,
                     flag->name);
        return false;
      }
      value = args[++i];
    }
    const std::string error = flag->set(opt, value);
    if (!error.empty()) {
      std::fprintf(stderr, "tlfleet %s: %s: %s\n", sub.name, flag->name,
                   error.c_str());
      return false;
    }
  }
  if (sub.command == kWorkload && opt->guest.empty()) {
    std::fprintf(stderr, "tlfleet workload: needs a guest.s program\n");
    return false;
  }
  if (sub.command == kUpdate && opt->update_images.empty()) {
    std::fprintf(stderr, "tlfleet update: needs an --update-image FILE\n");
    return false;
  }
  return true;
}

// Writes one output file (transcript, status JSON, trace JSON); reports the
// failure on stderr.
bool WriteOutput(const std::string& path, const std::string& text) {
  const Status written = WriteFileBytes(path, text.data(), text.size());
  if (!written.ok()) {
    std::fprintf(stderr, "tlfleet: %s\n", written.ToString().c_str());
  }
  return written.ok();
}

std::string DigestHex(const Sha256Digest& digest) {
  std::string hex;
  char byte[4];
  for (uint8_t b : digest) {
    std::snprintf(byte, sizeof(byte), "%02x", b);
    hex += byte;
  }
  return hex;
}

// Assembles the guest program (workload image / measured FW payload).
bool AssembleGuest(const std::string& path, AsmOutput* out) {
  Result<std::vector<uint8_t>> source = ReadFileBytes(path);
  if (!source.ok()) {
    std::fprintf(stderr, "tlfleet: %s\n", source.status().ToString().c_str());
    return false;
  }
  Result<AsmOutput> guest =
      Assemble(std::string(source->begin(), source->end()), kGuestOrigin);
  if (!guest.ok()) {
    std::fprintf(stderr, "tlfleet: %s\n", guest.status().ToString().c_str());
    return false;
  }
  *out = std::move(*guest);
  return true;
}

FleetConfig MakeFleetConfig(const Options& opt) {
  FleetConfig config;
  config.nodes = opt.nodes;
  config.topology = opt.topology;
  config.seed = opt.seed;
  config.threads = opt.threads;
  config.quantum = opt.quantum;
  config.harvest_batch_quanta = opt.batch_quanta;
  config.link.latency_cycles = opt.latency;
  config.link.loss_ppm = opt.loss_ppm;
  config.link.reorder_ppm = opt.reorder_ppm;
  config.link = ApplyHostileMode(config.link, opt.hostile, opt.hostile_ppm);
  if (opt.corrupt_ppm != 0) {
    config.link.corrupt_ppm = opt.corrupt_ppm;
  }
  if (opt.replay_ppm != 0) {
    config.link.replay_ppm = opt.replay_ppm;
  }
  if (opt.reflect_ppm != 0) {
    config.link.reflect_ppm = opt.reflect_ppm;
  }
  return config;
}

bool Provision(Fleet* fleet, const Options& opt,
               const std::vector<uint8_t>& payload, uint32_t capacity,
               std::vector<NodeProvision>* provisions) {
  FleetProvisionConfig prov;
  prov.payload = payload;
  prov.payload_capacity = capacity;
  prov.tamper_count = opt.tamper;
  prov.warm_boot = opt.warm_boot;
  Result<std::vector<NodeProvision>> provisioned =
      ProvisionAttestationFleet(fleet, prov);
  if (!provisioned.ok()) {
    std::fprintf(stderr, "tlfleet: provisioning failed: %s\n",
                 provisioned.status().ToString().c_str());
    return false;
  }
  *provisions = std::move(*provisioned);
  return true;
}

// --stats: fabric totals, adversary totals, then per-link rows only for
// links the adversary actually touched.
void PrintLinkStats(Fleet& fleet) {
  const LinkFabric::Stats ls = fleet.fabric().stats();
  std::printf("links: sent %llu delivered %llu dropped %llu reordered "
              "%llu bytes %llu in-flight %zu\n",
              static_cast<unsigned long long>(ls.sent),
              static_cast<unsigned long long>(ls.delivered),
              static_cast<unsigned long long>(ls.dropped),
              static_cast<unsigned long long>(ls.reordered),
              static_cast<unsigned long long>(ls.payload_bytes),
              fleet.fabric().in_flight());
  std::printf("hostile: corrupted %llu replayed %llu reflected %llu\n",
              static_cast<unsigned long long>(ls.corrupted),
              static_cast<unsigned long long>(ls.replayed),
              static_cast<unsigned long long>(ls.reflected));
  for (const LinkFabric::LinkStatsRow& row : fleet.fabric().PerLinkStats()) {
    if (row.corrupted == 0 && row.replayed == 0 && row.reflected == 0) {
      continue;
    }
    std::printf("link %d->%d: sent %llu corrupted %llu replayed %llu "
                "reflected %llu\n",
                row.src, row.dst, static_cast<unsigned long long>(row.sent),
                static_cast<unsigned long long>(row.corrupted),
                static_cast<unsigned long long>(row.replayed),
                static_cast<unsigned long long>(row.reflected));
  }
}

// workload / attest / update: one run over the quanta budget.
int CmdRound(Command command, const Options& opt, const AsmOutput& guest,
             const std::vector<uint8_t>& guest_image) {
  const bool attest = command != kWorkload;

  // Load and validate every update container up front: a malformed file
  // fails before the fleet spins up, and the provisioner sizes each node's
  // payload window to hold the largest image.
  std::vector<std::vector<uint8_t>> update_containers;
  uint32_t update_capacity = 0;
  for (const std::string& path : opt.update_images) {
    Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
    if (!bytes.ok()) {
      std::fprintf(stderr, "tlfleet: %s\n",
                   bytes.status().ToString().c_str());
      return 1;
    }
    Result<FirmwareImage> image = ParseFirmware(*bytes);
    if (!image.ok()) {
      std::fprintf(stderr, "tlfleet: %s: %s\n", path.c_str(),
                   image.status().ToString().c_str());
      return 1;
    }
    if (image->payload.size() > update_capacity) {
      update_capacity = static_cast<uint32_t>(image->payload.size());
    }
    update_containers.push_back(std::move(*bytes));
  }

  const FleetConfig config = MakeFleetConfig(opt);
  Fleet fleet(config);

  std::vector<NodeProvision> provisions;
  if (attest) {
    if (!Provision(&fleet, opt, guest_image, update_capacity, &provisions)) {
      return 1;
    }
  } else {
    for (int i = 0; i < fleet.num_nodes(); ++i) {
      Platform& platform = fleet.node(i).platform();
      for (const AsmChunk& chunk : guest.chunks) {
        if (!platform.bus().HostWriteBytes(chunk.base, chunk.bytes)) {
          std::fprintf(stderr, "tlfleet: chunk at 0x%08x unmapped\n",
                       chunk.base);
          return 1;
        }
      }
      uint32_t entry = guest.chunks.empty() ? 0 : guest.chunks.front().base;
      auto it = guest.symbols.find("start");
      if (it != guest.symbols.end()) {
        entry = it->second;
      }
      platform.cpu().Reset(entry);
      platform.cpu().set_reg(kRegSp, kGuestSp);
      platform.ReleaseThreadAffinity();
    }
  }

  // Fleet trace aggregation: one trace process per node.
  FleetTraceAggregator aggregator;
  std::vector<ChromeTraceWriter*> node_writers;
  if (!opt.trace_json.empty()) {
    for (int i = 0; i < fleet.num_nodes(); ++i) {
      ChromeTraceWriter* writer = aggregator.AddNode(i);
      node_writers.push_back(writer);
      if (attest) {
        writer->AddLane("FW", 0x11000, 0x12000);
        writer->AddLane("ATTN", 0x15000, 0x16000);
        writer->AddLane("OS", 0x20000, 0x22000, /*is_os=*/true);
      } else {
        for (const AsmChunk& chunk : guest.chunks) {
          char lane[32];
          std::snprintf(lane, sizeof(lane), "code@%08x", chunk.base);
          writer->AddLane(lane, chunk.base,
                          chunk.base + static_cast<uint32_t>(
                                           chunk.bytes.size()));
        }
      }
      fleet.node(i).platform().AddEventSink(writer);
    }
  }

  FleetAttestor attestor(&fleet, provisions, AttestPolicy{});
  const auto wall_start = std::chrono::steady_clock::now();
  if (attest) {
    attestor.Begin();
  }
  uint64_t quanta = 0;
  for (; quanta < opt.quanta; ++quanta) {
    fleet.RunQuantum();
    if (attest) {
      attestor.OnQuantumBoundary();
      if (attestor.Done()) {
        ++quanta;
        break;
      }
    } else if (fleet.AllHalted() && fleet.fabric().in_flight() == 0) {
      ++quanta;
      break;
    }
  }

  // Update campaigns run in flag order after the initial attestation round
  // resolves, sharing the global quanta budget and the fleet's monotonic
  // anti-rollback counters (so an older image in a later campaign is
  // rejected by every node).
  std::vector<std::unique_ptr<UpdateCampaign>> campaigns;
  bool campaigns_started_ok = true;
  if (attest && attestor.Done()) {
    UpdateCampaignConfig ucfg;
    ucfg.canary_pct = opt.canary_pct;
    ucfg.halt_on_quarantine = opt.halt_on_quarantine;
    for (size_t k = 0; k < update_containers.size(); ++k) {
      auto campaign = std::make_unique<UpdateCampaign>(
          &fleet, &attestor, update_containers[k], ucfg);
      const Status started = campaign->Start();
      if (!started.ok()) {
        std::fprintf(stderr, "tlfleet: update[%zu]: %s\n", k,
                     started.ToString().c_str());
        campaigns_started_ok = false;
        campaigns.push_back(std::move(campaign));
        continue;
      }
      bool tampered_canary = false;
      for (; quanta < opt.quanta && !campaign->Done(); ++quanta) {
        fleet.RunQuantum();
        campaign->OnQuantumBoundary();
        if (opt.update_tamper_canary && k == 0 && !tampered_canary &&
            campaign->phase() == UpdatePhase::kCanaryVerify) {
          // MVAM-style mid-campaign tamper: flip one code bit on the first
          // canary just as its re-attestation starts. The challenge beats
          // the tamper to the wire but not to the node, so the report is
          // computed over the flipped code and never verifies.
          const int victim = campaign->canaries().front();
          (void)TamperNode(fleet.node(victim),
                           &provisions[static_cast<size_t>(victim)]);
          tampered_canary = true;
        }
      }
      campaigns.push_back(std::move(campaign));
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Summary.
  std::vector<FleetNodeStatsRow> rows = fleet.SummaryRows();
  int quarantined = 0;
  int verified = 0;
  bool plan_ok = true;
  if (attest) {
    for (int i = 0; i < fleet.num_nodes(); ++i) {
      const AttestNodeState state = attestor.state(i);
      const bool tampered = provisions[static_cast<size_t>(i)].tampered;
      rows[static_cast<size_t>(i)].state = AttestNodeStateName(state);
      if (tampered) {
        rows[static_cast<size_t>(i)].state += " (tampered)";
      }
      verified += state == AttestNodeState::kVerified ? 1 : 0;
      quarantined += state == AttestNodeState::kQuarantined ? 1 : 0;
      plan_ok = plan_ok && state == (tampered ? AttestNodeState::kQuarantined
                                              : AttestNodeState::kVerified);
    }
  }
  if (!opt.quiet) {
    std::printf("fleet: %d node(s), %s topology, seed %llu, %d thread(s), "
                "quantum %llu\n",
                fleet.num_nodes(), TopologyName(config.topology),
                static_cast<unsigned long long>(opt.seed), opt.threads,
                static_cast<unsigned long long>(opt.quantum));
    std::printf("%s", FormatFleetStats(rows, elapsed).c_str());
    if (attest) {
      std::printf("attestation: %d verified, %d quarantined (%llu quanta, "
                  "%llu cycles)\n",
                  verified, quarantined,
                  static_cast<unsigned long long>(quanta),
                  static_cast<unsigned long long>(fleet.now()));
    }
    if (opt.stats) {
      PrintLinkStats(fleet);
    }
  }
  for (size_t k = 0; k < campaigns.size(); ++k) {
    const UpdateCampaign& campaign = *campaigns[k];
    std::printf("update[%zu]: version=%u phase=%s committed=%d "
                "rolledback=%d quarantined=%d rejected=%d canaries=%zu\n",
                k, campaign.fw_version(), UpdatePhaseName(campaign.phase()),
                campaign.CountInState(UpdateNodeState::kCommitted),
                campaign.CountInState(UpdateNodeState::kRolledBack),
                campaign.CountInState(UpdateNodeState::kQuarantined),
                campaign.CountInState(UpdateNodeState::kRejected),
                campaign.canaries().size());
  }
  std::printf("fleet-digest: %s\n", DigestHex(fleet.FleetDigest()).c_str());

  if (!opt.transcript.empty()) {
    std::string full = attestor.transcript();
    for (size_t k = 0; k < campaigns.size(); ++k) {
      char header[48];
      std::snprintf(header, sizeof(header), "--- update campaign %zu ---\n",
                    k);
      full += header;
      full += campaigns[k]->transcript();
    }
    if (!WriteOutput(opt.transcript, full)) {
      return 1;
    }
    if (!opt.quiet) {
      std::printf("transcript: wrote %s (%zu bytes)\n",
                  opt.transcript.c_str(), full.size());
    }
  }

  if (!opt.trace_json.empty()) {
    for (int i = 0; i < fleet.num_nodes(); ++i) {
      // Writers are owned by the aggregator; detach before it serializes.
      fleet.node(i).platform().RemoveEventSink(
          node_writers[static_cast<size_t>(i)]);
    }
    const std::string json = aggregator.Json();
    if (!WriteOutput(opt.trace_json, json)) {
      return 1;
    }
    std::string json_error;
    const bool valid = JsonParses(json, &json_error);
    if (!opt.quiet) {
      std::printf("trace-json: wrote %s (%zu nodes, %zu events, %s)\n",
                  opt.trace_json.c_str(), aggregator.node_count(),
                  aggregator.event_count(),
                  valid ? "valid JSON" : json_error.c_str());
    }
  }

  if (!attest) {
    return 0;
  }
  if (!attestor.Done()) {
    std::fprintf(stderr, "tlfleet: attestation unresolved after %llu "
                         "quanta\n",
                 static_cast<unsigned long long>(opt.quanta));
    return 1;
  }
  // Every campaign must resolve inside the budget; an aborted campaign is
  // a failure unless the run deliberately tampered a canary to watch the
  // halt-and-rollback path fire.
  bool updates_ok = campaigns_started_ok &&
                    campaigns.size() == update_containers.size();
  for (const std::unique_ptr<UpdateCampaign>& campaign : campaigns) {
    updates_ok = updates_ok && campaign->Done() &&
                 (campaign->Succeeded() || opt.update_tamper_canary);
  }
  return (plan_ok && updates_ok) ? 0 : 1;
}

// serve: one operator session through the FleetController lifecycle.
int CmdServe(const Options& opt, const std::vector<uint8_t>& guest_image) {
  Fleet fleet(MakeFleetConfig(opt));
  std::vector<NodeProvision> provisions;
  if (!Provision(&fleet, opt, guest_image, /*capacity=*/0, &provisions)) {
    return 1;
  }

  FleetdPolicy policy;
  policy.epoch_idle_quanta = opt.idle_quanta;
  policy.beacon_every_quanta = opt.beacon_quanta;
  policy.halt_on_quarantine = opt.halt_on_quarantine;
  FleetController controller(&fleet, std::move(provisions), policy);

  if (!opt.quiet) {
    std::printf("serve: %d node(s), seed %llu, %d thread(s), quantum %llu, "
                "%s-provisioned\n",
                fleet.num_nodes(), static_cast<unsigned long long>(opt.seed),
                opt.threads, static_cast<unsigned long long>(opt.quantum),
                opt.warm_boot ? "warm" : "cold");
  }

  auto phase_note = [&](const char* phase, const Status& status) {
    if (!status.ok()) {
      std::fprintf(stderr, "tlfleet serve: %s: %s\n", phase,
                   status.ToString().c_str());
    }
    if (opt.watch) {
      std::printf("%s\n", controller.WatchSummary().c_str());
    }
    return status.ok();
  };

  // Lifecycle. A failing phase ends the session (the roster is no longer
  // what the operator asked for); status epochs and transcripts for the
  // phases that did run are still written below.
  bool ok = phase_note("admission", controller.RunAdmission());
  for (int epoch = 0; ok && epoch < opt.epochs; ++epoch) {
    ok = phase_note("reattest", controller.RunReattestEpoch());
  }
  if (ok && !opt.config_entries.empty()) {
    ok = phase_note("config-push", controller.PushConfig(opt.config_entries));
  }
  if (ok && opt.scale_up > 0) {
    ok = phase_note("scale-up", controller.ScaleUp(opt.scale_up));
  }
  if (ok) {
    controller.Drain();
    if (opt.watch) {
      std::printf("%s\n", controller.WatchSummary().c_str());
    }
  }

  if (!opt.quiet) {
    std::printf("session: %s — epochs=%d nodes=%d admitted=%zu "
                "quarantined=%zu gen=%u (%llu quanta, %llu cycles)\n",
                ok ? "complete" : "FAILED", controller.epochs(),
                controller.num_nodes(), controller.Admitted().size(),
                controller.Quarantined().size(),
                controller.config_generation(),
                static_cast<unsigned long long>(controller.quanta_run()),
                static_cast<unsigned long long>(fleet.now()));
    if (opt.stats) {
      PrintLinkStats(fleet);
    }
  }
  std::printf("fleet-digest: %s\n", DigestHex(fleet.FleetDigest()).c_str());

  if (!opt.status_json.empty()) {
    std::string lines;
    for (const std::string& epoch : controller.status_epochs()) {
      lines += epoch + '\n';
    }
    if (!WriteOutput(opt.status_json, lines)) {
      return 1;
    }
    if (!opt.quiet) {
      std::printf("status-json: wrote %s (%zu epoch(s))\n",
                  opt.status_json.c_str(), controller.status_epochs().size());
    }
  }

  if (!opt.transcript.empty()) {
    std::string full = controller.attestor().transcript();
    full += "--- fleetd ---\n";
    full += controller.transcript();
    if (!WriteOutput(opt.transcript, full)) {
      return 1;
    }
    if (!opt.quiet) {
      std::printf("transcript: wrote %s (%zu bytes)\n",
                  opt.transcript.c_str(), full.size());
    }
  }

  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  const std::string name = argc < 2 ? "" : argv[1];
  if (name == "--help" || name == "-h") {
    Usage(stdout, kEvery);
    return 0;
  }
  for (const Subcommand& sub : kSubcommands) {
    if (name != sub.name) {
      continue;
    }
    Options opt;
    if (!ParseOptions(sub, std::vector<std::string>(argv + 2, argv + argc),
                      &opt)) {
      Usage(stderr, sub.command);
      return 2;
    }
    AsmOutput guest;
    std::vector<uint8_t> guest_image;
    if (!opt.guest.empty()) {
      if (!AssembleGuest(opt.guest, &guest)) {
        return 1;
      }
      uint32_t base = 0;
      guest_image = guest.Flatten(&base);
    }
    return sub.command == kServe
               ? CmdServe(opt, guest_image)
               : CmdRound(sub.command, opt, guest, guest_image);
  }
  if (!name.empty()) {
    std::fprintf(stderr, "tlfleet: unknown subcommand '%s'\n", name.c_str());
  }
  Usage(stderr, kEvery);
  return 2;
}

}  // namespace
}  // namespace trustlite

int main(int argc, char** argv) { return trustlite::Main(argc, argv); }
