// Copyright 2026 The TrustLite Reproduction Authors.
//
// Boot / reset ablation (paper Secs. 3.5 and 6, "Fast Startup"):
// SMART and Sancus require the hardware to sanitize *all volatile memory*
// on platform reset, so their restart cost scales with memory size; the
// TrustLite Secure Loader merely re-establishes the MPU rules and clears
// only the data regions being re-allocated, so its cost scales with the
// amount of protected state.
//
// TrustLite numbers are measured by running the real Secure Loader
// (word-transfer counting); baseline wipe costs use the shared
// one-word-per-cycle hardware wipe model; Sancus additionally re-derives
// each module key over the module text at re-protect time (engine cycles
// measured by executing `protect` on the simulator).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "src/fleet/fleet.h"
#include "src/fleet/provision.h"
#include "src/isa/assembler.h"
#include "src/loader/system_image.h"
#include "src/os/nanos.h"
#include "src/platform/platform.h"
#include "src/sancus/sancus.h"
#include "src/smart/smart.h"
#include "src/trustlet/builder.h"

namespace trustlite {
namespace {

TrustletBuildSpec CounterSpec(int index) {
  TrustletBuildSpec spec;
  spec.name = "T" + std::to_string(index);
  spec.code_addr = 0x11000 + static_cast<uint32_t>(index) * 0x1000;
  spec.data_addr = 0x11800 + static_cast<uint32_t>(index) * 0x1000;
  spec.data_size = 0x400;
  spec.stack_size = 0x100;
  spec.body = "tl_main:\n    swi 0\n    jmp tl_main\n";
  return spec;
}

uint64_t TrustLiteBootCycles(int trustlets) {
  PlatformConfig pc;
  pc.mpu_regions = 32;
  Platform platform(pc);
  SystemImage image;
  for (int i = 0; i < trustlets; ++i) {
    Result<TrustletMeta> tl = BuildTrustlet(CounterSpec(i));
    if (!tl.ok()) {
      std::exit(1);
    }
    image.Add(*tl);
  }
  NanosConfig os_config;
  Result<TrustletMeta> os = BuildNanos(os_config);
  if (!os.ok()) {
    std::exit(1);
  }
  image.Add(*os);
  if (!platform.InstallImage(image).ok()) {
    std::exit(1);
  }
  Result<LoadReport> report = platform.Boot();
  if (!report.ok()) {
    std::exit(1);
  }
  return report->boot_cycles;
}

// Measures Sancus's re-protect cost for one module with `text_bytes` of
// code (executed on the simulator: the engine cycles are added by the
// `protect` hook).
uint64_t SancusProtectCycles(uint32_t text_bytes) {
  PlatformConfig pc;
  pc.with_mpu = false;
  Platform platform(pc);
  SancusUnit unit(8, std::vector<uint8_t>(16, 0x42));
  unit.Install(&platform.cpu(), &platform.bus());
  char src[256];
  std::snprintf(src, sizeof(src), R"(
.org 0x30000
start:
    la r1, descriptor
    protect r1
    halt
descriptor:
    .word 0x11000, 0x%x, 0x18000, 0x18100
)",
                0x11000 + text_bytes);
  Result<AsmOutput> out = Assemble(src);
  if (!out.ok()) {
    std::exit(1);
  }
  for (const AsmChunk& chunk : out->chunks) {
    platform.bus().HostWriteBytes(chunk.base, chunk.bytes);
  }
  platform.cpu().Reset(0x30000);
  const uint64_t before = platform.cpu().cycles();
  platform.Run(100);
  return platform.cpu().cycles() - before;
}

// Host wall time to provision an N-node attestation fleet, cold (N Secure
// Loader boots) vs warm (boot node 0 once, snapshot, clone + patch per-
// device secrets; DESIGN.md Sec. 14). Fleet construction is excluded: both
// modes pay it identically.
double FleetProvisionMillis(int nodes, bool warm_boot) {
  // Best of three: the first run pays one-time costs (CRC tables, page
  // faults on fresh node memory) that repeated provisioning amortizes away.
  double best = 0.0;
  for (int round = 0; round < 3; ++round) {
    FleetConfig config;
    config.nodes = nodes;
    config.seed = 7;
    Fleet fleet(config);
    FleetProvisionConfig prov;
    prov.warm_boot = warm_boot;
    const auto start = std::chrono::steady_clock::now();
    Result<std::vector<NodeProvision>> provisions =
        ProvisionAttestationFleet(&fleet, prov);
    const auto stop = std::chrono::steady_clock::now();
    if (!provisions.ok()) {
      std::exit(1);
    }
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    best = (round == 0) ? ms : std::min(best, ms);
  }
  return best;
}

}  // namespace
}  // namespace trustlite

int main() {
  using namespace trustlite;
  std::printf("Boot/reset cost: TrustLite Secure Loader vs SMART/Sancus\n\n");

  std::printf(
      "TrustLite: measured Secure Loader cost (load + table + MPU setup),\n"
      "independent of total RAM size:\n\n");
  std::printf("%12s %16s\n", "trustlets", "boot cycles");
  for (int n = 1; n <= 6; ++n) {
    std::printf("%12d %16llu\n", n,
                static_cast<unsigned long long>(TrustLiteBootCycles(n)));
  }

  std::printf(
      "\nSMART/Sancus: mandatory full-memory sanitization on every reset\n"
      "(1 word/cycle hardware wipe), scaling with memory size:\n\n");
  std::printf("%16s %16s\n", "volatile memory", "wipe cycles");
  for (const uint32_t kib : {64u, 256u, 1024u, 4096u}) {
    std::printf("%13u KiB %16llu\n", kib,
                static_cast<unsigned long long>(
                    MemorySanitizeCycles(kib * 1024ull)));
  }
  std::printf(
      "\nReference platform (%u KiB SRAM + %u KiB DRAM): %llu wipe cycles\n",
      kSramSize / 1024, kDramSize / 1024,
      static_cast<unsigned long long>(
          MemorySanitizeCycles(kSramSize + kDramSize)));

  std::printf(
      "\nSancus additionally re-derives each module key over the module\n"
      "text at (re-)protect time (measured via the `protect` instruction):\n\n");
  std::printf("%14s %18s\n", "text bytes", "protect cycles");
  for (const uint32_t bytes : {256u, 1024u, 4096u}) {
    std::printf("%14u %18llu\n", bytes,
                static_cast<unsigned long long>(SancusProtectCycles(bytes)));
  }

  const uint64_t tl6 = TrustLiteBootCycles(6);
  const uint64_t wipe = MemorySanitizeCycles(kSramSize + kDramSize);
  std::printf(
      "\nShape check: on the reference platform a TrustLite 6-trustlet\n"
      "re-boot costs %llu cycles vs %llu cycles of wipe alone for\n"
      "SMART/Sancus — %.1fx — and the gap grows linearly with memory\n"
      "(paper Sec. 6: the Secure Loader \"only needs to clear data regions\n"
      "that should be re-allocated\").\n",
      static_cast<unsigned long long>(tl6),
      static_cast<unsigned long long>(wipe),
      static_cast<double>(wipe) / static_cast<double>(tl6));

  std::printf(
      "\nWarm boot from snapshot (host wall time, 64-node attestation\n"
      "fleet; DESIGN.md Sec. 14 — boot one golden node, clone the rest by\n"
      "snapshot restore + key/seed patching):\n\n");
  const double cold_ms = FleetProvisionMillis(64, /*warm_boot=*/false);
  const double warm_ms = FleetProvisionMillis(64, /*warm_boot=*/true);
  std::printf("%26s %12s\n", "provisioning mode", "wall ms");
  std::printf("%26s %12.1f\n", "cold (64 boots)", cold_ms);
  std::printf("%26s %12.1f\n", "warm (1 boot + 63 clones)", warm_ms);
  std::printf("warm-boot speedup: %.1fx\n", cold_ms / warm_ms);
  return 0;
}
