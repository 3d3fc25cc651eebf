// Copyright 2026 The TrustLite Reproduction Authors.
//
// Invalidation tests for the superinstruction fusion layer (DESIGN.md §15)
// and the data-access windows that ride on the same generation counters.
// Fusion only engages inside Cpu::Run's run loop, so every
// test here drives the guest through Platform::Run — never Step() — and
// first proves fusion actually fired (fusion_groups > 0) before asserting
// that stale fused state did not leak into guest-visible behavior.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "src/isa/assembler.h"
#include "src/isa/isa.h"
#include "src/platform/platform.h"

namespace trustlite {
namespace {

// Assembles `source`, installs it at 0x30000 and resets to `start`.
void Install(Platform& platform, const std::string& source) {
  Result<AsmOutput> out = Assemble(source);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  uint32_t base = 0;
  const std::vector<uint8_t> image = out->Flatten(&base);
  ASSERT_TRUE(platform.bus().HostWriteBytes(base, image));
  platform.cpu().Reset(out->symbols.at("start"));
}

// ---------------------------------------------------------------------------
// Baseline: a hot straight-line loop fuses and retires groups.

TEST(FusionTest, HotLoopFusesAndRetiresGroups) {
  PlatformConfig config;
  config.with_mpu = false;
  Platform platform(config);
  Install(platform, R"(
.org 0x30000
start:
    movi r3, 0
    movi r5, 0
    li  r6, 64
loop:
    addi r3, r3, 2
    addi r3, r3, 3
    addi r3, r3, 5
    addi r5, r5, 1
    bne r5, r6, loop
    halt
)");
  platform.Run(10000);
  ASSERT_TRUE(platform.cpu().halted());
  EXPECT_EQ(platform.cpu().reg(3), 64u * 10u);
  EXPECT_EQ(platform.cpu().reg(5), 64u);
  const CpuStats& stats = platform.cpu().stats();
  EXPECT_GT(stats.fusion_groups, 0u);
  // Every dispatched group retires at least two constituents.
  EXPECT_GE(stats.fusion_retired, 2 * stats.fusion_groups);
  EXPECT_GT(stats.fusion_builds, 0u);
}

// ---------------------------------------------------------------------------
// Self-modifying code across a fused pair: a guest store patches the second
// constituent of a fused group. The always-compare rule on tail words must
// drop the group and re-execute the patched instruction — a fusion cache
// that trusted its cached decode would keep adding 1 instead of 100.

TEST(FusionTest, SelfModifyingStoreAcrossFusedPairIsRefetched) {
  Instruction patched;
  patched.opcode = Opcode::kAddi;
  patched.rd = 3;
  patched.rs1 = 3;
  patched.imm = 100;
  // Phase 0 runs the loop four times so the group headed at `head` — whose
  // second constituent is `target` — is built and goes hot. The patch then
  // lands from *outside* the loop and phase 1 re-enters: the warmed entry
  // is now stale and must be dropped by the tail-word re-compare.
  char source[768];
  std::snprintf(source, sizeof(source), R"(
.org 0x30000
start:
    la  r1, target
    li  r2, 0x%x
    movi r3, 0
    movi r5, 0
    li  r6, 4
    movi r7, 0
    movi r8, 1
again:
head:
    addi r3, r3, 1
target:
    addi r3, r3, 1
    addi r5, r5, 1
    bne r5, r6, again
    beq r7, r8, finish
    movi r7, 1
    stw r2, [r1]
    movi r5, 0
    jmp again
finish:
    halt
)",
                Encode(patched));

  PlatformConfig config;
  config.with_mpu = false;
  Platform platform(config);
  Install(platform, source);
  platform.Run(10000);
  ASSERT_TRUE(platform.cpu().halted());
  const CpuStats& stats = platform.cpu().stats();
  EXPECT_GT(stats.fusion_groups, 0u);
  // The stale warmed group was dropped, not replayed.
  EXPECT_GT(stats.fusion_invalidations, 0u);
  // Phase 0: four passes of (+1 +1). Phase 1: four passes of (+1 +100).
  EXPECT_EQ(platform.cpu().reg(3), 8u + 4u * 101u);
  EXPECT_EQ(platform.cpu().reg(5), 4u);
}

// ---------------------------------------------------------------------------
// Reset with a fusion cache warmed mid-quad: run an endless fusable loop
// until the instruction budget expires somewhere inside a fused group, then
// Reset and re-run. The surviving (by design) fusion entries must
// revalidate rather than replay, so the second run is bit-identical to the
// first from the architectural side.

TEST(FusionTest, ResetMidFusedQuadReplaysDeterministically) {
  PlatformConfig config;
  config.with_mpu = false;
  Platform platform(config);
  const std::string source = R"(
.org 0x30000
start:
    movi r3, 0
loop:
    addi r3, r3, 1
    addi r3, r3, 1
    addi r3, r3, 1
    addi r3, r3, 1
    movi r9, 7
    jmp loop
)";
  Install(platform, source);
  // 42 is not a multiple of the 6-instruction loop body, so the budget
  // expires inside the straight-line quad once groups have gone hot.
  platform.Run(42);
  ASSERT_FALSE(platform.cpu().halted());
  const uint32_t r3_first = platform.cpu().reg(3);
  const uint64_t groups_first = platform.cpu().stats().fusion_groups;
  EXPECT_GT(groups_first, 0u);

  Install(platform, source);  // Same image + Reset(start).
  platform.Run(42);
  ASSERT_FALSE(platform.cpu().halted());
  // Registers were cleared by Reset and the replay is deterministic.
  EXPECT_EQ(platform.cpu().reg(3), r3_first);
  EXPECT_EQ(platform.cpu().reg(9), 7u);
  // The warmed cache kept fusing after the reset (entries revalidated, not
  // discarded wholesale).
  EXPECT_GT(platform.cpu().stats().fusion_groups, groups_first);
}

// ---------------------------------------------------------------------------
// Host program reload: overwrite a previously fused loop with a different
// program at the same addresses (what loaders and the snapshot restore path
// do), Reset, re-run. Tail words are re-compared through the host backing
// on every dispatch, so the stale group must not replay even though the
// reload may never have bumped the bus memory generation.

TEST(FusionTest, HostReloadAfterResetRefetchesFusedTails) {
  PlatformConfig config;
  config.with_mpu = false;
  Platform platform(config);
  Install(platform, R"(
.org 0x30000
start:
    movi r3, 0
    movi r5, 0
    li  r6, 8
loop:
    addi r3, r3, 1
    addi r3, r3, 1
    addi r5, r5, 1
    bne r5, r6, loop
    halt
)");
  platform.Run(1000);
  ASSERT_TRUE(platform.cpu().halted());
  EXPECT_EQ(platform.cpu().reg(3), 16u);
  EXPECT_GT(platform.cpu().stats().fusion_groups, 0u);

  // Same layout, different immediates in the fused pair.
  Install(platform, R"(
.org 0x30000
start:
    movi r3, 0
    movi r5, 0
    li  r6, 8
loop:
    addi r3, r3, 10
    addi r3, r3, 20
    addi r5, r5, 1
    bne r5, r6, loop
    halt
)");
  platform.Run(1000);
  ASSERT_TRUE(platform.cpu().halted());
  EXPECT_EQ(platform.cpu().reg(3), 8u * 30u);
}

// ---------------------------------------------------------------------------
// Config switch: with fusion disabled the counters stay at zero and the
// architectural result is unchanged — fusion is pure memoization.

TEST(FusionTest, DisabledFusionIsPureMemoization) {
  const std::string source = R"(
.org 0x30000
start:
    movi r3, 0
    movi r5, 0
    li  r6, 32
loop:
    addi r3, r3, 3
    addi r3, r3, 4
    addi r5, r5, 1
    bne r5, r6, loop
    halt
)";
  uint32_t r3[2];
  uint64_t cycles[2];
  for (int pass = 0; pass < 2; ++pass) {
    PlatformConfig config;
    config.with_mpu = false;
    config.fusion = (pass == 0);
    Platform platform(config);
    Install(platform, source);
    platform.Run(10000);
    ASSERT_TRUE(platform.cpu().halted());
    r3[pass] = platform.cpu().reg(3);
    cycles[pass] = platform.cpu().cycles();
    if (pass == 0) {
      EXPECT_GT(platform.cpu().stats().fusion_groups, 0u);
    } else {
      EXPECT_EQ(platform.cpu().stats().fusion_groups, 0u);
      EXPECT_EQ(platform.cpu().stats().fusion_builds, 0u);
      EXPECT_EQ(platform.cpu().stats().fusion_retired, 0u);
    }
  }
  EXPECT_EQ(r3[0], r3[1]);
  EXPECT_EQ(cycles[0], cycles[1]);
}

// ---------------------------------------------------------------------------
// Data-access windows: a hot load/store loop over RAM must hit the windows,
// and the counters must stay guest-invisible (result unchanged vs a
// fusion/window-free run is covered by the differential corpus; here we
// pin the counters themselves so --stats reporting can trust them).

TEST(FusionTest, DataWindowCountersAccumulate) {
  PlatformConfig config;
  config.with_mpu = false;
  Platform platform(config);
  Install(platform, R"(
.org 0x30000
start:
    la  r1, buf
    movi r5, 0
    li  r6, 50
loop:
    ldw r4, [r1]
    addi r4, r4, 1
    stw r4, [r1]
    addi r5, r5, 1
    bne r5, r6, loop
    halt
buf:
    .word 0
)");
  platform.Run(10000);
  ASSERT_TRUE(platform.cpu().halted());
  EXPECT_EQ(platform.cpu().reg(4), 50u);
  const CpuStats& stats = platform.cpu().stats();
  EXPECT_GT(stats.data_window_hits, 0u);
  EXPECT_GT(stats.data_window_misses, 0u);  // At least the first touch.
}

}  // namespace
}  // namespace trustlite
