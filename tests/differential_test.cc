// Copyright 2026 The TrustLite Reproduction Authors.
//
// Differential-execution corpus and fault-injection campaign tests
// (DESIGN.md Sec. 11). The corpus runs 10,000 seeded random TL32 programs
// through two Platforms in lockstep — fast-path caches enabled vs
// force-disabled — and asserts bit-identical architectural state, memory,
// MPU fault latches, statistics and cycle counts. The campaign tests replay
// fixed-seed fault-injection streams (spurious IRQs, RAM/register bit
// flips, hostile DMA, MPU reprogramming attempts, mid-run resets) against a
// booted victim-trustlet + nanOS system and assert the DESIGN.md Sec. 7
// security invariants after every event.
//
// Any failure names the responsible seed; reproduce outside gtest with
//   tlfuzz diff   --seed <S> --programs 1
//   tlfuzz inject --seed <S> --campaigns 1

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/differential.h"
#include "src/harness/injector.h"
#include "src/isa/assembler.h"

namespace trustlite {
namespace {

// 8 shards x 1250 programs = the 10k corpus, split so `ctest -j` runs the
// shards in parallel.
constexpr uint64_t kShardCount = 8;
constexpr uint64_t kShardSize = 1250;
constexpr uint64_t kMaxSteps = 400;

class DifferentialCorpusTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialCorpusTest, CachedAndUncachedExecutionAgree) {
  const uint64_t seed0 =
      1 + static_cast<uint64_t>(GetParam()) * kShardSize;
  for (uint64_t i = 0; i < kShardSize; ++i) {
    const uint64_t seed = seed0 + i;
    const std::optional<Divergence> d = RunRandomProgramDiff(seed, kMaxSteps);
    ASSERT_FALSE(d.has_value())
        << "seed=" << seed << " step=" << d->step << ": " << d->what;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, DifferentialCorpusTest,
                         ::testing::Range(0, static_cast<int>(kShardCount)));

// Windowed corpus: the fast platform advances through Cpu::Run, so the
// run loop, superinstruction fusion and data-access windows are all live —
// none of which the Step()-lockstep corpus above exercises. The reference
// side stays on the plain uncached interpreter and chases the fast side's
// cycle count.
class WindowedDifferentialCorpusTest : public ::testing::TestWithParam<int> {};

TEST_P(WindowedDifferentialCorpusTest, FusedRunLoopMatchesReference) {
  constexpr uint64_t kWindowShardSize = 250;
  const uint64_t seed0 =
      1 + static_cast<uint64_t>(GetParam()) * kWindowShardSize;
  for (uint64_t i = 0; i < kWindowShardSize; ++i) {
    const uint64_t seed = seed0 + i;
    const std::optional<Divergence> d =
        RunRandomProgramDiffWindowed(seed, 2000, /*window=*/64);
    ASSERT_FALSE(d.has_value())
        << "seed=" << seed << " step=" << d->step << ": " << d->what;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, WindowedDifferentialCorpusTest,
                         ::testing::Range(0, 4));

// Window sizes bracketing the fusion group length (1..4 constituents):
// window=1 forces a fused group to start on every Run() call, window=3
// makes budgets expire mid-quad, large windows let groups go hot.
void ExpectWindowSizesMatchReference(const PlatformConfig& run_config) {
  for (const uint64_t window : {1ull, 3ull, 5ull, 1024ull}) {
    for (const uint64_t seed : {11ull, 23ull, 47ull}) {
      const std::optional<Divergence> d = RunRandomProgramDiffWindowed(
          seed, 3000, window, RandomProgramOptions{}, run_config);
      ASSERT_FALSE(d.has_value())
          << "seed=" << seed << " window=" << window << " step=" << d->step
          << ": " << d->what;
    }
  }
}

TEST(WindowedDifferentialTest, WindowSizesBracketFusionGroupLength) {
  ExpectWindowSizesMatchReference(PlatformConfig{});
}

// The same windows with the Run() side's fusion off, and with its whole
// fast path off: Run() then takes the one run loop as the plain uncached
// interpreter, with eager device ticks.
TEST(WindowedDifferentialTest, RunLoopWithoutFusionMatchesReference) {
  PlatformConfig config;
  config.fusion = false;
  ExpectWindowSizesMatchReference(config);
}

TEST(WindowedDifferentialTest, UncachedRunLoopMatchesReference) {
  PlatformConfig config;
  config.fast_path = false;
  ExpectWindowSizesMatchReference(config);
}

// Eviction path. The instruction caches fold the code page into their slot
// index, so real trustlet layouts almost never conflict, and slot
// replacement and revalidation would lose their natural coverage. This
// program is larger than the 1024-entry decode cache and splits its loop
// across two pages that fold to the same slots (0x30000 and 0x39000), so
// every pass evicts and rebuilds decode entries and fused groups. A third
// page folds elsewhere, and its code at 0x3B800 lands on slots the two
// blocks leave alone: its decode entries and fused group survive the
// passes, and each pass rewrites that group's tail (self-modifying code),
// so the next dispatch must revalidate it.
constexpr int kEvictionBlockWords = 600;

std::string EvictionBlock(uint32_t* state, const std::string& tag) {
  // Seeded filler: ALU ops, loads/stores to the data area at r12, and short
  // forward branches that break the fusion groups into varied shapes.
  const auto next = [state](uint32_t bound) {
    *state = *state * 1664525u + 1013904223u;
    return (*state >> 8) % bound;
  };
  const auto reg = [&next] { return "r" + std::to_string(1 + next(8)); };
  std::string out;
  int words = 0;
  int skips = 0;
  while (words < kEvictionBlockWords) {
    switch (next(9)) {
      case 0:
        out += "    add " + reg() + ", " + reg() + ", " + reg() + "\n";
        break;
      case 1:
        out += "    xor " + reg() + ", " + reg() + ", " + reg() + "\n";
        break;
      case 2:
        out += "    sub " + reg() + ", " + reg() + ", " + reg() + "\n";
        break;
      case 3:
        out += "    shli " + reg() + ", " + reg() + ", " +
               std::to_string(next(31)) + "\n";
        break;
      case 4:
        out += "    ldw " + reg() + ", [r12 + " + std::to_string(4 * next(64)) +
               "]\n";
        break;
      case 5:
        out += "    stw " + reg() + ", [r12 + " + std::to_string(4 * next(64)) +
               "]\n";
        break;
      case 6: {
        const std::string label = tag + "_skip" + std::to_string(skips++);
        out += "    beq " + reg() + ", " + reg() + ", " + label + "\n" +
               "    mul " + reg() + ", " + reg() + ", " + reg() + "\n" +
               label + ":\n";
        ++words;
        break;
      }
      default:
        out += "    addi " + reg() + ", " + reg() + ", " +
               std::to_string(next(2000)) + "\n";
        break;
    }
    ++words;
  }
  return out;
}

std::vector<uint8_t> EvictionProgram(uint32_t* entry) {
  uint32_t state = 0x5EED;
  const std::string source = R"(
.org 0x30000
start:
    li   r12, 0x3C000
    movi r11, 0
    movi r15, 6
page_a:
)" + EvictionBlock(&state, "a") + R"(
    jmp  page_b

.org 0x39000
page_b:
)" + EvictionBlock(&state, "b") + R"(
    jmp  patch_group

.org 0x3B800
patch_group:
    addi r2, r2, 3
patch_site:
    addi r1, r1, 1
    add  r3, r1, r2
    la   r9, donor_a
    ldw  r10, [r9]
    ldw  r9, [r9 + 4]
    xor  r10, r10, r9
    la   r9, patch_site
    ldw  r8, [r9]
    xor  r8, r8, r10
    stw  r8, [r9]
    addi r11, r11, 1
    bne  r11, r15, page_a
    halt
donor_a:
    addi r1, r1, 1
    addi r1, r1, 77
)";
  Result<AsmOutput> out = Assemble(source);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) {
    return {};
  }
  *entry = out->symbols.at("start");
  uint32_t base = 0;
  std::vector<uint8_t> image = out->Flatten(&base);
  EXPECT_EQ(base, 0x30000u);
  return image;
}

void ExpectEvictionProgramMatchesReference(const PlatformConfig& run_config) {
  uint32_t entry = 0;
  const std::vector<uint8_t> image = EvictionProgram(&entry);
  ASSERT_FALSE(image.empty());
  for (const uint64_t window : {5ull, 256ull}) {
    DifferentialExecutor diff(run_config);
    diff.ForBoth([&](Platform& platform) {
      ASSERT_TRUE(platform.bus().HostWriteBytes(0x30000, image));
      platform.cpu().Reset(entry);
    });
    const std::optional<Divergence> d = diff.RunWindowed(20'000, window);
    ASSERT_FALSE(d.has_value())
        << "window=" << window << " step=" << d->step << ": " << d->what;
    const Cpu& cpu = diff.fast().cpu();
    ASSERT_TRUE(cpu.halted());
    EXPECT_FALSE(cpu.trap().valid);
    EXPECT_EQ(cpu.reg(11), 6u);
    // The program really exercised replacement: fused groups were dropped
    // and rebuilt, or (fusion off) decode misses far exceed the two blocks'
    // cold footprint.
    if (run_config.fusion) {
      EXPECT_GT(cpu.stats().fusion_invalidations, 1u * kEvictionBlockWords);
    } else {
      EXPECT_GT(cpu.stats().decode_misses, 4u * kEvictionBlockWords);
    }
  }
}

TEST(EvictionDifferentialTest, FusedRunLoopMatchesReference) {
  ExpectEvictionProgramMatchesReference(PlatformConfig{});
}

TEST(EvictionDifferentialTest, RunLoopWithoutFusionMatchesReference) {
  PlatformConfig config;
  config.fusion = false;
  ExpectEvictionProgramMatchesReference(config);
}

// The divergence class the harness actually caught: accesses straddling the
// top of the 32-bit address space, where the fast path's end-of-access
// arithmetic used to wrap. Random MPU layouts near 0xFFFFF000 are part of
// every scenario, but pin a few seeds with many more steps so the corner
// stays exercised even if the biased pools are retuned.
TEST(DifferentialRegressionTest, LongRunsStayLockstepped) {
  for (const uint64_t seed : {1ull, 7ull, 42ull, 1337ull}) {
    const std::optional<Divergence> d = RunRandomProgramDiff(seed, 5000);
    ASSERT_FALSE(d.has_value())
        << "seed=" << seed << " step=" << d->step << ": " << d->what;
  }
}

TEST(InjectionCampaignTest, FixedSeedCampaignsHoldInvariants) {
  for (const uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    InjectionCampaignConfig config;
    config.seed = seed;
    config.events = 150;
    config.steps_between = 400;
    const InjectionCampaignResult result = RunInjectionCampaign(config);
    EXPECT_TRUE(result.ok()) << "seed=" << seed << ": "
                             << (result.violations.empty()
                                     ? ""
                                     : result.violations.front());
    EXPECT_EQ(result.events_injected, 150u) << "seed=" << seed;
    EXPECT_GT(result.invariant_checks, 0u) << "seed=" << seed;
  }
}

// The same invariants must hold with the fast-path caches disabled: the
// security properties are properties of the architecture, not of the cache
// layer that accelerates it.
TEST(InjectionCampaignTest, UncachedPlatformHoldsSameInvariants) {
  InjectionCampaignConfig config;
  config.seed = 5;
  config.events = 150;
  config.steps_between = 400;
  config.fast_path = false;
  const InjectionCampaignResult result = RunInjectionCampaign(config);
  EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                   ? ""
                                   : result.violations.front());
  EXPECT_EQ(result.events_injected, 150u);
}

// A campaign long enough to hit every event type must also show the defense
// mechanisms actually firing — hostile DMA transfers faulting, MPU
// reprogramming attempts being denied, and secure exception entries being
// observed — otherwise a silently broken injector would vacuously pass.
TEST(InjectionCampaignTest, DefensesObservablyEngage) {
  InjectionCampaignConfig config;
  config.seed = 6;
  config.events = 300;
  config.steps_between = 300;
  const InjectionCampaignResult result = RunInjectionCampaign(config);
  EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                   ? ""
                                   : result.violations.front());
  EXPECT_GT(result.dma_faults, 0u);
  EXPECT_GT(result.mpu_denials, 0u);
  EXPECT_GT(result.secure_entries, 0u);
  for (int e = 0; e < static_cast<int>(InjectionEvent::kNumEvents); ++e) {
    EXPECT_GT(result.event_counts[e], 0u) << "event " << e << " never fired";
  }
}

}  // namespace
}  // namespace trustlite
