#!/usr/bin/env bash
# Asserts-on and sanitizer build-and-test configurations:
#  * Debug over the tier-1 suite (`ctest -LE tier2`): every assert and
#    `!NDEBUG` check (Encode's field-range asserts, the Platform
#    thread-affinity latch, the fleet fabric's in-flight recount) runs.
#  * ASan + UBSan over the full suite: cache/invalidation bugs in the
#    simulator fast path (decode cache, EA-MPU decision caches, bus routing
#    memoization, superinstruction fusion's host backing pointers, the
#    data-access windows, and the SHA-256 engine ladder incl. the 4-way
#    batch hasher's tail padding) surface as sanitizer failures instead of
#    heisenbugs. The fusion/windowed-differential and sha256_engine suites
#    run here like everything else.
#  * TSan over the fleet/pool tests: the multi-threaded fleet executor
#    (QuantumPool work stealing, per-quantum Platform ownership handoff,
#    DESIGN.md §13) must be race-free at any thread count; FleetDigest's
#    batched state hashing runs in these tests too.
#
# usage: tools/ci_sanitize.sh [asan-build-dir] [tsan-build-dir] [debug-build-dir]
set -euo pipefail

BUILD_DIR="${1:-build-asan}"
TSAN_DIR="${2:-build-tsan}"
DEBUG_DIR="${3:-build-debug}"
SRC_DIR="$(dirname "$0")/.."

cmake -B "$DEBUG_DIR" -S "$SRC_DIR" -DCMAKE_BUILD_TYPE=Debug
cmake --build "$DEBUG_DIR" -j "$(nproc)"
ctest --test-dir "$DEBUG_DIR" --output-on-failure -j "$(nproc)" -LE tier2

cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# TSan stage: fleet executor + RNG tests, the tlfleet smoke runs, the
# hostile-link campaigns, the update-campaign suites, and the `tlfleet serve`
# control-plane suite — multi-threaded quanta with mid-run host-port
# tampering, an active link adversary, host-side apply/commit/rollback, and
# controller agents writing node DRAM between quanta are exactly where a
# data race would hide (ctest regex covers the gtest-discovered Fleet*/
# QuantumPool*/HostileCampaign*/ReplayWindow*/FleetUpdate*/FleetController*
# and WarmBoot* cases — warm-boot clones run their first quanta at 4
# threads — plus the ci_hostile, ci_update and ci_fleetd gates).
cmake -B "$TSAN_DIR" -S "$SRC_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
cmake --build "$TSAN_DIR" -j "$(nproc)" \
  --target fleet_test hostile_attest_test fleet_update_test fleetd_test \
  snapshot_test rng_test tlfleet tlfw
ctest --test-dir "$TSAN_DIR" --output-on-failure \
  -R 'Fleet|QuantumPool|LinkFabric|DeriveDeviceSeed|SplitMix|tlfleet|Hostile|ReplayWindow|ControlWire|WarmBoot|ci_hostile|ci_update|ci_fleetd'
