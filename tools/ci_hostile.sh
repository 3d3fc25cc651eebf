#!/usr/bin/env bash
# Hostile-link attestation gate (DESIGN.md §13): runs the attested fleet
# under every active link-attack mode — seeded corruption, stale-report
# replay, challenge reflection, and all three at once — at --threads 1 and
# --threads 8, and enforces:
#  * the verdicts match the tamper plan under every attack,
#  * the attack actually fired (per-mode hostile counter nonzero),
#  * the verifier transcript and the fleet digest are bit-identical across
#    thread counts (the determinism headline survives an active adversary),
#  * and at --threads 1 both equal pinned values, so wire or timing drift
#    fails here too, not only thread-count drift.
#
# Replay needs at least two captured frames on a link before a stale copy
# can be re-delivered, so the replay/all stages tamper one node: its retry
# traffic populates the adversary's capture history.
#
# usage: tools/ci_hostile.sh <tlfleet-binary> [work-dir]
set -euo pipefail

TLFLEET="${1:?usage: ci_hostile.sh <tlfleet-binary> [work-dir]}"
WORK="${2:-$(mktemp -d)}"
mkdir -p "$WORK"

fail() { echo "ci_hostile: FAIL: $*" >&2; exit 1; }

# run <tag> <threads> <extra tlfleet attest args...>
run() {
  local tag="$1" threads="$2"
  shift 2
  "$TLFLEET" attest --nodes 4 --seed 7 --threads "$threads" \
      --stats --transcript "$WORK/tx_${tag}_t${threads}.txt" "$@" \
      > "$WORK/out_${tag}_t${threads}.txt" \
      || fail "$tag --threads $threads exited nonzero"
}

# check <tag> <verdict regex> <counter name> <transcript sha256> <digest>
check() {
  local tag="$1" verdict="$2" counter="$3" pin_tx="$4" pin_digest="$5"
  local out="$WORK/out_${tag}_t1.txt"
  grep -q "$verdict" "$out" || fail "$tag: verdict mismatch (want: $verdict)"
  local count
  count="$(grep -o "$counter [0-9]*" "$out" | head -1 | cut -d' ' -f2)"
  [ "${count:-0}" -gt 0 ] || fail "$tag: attack never fired ($counter 0)"
  cmp -s "$WORK/tx_${tag}_t1.txt" "$WORK/tx_${tag}_t8.txt" \
      || fail "$tag: transcripts differ between --threads 1 and 8"
  [ "$(grep '^fleet-digest:' "$out")" = \
    "$(grep '^fleet-digest:' "$WORK/out_${tag}_t8.txt")" ] \
      || fail "$tag: fleet digests differ between --threads 1 and 8"
  [ "$(sha256sum < "$WORK/tx_${tag}_t1.txt" | cut -d' ' -f1)" = "$pin_tx" ] \
      || fail "$tag: transcript drifted from its pin"
  grep -qx "fleet-digest: $pin_digest" "$out" \
      || fail "$tag: fleet digest drifted from its pin"
  echo "ci_hostile: $tag ok"
}

for threads in 1 8; do
  run corrupt "$threads" --hostile corrupt --hostile-ppm 150000
  run replay  "$threads" --hostile replay --hostile-ppm 1000000 --tamper 1
  run reflect "$threads" --hostile reflect --hostile-ppm 1000000
  run all     "$threads" --corrupt-ppm 150000 --replay-ppm 1000000 \
              --reflect-ppm 1000000 --tamper 1
done

# Pinned --threads 1 transcript SHA-256 and fleet digest per mode. Update
# them only for an intended change to the wire protocol or the timing.
check corrupt "attestation: 4 verified, 0 quarantined" corrupted \
    5a0fef0ca236e71aa6883f25fc730a6f6d4bdeedfe38bf6ea9e5d4c26e6576d6 \
    c995cfa812bdbfe51864b4d5c147523252af332f54e0de54f3d5406c347b0b20
check replay  "attestation: 3 verified, 1 quarantined" replayed \
    7444395166857ddb0e162aafe5242ed6833237bd98755922b0bba1c17975669a \
    e8def909876cac838079d619fb372c8ac7d6d8f5dfa61c51fd9bc8b4d043a898
check reflect "attestation: 4 verified, 0 quarantined" reflected \
    a4fde8fc1cce5ada40efe606b014951a21b7114cec54a4956d6c9c62b2d06f5d \
    fed440787bff8794d373bd073309a3600291a160c742a7aab5ad97a6c62f77b3
check all     "attestation: 3 verified, 1 quarantined" replayed \
    b276f58bf888a55727a98774304242e863381e0416e8a01a578d4cd71c4e994d \
    8a2a761ccf13897c52302632a9631013314139a13a9a1ce738e3f1492179310e

echo "ci_hostile: all checks passed"
