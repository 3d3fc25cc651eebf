#!/usr/bin/env bash
# Fleet control-plane gate (DESIGN.md §17, docs/FLEET.md): drives full
# `tlfleet serve` operator sessions and enforces:
#  * a 256-node warm-boot session — admission, 3 re-attestation epochs, a
#    digest-checked config push, scale-up by 8 snapshot clones, drain —
#    completes with every node admitted, and its transcript, status epochs
#    and fleet digest are bit-identical at --threads 1 and 8 and equal to
#    pinned values,
#  * the status stream has exactly one JSON epoch per phase, in order,
#  * quarantine reasons are stable: a tampered node reports
#    "reason":"mismatch" and --halt-on-quarantine turns it into a failure,
#  * a hostile-all link matrix cannot defeat the control plane, stays
#    deterministic across thread counts and matches its pinned transcript
#    and digest.
#
# The pins are SHA-256 sums of the --threads 1 outputs. A change to any
# frame byte or send cycle moves them; update them only for an intended
# change to the wire protocol or the simulated timing.
#
# usage: tools/ci_fleetd.sh <tlfleet-binary> [work-dir]
set -euo pipefail

TLFLEET="${1:?usage: ci_fleetd.sh <tlfleet> [work-dir]}"
WORK="${2:-$(mktemp -d)}"
mkdir -p "$WORK"

fail() { echo "ci_fleetd: FAIL: $*" >&2; exit 1; }

# pinned <file> <sha256>: the file's SHA-256 equals the pin.
pinned() { [ "$(sha256sum < "$1" | cut -d' ' -f1)" = "$2" ]; }

# --- Stage 1: 256-node session, deterministic across threads. --------------
for threads in 1 8; do
  "$TLFLEET" serve --nodes 256 --seed 9 --warm-boot --epochs 3 \
      --config mode=eco --config rate=9600 --scale-up 8 \
      --threads "$threads" \
      --status-json "$WORK/status_t${threads}.json" \
      --transcript "$WORK/transcript_t${threads}.txt" \
      > "$WORK/out_t${threads}.txt" \
      || fail "256-node session --threads $threads exited nonzero"
done
grep -q "session: complete — epochs=3 nodes=264 admitted=264 quarantined=0 \
gen=1" "$WORK/out_t1.txt" || fail "256-node session summary mismatch"
cmp -s "$WORK/transcript_t1.txt" "$WORK/transcript_t8.txt" \
    || fail "transcripts differ between --threads 1 and 8"
cmp -s "$WORK/status_t1.json" "$WORK/status_t8.json" \
    || fail "status epochs differ between --threads 1 and 8"
[ "$(grep '^fleet-digest:' "$WORK/out_t1.txt")" = \
  "$(grep '^fleet-digest:' "$WORK/out_t8.txt")" ] \
    || fail "fleet digests differ between --threads 1 and 8"
pinned "$WORK/transcript_t1.txt" \
    6f0a1ebad729fef6d7f8135b56a8795d28cb34dddbef34e883bc0d3fcce106b3 \
    || fail "session transcript drifted from its pin"
pinned "$WORK/status_t1.json" \
    7a72128634c5d5f9fe4e397970a6f09d1b09eeee7a2a2e1e3f22389c691ac919 \
    || fail "session status epochs drifted from their pin"
grep -qx "fleet-digest: \
0c4f4d5843467fbe7157878663dd06337b109b443f71ba06570172af9bffac88" \
    "$WORK/out_t1.txt" || fail "session fleet digest drifted from its pin"
echo "ci_fleetd: 256-node session deterministic at t1/t8"

# --- Stage 2: one JSON epoch per phase, in lifecycle order. ----------------
phases=$(sed -n 's/^{"phase":"\([a-z-]*\)".*/\1/p' "$WORK/status_t1.json" \
    | tr '\n' ' ')
want="admission reattest reattest reattest config-push scale-up drain "
[ "$phases" = "$want" ] \
    || fail "status phases '$phases' != expected '$want'"
grep -q '"node":263' "$WORK/status_t1.json" \
    || fail "status epochs lack the scaled-up nodes"
grep -q '"cloned_from":' "$WORK/status_t1.json" \
    || fail "status epochs lack clone lineage"
echo "ci_fleetd: status epoch stream ok"

# --- Stage 3: stable quarantine reasons + halt-on-quarantine. --------------
"$TLFLEET" serve --nodes 16 --seed 9 --tamper 2 --epochs 1 \
    --status-json "$WORK/tamper_status.json" \
    > "$WORK/tamper_out.txt" \
    || fail "tamper session exited nonzero without --halt-on-quarantine"
grep -q '"reason":"mismatch"' "$WORK/tamper_status.json" \
    || fail "tampered nodes lack reason=mismatch in status output"
grep -q "quarantined=2" "$WORK/tamper_out.txt" \
    || fail "tamper session did not quarantine exactly the tampered nodes"
if "$TLFLEET" serve --nodes 16 --seed 9 --tamper 2 --halt-on-quarantine \
    > "$WORK/halt_out.txt" 2> "$WORK/halt_err.txt"; then
  fail "--halt-on-quarantine did not fail the session"
fi
grep -q "halt-on-quarantine" "$WORK/halt_err.txt" \
    || fail "halt failure lacks the halt-on-quarantine diagnostic"
echo "ci_fleetd: quarantine reasons + halt-on-quarantine ok"

# --- Stage 4: hostile-all matrix stays correct and deterministic. ----------
for threads in 1 8; do
  "$TLFLEET" serve --nodes 32 --seed 11 --epochs 2 --hostile all \
      --config mode=eco --scale-up 2 --threads "$threads" \
      --transcript "$WORK/hostile_t${threads}.txt" \
      > "$WORK/hostile_out_t${threads}.txt" \
      || fail "hostile session --threads $threads exited nonzero"
done
grep -q "session: complete — epochs=2 nodes=34 admitted=34 quarantined=0" \
    "$WORK/hostile_out_t1.txt" \
    || fail "hostile links defeated the control plane"
cmp -s "$WORK/hostile_t1.txt" "$WORK/hostile_t8.txt" \
    || fail "hostile transcripts differ between --threads 1 and 8"
[ "$(grep '^fleet-digest:' "$WORK/hostile_out_t1.txt")" = \
  "$(grep '^fleet-digest:' "$WORK/hostile_out_t8.txt")" ] \
    || fail "hostile fleet digests differ between --threads 1 and 8"
pinned "$WORK/hostile_t1.txt" \
    605da93f3ed20066f538cc897478ae17fea8dedd36aa5398b22ceec816e57e21 \
    || fail "hostile transcript drifted from its pin"
grep -qx "fleet-digest: \
543d4d7e154df37fdd0c053b119d077dcbec008852e7a1085ec0c8df07c6069d" \
    "$WORK/hostile_out_t1.txt" || fail "hostile fleet digest drifted from its pin"
echo "ci_fleetd: hostile-all matrix ok"

echo "ci_fleetd: all checks passed"
