#!/usr/bin/env bash
# Failure check: runs a command line that must fail and passes only when the
# command exits with the given status and its stderr contains the expected
# diagnostic (a fixed string). Usage errors are status 2, I/O errors 1.
#
# usage: tools/expect_exit.sh <status> <diagnostic> <command> [args...]
set -uo pipefail

WANT_STATUS="${1:?usage: expect_exit.sh <status> <diagnostic> <command> [args...]}"
WANT="${2:?usage: expect_exit.sh <status> <diagnostic> <command> [args...]}"
shift 2
err="$("$@" 2>&1 >/dev/null)"
status=$?
if [ "$status" -ne "$WANT_STATUS" ]; then
  echo "expect_exit: FAIL: exit status $status, want $WANT_STATUS: $*" >&2
  exit 1
fi
if ! grep -qF -- "$WANT" <<<"$err"; then
  echo "expect_exit: FAIL: stderr lacks '$WANT':" >&2
  echo "$err" >&2
  exit 1
fi
echo "expect_exit: ok (status $WANT_STATUS: $WANT)"
