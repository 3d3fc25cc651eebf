#!/usr/bin/env bash
# Usage-error check: runs a command line that must be rejected and passes
# only when the command exits with status 2 and its stderr contains the
# expected diagnostic (a fixed string).
#
# usage: tools/expect_usage_error.sh <diagnostic> <command> [args...]
set -uo pipefail

WANT="${1:?usage: expect_usage_error.sh <diagnostic> <command> [args...]}"
shift
err="$("$@" 2>&1 >/dev/null)"
status=$?
if [ "$status" -ne 2 ]; then
  echo "expect_usage_error: FAIL: exit status $status, want 2: $*" >&2
  exit 1
fi
if ! grep -qF -- "$WANT" <<<"$err"; then
  echo "expect_usage_error: FAIL: stderr lacks '$WANT':" >&2
  echo "$err" >&2
  exit 1
fi
echo "expect_usage_error: ok (status 2: $WANT)"
