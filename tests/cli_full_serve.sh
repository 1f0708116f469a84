#!/bin/sh
# `canids serve` with a sink on a full device: the open succeeds, the
# writes fail. Like `canids fleet --alerts-out`, the daemon must report
# "<path>: write failed" and exit 66, for --alerts-out and --events-out
# alike. Exits nonzero and says why when it does not.
#
#   cli_full_serve.sh <canids> <models> <attacked-capture>
set -u
canids=$1
models=$2
capture=$3
dir=$(mktemp -d)
pid=
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; rm -rf "$dir"' EXIT

for sink in --alerts-out --events-out; do
  "$canids" serve "$models" --uds "$dir/data.sock" --control "$dir/ctl.sock" \
    "$sink" /dev/full --quiet > "$dir/serve.out" 2>&1 &
  pid=$!
  for _ in $(seq 1 100); do [ -S "$dir/ctl.sock" ] && break; sleep 0.1; done
  "$canids" send "$capture" --addr "$dir/data.sock" --key attack --quiet
  for _ in $(seq 1 100); do
    "$canids" ctl "$dir/ctl.sock" STATUS | grep -q '"drained": true' && break
    sleep 0.1
  done
  "$canids" ctl "$dir/ctl.sock" SHUTDOWN > /dev/null
  rc=0
  wait "$pid" || rc=$?
  pid=
  cat "$dir/serve.out"
  if [ "$rc" != 66 ] || ! grep -q "^/dev/full: write failed" "$dir/serve.out"
  then
    echo "serve $sink /dev/full: exit $rc, want 66 and 'write failed'"
    exit 1
  fi
done
echo "serve reported both lost sinks"
