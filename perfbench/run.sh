#!/usr/bin/env bash
# Builds the daemon and the benchmark driver from source, then runs one
# benchmark pass against the out-of-process daemon. From the repository
# root:
#
#   bash perfbench/run.sh --workload hot|cold|mixed --seed N --seconds S --trace 0|1
#
# The last stdout line is the JSON result; build output goes to stderr.
set -euo pipefail

# The daemon must run with its default cache, queue and checks: drop
# every HETSCHED_* knob from the environment it inherits.
for v in $(env | sed -n 's/^\(HETSCHED_[A-Za-z0-9_]*\)=.*/\1/p'); do
  unset "$v"
done

dune build --root . --cache=disabled --display=quiet \
  ./perfbench/main.exe ./bin/hetsched.exe 1>&2

exec ./_build/default/perfbench/main.exe \
  --daemon ./_build/default/bin/hetsched.exe "$@"
