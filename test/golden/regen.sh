#!/bin/sh
# Regenerate the golden transcripts that test/test_golden.ml compares
# `flux check` against. Run from the root of a checkout with the flux
# binary whose output is the new reference:
#
#   dune build ./bin/flux.exe && sh test/golden/regen.sh
#   sh test/golden/regen.sh path/to/other/flux.exe
#
# For every input (examples/programs/*.rs and test/golden/*.rs) and
# every mode (default, --no-absint, --absint-crosscheck) it writes
# test/golden/NAME.MODE.out: the stdout of
# `flux check --jobs 1 --no-cache --dump-solution [--MODE] INPUT`,
# then a line `[exit N]`, then its stderr.
set -eu

if [ ! -f dune-project ] || [ ! -d test/golden ]; then
  echo "regen.sh: run from the root of a flux checkout" >&2
  exit 2
fi

flux=${1:-_build/default/bin/flux.exe}
err=$(mktemp)
trap 'rm -f "$err"' EXIT

for input in examples/programs/*.rs test/golden/*.rs; do
  name=$(basename "$input" .rs)
  for mode in default no-absint absint-crosscheck; do
    flag=""
    [ "$mode" = default ] || flag="--$mode"
    out="test/golden/$name.$mode.out"
    code=0
    "$flux" check --jobs 1 --no-cache --dump-solution $flag "$input" \
      >"$out" 2>"$err" || code=$?
    printf '[exit %d]\n' "$code" >>"$out"
    cat "$err" >>"$out"
  done
done
