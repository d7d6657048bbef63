#!/usr/bin/env bash
# Fails when production code defines a `pub fn` that no other production
# line names: the public surface is what the flow, the examples and the
# benchmark call, not what only tests need.
#
# Production code is `crates/*/src` up to each file's first `#[cfg(test)]`,
# plus `examples/*.rs` and `benchmark/src/*.rs`, with comment lines
# skipped.  Names are matched as words, so a name that any other item
# shares (a field, another type's method, a local) counts as used: the scan
# catches unused functions with distinctive names, not every one.
#
# Usage: .github/scripts/public-surface.sh   (from any directory)
set -eu
export LC_ALL=C
cd "$(dirname "$0")/../.."

# Public although only tests call them: name, then the reason.
allowlist='
operand_tree  tests/synthesis_pins.rs digests the base operand tree it returns
step_dense    the scalar oracle crates/netlist/tests/bitsim_props.rs checks BitSim against
to_bench      tests/synthesis_pins.rs and the round-trip tests digest the .bench text it writes
to_markdown   the experiments golden tests compare the markdown reports it renders
'

prod=$(mktemp)
trap 'rm -f "$prod"' EXIT
for file in $(find crates/*/src -name '*.rs' | sort) examples/*.rs benchmark/src/*.rs; do
  awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print }' "$file"
done > "$prod"

def='\bpub (const )?(unsafe )?fn'
failed=0
for name in $(grep -oE "$def [A-Za-z_][A-Za-z0-9_]*" "$prod" | awk '{ print $NF }' | sort -u); do
  # Used when the name is on a production line that does not define it.
  if grep -w -- "$name" "$prod" | grep -vqE "$def $name\b"; then
    continue
  fi
  if printf '%s\n' "$allowlist" | awk '{ print $1 }' | grep -qx -- "$name"; then
    echo "allowlisted: $name"
  else
    echo "::error::pub fn $name is called by no production code (delete it, move it into the test module that needs it, or allowlist it with a reason)"
    failed=1
  fi
done
exit "$failed"
