#!/usr/bin/env bash
# Keeps README's knob table and the source in step, in both directions:
#
#   * every `const *_ENV: &str = "RDO_…"` in crates/*/src has a row in the
#     README's "Configuration knob reference" table;
#   * every row's variable appears as a string literal ("RDO_…") somewhere in
#     crates/*/src, so a deleted knob cannot leave its row behind.
#
# Run from the repository root:
#
#   bash scripts/check_knobs.sh
#
# Prints the counts it checked and exits 1 on any drift.
set -euo pipefail

readme=README.md
consts=$(grep -rhoE 'const [A-Z0-9_]+_ENV: &str = "RDO_[A-Z0-9_]+"' crates/*/src \
    | grep -oE 'RDO_[A-Z0-9_]+' | sort -u)
rows=$(grep -oE '^\| `RDO_[A-Z0-9_]+` \|' "$readme" | grep -oE 'RDO_[A-Z0-9_]+' | sort -u)

bad=0
for var in $consts; do
    if ! grep -qx "$var" <<<"$rows"; then
        echo "check_knobs: $var is a knob constant in crates/*/src but has no row in $readme"
        bad=1
    fi
done
for var in $rows; do
    if ! grep -rqF "\"$var\"" crates/*/src; then
        echo "check_knobs: $readme lists $var, but no crates/*/src file names it"
        bad=1
    fi
done

echo "check_knobs: $(wc -w <<<"$consts") constants, $(wc -w <<<"$rows") rows"
exit "$bad"
