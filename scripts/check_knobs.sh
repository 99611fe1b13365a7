#!/usr/bin/env bash
# Keeps README's knob table and the source in step, in both directions:
#
#   * every `const *_ENV: &str = "RDO_…"` in crates/*/src has a row in the
#     README's "Configuration knob reference" table;
#   * every row's variable appears as a string literal ("RDO_…") somewhere in
#     crates/*/src, so a deleted knob cannot leave its row behind;
#   * every row's "Parsed by" module names an existing file (`rdo_x::y` is
#     crates/x/src/y.rs, a bare `rdo_x` is crates/x/src/lib.rs), so a moved
#     or deleted module cannot leave a stale path behind.
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

modules=0
while IFS='|' read -r _ var _ _ module _; do
    var=$(tr -d ' `' <<<"$var")
    module=$(tr -d ' `' <<<"$module")
    crate=${module%%::*}
    if [[ $module == *::* ]]; then
        file="crates/${crate#rdo_}/src/${module#*::}.rs"
        file=${file//:://}
    else
        file="crates/${crate#rdo_}/src/lib.rs"
    fi
    if [[ $crate != rdo_* || ! -f $file ]]; then
        echo "check_knobs: $readme row $var is parsed by $module, but $file does not exist"
        bad=1
    fi
    modules=$((modules + 1))
done < <(grep -E '^\| `RDO_[A-Z0-9_]+` \|' "$readme")

echo "check_knobs: $(wc -w <<<"$consts") constants, $(wc -w <<<"$rows") rows, $modules modules"
exit "$bad"
