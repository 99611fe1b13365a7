#!/usr/bin/env bash
# Prints the non-test source lines of every workspace crate and their total.
#
# Each `.rs` file under crates/<name>/src counts up to (not including) its
# first `#[cfg(test)]` line; a file without one counts whole. The dependency
# shims under crates/shims/ are reported on their own and are not part of
# the crate total.
#
# Run from the repository root:
#
#   bash scripts/count_lines.sh
set -euo pipefail

# Non-test lines of every .rs file below the given directories.
count() {
    find "$@" -name '*.rs' -print0 | sort -z \
        | xargs -0 -r awk '
            FNR == 1 { counting = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
            counting { n++ }
            END { print n + 0 }' \
        | awk '{ n += $1 } END { print n + 0 }'
}

total=0
crates=0
for dir in crates/*/src; do
    name=${dir#crates/}
    name=${name%/src}
    lines=$(count "$dir")
    printf '%-12s %6d\n' "$name" "$lines"
    total=$((total + lines))
    crates=$((crates + 1))
done
printf '%-12s %6d  (%d crates)\n' total "$total" "$crates"

shim_dirs=(crates/shims/*/src)
printf '%-12s %6d  (%d shims, not in the total)\n' shims "$(count "${shim_dirs[@]}")" "${#shim_dirs[@]}"
