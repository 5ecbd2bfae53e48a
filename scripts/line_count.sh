#!/usr/bin/env bash
# Counts the non-test Rust lines under crates/: every line of every `.rs`
# file outside `tests/` and `benches/` directories, other than files named
# `tests.rs`, skipping each top-level `#[cfg(test)]` item (the attribute
# line through the end of the item it marks, found by brace depth).
#
# Usage: scripts/line_count.sh [REPO_ROOT]   (default: this script's repo)
set -euo pipefail

root=${1:-"$(dirname "$0")/.."}
find "$root/crates" -name '*.rs' \
    -not -path '*/tests/*' -not -path '*/benches/*' -not -name tests.rs -print0 |
    sort -z |
    xargs -0 awk '
        FNR == 1 { skip = 0 }
        !skip && /^#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        skip {
            # Inside a skipped item: track braces until the item closes (or
            # ends with `;` before opening any brace, e.g. `mod tests;`).
            n = split($0, ch, "")
            for (i = 1; i <= n; i++) {
                if (ch[i] == "{") { depth++; opened = 1 }
                else if (ch[i] == "}") depth--
            }
            if ((opened && depth == 0) || (!opened && $0 ~ /;[[:space:]]*$/)) skip = 0
            next
        }
        { count++ }
        END { print count + 0 }
    ' |
    awk '{ total += $1 } END { print total }'  # xargs may split the list
