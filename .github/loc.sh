#!/usr/bin/env bash
# Non-test Rust line count, the size measure CHANGES.md records for every
# change: non-blank lines of each `.rs` file under crates/ and src/,
# skipping `tests/` directories and each file from its first
# `#[cfg(test)]` on.
#
#   bash .github/loc.sh                     # workspace total
#   bash .github/loc.sh --files             # one "<lines> <path>" row per file, then the total
#   bash .github/loc.sh [--files] PATH...   # the same over the given files or directories
set -euo pipefail
cd "$(dirname "$0")/.."

files=0
if [ "${1:-}" = "--files" ]; then
    files=1
    shift
fi
[ "$#" -gt 0 ] || set -- crates src

find "$@" -name '*.rs' -not -path '*/tests/*' -print0 | sort -z |
    xargs -0 awk '
        FNR == 1 { if (path != "") print n, path; path = FILENAME; n = 0; cut = 0 }
        /#\[cfg\(test\)\]/ { cut = 1 }
        !cut && NF { n++ }
        END { if (path != "") print n, path }' |
    awk -v files="$files" '
        { total += $1; if (files) print }
        END { print total + 0, "total" }'
