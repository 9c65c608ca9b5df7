#!/bin/sh
# Code size of the workspace crates and of the vendored serde, counted one
# way: per crate, the non-blank lines of <crate>/src/**/*.rs before the
# `#[cfg(test)]` that gates a `mod ... {` (the whole file when it has
# none), and the `pub fn`s among those lines. An earlier `#[cfg(test)]` on
# a single item (a static, a counter) does not end the count. `total` sums
# crates/*; `vendor` sums serde, serde_derive and serde_json.
#
#   scripts/code_size.sh
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$1/src" -name '*.rs' | sort | xargs awk '
        FNR == 1 { done = 0; held = 0 }
        done || /^[ \t]*$/ { next }
        held {
            held = 0
            if ($0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{/) { done = 1; next }
            lines++
        }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { held = 1; next }
        { lines++ }
        /(^|[^A-Za-z0-9_])pub fn / { pub_fns++ }
        END { print lines + 0, pub_fns + 0 }
    '
}

# Prints one row per directory and a subtotal row named `$1`.
table() {
    label=$1
    shift
    sum_lines=0
    sum_pub_fns=0
    for dir in "$@"; do
        set -- $(count "$dir")
        printf '%-12s %7d %7d\n' "$(basename "$dir")" "$1" "$2"
        sum_lines=$((sum_lines + $1))
        sum_pub_fns=$((sum_pub_fns + $2))
    done
    printf '%-12s %7d %7d\n' "$label" "$sum_lines" "$sum_pub_fns"
}

printf '%-12s %7s %7s\n' crate lines 'pub fn'
table total crates/*/
table vendor vendor/serde/ vendor/serde_derive/ vendor/serde_json/
