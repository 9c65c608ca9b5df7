#!/bin/sh
# Code size of the workspace crates, counted one way: per crate, the
# non-blank lines of crates/<crate>/src/**/*.rs before the `#[cfg(test)]`
# that gates a `mod ... {` (the whole file when it has none), and the
# `pub fn`s among those lines. An earlier `#[cfg(test)]` on a single item
# (a static, a counter) does not end the count.
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

printf '%-8s %7s %7s\n' crate lines 'pub fn'
total_lines=0
total_pub_fns=0
for crate in crates/*/; do
    set -- $(count "$crate")
    printf '%-8s %7d %7d\n' "$(basename "$crate")" "$1" "$2"
    total_lines=$((total_lines + $1))
    total_pub_fns=$((total_pub_fns + $2))
done
printf '%-8s %7d %7d\n' total "$total_lines" "$total_pub_fns"
