#!/bin/sh
# Code size of the workspace crates and of the vendored serde, counted one
# way: per crate, the non-blank lines of <crate>/src/**/*.rs before the
# `#[cfg(test)]` that gates a `mod ... {` (the whole file when it has
# none), and the `pub fn`s among those lines. An earlier `#[cfg(test)]` on
# a single item (a static, a counter) does not end the count. `total` sums
# crates/*; `vendor` sums serde, serde_derive and serde_json.
#
# For each crate, `outside` counts those `pub fn`s whose name appears as a
# word in a file outside the crate's library: another crate, the crate's
# own src/bin/ (each binary is a crate of its own), the facade's src/,
# tests/, crates/*/tests, examples/ or benchmark/. The script exits 1 when
# a crate has a `pub fn` that nothing outside it names: such a function is
# `pub(crate)` or dead.
#
#   scripts/code_size.sh
set -eu
cd "$(dirname "$0")/.."

# The counted lines of the crate in directory $1.
region() {
    find "$1/src" -name '*.rs' | sort | xargs awk '
        FNR == 1 { done = 0; held = "" }
        done || /^[ \t]*$/ { next }
        held != "" {
            if ($0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{/) { done = 1; next }
            print held
            held = ""
        }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { held = $0; next }
        { print }
    '
}

count() {
    region "$1" | awk '
        { lines++ }
        /(^|[^A-Za-z0-9_])pub fn / { pub_fns++ }
        END { print lines + 0, pub_fns + 0 }
    '
}

# How many `pub fn`s of the crate in $1 are named outside it.
outside() {
    {
        find crates -path 'crates/*/src/*' -name '*.rs' \( ! -path "$1/src/*" -o -path "$1/src/bin/*" \)
        find src tests crates/*/tests examples benchmark/src benchmark/tests -name '*.rs'
    } | xargs cat | tr -cs 'A-Za-z0-9_' '\n' >"$words"
    region "$1" | awk -v words="$words" '
        BEGIN { while ((getline word < words) > 0) named[word] = 1 }
        match($0, /(^|[^A-Za-z0-9_])pub fn [A-Za-z0-9_]+/) {
            name = substr($0, RSTART, RLENGTH)
            sub(/.*pub fn /, "", name)
            outside += name in named
        }
        END { print outside + 0 }
    '
}

# Prints one row per directory and a subtotal row named `$1`; with `$2`
# set to `outside`, a third column of names named outside each crate.
table() {
    label=$1
    column=$2
    shift 2
    sum_lines=0
    sum_pub_fns=0
    sum_outside=0
    for dir in "$@"; do
        dir=${dir%/}
        set -- $(count "$dir")
        if [ "$column" = outside ]; then
            named=$(outside "$dir")
            sum_outside=$((sum_outside + named))
            [ "$named" -eq "$2" ] || unnamed="$unnamed $(basename "$dir")"
            printf '%-12s %7d %7d %7d\n' "$(basename "$dir")" "$1" "$2" "$named"
        else
            printf '%-12s %7d %7d\n' "$(basename "$dir")" "$1" "$2"
        fi
        sum_lines=$((sum_lines + $1))
        sum_pub_fns=$((sum_pub_fns + $2))
    done
    if [ "$column" = outside ]; then
        printf '%-12s %7d %7d %7d\n' "$label" "$sum_lines" "$sum_pub_fns" "$sum_outside"
    else
        printf '%-12s %7d %7d\n' "$label" "$sum_lines" "$sum_pub_fns"
    fi
}

words=$(mktemp)
trap 'rm -f "$words"' EXIT
unnamed=

printf '%-12s %7s %7s %7s\n' crate lines 'pub fn' outside
table total outside crates/*/
table vendor - vendor/serde/ vendor/serde_derive/ vendor/serde_json/

if [ -n "$unnamed" ]; then
    echo "pub fn that nothing outside its crate names, in:$unnamed" >&2
    exit 1
fi
