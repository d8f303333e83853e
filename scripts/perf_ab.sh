#!/bin/sh
# A/B wall-clock comparison of two commits on one BENCHMARK.json workload.
#
#   sh scripts/perf_ab.sh BASE_REV WORKLOAD [PAIRS] [SECONDS]
#
# Exports BASE_REV and HEAD with `git archive` into one temporary
# directory (removed on exit), builds perfbench in each export, then runs
# PAIRS pairs (default 6) of the BENCHMARK.json command with
# `--workload WORKLOAD --seconds SECONDS --trace 0` (default SECONDS: the
# file's run_seconds). Both sides of pair i run seed 40 + i; the side
# that runs first alternates from pair to pair, so a drifting host does
# not favour either side.
#
# Prints each pair's end-to-end metrics, then per metric both medians
# and how many pairs HEAD won (strictly better in the metric's declared
# direction). Only committed files are measured; the working tree and
# perfbench/ are left as they are.
set -eu

[ $# -ge 2 ] || {
    echo "usage: $0 BASE_REV WORKLOAD [PAIRS] [SECONDS]" >&2
    exit 2
}
base_rev=$1
workload=$2
pairs=${3:-6}
root=$(git rev-parse --show-toplevel)
spec=$root/BENCHMARK.json

# The command array and the end-to-end metric names and directions.
command=$(awk '
    /"command": *\[/ { on = 1; next }
    on && /\]/ { exit }
    on { gsub(/^[ \t]*"|",?[ \t]*$/, ""); printf "%s ", $0 }
' "$spec")
seconds=${4:-$(awk -F: '/"run_seconds"/ { gsub(/[ ,]/, "", $2); print $2 }' "$spec")}
metrics=$(awk '
    /"end_to_end": *\[/ { on = 1; next }
    on && /^  \]/ { exit }
    on && /"name"/ { split($0, a, "\""); name = a[4] }
    on && /"better"/ { split($0, a, "\""); print name ":" a[4] }
' "$spec")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

for side in base head; do
    rev=$base_rev
    [ "$side" = head ] && rev=HEAD
    mkdir "$tmp/$side"
    git -C "$root" archive "$rev" | tar -x -C "$tmp/$side"
    echo "# building $side ($(git -C "$root" rev-parse --short "$rev"))" >&2
    (cd "$tmp/$side" && cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
done

# run SIDE SEED: the result line of one run, saved as $tmp/SIDE.SEED.
run() {
    # shellcheck disable=SC2086 # the command is a word list
    (cd "$tmp/$1" && $command --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0) \
        | tail -n 1 >"$tmp/$1.$2"
}

# value FILE METRIC: the metric's value in one result line.
value() {
    awk -v m="$2" '{
        i = index($0, "\"" m "\": {\"value\": ")
        if (i == 0) exit 1
        s = substr($0, i + length(m) + 14)
        sub(/,.*/, "", s)
        print s
    }' "$1"
}

echo "workload $workload, $pairs pairs, --seconds $seconds, base $base_rev vs HEAD"
i=1
while [ "$i" -le "$pairs" ]; do
    seed=$((40 + i))
    if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
    for side in $order; do run "$side" "$seed"; done
    echo "pair $i seed $seed first $(echo "$order" | cut -d' ' -f1)"
    for m in $metrics; do
        name=${m%%:*}
        echo "  $name base $(value "$tmp/base.$seed" "$name") head $(value "$tmp/head.$seed" "$name")"
    done
    i=$((i + 1))
done

echo "summary (median base, median head, pairs HEAD won)"
for m in $metrics; do
    name=${m%%:*}
    better=${m#*:}
    seed=41
    : >"$tmp/pairs"
    while [ "$seed" -le $((40 + pairs)) ]; do
        echo "$(value "$tmp/base.$seed" "$name") $(value "$tmp/head.$seed" "$name")" >>"$tmp/pairs"
        seed=$((seed + 1))
    done
    awk -v name="$name" -v better="$better" '
        function median(v, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
            return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
        }
        {
            n++; b[n] = $1; h[n] = $2
            if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) won++
        }
        END {
            mb = median(b, n); mh = median(h, n)
            d = mb == 0 ? 0 : 100 * (mh - mb) / mb
            printf "  %-18s %12.6g %12.6g %+7.2f%%  won %d/%d (%s is better)\n", name, mb, mh, d, won, n, better
        }
    ' "$tmp/pairs"
done
