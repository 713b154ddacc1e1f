#!/usr/bin/env sh
# A/B benchmark of this checkout against another revision.
#
#   scripts/perf_ab.sh REV WORKLOAD [PERFBENCH ARGS...]
#
# Extracts `git archive REV` under .bench_build/, builds perfbench in
# both trees, then runs ten perfbench pairs (--workload WORKLOAD
# --seed 2024 --seconds <BENCHMARK.json run_seconds>), alternating which
# tree goes first. Each side runs from its own tree's root, because
# perfbench byte-compares every CSV with that tree's results/. Arguments
# after WORKLOAD pass to perfbench verbatim: `--trace 1` compares the
# per-layer probes, such as engine.6x6.<M>.ns_per_event for every policy.
#
# For every metric in the result lines it prints each side's median,
# first and third quartile, and how many pairs the change won (ties count
# for neither), taking the better direction from BENCHMARK.json. It exits
# 1 if any run reads `correct: false` or `failed > 0`, or if any
# end-to-end median is worse than its BENCHMARK.json bound allows.
set -eu
if [ $# -lt 2 ]; then
    echo "usage: scripts/perf_ab.sh REV WORKLOAD [PERFBENCH ARGS...]" >&2
    exit 2
fi
rev=$1
workload=$2
shift 2
cd "$(dirname "$0")/.."
root=$(pwd)
pairs=10

sha=$(git rev-parse --verify "$rev^{commit}")
base="$root/.bench_build/$sha"
if [ ! -d "$base" ]; then
    mkdir -p "$base.tmp"
    git archive "$sha" | tar -x -C "$base.tmp"
    mv "$base.tmp" "$base"
fi
seconds=$(awk -F: '/"run_seconds"/ { gsub(/[ ,]/, "", $2); print $2 }' BENCHMARK.json)
bin=perfbench/target/release/blitzcoin-perfbench
for tree in "$base" "$root"; do
    cargo build --release --quiet --offline --manifest-path "$tree/perfbench/Cargo.toml"
done

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
i=0
while [ "$i" -lt "$pairs" ]; do
    if [ $((i % 2)) -eq 0 ]; then order="base change"; else order="change base"; fi
    for side in $order; do
        if [ "$side" = base ]; then tree=$base; else tree=$root; fi
        line=$(cd "$tree" && "./$bin" --workload "$workload" --seed 2024 \
            --seconds "$seconds" "$@" | tail -n 1)
        echo "perf_ab: pair $i $side done" >&2
        printf '%s %s %s\n' "$side" "$i" "$line" >> "$runs"
    done
    i=$((i + 1))
done

echo "perf_ab: $workload, base $rev ($sha) vs change (working tree), $pairs pairs, seed 2024, ${seconds} s, extra args: ${*:-none}"
awk -v pairs="$pairs" '
    # BENCHMARK.json: one key per line; "better" and "bound" follow "name".
    FNR == NR {
        if ($0 ~ /"name":/) { name = $0; sub(/^[^:]*: *"/, "", name); sub(/".*/, "", name) }
        if ($0 ~ /"better":/) { v = $0; sub(/^[^:]*: *"/, "", v); sub(/".*/, "", v); better[name] = v }
        if ($0 ~ /"bound":/) { v = $0; sub(/^[^:]*: */, "", v); sub(/[ ,]*$/, "", v); bound[name] = v + 0 }
        next
    }
    {
        side = $1; pair = $2; json = $0; sub(/^[^ ]* [^ ]* /, "", json)
        if (json !~ /"correct": *true/) { bad = bad sprintf("  %s run of pair %d: not correct\n", side, pair) }
        if (match(json, /"failed": *[0-9.]+/)) {
            f = substr(json, RSTART, RLENGTH); sub(/.*: */, "", f)
            if (f + 0 > 0) { bad = bad sprintf("  %s run of pair %d: %d failed\n", side, pair, f) }
        } else { bad = bad sprintf("  %s run of pair %d: no result line\n", side, pair) }
        rest = json
        while (match(rest, /"[^"]+": *\{ *"value": *[-+0-9.eE]+ *, *"unit": *"[^"]*"/)) {
            m = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
            n = m; sub(/^"/, "", n); sub(/".*/, "", n)
            v = m; sub(/.*"value": */, "", v); sub(/ *,.*/, "", v)
            u = m; sub(/.*"unit": *"/, "", u); sub(/"$/, "", u)
            if (!(n in unit)) { names[++count] = n; unit[n] = u }
            val[n, side, pair] = v + 0; seen[n, side, pair] = 1
        }
    }
    function quart(n, side,    i, j, t, a, c, h) {
        c = 0
        for (i = 0; i < pairs; i++) if ((n, side, i) in seen) a[++c] = val[n, side, i]
        for (i = 2; i <= c; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
        if (c == 0) { q1 = q2 = q3 = 0; return 0 }
        # quartiles: medians of the lower and upper halves
        h = int(c / 2); if (h == 0) h = 1
        q1 = mid(a, 1, h); q2 = mid(a, 1, c); q3 = mid(a, c - h + 1, c)
        return c
    }
    function mid(a, lo, hi,    k) { k = hi - lo + 1; return (k % 2) ? a[lo + (k - 1) / 2] : (a[lo + k / 2 - 1] + a[lo + k / 2]) / 2 }
    END {
        printf "%-40s %-8s %-6s %30s %30s %7s %5s\n", "metric", "unit", "better", "base median [q1, q3]", "change median [q1, q3]", "ratio", "wins"
        for (k = 1; k <= count; k++) {
            n = names[k]; dir = (n in better) ? better[n] : "?"
            quart(n, "base"); bm = q2; b1 = q1; b3 = q3
            quart(n, "change"); cm = q2; c1 = q1; c3 = q3
            wins = 0; both = 0
            for (i = 0; i < pairs; i++) {
                if (!((n, "base", i) in seen) || !((n, "change", i) in seen)) continue
                both++; b = val[n, "base", i]; c = val[n, "change", i]
                if ((dir == "lower" && c < b) || (dir == "higher" && c > b)) wins++
            }
            ratio = (bm != 0) ? sprintf("%.3f", cm / bm) : "-"
            printf "%-40s %-8s %-6s %30s %30s %7s %2d/%-2d\n", n, unit[n], dir, \
                sprintf("%.4g [%.4g, %.4g]", bm, b1, b3), sprintf("%.4g [%.4g, %.4g]", cm, c1, c3), ratio, wins, both
            if (n in bound) {
                if (dir == "lower" && cm > bm * (1 + bound[n])) gate = gate sprintf("  %s: median %.4g vs %.4g, bound +%g\n", n, cm, bm, bound[n])
                if (dir == "higher" && cm < bm * (1 - bound[n])) gate = gate sprintf("  %s: median %.4g vs %.4g, bound -%g\n", n, cm, bm, bound[n])
            }
        }
        status = 0
        if (bad != "") { printf "perf_ab: runs that failed their checks:\n%s", bad; status = 1 }
        if (gate != "") { printf "perf_ab: end-to-end medians worse than their bound:\n%s", gate; status = 1 }
        if (status == 0) print "perf_ab: every run correct; no end-to-end median worse than its bound"
        exit status
    }
' BENCHMARK.json "$runs"
