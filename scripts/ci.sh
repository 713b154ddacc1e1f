#!/usr/bin/env sh
# Tier-1 gate: build, tests, formatting, lints. Run from anywhere.
#
# Offline-friendly by design: the workspace has no external dependencies,
# and --offline keeps cargo from ever touching the network, so the gate
# gives the same verdict on an air-gapped machine as in CI.
set -eu
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline
cargo fmt --all -- --check
cargo clippy --all-targets --offline -- -D warnings

# Docs gate: rustdoc must document the workspace without a warning, so an
# intra-doc link that dangles or points at a private item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# Architecture gate: the engine stays a scheme-agnostic event loop. The
# hub file must not regrow (the pre-split engine was 2,240 lines), and no
# scheme dispatch may creep back into the engine tree — every
# `match`-on-manager belongs in crates/soc/src/managers/.
engine_lines=$(wc -l < crates/soc/src/engine.rs)
if [ "$engine_lines" -ge 900 ]; then
    echo "ci: crates/soc/src/engine.rs is $engine_lines lines (gate: < 900)" >&2
    exit 1
fi
if grep -rn "match .*manager" crates/soc/src/engine.rs crates/soc/src/engine/; then
    echo "ci: scheme dispatch found in the engine; move it to crates/soc/src/managers/" >&2
    exit 1
fi

# Benchmark self-tests: perfbench is a Cargo workspace of its own (it
# links the crates by path, as a library user would), so the workspace
# `cargo test` above never reaches its argument, catalogue and
# committed-results checks.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# Oracle gate: the whole test suite again with the runtime invariant
# auditing compiled into release code paths (debug/test builds audit by
# default; this leg proves the --features oracle release configuration
# builds and stays silent too).
cargo test -q --release --offline -p blitzcoin-exp --features oracle

# Plain release gate: every workspace test in the configuration that
# perfbench and the regeneration gate below build (release, no oracle
# feature). The eight tests that need the oracle compiled in show as
# ignored here; the debug `cargo test` leg above runs all of them, and
# the `--features oracle` leg the one in tests/oracle_invariants.rs.
cargo test -q --release --offline --workspace

# Sweep-engine smoke gate: a quick full run must succeed offline at
# jobs=2, and its CSVs must be byte-identical to a jobs=1 run — the
# executor's determinism contract, end to end. manifest.json is
# excluded: it records wall-clock times, which legitimately differ.
# Both runs audit with --features oracle (the binary exits nonzero if
# any invariant fires, so this is also the zero-violations gate; the
# per-experiment deltas are job-count-independent, keeping the CSV
# comparison honest).
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
cargo run --release --offline -q -p blitzcoin-exp --features oracle -- \
    all --quick --jobs 1 --out "$smoke_dir/jobs1" > /dev/null
cargo run --release --offline -q -p blitzcoin-exp --features oracle -- \
    all --quick --jobs 2 --out "$smoke_dir/jobs2" > /dev/null
for f in "$smoke_dir"/jobs1/*.csv; do
    cmp "$f" "$smoke_dir/jobs2/$(basename "$f")" || {
        echo "ci: $(basename "$f") differs between --jobs 1 and --jobs 2" >&2
        exit 1
    }
done

# Interleave smoke gate: fuzz every cycle-level manager across 4
# shuffled same-timestamp event orderings (healthy + mid-run worker
# kill). A forbidden divergence — an oracle invariant firing under a
# shuffle, or an order-independent fact departing from the FIFO
# baseline — is reported as an OrderIndependence violation, which makes
# the binary exit nonzero. The full 16-ordering sweep runs via
# `blitzcoin-exp interleave` without --quick.
cargo run --release --offline -q -p blitzcoin-exp --features oracle -- \
    interleave --quick --orderings 4 --out "$smoke_dir/interleave" > /dev/null

# Thermal-coupling smoke gate: every cycle-level manager with the RC
# network integrated in-loop and a tight junction limit, audited — the
# throttle path (target cut, coin-spend clamp, reallocation announce)
# must not trip conservation, the budget ceiling, or VF legality.
cargo run --release --offline -q -p blitzcoin-exp --features oracle -- \
    thermal-coupling --quick --out "$smoke_dir/thermal" > /dev/null

# Shoot-out smoke gate: all six schemes through the identical-seed
# fault matrix (healthy, controller death, hierarchy break, sustained
# thermal), oracle-audited and at --jobs 2 so the scenario sweep also
# exercises the parallel executor. The differential claims — who
# survives which fault — are asserted inside the experiment itself.
cargo run --release --offline -q -p blitzcoin-exp --features oracle -- \
    shootout --quick --jobs 2 --out "$smoke_dir/shootout" > /dev/null

# Mega-mesh smoke gate: the 16x16 (256-tile) scaling point, oracle-gated
# and at --jobs 2 so the big-floorplan path also exercises the parallel
# executor. Quick mode skips 32x32; the full validation runs via
# `blitzcoin-exp mega-mesh` without --quick.
cargo run --release --offline -q -p blitzcoin-exp --features oracle -- \
    mega-mesh --quick --jobs 2 --out "$smoke_dir/megamesh" > /dev/null

# Mega-mesh tie-break gate: the same 256-tile point under the two
# non-FIFO orderings. Its same-cycle bursts of hundreds of events reach
# the event queue's head-insert (lifo) and mid-chain (permuted) paths,
# which neither the FIFO leg above nor the small-SoC interleave leg below
# does at this scale. The binary exits nonzero on any oracle violation,
# time going backwards included.
for tie in lifo permuted:0x2a; do
    cargo run --release --offline -q -p blitzcoin-exp --features oracle -- \
        mega-mesh --quick --jobs 2 --cache off --tie-break "$tie" \
        --out "$smoke_dir/megamesh-$tie" > /dev/null
done

# Cache gate: the content-addressed sweep cache, timed over only the
# experiments that use it (cache_hits + cache_misses > 0 in the jobs-1
# smoke manifest above), so uncached work such as the emulator figures
# cannot dilute the ratio. One workspace, four passes with the plain
# release binary (rebuilt here because the oracle legs above replaced
# it): cold populates <out>/.cache, two warm passes replay from it (min
# damps 1-CPU scheduler noise), and a --cache off pass recomputes
# everything. Every CSV must be byte-identical across all passes — the
# cache must be invisible to results — and the warm pass must run at
# least 3x faster than cold.
cached=$(awk '
    /^    "id": / { id = $2; gsub(/[",]/, "", id) }
    /^    "cache_hits": / { hits = $2 + 0 }
    /^    "cache_misses": / { if (hits + $2 > 0) printf "%s ", id }
' "$smoke_dir/jobs1/manifest.json")
if [ -z "$cached" ]; then
    echo "ci: no experiment in the smoke manifest used the cache" >&2
    exit 1
fi
cargo build --release --offline -q
cache_ws="$smoke_dir/cache-ws"
# $cached stays unquoted below: one argument per experiment id.
t0=$(date +%s%N)
target/release/blitzcoin-exp $cached --quick --jobs 1 --out "$cache_ws" > /dev/null
t1=$(date +%s%N)
cold_ms=$(( (t1 - t0) / 1000000 ))
mkdir -p "$smoke_dir/cold-csv"
cp "$cache_ws"/*.csv "$smoke_dir/cold-csv/"
warm_ms=
for _pass in 1 2; do
    t0=$(date +%s%N)
    target/release/blitzcoin-exp $cached --quick --jobs 1 --out "$cache_ws" > /dev/null
    t1=$(date +%s%N)
    ms=$(( (t1 - t0) / 1000000 ))
    if [ -z "$warm_ms" ] || [ "$ms" -lt "$warm_ms" ]; then warm_ms=$ms; fi
done
target/release/blitzcoin-exp $cached --quick --jobs 1 --cache off \
    --out "$smoke_dir/nocache" > /dev/null
for f in "$smoke_dir"/cold-csv/*.csv; do
    base=$(basename "$f")
    cmp "$f" "$cache_ws/$base" || {
        echo "ci: $base differs between cold and warm cache passes" >&2
        exit 1
    }
    cmp "$f" "$smoke_dir/nocache/$base" || {
        echo "ci: $base differs between cache on and --cache off" >&2
        exit 1
    }
done
if [ "$cold_ms" -lt $(( warm_ms * 3 )) ]; then
    echo "ci: warm cache pass not >=3x faster (cold ${cold_ms} ms, warm ${warm_ms} ms)" >&2
    exit 1
fi
echo "ci: cache gate ok over $(echo $cached | wc -w) experiments (cold ${cold_ms} ms, warm ${warm_ms} ms)"

# Regeneration gate: a full run at the committed seed with the plain
# release binary must reproduce results/ byte for byte. Every CSV the run
# writes must equal its committed twin, and every committed CSV must be
# one the run wrote, so a stale file left in results/ fails too.
regen="$smoke_dir/regen"
target/release/blitzcoin-exp all --seed 2024 --jobs 2 --out "$regen" > /dev/null
for f in "$regen"/*.csv; do
    cmp "$f" "results/$(basename "$f")" || {
        echo "ci: results/$(basename "$f") differs from a fresh full run" >&2
        exit 1
    }
done
for f in results/*.csv; do
    [ -e "$regen/$(basename "$f")" ] || {
        echo "ci: results/$(basename "$f") is not written by a full run" >&2
        exit 1
    }
done
echo "ci: regen gate ok ($(ls "$regen"/*.csv | wc -l) CSVs match results/)"

# Cache-count gate: the same run's per-experiment cache hits and misses
# must equal results/manifest.json's. From an empty store they count
# exactly which units each figure runs and which it shares with an
# earlier figure, so a unit added, dropped or re-keyed shows here even
# when every CSV stays the same. Timing fields (wall_ms, cache_saved_ms)
# differ from run to run and are not compared.
cache_counts() {
    awk '
        /^    "id": / { id = $2; gsub(/[",]/, "", id) }
        /^    "cache_hits": / { hits = $2 + 0 }
        /^    "cache_misses": / { printf "%s %d hits %d misses\n", id, hits, $2 + 0 }
    ' "$1"
}
cache_counts results/manifest.json > "$smoke_dir/counts-committed"
cache_counts "$regen/manifest.json" > "$smoke_dir/counts-regen"
if ! diff "$smoke_dir/counts-committed" "$smoke_dir/counts-regen" >&2; then
    echo "ci: per-experiment cache counts differ from results/manifest.json" >&2
    exit 1
fi
echo "ci: cache-count gate ok ($(wc -l < "$smoke_dir/counts-regen") experiments match results/manifest.json)"

# Plots gate: `plots` over the regenerated CSVs must reproduce
# results/plots/ byte for byte, and every committed SVG must be one it
# wrote, so a figure whose renderer or data moved cannot keep a stale SVG.
target/release/blitzcoin-exp plots --out "$regen" > /dev/null
for f in "$regen"/plots/*.svg; do
    cmp "$f" "results/plots/$(basename "$f")" || {
        echo "ci: results/plots/$(basename "$f") differs from a fresh plots run" >&2
        exit 1
    }
done
for f in results/plots/*.svg; do
    [ -e "$regen/plots/$(basename "$f")" ] || {
        echo "ci: results/plots/$(basename "$f") is not written by plots" >&2
        exit 1
    }
done
echo "ci: plots gate ok ($(ls "$regen"/plots/*.svg | wc -l) SVGs match results/plots/)"

echo "ci: all green"
