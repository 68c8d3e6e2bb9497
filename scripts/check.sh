#!/usr/bin/env bash
# Tier-1 gate and fast sanity checks.
#
# Usage:
#   scripts/check.sh          release build + the root test suite (tier-1)
#   scripts/check.sh fmt      formatting gate: `cargo fmt --all --check`
#                             (rustfmt defaults, no rustfmt.toml)
#   scripts/check.sh smoke    build + run the end-to-end engine/link smoke bin
#   scripts/check.sh bench    the uwb-bench unit tests (the shared tracked
#                             driver: flag parsing, report schema, checker),
#                             then dspbench against the committed
#                             BENCH_dsp.json baseline; fails if any DSP
#                             kernel (`gate` row) regresses by more than
#                             BENCH_TOL percent (default 15) or an exact
#                             pin (fft_plans_built, acq_kernel_ops_gen2,
#                             acq_kernel_ops_gen1) changes (throughput and back-end block rows
#                             are informational — see EXPERIMENTS.md).
#                             BENCH_dsp/net/mac.json share
#                             one schema, uwb-bench-v2: each row carries a
#                             policy (gate / exact / info-*), and a row
#                             missing from either side fails
#   scripts/check.sh obs      observability gate: builds the workspace with
#                             AND without the obs feature, clippy with
#                             -D warnings over all targets (tests and
#                             examples included), the allocation-regression tests
#                             with telemetry enabled AND with span timelines
#                             on (`obs-trace`; the warm path must stay at
#                             zero heap allocations in both), trace/recorder
#                             thread-determinism in both feature configs,
#                             the 1k-user city trace acceptance run, and a
#                             trace-export smoke (`smoke --trace`)
#   scripts/check.sh stream   streaming gate: chunk-size-invariance /
#                             bounded-memory tests, the uwb-sim stream::
#                             unit tests (both tiled channel kernels, real-
#                             input and complex, bit-parity against the
#                             one-output-at-a-time oracle and each other,
#                             flushed tail included), the uwb-phy
#                             correlator:: / acquisition:: unit tests
#                             (acquisition is StreamRx's first stage; the
#                             chip-domain kernel against its f64 FFT
#                             oracle), the pinned acquisition decisions,
#                             the pinned gen1 sync and TOA-ranging
#                             decisions (the same bank over their codes),
#                             then the allocation gate (covers the streamed
#                             trial, AWGN and CM1, and warm acquisition)
#   scripts/check.sh net      network gate: builds uwb-net, runs its unit +
#                             acceptance tests (isolation bit-parity,
#                             co-channel contention, thread determinism,
#                             channel-major versus link-id sweep parity,
#                             the 1,000-user city's round and two-span
#                             plan at release scale, the golden plans
#                             including net_city_1k's),
#                             the allocation gate (covers the warm 2-link
#                             network round), the uwb-bench unit tests,
#                             then netbench against the committed
#                             BENCH_net.json baseline; fails if any `gate`
#                             row regresses by more than BENCH_TOL percent
#                             (default 15) or an exact pin
#                             (aggregate_mbps, edges_per_node_10k,
#                             arena_live_1k, arena_live_10k) changes
#   scripts/check.sh mac      MAC gate: uwb-mac unit + acceptance tests
#                             (conservation, light-load latency, saturation
#                             knee, hidden-terminal ARQ recovery, thread
#                             determinism), the allocation gate (covers the
#                             warm MAC discrete-event trial), the slow
#                             8-user thread-parity sweep, the golden
#                             mac_city_1k plan at release scale, the uwb-bench unit
#                             tests, then macbench against the committed
#                             BENCH_mac.json baseline; fails if any `gate`
#                             row regresses by more than BENCH_TOL percent
#                             (default 15) or an exact pin changes
#                             (delivered fraction and mean latency are
#                             bit-deterministic, so any drift there means
#                             MAC/PHY behavior changed), then the
#                             uwbbench unit + smoke tests (benchmark/;
#                             the smoke test checks mac_city_1k's
#                             one-thread fingerprint against two threads,
#                             i.e. one decode lane against two)
#   scripts/check.sh surface  public-surface gate: lists every `pub fn`,
#                             `pub const` and `pub static` in a library
#                             crate (crates/*/src, not crates/bench) whose
#                             name, as a whole word, appears in no other .rs
#                             file under crates/, src/, tests/, examples/ or
#                             benchmark/src/, and fails if there is one.
#                             Comment lines, `pub use …;` re-exports and
#                             `fn <name>` definitions in those other files
#                             do not count as uses. No allowlist: delete the
#                             item or drop its `pub`
#   scripts/check.sh pins     end-to-end determinism gate: one short
#                             uwbbench run of all five workloads at the
#                             default seed (--seconds 0.1); fails unless it
#                             exits 0, i.e. unless every fingerprint equals
#                             benchmark/pins.json and no check failed
#   scripts/check.sh examples builds every example under examples/ in
#                             release and runs each one with UWB_THREADS=2;
#                             fails on the first non-zero exit (~20 s of
#                             runs, piconet_city the slowest)
#   scripts/check.sh all      tier-1, then the whole workspace's tests, then
#                             fmt, then surface, then smoke, then obs, then
#                             stream, then net, then mac (which includes the
#                             uwbbench tests), then pins, then examples
set -eu
cd "$(dirname "$0")/.."

mode="${1:-tier1}"

tier1() {
    echo "== tier-1: cargo build --release =="
    cargo build --release
    echo "== tier-1: cargo test -q =="
    cargo test -q
}

surface() {
    echo "== surface: library pub fns, consts and statics no other file names =="
    local hits=0 file name stripped
    # A copy of every scanned .rs file without comment lines, `pub use …;`
    # re-exports or `fn <name>` definitions: a name counts as used only
    # where code calls, constructs or imports it.
    stripped=$(mktemp -d)
    while IFS= read -r file; do
        mkdir -p "$stripped/$(dirname "$file")"
        perl -0pe 's{^[ \t]*//.*$}{}mg; s{^[ \t]*pub use\b[^;]*;}{}msg; s{\bfn\s+\w+}{}g' \
            "$file" >"$stripped/$file"
    done < <(find crates src tests examples benchmark/src -name '*.rs')
    while IFS= read -r file; do
        for name in $(grep -oP '^\s*pub (const )?fn \K\w+|^\s*pub (const|static) (?!fn\b)\K\w+' "$file" |
            sort -u); do
            if ! (cd "$stripped" && grep -rlw -- "$name" crates src tests examples benchmark/src) |
                grep -qvxF -- "$file"; then
                echo "  $file: $name"
                hits=$((hits + 1))
            fi
        done
    done < <(find crates -path crates/bench -prune -o -path '*/src/*.rs' -print | sort)
    rm -rf "$stripped"
    echo "surface: $hits unreferenced pub item(s)"
    [ "$hits" -eq 0 ]
}

fmt() {
    echo "== fmt: cargo fmt --all --check =="
    cargo fmt --all --check
}

smoke() {
    echo "== smoke: engine + link sanity =="
    cargo build --release -p uwb-bench --bin smoke
    ./target/release/smoke
}

tracked_tests() {
    echo "== tracked: uwb-bench unit tests (flags, schema, checker) =="
    cargo test -q -p uwb-bench --lib
}

bench() {
    local tol="${BENCH_TOL:-15}"
    tracked_tests
    echo "== bench: dspbench vs committed BENCH_dsp.json (tol ${tol}%) =="
    cargo build --release -p uwb-bench --bin dspbench
    UWB_THREADS=1 ./target/release/dspbench --check BENCH_dsp.json --tol "$tol"
}

obs() {
    echo "== obs: workspace builds with telemetry compiled out =="
    cargo build -q --workspace --no-default-features
    echo "== obs: workspace builds with telemetry on =="
    cargo build -q --workspace
    echo "== obs: clippy -D warnings (both configurations) =="
    cargo clippy -q --workspace --all-targets -- -D warnings
    cargo clippy -q --workspace --all-targets --no-default-features -- -D warnings
    echo "== obs: zero-allocation warm path with telemetry enabled =="
    cargo test -q --test alloc_regression
    echo "== obs: zero-allocation warm path with span timelines on =="
    cargo test -q --test alloc_regression --features obs-trace
    echo "== obs: telemetry determinism + schema =="
    cargo test -q --test montecarlo_determinism
    cargo test -q --test telemetry_schema
    echo "== obs: trace + flight-recorder determinism (obs, then obs-trace) =="
    cargo test -q --test trace_determinism
    cargo test -q --test trace_determinism --features obs-trace
    cargo test -q -p uwb-obs --features obs-trace
    echo "== obs: 1,000-user city round trace, 1/2/4/8-thread bit-parity =="
    cargo test -q --release --test trace_determinism --features obs-trace -- --ignored
    echo "== obs: span-timeline export (smoke --trace) =="
    cargo build --release -p uwb-bench --features obs-trace --bin smoke
    ./target/release/smoke --trace target/trace.json
    test -s target/trace.json
}

stream() {
    echo "== stream: chunk-size invariance + bounded memory =="
    cargo test -q --release --test stream_parity
    echo "== stream: tiled channel kernel bit-parity (uwb-sim stream:: units) =="
    cargo test -q --release -p uwb-sim --lib stream::
    echo "== stream: chip-domain acquisition kernel vs the f64 FFT oracle, acquisition units =="
    cargo test -q --release -p uwb-phy --lib -- correlator:: acquisition::
    echo "== stream: pinned acquisition decisions =="
    cargo test -q --release --test acquisition_golden
    echo "== stream: pinned gen1 sync and TOA-ranging decisions =="
    cargo test -q --release --test correlator_golden
    echo "== stream: zero-allocation warm streamed trial and acquisition =="
    cargo test -q --release --test alloc_regression
}

net() {
    local tol="${BENCH_TOL:-15}"
    echo "== net: uwb-net unit + acceptance tests =="
    cargo build -q -p uwb-net
    cargo test -q -p uwb-net
    echo "== net: zero-allocation warm network round =="
    cargo test -q --release --test alloc_regression
    echo "== net: 1,000-user sparse round (1/2/4/8-thread, sweep-order, oracle), 1/2-thread plan parity and golden plan =="
    cargo test -q --release -p uwb-net --lib --test net_acceptance -- --ignored
    cargo test -q --release --test plan_golden -- --ignored net_city_1k
    tracked_tests
    echo "== net: netbench vs committed BENCH_net.json (tol ${tol}%) =="
    cargo build --release -p uwb-bench --bin netbench
    UWB_THREADS=1 ./target/release/netbench --check BENCH_net.json --tol "$tol"
}

mac() {
    local tol="${BENCH_TOL:-15}"
    echo "== mac: uwb-mac unit + acceptance tests =="
    cargo build -q -p uwb-mac
    cargo test -q -p uwb-mac
    echo "== mac: zero-allocation warm MAC trial =="
    cargo test -q --release --test alloc_regression
    echo "== mac: 8-user contended run, 1/2/4/8-thread fingerprint, golden 1,000-link plan =="
    cargo test -q --release -p uwb-mac --test mac_acceptance -- --ignored
    cargo test -q --release --test plan_golden -- --ignored mac_city_1k
    tracked_tests
    echo "== mac: macbench vs committed BENCH_mac.json (tol ${tol}%) =="
    cargo build --release -p uwb-bench --bin macbench
    UWB_THREADS=1 ./target/release/macbench --check BENCH_mac.json --tol "$tol"
    benchmark_tests
}

benchmark_tests() {
    echo "== benchmark: uwbbench unit + smoke tests =="
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
}

pins() {
    echo "== pins: uwbbench fingerprints of all five workloads vs benchmark/pins.json =="
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --seconds 0.1
}

examples() {
    echo "== examples: build and run every example (release, UWB_THREADS=2) =="
    cargo build -q --release --examples
    local f name
    for f in examples/*.rs; do
        name=$(basename "$f" .rs)
        echo "-- $name"
        UWB_THREADS=2 "./target/release/examples/$name" >/dev/null
    done
}

case "$mode" in
tier1)
    tier1
    ;;
fmt)
    fmt
    ;;
surface)
    surface
    ;;
smoke)
    smoke
    ;;
bench)
    bench
    ;;
obs)
    obs
    ;;
stream)
    stream
    ;;
net)
    net
    ;;
mac)
    mac
    ;;
pins)
    pins
    ;;
examples)
    examples
    ;;
all)
    tier1
    echo "== workspace: cargo test -q --workspace =="
    cargo test -q --workspace
    fmt
    surface
    smoke
    obs
    stream
    net
    mac
    pins
    examples
    ;;
*)
    echo "usage: scripts/check.sh [tier1|fmt|surface|smoke|bench|obs|stream|net|mac|pins|examples|all]" >&2
    exit 2
    ;;
esac
echo "check.sh: OK ($mode)"
