#!/bin/sh
# Full local gate: release build, tests, clippy with warnings denied.
#
# Dependency policy: this repo must build offline. The only external
# crates are the in-repo shims under crates/rand and crates/proptest
# (path dependencies in the workspace Cargo.toml).
# Do NOT add crates.io dependencies — CI and the reproduction
# environment have no registry access.
set -eu
cd "$(dirname "$0")/.."

cargo fmt --check

# Doc hygiene: no doc comment may describe its item as "legacy" or
# "kept for" compatibility (any case) — such an item should be deleted,
# not documented. Scans every `///` and `//!` line under crates/*/src.
if grep -rniE '^[[:space:]]*//[/!].*(legacy|kept for)' crates/*/src; then
    echo "check.sh: doc comments above describe items as legacy/kept for" >&2
    exit 1
fi

# --workspace so the bench path (perf_smoke and the exp_* binaries) is
# compile-checked on every run, even when every bench stage below is
# skipped via KB_SKIP_PERF=1 without KB_PERF=1.
cargo build --release --workspace
cargo test -q
# `cargo test` alone runs only the root package; the crates' own unit
# and integration tests (the engine and ModelChecker sabotage tests,
# kbcast::verify's tampered and decoder-sabotage tests, the service's
# session tests) run here, in release like everything below.
cargo test --release --workspace -q
cargo clippy --workspace --all-targets -- -D warnings

# Doc build: every intra-doc link must resolve and no public doc may
# link a private item, so a deleted module cannot leave a dangling
# link behind.
RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace -q

# Examples: every program under examples/ is built and run, not only
# compiled. Each asserts its own outcome (sensor_aggregation, the one
# unit-disk example, asserts full delivery); together they take well
# under a second.
cargo build --release -q --examples
for ex in examples/*.rs; do
    ./target/release/examples/"$(basename "$ex" .rs)" > /dev/null
done

# Benchmark suite: perfbench is a package of its own, outside the
# workspace, so the `cargo test` above never reaches it. Its tests pin
# the metric names and that a timed session is bit-identical to an
# untimed one (tests/timed_identity.rs), so a change to node forwarding
# or parking that breaks the benchmark fails here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Benchmark workloads: one short run of each (about 25 s in total).
# Each workload checks its sessions' outputs and exits non-zero when
# one fails, so a library change that breaks a workload fails here.
for workload in oneshot-coded bii-udg serve-stream oneshot-checked; do
    cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 7 --seconds 1 --trace 0 > /dev/null
done

# Lemma 3 smoke: the quick E6 configuration feeds random rows to the
# Stage 4 decoder and asserts that the Lemma 3 threshold reaches full
# rank with probability >= 0.99 for every group size (under a second).
KB_SCALE=quick cargo run --release -q -p kbcast-bench --bin exp_e6_rank > /dev/null

# Lemma 6 and Lemma 4 smokes, on the shipped Stage 4 and Stage 3 nodes:
# the quick E7 asserts that one FORWARD phase at the default budget
# decodes every next-ring node, the quick E8 that one OSPG(y) with
# y/k >= 1 delivers at least half the packets (both under a second).
KB_SCALE=quick cargo run --release -q -p kbcast-bench --bin exp_e7_forward > /dev/null
KB_SCALE=quick cargo run --release -q -p kbcast-bench --bin exp_e8_ospg > /dev/null

# Fault-injection smoke: the quick E17 configuration (grid 16x16, every
# fault family, 2 seeds) must run to completion and emit its JSON. This
# exercises the whole fault stack — spec parsing, per-seed model
# construction, the faulted engine hooks, stage attribution — in a few
# seconds. KB_VERIFY=1 runs every session under the online verifiers
# (checkers only observe, so the JSON is the unverified one); its
# `none` rows are clean sessions, so they also assert the clean-only
# invariants.
KB_SCALE=quick KB_VERIFY=1 KB_E17_OUT=target/E17_faults_smoke.json \
    cargo run --release -q -p kbcast-bench --bin exp_e17_faults
[ -s target/E17_faults_smoke.json ] || {
    echo "check.sh: fault smoke produced no target/E17_faults_smoke.json" >&2
    exit 1
}

# Verify smoke: the quick E9/E13 configurations re-run with the online
# verifiers on (KB_VERIFY=1 installs the ModelChecker + StageInvariants
# stack and makes E13 score its Clopper-Pearson bound on verified
# sessions). Any radio-axiom or stage-invariant violation turns into
# Error::VerificationFailed with the offending seed and fails the run.
KB_SCALE=quick KB_VERIFY=1 \
    cargo run --release -q -p kbcast-bench --bin exp_e9_collection
KB_SCALE=quick KB_VERIFY=1 \
    cargo run --release -q -p kbcast-bench --bin exp_e13_whp

# Trace smoke: the quick E18 configuration re-runs the three protocols
# with round tracing on and must emit all three artifact forms — the
# summary JSON (with its asserted stage-rounds-sum-to-total check), the
# per-round JSONL event stream and the Chrome-trace span file. The
# grep checks pin the schema markers the external consumers key on
# (JSONL "type" discriminants; Chrome "ph" duration events).
KB_SCALE=quick KB_TRACE=1 \
    KB_E18_OUT=target/E18_trace_smoke.json \
    KB_E18_JSONL=target/E18_trace_smoke.jsonl \
    KB_E18_CHROME=target/E18_trace_smoke_chrome.json \
    cargo run --release -q -p kbcast-bench --bin exp_e18_trace
for marker in '"type": "meta"' '"type": "round"' '"type": "span"'; do
    grep -q "$marker" target/E18_trace_smoke.jsonl || {
        echo "check.sh: trace smoke JSONL lacks $marker" >&2
        exit 1
    }
done
grep -q '"ph": "X"' target/E18_trace_smoke_chrome.json || {
    echo "check.sh: trace smoke Chrome file lacks duration spans" >&2
    exit 1
}
grep -q '"per_stage"' target/E18_trace_smoke.json || {
    echo "check.sh: trace smoke summary lacks a per-stage breakdown" >&2
    exit 1
}
# The same smoke with the verifiers on: the session then tees the trace
# collector onto the verify stack, and all three files must be
# byte-identical to the trace-only run's.
KB_SCALE=quick KB_TRACE=1 KB_VERIFY=1 \
    KB_E18_OUT=target/E18_trace_smoke_verified.json \
    KB_E18_JSONL=target/E18_trace_smoke_verified.jsonl \
    KB_E18_CHROME=target/E18_trace_smoke_verified_chrome.json \
    cargo run --release -q -p kbcast-bench --bin exp_e18_trace > /dev/null
for f in .json .jsonl _chrome.json; do
    cmp "target/E18_trace_smoke$f" "target/E18_trace_smoke_verified$f" || {
        echo "check.sh: verification changed the quick E18 trace file *$f" >&2
        exit 1
    }
done

# Streaming smoke: the quick E19 configuration runs a short λ-sweep of
# the streaming (continuous-arrival) sessions, sequential epochs on
# every topology. The binary itself aborts on packet loss below the
# measured knee (the delivery curve must be monotone in λ); the greps
# pin the JSON schema markers the plotting consumers key on — the sweep
# entries, the one-shot reference service rates and the per-topology
# knees. KB_VERIFY=1 runs every streaming session (and every one-shot
# reference) under the ModelChecker plus EpochConservation, as the
# E17/E22 smokes do for their dynamic rows; checkers only observe, so
# the JSON is the unverified one.
KB_SCALE=quick KB_VERIFY=1 KB_E19_OUT=target/E19_saturation_smoke.json \
    cargo run --release -q -p kbcast-bench --bin exp_e19_saturation
for marker in '"experiment": "E19_saturation"' '"entries"' '"references"' \
    '"knees"' '"knee_lambda"' '"queue_max"' '"p99"'; do
    grep -q "$marker" target/E19_saturation_smoke.json || {
        echo "check.sh: streaming smoke JSON lacks $marker" >&2
        exit 1
    }
done

# Service smoke: the kbcast-serve / kbcast-drive pair end to end. The
# driver generates a short heavy-ish session (with a mid-run set_faults
# flip and recovery), records its request script, runs it against a
# spawned kbcast-serve child per session AND the embedded in-process
# service, and exits non-zero unless the two outcomes match exactly and
# every packet was delivered with zero verify violations. The recorded
# script is then piped into a bare kbcast-serve process and the response
# stream is grepped for the line-protocol schema markers external
# consumers key on. The report holds session outcomes only (the
# wall-clock line goes to stderr), so a rerun must reproduce it byte for
# byte.
cargo build --release -q -p kbcast-serve
serve_smoke() {
    ./target/release/kbcast-drive \
        --sessions 2 --topology 'grid(3x4)' --protocol stream-seq \
        --seed 5 --lambda 0.01 --window 2000 \
        --flip 'uniform:rate=0.02@600+1500' --verify \
        --serve target/release/kbcast-serve --compare \
        --record target/serve_smoke_session.jsonl
}
serve_smoke > target/serve_smoke_report.txt
grep -q 'delivered=true' target/serve_smoke_report.txt || {
    echo "check.sh: serve smoke report lacks delivered=true" >&2
    exit 1
}
serve_smoke > target/serve_smoke_report_rerun.txt
cmp target/serve_smoke_report.txt target/serve_smoke_report_rerun.txt || {
    echo "check.sh: a rerun of the serve smoke drive changed its report" >&2
    exit 1
}
./target/release/kbcast-serve \
    < target/serve_smoke_session.jsonl \
    > target/serve_smoke_responses.jsonl
for marker in '"ok":true' '"op":"init"' '"op":"inject"' '"op":"set_faults"' \
    '"op":"run_until_drained"' '"completed":true' '"all_delivered":true' \
    '"violations":0' '"p99"' '"throughput"' '"op":"shutdown"'; do
    grep -q "$marker" target/serve_smoke_responses.jsonl || {
        echo "check.sh: serve smoke responses lack $marker" >&2
        exit 1
    }
done
if grep -q 'internal panic' target/serve_smoke_responses.jsonl; then
    echo "check.sh: serve smoke responses report an internal panic" >&2
    exit 1
fi
# A payload over the 65521-byte packet limit is refused at inject
# (accepted, it would panic the next run's Stage 4 encode).
{
    echo '{"op":"init","topology":"grid(3x3)","protocol":"stream-seq","seed":1}'
    printf '{"op":"inject","node":0,"round":0,"payload":[7'
    yes ',7' | head -n 69999 | tr -d '\n'
    echo ']}'
    echo '{"op":"run_until_drained"}'
} | ./target/release/kbcast-serve > target/serve_oversize_responses.jsonl
grep -q 'exceeds the limit of 65521 bytes' target/serve_oversize_responses.jsonl || {
    echo "check.sh: oversize inject was not refused with the payload limit" >&2
    exit 1
}
if grep -q 'internal panic' target/serve_oversize_responses.jsonl; then
    echo "check.sh: oversize inject script reports an internal panic" >&2
    exit 1
fi
# A session is fixed by init plus the request sequence: a script whose
# init names no verify/trace switch must answer byte-identically with
# and without the experiment binaries' KB_VERIFY/KB_TRACE switches set.
./target/release/kbcast-serve < crates/serve/tests/switchless.req.jsonl \
    > target/serve_switchless_bare.jsonl
KB_VERIFY=1 KB_TRACE=1 ./target/release/kbcast-serve \
    < crates/serve/tests/switchless.req.jsonl > target/serve_switchless_env.jsonl
cmp target/serve_switchless_bare.jsonl target/serve_switchless_env.jsonl || {
    echo "check.sh: KB_VERIFY/KB_TRACE changed a switch-less service session" >&2
    exit 1
}

# CD smoke: the quick E21 configuration (grid 8x8, every fault family,
# ghk vs coded vs bii) with the online verifiers on. KB_VERIFY=1 makes
# every ghk session run on the WithCd engine under the CD-aware
# ModelChecker (noise iff >= 2 masked transmitters or jamming) plus the
# GhkInvariants stage checks, so a CD-axiom or GHK-protocol regression
# fails the run with the offending seed; the no-CD protocols in the
# same sweep pin that cd=false still rejects any reported noise.
KB_SCALE=quick KB_VERIFY=1 KB_E21_OUT=target/E21_cd_smoke.json \
    cargo run --release -q -p kbcast-bench --bin exp_e21_cd
for marker in '"experiment": "E21_cd"' '"protocol": "ghk"' '"clean_elections"'; do
    grep -q "$marker" target/E21_cd_smoke.json || {
        echo "check.sh: cd smoke JSON lacks $marker" >&2
        exit 1
    }
done

# Churn smoke: the quick E22 configuration (grid 8x8, the full churn
# grid — edge-rho ladder, waypoint mobility, periodic partition — over
# all four protocol families) with the online verifiers on. KB_VERIFY=1
# makes every churned session re-derive against the churn-aware
# ModelChecker's independent topology replica, so a reshape drifting out
# of lockstep with the engine fails the run with the offending seed. The
# greps pin the JSON schema plus the degradation law (delivered mass
# non-increasing along the edge-rho ladder).
KB_SCALE=quick KB_VERIFY=1 KB_E22_OUT=target/E22_churn_smoke.json \
    cargo run --release -q -p kbcast-bench --bin exp_e22_churn
for marker in '"experiment": "E22_churn"' '"monotone_degradation": true' \
    '"churn": "edge:rho=0.08,heal=0.25"' \
    '"churn": "waypoint:radius=0.45,speed=0.01"' \
    '"churn": "partition:at=100,heal=400,period=800"' \
    '"protocol": "dynamic"' '"protocol": "ghk"'; do
    grep -q "$marker" target/E22_churn_smoke.json || {
        echo "check.sh: churn smoke JSON lacks $marker" >&2
        exit 1
    }
done

# Checkers only observe: the quick E17, E19, E21 and E22 runs above had
# the verifiers on; rerun with them off, each JSON must be
# byte-identical (about 17 s, mostly E22). E19 is the one smoke that
# runs only the streaming node under the verifiers.
KB_SCALE=quick KB_VERIFY=0 KB_E17_OUT=target/E17_faults_smoke_unverified.json \
    cargo run --release -q -p kbcast-bench --bin exp_e17_faults > /dev/null
KB_SCALE=quick KB_VERIFY=0 KB_E19_OUT=target/E19_saturation_smoke_unverified.json \
    cargo run --release -q -p kbcast-bench --bin exp_e19_saturation > /dev/null
KB_SCALE=quick KB_VERIFY=0 KB_E21_OUT=target/E21_cd_smoke_unverified.json \
    cargo run --release -q -p kbcast-bench --bin exp_e21_cd > /dev/null
KB_SCALE=quick KB_VERIFY=0 KB_E22_OUT=target/E22_churn_smoke_unverified.json \
    cargo run --release -q -p kbcast-bench --bin exp_e22_churn > /dev/null
for smoke in E17_faults E19_saturation E21_cd E22_churn; do
    cmp "target/${smoke}_smoke.json" "target/${smoke}_smoke_unverified.json" || {
        echo "check.sh: verification changed the quick ${smoke} JSON" >&2
        exit 1
    }
done

# Engine-throughput regression gate (KB_SKIP_PERF=1 skips the ~1 min
# benchmark, e.g. on loaded or throttled machines where wall-clock
# numbers are meaningless).
if [ "${KB_SKIP_PERF:-0}" != "1" ]; then
    sh scripts/perf_gate.sh
fi

# Full perf sweep (opt-in: KB_PERF=1). Runs perf_smoke at full scale —
# including the scale-out scenarios (grid256x256 and the million-node
# unit disk), which take minutes — writing to a scratch path so the
# committed results/BENCH_engine.json baseline is only updated
# deliberately. perf_smoke asserts all_done per scenario, so this also
# smoke-tests protocol completion at scale.
if [ "${KB_PERF:-0}" = "1" ]; then
    KB_SCALE=full KB_BENCH_OUT=target/BENCH_engine_full.json \
        cargo run --release -q -p kbcast-bench --bin perf_smoke
    [ -s target/BENCH_engine_full.json ] || {
        echo "check.sh: perf sweep produced no target/BENCH_engine_full.json" >&2
        exit 1
    }
fi

# Net Rust line count outside perfbench/, a tracked number (CHANGES.md
# reports it per change).
echo "check.sh: rust lines outside perfbench/: $(git ls-files '*.rs' |
    grep -v '^perfbench/' | xargs cat | wc -l)"

echo "check.sh: all gates passed"
