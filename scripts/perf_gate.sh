#!/bin/sh
# Perf gate: the engine hot loop must not regress. Reruns perf_smoke
# (quick scale, scratch output via KB_BENCH_OUT) and fails if either
# gated grid scenario drops more than 35% below the committed baseline
# in results/BENCH_engine.json, or below its absolute floor. A gated
# scenario with no row in that file fails the gate too.
#
# perf_smoke drives the one engine every session runs, on an empty
# BuiltFaults and BuiltTopology::Static, with an Observer whose
# DETAIL = false, so holding this floor is the cost proof for five
# opt-in subsystems at once:
#   - faults: the engine reads FaultModel::enabled() once per round;
#     an empty BuiltFaults reads false, so every fault hook is skipped
#     and deliveries take the word-parallel path. The floors therefore
#     also gate the cost of that runtime flag;
#   - verification: the round-detail assembly the ModelChecker needs is
#     behind `if O::DETAIL`, which only the VerifyStack observer sets;
#   - tracing: the collector is teed on only in the session driver's
#     trace-on match arms, and it sets no DETAIL of its own — an
#     untraced session monomorphizes to the exact pre-trace loop, with
#     bit-identical round counts;
#   - collision detection: CdModel::ENABLED is false for NoCd (the
#     default every pre-CD caller gets) and every noise branch in the
#     hot loop is behind `if C::ENABLED`, so the no-CD grid floors
#     below must hold unchanged — with bit-identical round counts,
#     which tests/engine_bit_identity.rs pins separately;
#   - dynamic topology: the reshape hook at the top of the step runs
#     every round, and BuiltTopology::Static (what an empty churn spec
#     builds) returns None without drawing anything, so the floors
#     gate that per-round call too — bit-identical round counts again
#     pinned by tests/engine_bit_identity.rs and, for the inert dynamic
#     models themselves, by tests/churn_static_equivalence.rs.
# A clean, unverified, untraced engine must therefore run the
# pre-subsystem delivery loop and keep its throughput (the 35% slack against
# the committed baseline is for machine variance, not for
# instrumentation cost).
#
# Streaming arrivals are likewise zero-cost here: the one streaming
# drive, ScheduleSource::run, is a control closure on
# Engine::run_session_with — no injection code reaches the one-shot
# path, so the loop this script gates monomorphizes without any
# injection hook.
#
# The kbcast-serve front-end sits strictly downstream of that drive:
# the service runs the library's ScheduleSource::run and adds no code
# to radio-net or kbcast, so the library one-shot path this gate
# measures is untouched by the service crate.
#
# The absolute floors additionally pin the word-parallel + activity-hint
# engine's order of magnitude, so a regression cannot slip through by
# also regenerating the baseline file: the reference machine measures
# ~800k rounds/s on grid64x64/single_source and ~90k on
# grid64x64/spread; the floors sit ~10x under that to absorb slower
# machines while still rejecting any return to per-node scalar polling.
set -eu
cd "$(dirname "$0")/.."

extract_rps() {
    grep -o "\"scenario\": \"$1\"[^}]*" "$2" \
        | grep -o '"rounds_per_sec": [0-9.]*' \
        | grep -o '[0-9.]*$'
}

out=target/BENCH_engine_gate.json
KB_SCALE=quick KB_BENCH_OUT="$out" cargo run --release -q -p kbcast-bench --bin perf_smoke

# gate <scenario> <absolute floor in rounds/s>
gate() {
    scenario="$1"
    abs_floor="$2"

    baseline=$(extract_rps "$scenario" results/BENCH_engine.json || true)
    [ -n "$baseline" ] || {
        echo "perf_gate: results/BENCH_engine.json has no $scenario row to gate against" >&2
        exit 1
    }

    fresh=$(extract_rps "$scenario" "$out")
    [ -n "$fresh" ] || {
        echo "perf_gate: perf_smoke produced no $scenario measurement" >&2
        exit 1
    }

    awk -v fresh="$fresh" -v base="$baseline" -v abs="$abs_floor" \
        -v name="$scenario" 'BEGIN {
        floor = 0.65 * base
        if (abs + 0 > floor) floor = abs + 0
        printf "perf_gate: %-26s %s rounds/s (baseline %s, floor %.1f)\n", \
            name, fresh, base, floor
        exit !(fresh + 0 >= floor)
    }' || {
        echo "perf_gate: $scenario throughput regressed below its floor" >&2
        exit 1
    }
}

gate "grid64x64/single_source" 50000
gate "grid64x64/spread" 10000
