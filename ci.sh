#!/usr/bin/env sh
# The full local gate: formatting, lints, release build, tests, chaos
# replays, bench smokes, docs, and the bench regression gate.
# Run from the repo root; fails fast on the first broken step.
#
# Usage:
#   ./ci.sh                 run every stage in order
#   ./ci.sh --stage <name>  run a single named stage (what the hosted
#                           CI jobs call, one stage per job)
#   ./ci.sh --list          print the stage names
#
# Overridables:
#   CHAOS_SEEDS      space-separated seed list for the chaos/failure
#                    replays (default "1 7 1234"; the hosted matrix
#                    legs set this to their single seed)
#   BENCH_TOLERANCE  relative drift band for the bench gate (default 0.25)
#   OBS_EXPORT_DIR   if set, the composition / wan-chaos drills write
#                    their OpenMetrics + JSON-lines exports there
set -eu

CHAOS_SEEDS="${CHAOS_SEEDS:-1 7 1234}"

# Each stage is timed; a summary prints at the end so slow stages are
# obvious without scrolling.
STAGE_SUMMARY=""
STAGE_NAME=""
STAGE_T0=0

stage() {
    stage_end
    STAGE_NAME="$1"
    STAGE_T0=$(date +%s)
    echo "==> $STAGE_NAME"
}

stage_end() {
    if [ -n "$STAGE_NAME" ]; then
        STAGE_SUMMARY="$STAGE_SUMMARY$(printf '%5ss  %s' "$(($(date +%s) - STAGE_T0))" "$STAGE_NAME")\n"
        STAGE_NAME=""
    fi
}

run_lint() {
    stage "cargo fmt --check"
    cargo fmt --check

    stage "cargo clippy -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings

    # Informational, never gating: non-test lines per crate and the
    # public items no other file names (scripts/lines.py --list names
    # them).
    stage "line and public-item count (scripts/lines.py)"
    python3 scripts/lines.py
}

run_build_test() {
    stage "cargo build --release"
    cargo build --release

    stage "cargo test -q"
    cargo test --workspace -q
}

# The failure and chaos suites replay their randomized fault schedules
# from CHAOS_SEED; a few fixed seeds keep the coverage deterministic.
run_chaos() {
    for seed in $CHAOS_SEEDS; do
        stage "chaos + failure suites (CHAOS_SEED=$seed)"
        CHAOS_SEED=$seed cargo test -q --test chaos --test failures
    done
}

# The cloud-bridge WAN trio (duplicate + reorder + partition) plus the
# fleet drill's cloud-outage scene. Locally this is a subset of the
# full chaos stage; the hosted wan-chaos job runs it per seed leg with
# OBS_EXPORT_DIR set so failing legs keep their traces.
run_wan_chaos() {
    for seed in $CHAOS_SEEDS; do
        stage "wan chaos: cloud bridge proptests (CHAOS_SEED=$seed)"
        CHAOS_SEED=$seed cargo test -q --test chaos cloud

        stage "wan chaos: cloud outage drill (CHAOS_SEED=$seed)"
        CHAOS_SEED=$seed cargo run -q --example fleet_drill \
            >"target/fleet_drill_wan_$seed.txt" 2>/dev/null
    done
}

# Composition lane: the composite-pipeline chaos proptests (no double
# execution of non-idempotent steps, compensators at most once, seed
# determinism), the engine-vs-client-driven equivalence proptest, and
# the pipeline drill end to end (compensation unwind under a gateway
# outage). The drill honors OBS_EXPORT_DIR for its metrics/trace dump.
run_composition() {
    cargo build -q --example pipeline_drill
    for seed in $CHAOS_SEEDS; do
        stage "composition: chaos proptests (CHAOS_SEED=$seed)"
        CHAOS_SEED=$seed cargo test -q --test chaos compose

        stage "composition: engine == client-driven (CHAOS_SEED=$seed)"
        CHAOS_SEED=$seed cargo test -q --test model_props composite

        stage "composition: pipeline drill (CHAOS_SEED=$seed)"
        CHAOS_SEED=$seed cargo run -q --example pipeline_drill \
            >"target/pipeline_drill_$seed.txt" 2>/dev/null
    done
}

# Parallel determinism: the fleet drill's stdout (availability counts,
# metrics snapshots, traces) must be byte-identical whether the
# conservative scheduler runs on 1 worker thread or 4, for every seed
# of the chaos matrix — plus the 1-vs-4 fingerprint proptests.
run_parallel_determinism() {
    stage "parallel determinism (SIM_THREADS=1 vs 4)"
    cargo build -q --example fleet_drill
    for seed in $CHAOS_SEEDS; do
        CHAOS_SEED=$seed SIM_THREADS=1 cargo run -q --example fleet_drill \
            >"target/fleet_drill_t1_$seed.txt" 2>/dev/null
        CHAOS_SEED=$seed SIM_THREADS=4 cargo run -q --example fleet_drill \
            >"target/fleet_drill_t4_$seed.txt" 2>/dev/null
        diff "target/fleet_drill_t1_$seed.txt" "target/fleet_drill_t4_$seed.txt" \
            || { echo "parallel determinism broken for seed $seed" >&2; exit 1; }
        echo "seed $seed: identical"
    done

    stage "determinism proptests (1 vs 4 threads)"
    cargo test -q --test model_props parallel

    # The benchmark's counted metrics must repeat: two smoke runs of
    # each workload at one seed, compared by scripts/counts_repeat.py.
    stage "hmbench counted metrics repeat (two smoke runs per workload)"
    cargo build -q --release -p hmbench
    for w in mix_soap mix_binary vsr_churn fleet_day; do
        for run in 1 2; do
            cargo run -q --release -p hmbench -- --workload "$w" --scale smoke \
                --seed 42 --seconds 1 >"target/hmbench_${w}_$run.txt"
        done
        python3 scripts/counts_repeat.py "$w" \
            "target/hmbench_${w}_1.txt" "target/hmbench_${w}_2.txt" \
            || { echo "counted metrics of $w do not repeat" >&2; exit 1; }
    done

    # ...and stay where bench-baselines/HMBENCH_smoke_counts.json has
    # them: each within its BENCHMARK.json bound, in either direction
    # (scripts/counts_gate.py --emit re-writes the baseline).
    stage "hmbench counted metrics vs baseline (scripts/counts_gate.py)"
    python3 scripts/counts_gate.py target/hmbench_mix_soap_1.txt \
        target/hmbench_mix_binary_1.txt target/hmbench_vsr_churn_1.txt \
        target/hmbench_fleet_day_1.txt
}

run_bench() {
    # Start from an empty results directory, so the gate below reads
    # only what this run wrote: a bench that stops writing its
    # BENCH_*.json fails the gate instead of passing on an old copy.
    rm -rf crates/bench/target/bench-results

    stage "cargo bench --no-run (benches compile)"
    cargo bench --workspace --no-run -q

    # The paper's experiments E1–E10 in one run: prints their 13 tables
    # and writes every value cell to BENCH_paper.json. E3, E4, E8 and E9
    # assert their claims inline (the Fig. 4 lamp switches, SOAP's fixed
    # cost dwarfs binary, find '%' returns every service, every remote
    # button takes effect), so a broken claim fails this step outright.
    stage "paper experiments E1-E10 (BENCH_paper.json)"
    cargo bench -p bench --bench paper

    # E11 smoke run: the hot-path ablations (indexed registry, route
    # cache, allocation-lean dispatch) emit BENCH_hotpath.json; every
    # value cell of the side tables E11a-E11d goes to
    # BENCH_ablations.json.
    stage "e11 ablations (BENCH_hotpath.json, BENCH_ablations.json)"
    cargo bench -p bench --bench e11_ablations

    # E13 smoke run: availability under the canonical chaos schedule
    # with the resilient wire on vs off. Emits BENCH_resilience.json.
    stage "e13 resilience smoke (availability rows)"
    cargo bench -p bench --bench e13_resilience

    # E14 smoke run: its report functions assert the multiplexed-wire
    # thresholds (batched events/sec >= 3x unbatched at fan-out 64, wire
    # bytes/event <= 0.5x, idle p50 within 10%), so a regression in the
    # batching path fails this step outright.
    stage "e14 throughput smoke (threshold assertions)"
    cargo bench -p bench --bench e14_throughput

    # E15 smoke run: asserts the federated VSR holds >= 99% invoke
    # availability through primary-crash windows with replication on (and
    # that a single replica doesn't), that anti-entropy converges, and
    # that a warm resolve allocates <= 2 times and a gateway-moving
    # publish <= 28.
    stage "e15 federated VSR smoke (threshold assertions)"
    cargo bench -p bench --bench e15_vsr_scale

    # E12 saturation: the default home's 400-call mixed replay through
    # the SOAP wire, latency percentiles per service. Emits
    # BENCH_saturation.json.
    stage "e12 saturation table (BENCH_saturation.json)"
    cargo bench -p bench --bench e12_saturation

    # E12 smoke run: tracing off/on/sampled ablation plus the sketch-vs-
    # exact quantile rows; asserts the sketch's p99 stays within one
    # bucket of exact. Emits BENCH_obs.json for the gate below.
    stage "e12 observability smoke (sketch/sampling assertions)"
    cargo bench -p bench --bench e12_obs_overhead

    # E16 smoke run: asserts metrics snapshots and scheduler statistics
    # are bit-for-bit identical at 1/2/4 worker threads, and (on hosts
    # with >= 4 cores) that 4 threads give >= 2.5x wall-clock throughput
    # on the independent-homes topology. Emits BENCH_parallel.json.
    stage "e16 parallel fleet smoke (determinism + scaling assertions)"
    cargo bench -p bench --bench e16_parallel

    # E17 smoke run: the cloud bridge under canonical WAN chaos — asserts
    # zero duplicate command effects, >= 99% delivered notifications after
    # heal (and measurably fewer with store-and-forward off), thread-count
    # determinism, and flash-crowd pushback. Emits BENCH_cloud.json.
    stage "e17 cloud bridge smoke (WAN robustness assertions)"
    cargo bench -p bench --bench e17_cloud

    # E18 smoke run: the three-codec wire ablation over the zero-copy
    # stack — asserts SOAP's warm-path allocs/op stay >= 6x below the
    # pre-zero-copy baseline, the binary codec moves fewer wire bytes/op
    # than SOAP, and every codec is thread-count deterministic. Emits
    # BENCH_codec.json.
    stage "e18 codec ablation smoke (zero-copy + determinism assertions)"
    cargo bench -p bench --bench e18_codec

    # E19 smoke run: the composition engine — asserts an 8-step
    # cross-island composite costs 1 client round trip where the
    # client-driven loop costs 8, the chaos cell never double-executes
    # a non-idempotent step (compensators exactly once), and the fleet
    # fingerprint is identical at 1 vs 4 worker threads. Emits
    # BENCH_compose.json.
    stage "e19 composition smoke (round-trip + saga assertions)"
    cargo bench -p bench --bench e19_compose

    # Compare the freshly emitted BENCH_*.json from the smoke runs
    # above against bench-baselines/ within a tolerance band. Fails on
    # drift, shape change, a fresh report with no baseline, or a
    # baseline with no fresh report.
    stage "bench regression gate (scripts/bench_gate.py)"
    python3 scripts/bench_gate.py
}

run_docs() {
    stage "cargo doc --no-deps (warnings denied)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q
}

# Stage registry: name -> function. The default full run executes
# ALL_STAGES in order (wan-chaos is omitted there: the full chaos
# stage already runs the whole chaos suite every seed).
ALL_STAGES="lint build-test chaos composition parallel-determinism bench docs"

run_stage() {
    case "$1" in
        lint) run_lint ;;
        build-test) run_build_test ;;
        chaos) run_chaos ;;
        wan-chaos) run_wan_chaos ;;
        composition) run_composition ;;
        parallel-determinism) run_parallel_determinism ;;
        bench) run_bench ;;
        docs) run_docs ;;
        *)
            echo "ci.sh: unknown stage '$1'" >&2
            echo "ci.sh: stages: $ALL_STAGES wan-chaos" >&2
            exit 2
            ;;
    esac
}

SELECTED=""
while [ $# -gt 0 ]; do
    case "$1" in
        --stage)
            [ $# -ge 2 ] || { echo "ci.sh: --stage needs a name" >&2; exit 2; }
            SELECTED="$SELECTED $2"
            shift 2
            ;;
        --list)
            for s in $ALL_STAGES wan-chaos; do echo "$s"; done
            exit 0
            ;;
        *)
            echo "ci.sh: unknown argument '$1' (try --stage <name> or --list)" >&2
            exit 2
            ;;
    esac
done

for s in ${SELECTED:-$ALL_STAGES}; do
    run_stage "$s"
done

stage_end
echo ""
echo "==> stage timings"
printf "%b" "$STAGE_SUMMARY"
echo "==> ci green"
