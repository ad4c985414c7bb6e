#!/bin/sh
# The repository's tier-1 gate, runnable locally and from CI.
#
# With no argument every stage runs in order: the release build is the
# cheapest smoke signal, the quick test pass is what the roadmap defines
# as tier-1, and lints last so a formatting nit never masks a real
# failure. CI instead fans the stages out as matrix shards, one stage
# name per job, so a clippy warning and a test failure surface in the
# same run.
set -eux

stage="${1:-all}"

build_test() {
    cargo build --release
    # The benchmark harness is a workspace of its own that calls the
    # crates' public API; building it here turns an API break into a
    # tier-1 failure. Path dependencies only, so it builds offline.
    cargo build --release --offline --manifest-path perfbench/Cargo.toml \
        --target-dir target/perfbench
    # The whole workspace: the crates' own tests (scheduler, shard
    # proptests, figures) are not reached from the root package.
    cargo test -q --workspace
}

lint() {
    cargo fmt --all -- --check
    cargo clippy --workspace --all-targets -- -D warnings
    # Broken or private intra-doc links fail too, so doc comments that
    # name a renamed or deleted item cannot go stale.
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
}

fault_drills() {
    # Fault-injection drills again in release mode: panic unwinding, the
    # watchdog and checkpoint resume must also hold under optimized codegen.
    cargo test --release -q --test fault_tolerance
    cargo test --release -q -p ppf-bench --test checkpoint
    # Telemetry smoke: one instrumented cell through the release binary
    # must leave at least one valid JSONL interval record behind.
    cargo build --release -p ppf-bench
    tdir="$(mktemp -d)"
    ./target/release/figures --insts 20000 --telemetry "$tdir" fig2 > /dev/null
    head -n 1 "$tdir"/fig2/*.jsonl | grep -q '"fraction_good"'
    rm -rf "$tdir"
}

kernel_identity() {
    # Cycle-identity drill for the skip-ahead kernel (DESIGN.md §14): both
    # kernels against the committed golden, the divergence property test,
    # and the port-arbitration pins — in release mode, since the skip
    # logic's wake-up caching is exactly the code optimized builds reorder.
    cargo test --release -q --test kernel_identity
    cargo test --release -q --test port_contention
    # Telemetry is a pure observer: the proptest that no sampling interval
    # moves a statistic, under the optimized codegen of the per-cycle
    # sampling hook in `drive`.
    cargo test --release -q --test telemetry
    # Stream-identity golden: the branch-free instruction generator must
    # emit the committed streams under optimized codegen too, which is what
    # reorders its selects and conditional draws.
    cargo test --release -q -p ppf-workloads --test stream_digest
    # Figures-identity golden: every `figures --insts 20000 --json` document
    # must hash to the committed digest under optimized codegen too, the
    # contract a host-time-only change (table storage, kernel) is held to.
    cargo test --release -q -p ppf-bench --test figures_json
    # Filter-decision golden: the perceptron filter-family cell byte-pins
    # every filter decision over a full simulated run, so a filter
    # refactor must reproduce it under optimized codegen too.
    cargo test --release -q --test extensions
    # Arrival property: no access completes before its line's fill-ready
    # cycle, under optimized codegen too, which reorders the max-with-ready
    # on every hit path.
    cargo test --release -q -p ppf-mem --test proptests
}

oracle() {
    # Differential-oracle campaign (DESIGN.md §11): lockstep-check the
    # optimized structures against their naive reference models over
    # seeded random event streams, and replay the committed repro corpus.
    # Half the filter cases draw the perceptron kind (salted and
    # partitioned variants included), so the weight tables are conformance
    # -checked here at the same budget as the counter filters.
    # The randomized budget is bounded so the shard stays fast; CI trims
    # it further on pull requests. A divergence writes a minimized JSONL
    # repro (path in the failure message) before failing the shard.
    : "${PPF_ORACLE_CASES:=1000}"
    export PPF_ORACLE_CASES
    cargo test --release -q --test oracle
}

attack_drills() {
    # Adversarial robustness drills (DESIGN.md §12): the attack-vs-hardening
    # matrix at a trimmed budget through the release figures binary, then
    # one timeline run that must produce a time-to-recover analysis for a
    # poisoning campaign on the hybrid filter. Lockstep conformance of the
    # hardened configurations is the oracle shard's job; this one proves
    # the attack plumbing end-to-end.
    cargo build --release -p ppf-bench
    ./target/release/figures --insts 20000 attack-matrix > /dev/null
    ./target/release/bench timeline em3d --filter hybrid --insts 60000 \
        --attack poison --attack-start 10000 --attack-stop 30000 \
        | grep -q 'recovery:'
}

bench_smoke() {
    # Perf gate: quick throughput run compared against the committed
    # baseline; exits non-zero if any layer regresses past the threshold.
    # Five trials per layer (fastest kept) reject host scheduling noise,
    # which is what lets the threshold sit at 15% instead of the old 20.
    # Telemetry is off here (as everywhere by default), so this same gate
    # bounds the cost of the telemetry-off hot path.
    cargo build --release -p ppf-bench
    ./target/release/bench throughput --quick --trials 5 --no-write \
        --baseline BENCH_baseline.json
}

figures_sweep() {
    # Sharded sweep (DESIGN.md §13): three shards fill three cell stores,
    # their union is copied into one, and one served run prints every
    # table and writes every document. Shards own disjoint keys, so `cp`
    # refuses to copy one file twice if they ever overlap, and a cell the
    # served run has to execute (its E column) is one no shard stored.
    # The throughput ratchet (bench_smoke) rides along so a perf
    # regression can't hide behind a green sweep.
    : "${PPF_SHARD_INSTS:=100000}"
    cargo build --release -p ppf-bench
    rm -rf cells merged
    for k in 1 2 3; do
        ./target/release/figures --insts "$PPF_SHARD_INSTS" \
            --shard "$k/3" --checkpoint "cells/$k" all > /dev/null
    done
    mkdir -p cells/union
    cp cells/1/*.json cells/2/*.json cells/3/*.json cells/union/
    served=0
    ./target/release/figures --insts "$PPF_SHARD_INSTS" \
        --checkpoint cells/union --json merged all 2> cells/serve.log || served=$?
    cat cells/serve.log >&2
    executed=$(awk '/checkpoint:/ {e += $7} END {print e + 0}' cells/serve.log)
    if [ "$served" -ne 0 ] || [ "$executed" -ne 0 ]; then
        echo "serving the union exited $served and executed $executed cell runs" >&2
        exit 1
    fi
    bench_smoke
}

case "$stage" in
build-test) build_test ;;
lint) lint ;;
fault-drills) fault_drills ;;
attack-drills) attack_drills ;;
kernel-identity) kernel_identity ;;
oracle) oracle ;;
bench-smoke) bench_smoke ;;
figures-sweep) figures_sweep ;;
all)
    build_test
    lint
    fault_drills
    attack_drills
    kernel_identity
    oracle
    ;;
*)
    echo "unknown stage: $stage (build-test|lint|fault-drills|attack-drills|kernel-identity|oracle|bench-smoke|figures-sweep|all)" >&2
    exit 2
    ;;
esac
