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
    # Stream-identity golden: the branch-free instruction generator must
    # emit the committed streams under optimized codegen too, which is what
    # reorders its selects and conditional draws.
    cargo test --release -q -p ppf-workloads --test stream_digest
    # Figures-identity golden: every `figures --insts 20000 --json` document
    # must hash to the committed digest under optimized codegen too, the
    # contract a host-time-only change (table storage, kernel) is held to.
    cargo test --release -q -p ppf-bench --test figures_json
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

figures_shard() {
    # Sharded sweep fabric (DESIGN.md §13): run only the cells owned by
    # shard K of N and leave the fragment directory + manifest behind for
    # the figures-merge stage. The wall time is recorded beside the
    # fragments so the merge job can surface per-shard skew.
    k="$1"
    n="$2"
    : "${PPF_SHARD_INSTS:=100000}"
    cargo build --release -p ppf-bench
    outdir="fragments/shard-$k"
    rm -rf "$outdir"
    mkdir -p "$outdir"
    start=$(date +%s)
    ./target/release/figures --insts "$PPF_SHARD_INSTS" \
        --json "$outdir" --shard "$k/$n" all > /dev/null
    end=$(date +%s)
    echo "figures-shard $k/$n $((end - start))s" > "$outdir/TIMINGS.txt"
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        cat "$outdir/TIMINGS.txt" >> "$GITHUB_STEP_SUMMARY"
    fi
}

figures_merge() {
    # Reassemble the shard fragments into per-experiment documents. The
    # merge itself is the coverage gate: it exits 2 on gaps and 1 on
    # inconsistent manifests, so a lost or skewed shard fails this stage.
    # The throughput ratchet rides along here so a perf regression can't
    # hide behind a green sweep.
    cargo build --release -p ppf-bench
    start=$(date +%s)
    ./target/release/figures merge --out merged fragments/*/
    end=$(date +%s)
    ls merged
    timings_summary "$((end - start))s"
    ./target/release/bench throughput --quick --trials 5 --no-write \
        --baseline BENCH_baseline.json
}

timings_summary() {
    # Per-shard wall times (written by figures_shard next to each
    # fragment set) plus the merge time, as a markdown table appended to
    # the GitHub Actions job summary — or stdout when run locally.
    merge_time="$1"
    summary="${GITHUB_STEP_SUMMARY:-/dev/stdout}"
    {
        echo "### Sharded sweep timings"
        echo ""
        echo "| stage | wall time |"
        echo "| --- | --- |"
        for f in fragments/*/TIMINGS.txt; do
            [ -f "$f" ] || continue
            read -r name spec secs < "$f"
            echo "| $name $spec | $secs |"
        done
        echo "| merge | $merge_time |"
    } >> "$summary"
}

case "$stage" in
build-test) build_test ;;
lint) lint ;;
fault-drills) fault_drills ;;
attack-drills) attack_drills ;;
kernel-identity) kernel_identity ;;
oracle) oracle ;;
bench-smoke) bench_smoke ;;
figures-shard) figures_shard "${2:?usage: ci.sh figures-shard K N}" "${3:?usage: ci.sh figures-shard K N}" ;;
figures-merge) figures_merge ;;
all)
    build_test
    lint
    fault_drills
    attack_drills
    kernel_identity
    oracle
    ;;
*)
    echo "unknown stage: $stage (build-test|lint|fault-drills|attack-drills|kernel-identity|oracle|bench-smoke|figures-shard K N|figures-merge|all)" >&2
    exit 2
    ;;
esac
