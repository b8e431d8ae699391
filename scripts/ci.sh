#!/usr/bin/env bash
# Full CI gate: formatting, lints, build, the complete test suite (which
# includes the fault-matrix soak), and the runnable examples.
#
#   scripts/ci.sh          # everything
#   scripts/ci.sh quick    # skip release build + examples (inner loop)
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-full}"

echo "── fmt ─────────────────────────────────────────────────────────"
cargo fmt --all --check

echo "── clippy (warnings are errors) ────────────────────────────────"
cargo clippy --workspace --all-targets -- -D warnings

echo "── release build + workspace tests (unit + integration + soak) ─"
# `cargo test -q --workspace` covers the root package's tests too (the
# tier-1 set), so each test runs once.
cargo build --release
cargo test -q --workspace

echo "── benchmark build: vidi_perf from its own manifest ───────────"
# BENCHMARK.json builds vidi_perf from its standalone manifest, which the
# workspace build never resolves (it compiles the same sources as a
# vidi-bench binary). Adding, renaming or deleting a workspace crate can
# break only the standalone build, so build it the way the benchmark does.
# `.bench_build/` and the regenerated lockfile beside the manifest are
# git-ignored.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline \
    --manifest-path crates/bench/src/bin/vidi_perf/Cargo.toml

echo "── streaming soak: bounded-memory record + kill-recovery gate ──"
# Streams a recording to disk until the framed trace spans several chunk
# windows (asserting peak buffered bytes stay under the streaming bound),
# then kills a recording mid-run, tears the final storage word, and
# asserts the torn file recovers to a bit-exact, replayable prefix.
cargo test -q --release --test streaming_soak

echo "── codec round-trip: raw -> xor-dict -> raw byte-identity ──────"
# Records a catalog app to a framed chunk stream, transcodes it to xor-dict
# and back to raw, and requires the reconstructed raw stream to be
# byte-identical to the original — codec negotiation and the transcoder
# preserve the stream exactly, not merely semantically.
tt=(cargo run --release -q -p vidi-bench --bin trace_tool --)
convert_dir="$(mktemp -d)"
trap 'rm -rf "$convert_dir"' EXIT
"${tt[@]}" sample "$convert_dir/orig.vidi" --app sha --seed 9
"${tt[@]}" convert "$convert_dir/orig.vidi" "$convert_dir/xor-dict.vidi" --codec xor-dict
"${tt[@]}" convert "$convert_dir/xor-dict.vidi" "$convert_dir/xor-dict-back.vidi" --codec raw
cmp "$convert_dir/orig.vidi" "$convert_dir/xor-dict-back.vidi" \
    || { echo "FAIL: xor-dict round-trip is not byte-identical"; exit 1; }

echo "── vidi debug: scripted time-travel session on both case studies ─"
# §3.6: record the naturally-diverging DMA poll (seed 42), then drive a
# scripted debugger session over the trace alone — seek, reverse-step, a
# watchpoint on the status-read response, and bisect. The watch must fire
# and bisect must pin the divergence at cycle 215 with its causal
# transaction.
"${tt[@]}" sample "$convert_dir/dma.vidi" --app dma --seed 42
cat > "$convert_dir/dma.dbg" <<'EOF'
seek 100
step 50
rstep 25
watch ocl.r.valid rise
bisect
EOF
"${tt[@]}" debug "$convert_dir/dma.vidi" --app dma --seed 42 \
    --script "$convert_dir/dma.dbg" | tee "$convert_dir/dma.out"
grep -q "reverse-stepped 25 -> @cycle 125" "$convert_dir/dma.out" \
    || { echo "FAIL: debugger reverse-step did not land on cycle 125"; exit 1; }
grep -q "watch hit: ocl.r.valid Rise @cycle 215" "$convert_dir/dma.out" \
    || { echo "FAIL: debugger watchpoint missed the cycle-215 status read"; exit 1; }
grep -q "verdict: diverged@215" "$convert_dir/dma.out" \
    || { echo "FAIL: debugger bisect did not reproduce the §3.6 divergence at cycle 215"; exit 1; }
grep -q "causal transaction: ocl.r end #1" "$convert_dir/dma.out" \
    || { echo "FAIL: debugger bisect did not name the causal status-read transaction"; exit 1; }

# §5.3: record the buggy-ATOP ping-pong server, reorder the first pcim.w
# completion ahead of its address phase (the mutated-trace experiment),
# and let the debugger bisect the resulting deadlock from the traces
# alone. It must name the reordered write-data beat as the causal
# transaction.
"${tt[@]}" sample "$convert_dir/atop.vidi" --case echo-atop --filter buggy \
    --pings 32 --seed 5
"${tt[@]}" mutate "$convert_dir/atop.vidi" pcim.w 0 pcim.aw 0 "$convert_dir/atop-mut.vidi"
printf 'bisect\n' > "$convert_dir/atop.dbg"
"${tt[@]}" debug "$convert_dir/atop-mut.vidi" --case echo-atop --filter buggy \
    --pings 32 --seed 5 --max-cycles 20000 --final-budget 5000 \
    --script "$convert_dir/atop.dbg" | tee "$convert_dir/atop.out"
grep -q "verdict: deadlock@" "$convert_dir/atop.out" \
    || { echo "FAIL: debugger bisect did not detect the §5.3 deadlock"; exit 1; }
grep -q "causal transaction: pcim.w end #0" "$convert_dir/atop.out" \
    || { echo "FAIL: debugger bisect did not name the reordered pcim.w transaction"; exit 1; }

echo "── vidi-lint: static design lint + trace-analysis gate ─────────"
cargo run --release -q -p vidi-lint -- ci --config scripts/vidi-lint.allow

echo "── fleet soak: multi-tenant isolation + admission gate ─────────"
# Eight tenants (four clean, four under distinct fault schedules including
# an injected panic) share one supervisor, credit arbiter, and memory
# budget: clean traces must stay bit-identical to solo runs, faults must
# stay contained with attributed causes, and admission must never
# over-commit.
cargo test -q --release -p vidi-fleet

echo "── bench gate: sim + snap + fleet suites against one baseline ──"
# Emits BENCH.json (schema vidi-bench/1) and fails on any absolute gate:
#   sim   — trace divergence between the two schedulers (full / compiled);
#           <2x eval reduction (full / compiled evals/cycle) on half the
#           catalog; <5x compiled wall-clock speedup over full on half the
#           catalog (all-zero tick_skips, or all-zero replay_tick_skips,
#           is a vacuous-gate failure); any
#           xor-dict round-trip mismatch; <3x xor-dict compression on half
#           the catalog (all-zero bytes written is a vacuous-gate failure);
#           a peak buffered size over the streaming bound (no flushed chunk
#           anywhere is a vacuous-gate failure);
#   snap  — any checkpoint round-trip inexactness; serial/parallel verify
#           report disagreement; <2x modeled verify speedup on half the
#           catalog at 4 threads; an all-zero reverse-step column (vacuous);
#   fleet — a clean tenant that does not complete or whose trace is not
#           bit-identical to its solo run; peak reservation or aggregate
#           peak buffering over the admission budget;
# and on any pinned field that drifts from scripts/bench_baseline.json:
#   sim   — compiled recording or replay evals/cycle up, or compression
#           ratio down, >10 %;
#   snap  — round-trip exactness, verdict, worst-case reverse-step
#           roll-forward (exact);
#   fleet — per-tenant outcome, cause and bit-identity, and both
#           within-budget checks (exact).
cargo run --release -q -p vidi-bench --bin bench_gate -- \
    --out BENCH.json --baseline scripts/bench_baseline.json

if [ "$mode" = "full" ]; then
    echo "── examples ────────────────────────────────────────────────"
    for ex in quickstart debugging_case_study testing_case_study \
              divergence_detection custom_boundary custom_accelerator; do
        echo "   running example: $ex"
        cargo run --release -q --example "$ex" >/dev/null
    done
fi

echo "── CI green ────────────────────────────────────────────────────"
