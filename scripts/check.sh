#!/usr/bin/env bash
# Single CI/PR gate for the mcpart workspace: build, test, lint, format.
# Referenced from .claude/skills/verify/SKILL.md — every PR runs this.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every scratch file lives under one private directory, removed on
# exit, so two concurrent runs (say, two checkouts side by side) never
# share a path.
SCRATCH=$(mktemp -d -t mcpart_check.XXXXXX)
trap 'rm -rf "$SCRATCH"' EXIT

echo "== cargo build --release"
cargo build --release

echo "== cargo test --workspace -q"
cargo test --workspace -q

# The benchmark crate compiles against the checkpoint and pipeline
# APIs: an API change that breaks it must fail here, not in a bench run.
echo "== cargo test --release --manifest-path perfbench/Cargo.toml"
cargo test --release --manifest-path perfbench/Cargo.toml

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy --workspace --all-targets -- -W clippy::perf"
cargo clippy --workspace --all-targets -- -W clippy::perf

echo "== cargo fmt --check"
cargo fmt --check

# A doc link to a removed or renamed item fails here, not in a reader's browser.
echo "== RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== figures rejects an unknown benchmark before printing anything"
cargo build --release -q -p mcpart-bench --bin figures
CODE=0
target/release/figures --benchmarks no-such > "$SCRATCH/fig_typo.txt" 2>/dev/null || CODE=$?
[ "$CODE" -eq 2 ] || { echo "figures --benchmarks no-such exited $CODE, want 2"; exit 1; }
if [ -s "$SCRATCH/fig_typo.txt" ]; then
  echo "figures wrote output for an unknown benchmark name"; exit 1
fi

echo "== results/ drift gate (figures regenerates every committed result)"
# A change that moves a placement must re-commit results/ on purpose:
# diff -r also catches a missing or an extra file.
FIG_OUT="$SCRATCH/figures"
rm -rf "$FIG_OUT"
target/release/figures --out "$FIG_OUT"
diff -r results "$FIG_OUT" \
  || { echo "results/ differs from a fresh 'figures --out'; regenerate and re-commit"; exit 1; }

echo "== trace export smoke (--trace-out + trace-check + stats)"
target/release/mcpart run rawcaudio --trace-out "$SCRATCH/trace.json" --metrics \
  > "$SCRATCH/trace_run.txt"
target/release/mcpart trace-check "$SCRATCH/trace.json" \
  --require gdp/cut,rhop/estimator_calls,sim/cycles,sim/stall_cycles,sim/transfer_cycles,supervise/retries,supervise/quarantined
# A clean run: supervision counters end at zero and never fired.
target/release/mcpart trace-check "$SCRATCH/trace.json" \
  --require supervise/retries=0,supervise/quarantined=0 \
  --forbid supervise/retries,supervise/quarantined
STATS_OUT=$(target/release/mcpart stats "$SCRATCH/trace.json")
for col in p50 p90 p99 "gdp/cut" "rhop/estimator_calls"; do
  # grep -q would exit early and SIGPIPE the echo under pipefail.
  [[ "$STATS_OUT" == *"$col"* ]] \
    || { echo "stats output missing $col:"; echo "$STATS_OUT"; exit 1; }
done
# One aggregation: the table --metrics printed from the live events is
# byte-identical to the one stats prints from the trace file.
sed -n '/^== observability summary ==$/,$p' "$SCRATCH/trace_run.txt" | tail -n +2 \
  > "$SCRATCH/trace_live_table.txt"
target/release/mcpart stats "$SCRATCH/trace.json" > "$SCRATCH/trace_disk_table.txt"
test -s "$SCRATCH/trace_live_table.txt" \
  || { echo "--metrics printed no table"; cat "$SCRATCH/trace_run.txt"; exit 1; }
cmp "$SCRATCH/trace_live_table.txt" "$SCRATCH/trace_disk_table.txt" \
  || { echo "--metrics table differs from stats on the trace file"; exit 1; }

echo "== kill-and-resume smoke (deterministic mid-append halt, --resume, checkpoint-diff)"
# --fault halt:1 commits one unit record, then dies mid-append of the
# second (half a line, no terminator, then abort) — the exact artifact
# kill -9 leaves, with none of the scheduling race a real SIGKILL has.
rm -f "$SCRATCH/ck_clean.json" "$SCRATCH/ck_killed.json"
target/release/mcpart compare rawcaudio --checkpoint "$SCRATCH/ck_clean.json" >/dev/null
if target/release/mcpart compare rawcaudio --checkpoint "$SCRATCH/ck_killed.json" --fault halt:1 >/dev/null 2>&1; then
  echo "halted run unexpectedly survived"; exit 1
fi
RESUME_NOTES=$(target/release/mcpart compare rawcaudio --checkpoint "$SCRATCH/ck_killed.json" --resume 2>&1 >/dev/null)
echo "$RESUME_NOTES" | grep -q "partial trailing record" \
  || { echo "resume did not report the crash artifact: $RESUME_NOTES"; exit 1; }
target/release/mcpart checkpoint-diff "$SCRATCH/ck_clean.json" "$SCRATCH/ck_killed.json"

echo "== out-of-range cluster index (resume refuses it, checkpoint-diff flags it)"
# The clean run used 2 clusters: name cluster 2 in the first record.
CK_BAD="$SCRATCH/ck_bad_cluster.json"
sed '2s/"op_cluster":\[\[[0-9]*/"op_cluster":[[2/' "$SCRATCH/ck_clean.json" > "$CK_BAD"
cmp -s "$SCRATCH/ck_clean.json" "$CK_BAD" \
  && { echo "the clean checkpoint has no op_cluster value to corrupt"; exit 1; }
CODE=0
target/release/mcpart compare rawcaudio --checkpoint "$CK_BAD" --resume >/dev/null 2>&1 || CODE=$?
[ "$CODE" -eq 2 ] || { echo "resume of an out-of-range cluster exited $CODE, want 2"; exit 1; }
if target/release/mcpart checkpoint-diff "$SCRATCH/ck_clean.json" "$CK_BAD" >/dev/null 2>&1; then
  echo "checkpoint-diff accepted an out-of-range cluster"; exit 1
fi

echo "== serve smoke (spool three jobs, die mid-batch, restart, verify cache hits)"
SERVE_CLEAN="$SCRATCH/serve_clean"
SERVE_KILLED="$SCRATCH/serve_killed"
rm -rf "$SERVE_CLEAN" "$SERVE_KILLED"
mkdir -p "$SERVE_CLEAN" "$SERVE_KILLED"
for b in fir latnrm rawcaudio; do
  echo "{\"mcpart_job\":1,\"program\":\"$b\"}" > "$SERVE_CLEAN/$b.job"
  echo "{\"mcpart_job\":1,\"program\":\"$b\"}" > "$SERVE_KILLED/$b.job"
done
target/release/mcpart serve "$SERVE_CLEAN" --drain >/dev/null
# Die mid-batch: one job committed, the next output half-written, the
# rest still claimed in work/ — what kill -9 leaves, deterministically.
if target/release/mcpart serve "$SERVE_KILLED" --drain --fault halt:1 >/dev/null 2>&1; then
  echo "halted serve run unexpectedly survived"; exit 1
fi
RESTART_LOG=$(target/release/mcpart serve "$SERVE_KILLED" --drain --metrics \
  --trace-out "$SCRATCH/serve_trace.json")
echo "$RESTART_LOG" | grep -q "cache hit" \
  || { echo "restart reported no cache hits: $RESTART_LOG"; exit 1; }
for b in fir latnrm rawcaudio; do
  cmp "$SERVE_CLEAN/out/$b.json" "$SERVE_KILLED/out/$b.json" \
    || { echo "$b: post-crash output differs from clean run"; exit 1; }
done
target/release/mcpart trace-check "$SCRATCH/serve_trace.json" \
  --require serve/admitted,serve/rejected,serve/cache_hits,serve/cache_evictions,serve/quarantined \
  --forbid serve/quarantined

echo "== serve telemetry smoke (flight recorder + stats over the dir)"
test -s "$SERVE_KILLED/telemetry/telemetry.jsonl" \
  || { echo "flight recorder wrote no snapshots"; exit 1; }
TELEMETRY_OUT=$(target/release/mcpart stats "$SERVE_KILLED")
for needle in "telemetry:" completed "serve/job" p99; do
  [[ "$TELEMETRY_OUT" == *"$needle"* ]] \
    || { echo "telemetry stats missing $needle:"; echo "$TELEMETRY_OUT"; exit 1; }
done

echo "== scale smoke (10^5-op synthetic gen + partition under a wall bound)"
target/release/mcpart gen synth_100k >/dev/null
SCALE_START=$(date +%s)
target/release/mcpart partition synth_100k --jobs 4 \
  --trace-out "$SCRATCH/scale_trace.json" >/dev/null
SCALE_SECS=$(( $(date +%s) - SCALE_START ))
# Generous bound: ~1s release on this host; 60s catches an accidental
# return to quadratic edge folding without flaking on slow CI.
if [ "$SCALE_SECS" -gt 60 ]; then
  echo "10^5-op partition took ${SCALE_SECS}s (>60s wall bound)"; exit 1
fi
target/release/mcpart trace-check "$SCRATCH/scale_trace.json" \
  --require metis/coarsen_levels,metis/matched_frac_x1000,metis/peak_graph_bytes,gdp/cut

echo "== incremental re-partition smoke (one-function edit vs from-scratch)"
INCR="$SCRATCH/incr"
rm -rf "$INCR"; mkdir -p "$INCR"
target/release/mcpart gen synth_100k --out "$INCR/prog.mcir" >/dev/null
target/release/mcpart run "$INCR/prog.mcir" --checkpoint "$INCR/base.ck" >/dev/null
# One-function edit: shrink one table-mask constant (stays in bounds,
# leaves the profile and GDP homes alone — the cone is one function).
sed '0,/= iconst 511$/s//= iconst 510/' "$INCR/prog.mcir" > "$INCR/edited.mcir"
cmp -s "$INCR/prog.mcir" "$INCR/edited.mcir" \
  && { echo "edit was a no-op (no mask constant found)"; exit 1; }
# Both sides trace so both checkpoint records carry pinned obs events
# (checkpoint-diff then checks replay fidelity, not just placements).
target/release/mcpart run "$INCR/edited.mcir" --checkpoint "$INCR/fresh.ck" \
  --trace-out "$INCR/fresh_trace.json" \
  | grep -v '^partition:' > "$INCR/fresh.txt"
target/release/mcpart repartition "$INCR/edited.mcir" --baseline "$INCR/base.ck" \
  --checkpoint "$INCR/inc.ck" --trace-out "$INCR/inc_trace.json" \
  | grep -v '^partition:\|^repartition:' > "$INCR/inc.txt"
target/release/mcpart trace-check "$INCR/inc_trace.json" \
  --require repartition/replayed_funcs,repartition/dirty_funcs,repartition/cone_frac_x1000
cmp "$INCR/fresh.txt" "$INCR/inc.txt" \
  || { echo "incremental stdout differs from from-scratch"; exit 1; }
target/release/mcpart checkpoint-diff "$INCR/fresh.ck" "$INCR/inc.ck"

echo "== chaos soak (500 seeded scenarios, independent oracle, 0 failures)"
target/release/mcpart chaos 500 --seed 20260807 \
  --trace-out "$SCRATCH/chaos_trace.json" > "$SCRATCH/chaos_a.txt"
grep -q " 0 failure(s)" "$SCRATCH/chaos_a.txt" \
  || { echo "chaos soak found oracle failures:"; cat "$SCRATCH/chaos_a.txt"; exit 1; }
# Bit-identical across repeat runs and jobs-invariance worker counts.
target/release/mcpart chaos 500 --seed 20260807 --jobs 2 > "$SCRATCH/chaos_b.txt"
cmp "$SCRATCH/chaos_a.txt" "$SCRATCH/chaos_b.txt" \
  || { echo "chaos soak is not deterministic across runs/worker counts"; exit 1; }
target/release/mcpart trace-check "$SCRATCH/chaos_trace.json" \
  --require chaos/scenarios=500,chaos/failures=0,chaos/shrink_steps=0,chaos/oracle_checks
# The oracle actually bites: an injected bad placement (the misplace
# term) must fail the soak, shrink, and replay from the corpus, which
# records the term; with the term stripped the repro must pass.
CHAOS_CORPUS="$SCRATCH/chaos_corpus"
rm -rf "$CHAOS_CORPUS"
if target/release/mcpart chaos 2 --seed 3 --fault misplace \
    --corpus "$CHAOS_CORPUS" >/dev/null 2>&1; then
  echo "chaos soak missed an injected bad placement"; exit 1
fi
CHAOS_REPRO=$(ls "$CHAOS_CORPUS"/*.repro | head -1)
if target/release/mcpart chaos --replay "$CHAOS_REPRO" >/dev/null; then
  echo "corpus repro did not reproduce the injected failure"; exit 1
fi
CHAOS_STRIPPED="$CHAOS_CORPUS/stripped.txt"
sed -e '/^faults = /s/+misplace//' -e 's/^faults = misplace$/faults = none/' \
  "$CHAOS_REPRO" > "$CHAOS_STRIPPED"
cmp -s "$CHAOS_REPRO" "$CHAOS_STRIPPED" \
  && { echo "corpus repro does not record the misplace term"; exit 1; }
target/release/mcpart chaos --replay "$CHAOS_STRIPPED" >/dev/null \
  || { echo "corpus repro fails even without the injected bug"; exit 1; }

echo "== hardened-profile tests (overflow-checks + debug-assertions pinned)"
cargo test --profile overflow -q -p mcpart-ir -p mcpart-machine -p mcpart-sched \
  -p mcpart-metis -p mcpart-obs -p mcpart-par >/dev/null
cargo test --profile overflow -q -p mcpart-core --lib rhop >/dev/null

echo "== all checks passed"
