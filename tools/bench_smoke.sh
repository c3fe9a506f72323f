#!/usr/bin/env bash
# bench_smoke.sh BUILD_DIR [DURATION_MS]
#
# CI smoke gate, five legs:
#
# 1. Churn: the delete/resize workload (the size-class magazine
#    allocator's target traffic).  Fails if any METRICS line reports
#    * resource_exhausted > 0  — churn at this scale must never exhaust
#      the arena budget (cached slices draining back is part of that), or
#    * validation_errors > 0   — the quiesced ChunkWalker audit found a
#      structural problem.
#    Also prints the observed magazine hit rate so perf regressions in the
#    recycling path are visible in the job log.
#
# 2. Zipfian maintenance A/B: the skewed put-heavy scenario run twice —
#    --maint-threads 0 (inline rebalance, the seed's behavior) vs
#    --maint-threads 2 (background pool).  Fails if the background run's
#    put p99 regresses past OAK_BENCH_MAINT_TOLERANCE (default 1.25x) of
#    the inline run's — moving rebalance off the hot path must not make
#    tail latency worse.  The observed pair is written to
#    BUILD_DIR/BENCH_maint.json (the repo's checked-in BENCH_maint.json is
#    a snapshot of this output).
#
# 3. Snapshot-churn A/B: long MVCC snapshot scans racing zipfian
#    writers, run twice — --no-snapshot-scans (plain scans, same mix) vs
#    snapshot scans pinning a read version per walk.  Fails if the snapshot
#    run's writer put p99 regresses past OAK_BENCH_SNAP_TOLERANCE (default
#    1.15x) of the baseline's — version chaining must stay off the writer's
#    tail — or if the snapshot leg retired no versions / ran no snapshot
#    scans (the workload didn't exercise MVCC at all).  Written to
#    BUILD_DIR/BENCH_snapshot.json; the checked-in BENCH_snapshot.json is a
#    snapshot of this output.
#
# 4. Durability / recovery: `--scenario recovery` ingests the range into
#    an in-memory map and a durable one (WAL + mmap arenas on a tmpfs dir),
#    checkpoints the durable one, times paired WAL-tail put reps on both
#    (alternating which runs first), closes, and reopens in-process.  Fails if
#    * the WAL-on put p99 exceeds OAK_BENCH_WAL_TOLERANCE (default 1.25x)
#      of the in-memory baseline's (median paired ratio),
#    * the cold restart (reopen) is slower than the original durable ingest
#      times OAK_BENCH_RECOVERY_TOLERANCE (default 1.0 — bulk-loading a
#      checkpoint must beat re-ingesting),
#    * recovery replayed nothing, replayed the whole dataset (the
#      checkpoint didn't truncate the WAL), or lost pairs, or
#    * validation_errors > 0.
#    Written to BUILD_DIR/BENCH_recovery.json; the checked-in
#    BENCH_recovery.json is a 1M-pair snapshot of this output.
#
# 5. Relocation / compaction A/B (DESIGN.md §13): `--scenario compaction`
#    runs wave-shaped churn twice over paired maps — relocation off vs
#    background arena evacuation armed — interleaving the latency-sampled
#    stage reps (alternating which runs first) so host noise cancels within
#    each pair.  Fails if
#    * the armed leg's put p99 exceeds OAK_BENCH_COMPACTION_TOLERANCE
#      (default 1.15x) of the baseline's (median paired ratio),
#    * evacuation moved no slices or retired no arenas (the trigger or the
#      relocator is dead),
#    * the armed leg did not end with fewer arena blocks than the baseline
#      (relocation exists to shrink the footprint), or
#    * validation_errors > 0.
#    Written to BUILD_DIR/BENCH_compaction.json; the checked-in
#    BENCH_compaction.json is a snapshot of this output.
#
# Legs 2-5 run their scenario $repeats times (OAK_BENCH_MAINT_AB_REPEATS,
# default 3) per side and keep the run with the median put p99 (legs 2-3)
# or median put_p99_ratio (legs 4-5).  Every leg also fails when
# synchrobench itself exits non-zero (an out-of-memory point, named with
# its resource on stderr, or a failed scenario check), even where the run
# sits inside a command substitution.
set -euo pipefail

build_dir=${1:?usage: bench_smoke.sh BUILD_DIR [DURATION_MS]}
duration_ms=${2:-5000}
repeats=${OAK_BENCH_MAINT_AB_REPEATS:-3}

bench="$build_dir/bench/synchrobench"
[[ -x "$bench" ]] || { echo "bench_smoke: $bench not built" >&2; exit 2; }

log=$(mktemp)
bench_failures=$(mktemp)
trap 'rm -f "$log" "$bench_failures"' EXIT
fail=0

# Runs synchrobench, recording a non-zero exit in $bench_failures: a file,
# because most runs happen in subshells that cannot fail the script.
run_bench() {
  local rc=0
  "$bench" "$@" || rc=$?
  if (( rc != 0 )); then
    echo "bench_smoke: FAIL synchrobench exited $rc: $*" >&2
    echo "$rc $*" >> "$bench_failures"
  fi
  return 0
}

check_bench_exit() {  # $1 = leg name
  if [[ -s "$bench_failures" ]]; then
    echo "bench_smoke: FAIL $1 leg: synchrobench exited non-zero" >&2
    exit 1
  fi
}

extract() {  # $1 = output line, $2 = sed pattern with one \(capture\)
  sed -n "s/.*$2.*/\1/p" <<<"$1"
}

# Runs CMD $repeats times and prints the output line whose FIELD (a sed
# pattern as for extract) is the median: a single run's tail latency, or
# even a paired ratio, can jump on host noise alone.
median_line() {  # $1 = FIELD, $2... = CMD printing one line
  local field=$1 lines=() keys=() line key mid i
  shift
  for ((i = 0; i < repeats; ++i)); do
    line=$("$@")
    key=$(extract "$line" "$field")
    [[ -n "$key" ]] || continue
    lines+=("$line"); keys+=("$key")
  done
  [[ ${#lines[@]} -gt 0 ]] || return 1
  mid=$(printf '%s\n' "${keys[@]}" | sort -g | awk -v n=${#keys[@]} \
        'NR == int((n + 1) / 2) { print; exit }')
  for i in "${!lines[@]}"; do
    if [[ "${keys[$i]}" == "$mid" ]]; then printf '%s\n' "${lines[$i]}"; return 0; fi
  done
}

fail_gate() {  # $* = reason; the leg fails once its checks are done
  echo "bench_smoke: FAIL $*" >&2
  fail=1
}

within() {  # succeeds when $1 <= $2 * $3
  awk -v x="$1" -v base="$2" -v tol="$3" 'BEGIN { exit !(x <= base * tol) }'
}

check_verrors() {  # $1 = leg, $2... = output lines
  local leg=$1 line v
  shift
  for line in "$@"; do
    v=$(extract "$line" '"validation_errors":\([0-9]*\)')
    [[ -z "$v" || "$v" == 0 ]] || fail_gate "$leg validation_errors=$v"
  done
}

end_leg() {  # $1 = what passed
  [[ "$fail" == 0 ]] || exit 1
  echo "bench_smoke: OK ($1)"
}

put_p99='"put":{[^}]*"p99_ns":\([0-9]*\)'
ratio='"put_p99_ratio":\([0-9.]*\)'

OAK_BENCH_VALIDATE=1 run_bench --churn -b OakMap -t "16" -i 50000 \
    -d "$duration_ms" | tee "$log"
check_bench_exit churn

metrics=$(grep -c '^METRICS ' "$log") || {
  echo "bench_smoke: no METRICS lines produced" >&2
  exit 1
}

while IFS= read -r line; do
  exhausted=$(extract "$line" '"resource_exhausted":\([0-9]*\)')
  hitrate=$(extract "$line" '"mag_hit_rate":\([0-9.]*\)')
  [[ -z "$exhausted" || "$exhausted" == 0 ]] ||
    fail_gate "resource_exhausted=$exhausted"
  check_verrors churn "$line"
  echo "bench_smoke: mag_hit_rate=${hitrate:-n/a}"
done < <(grep '^METRICS ' "$log")
end_leg "$metrics points, ${duration_ms}ms churn"

# Writer put-p99 A/B of two METRICS runs, each the median-of-$repeats run.
# Sets a_line/b_line, a_p99/b_p99 and a_kops/b_kops, and fails the leg on
# validation errors or a B put p99 above tolerance x A's.
put_p99_ab() {  # $1 = leg, $2 = tolerance, $3 = what B adds, $4/$5 = A/B labels,
                # $6 = run function, $7/$8 = its A/B argument
  a_line=$(median_line "$put_p99" "$6" "$7")
  b_line=$(median_line "$put_p99" "$6" "$8")
  check_bench_exit "$1"
  a_p99=$(extract "$a_line" "$put_p99")
  b_p99=$(extract "$b_line" "$put_p99")
  a_kops=$(extract "$a_line" '"kops":\([0-9.]*\)')
  b_kops=$(extract "$b_line" '"kops":\([0-9.]*\)')
  check_verrors "$1" "$a_line" "$b_line"
  if [[ -z "$a_p99" || -z "$b_p99" ]]; then
    echo "bench_smoke: FAIL could not extract put p99 from $1 METRICS" >&2
    exit 1
  fi
  within "$b_p99" "$a_p99" "$2" ||
    fail_gate "put p99 regression with $3:" \
              "$4=${a_p99}ns $5=${b_p99}ns (tolerance ${2}x)"
}

# ------------------------------------------------ zipfian maintenance A/B
tolerance=${OAK_BENCH_MAINT_TOLERANCE:-1.25}
zipf_threads=${OAK_BENCH_MAINT_AB_THREADS:-4}
zipf_size=${OAK_BENCH_MAINT_AB_SIZE:-50000}

run_zipf() {  # $1 = maint thread count; prints the METRICS line
  OAK_BENCH_VALIDATE=1 run_bench --scenario zipf -b OakMap \
      -t "$zipf_threads" -i "$zipf_size" -d "$duration_ms" --shards 2 \
      --maint-threads "$1" | grep '^METRICS ' | head -1
}

# Latency percentiles come from a power-of-two bucketed histogram, so a
# single run can jump a whole 2x bucket on scheduler noise: keep each
# leg's median-put-p99 run.  Gate: background put p99 must stay within
# tolerance of inline.
echo "bench_smoke: zipf A/B (inline vs background maintenance, $repeats runs/leg)..."
put_p99_ab zipf "$tolerance" "background maintenance" inline background \
    run_zipf 0 2
bg_executed=$(extract "$b_line" '"maint_executed":\([0-9]*\)')
[[ "${bg_executed:-0}" != 0 ]] ||
  fail_gate "background run executed no maintenance jobs"

ab_json="$build_dir/BENCH_maint.json"
cat > "$ab_json" <<JSON
{
  "bench": "synchrobench --scenario zipf -b OakMap -t $zipf_threads -i $zipf_size -d $duration_ms --shards 2",
  "gate": "median-of-$repeats background put p99 <= inline put p99 * $tolerance",
  "inline": {"maint_threads": 0, "put_p99_ns": $a_p99, "kops": ${a_kops:-0}},
  "background": {"maint_threads": 2, "put_p99_ns": $b_p99, "kops": ${b_kops:-0}, "maint_executed": ${bg_executed:-0}}
}
JSON
echo "bench_smoke: zipf put p99 inline=${a_p99}ns background=${b_p99}ns" \
     "(kops ${a_kops:-?} -> ${b_kops:-?}); wrote $ab_json"
end_leg "zipf A/B gate passed"

# ------------------------------------------------ snapshot-churn A/B
snap_tolerance=${OAK_BENCH_SNAP_TOLERANCE:-1.15}

run_snap() {  # $1 = extra flags ("" or --no-snapshot-scans); prints METRICS
  # shellcheck disable=SC2086  # $1 is deliberately word-split
  OAK_BENCH_VALIDATE=1 run_bench --scenario snapshot-churn -b OakMap \
      -t "$zipf_threads" -i "$zipf_size" -d "$duration_ms" --shards 2 \
      --maint-threads 2 $1 | grep '^METRICS ' | head -1
}

# Gate: writer put p99 with snapshot scans must stay within tolerance of
# the same mix without pinning.
echo "bench_smoke: snapshot A/B (plain vs pinned scans, $repeats runs/leg)..."
put_p99_ab snapshot-churn "$snap_tolerance" "snapshot scans" baseline snapshot \
    run_snap "--no-snapshot-scans" ""
snap_scans=$(extract "$b_line" '"snap_scans":\([0-9]*\)')
snap_scan_p99=$(extract "$b_line" '"snap_scan_p99_ns":\([0-9]*\)')
snap_retired=$(extract "$b_line" '"versions_retired":\([0-9]*\)')
# The snapshot leg must actually exercise MVCC: pinned scans ran, and the
# GC retired superseded versions once their pins released.
[[ "${snap_scans:-0}" != 0 ]] || fail_gate "snapshot run performed no snapshot scans"
[[ "${snap_retired:-0}" != 0 ]] || fail_gate "snapshot run retired no versions"

snap_json="$build_dir/BENCH_snapshot.json"
cat > "$snap_json" <<JSON
{
  "bench": "synchrobench --scenario snapshot-churn -b OakMap -t $zipf_threads -i $zipf_size -d $duration_ms --shards 2 --maint-threads 2",
  "gate": "median-of-$repeats snapshot put p99 <= baseline put p99 * $snap_tolerance",
  "baseline": {"snapshot_scans": false, "put_p99_ns": $a_p99, "kops": ${a_kops:-0}},
  "snapshot": {"snapshot_scans": true, "put_p99_ns": $b_p99, "kops": ${b_kops:-0}, "snap_scans": ${snap_scans:-0}, "snap_scan_p99_ns": ${snap_scan_p99:-0}, "versions_retired": ${snap_retired:-0}}
}
JSON
echo "bench_smoke: snapshot put p99 baseline=${a_p99}ns pinned=${b_p99}ns" \
     "(kops ${a_kops:-?} -> ${b_kops:-?}, scans ${snap_scans:-0});" \
     "wrote $snap_json"
end_leg "snapshot A/B gate passed"

# ------------------------------------------------ durability / recovery
wal_tolerance=${OAK_BENCH_WAL_TOLERANCE:-1.25}
rec_tolerance=${OAK_BENCH_RECOVERY_TOLERANCE:-1.0}
rec_size=${OAK_BENCH_RECOVERY_SIZE:-200000}
rec_value=${OAK_BENCH_RECOVERY_VALUE_BYTES:-256}
rec_threads=${OAK_BENCH_RECOVERY_THREADS:-2}
rec_dir=${OAK_BENCH_RECOVERY_DIR:-}
if [[ -z "$rec_dir" ]]; then
  # mmap page-fault cost on a disk-backed filesystem would dominate the put
  # latencies; the gate measures Oak, not the host's block layer.
  if [[ -d /dev/shm && -w /dev/shm ]]; then
    rec_dir="/dev/shm/oak-bench-recovery-$$"
  else
    rec_dir="$build_dir/oak-bench-recovery"
  fi
fi

run_recovery() {  # prints the RECOVERY line; storage dir is fresh per run
  rm -rf "$rec_dir"
  OAK_BENCH_VALIDATE=1 run_bench --scenario recovery -t "$rec_threads" \
      -i "$rec_size" -v "$rec_value" --shards 2 --maint-threads 2 \
      --storage-dir "$rec_dir" | grep '^RECOVERY ' | head -1
  rm -rf "$rec_dir"
}

echo "bench_smoke: recovery leg ($rec_size pairs, $repeats runs, dir $rec_dir)..."
rec_line=$(median_line "$ratio" run_recovery)
check_bench_exit recovery

if [[ -z "$rec_line" ]]; then
  echo "bench_smoke: FAIL recovery run produced no RECOVERY line" >&2
  exit 1
fi

rec_pairs=$(extract "$rec_line" '"pairs":\([0-9]*\)')
rec_replayed=$(extract "$rec_line" '"replayed_records":\([0-9]*\)')
rec_final=$(extract "$rec_line" '"final_size":\([0-9]*\)')
base_put_p99=$(extract "$rec_line" '"base_put_p99_ns":\([0-9]*\)')
wal_put_p99=$(extract "$rec_line" '"wal_put_p99_ns":\([0-9]*\)')
rec_ratio=$(extract "$rec_line" "$ratio")
rec_ingest_ms=$(extract "$rec_line" '"wal_ingest_ms":\([0-9]*\)')
rec_reopen_ms=$(extract "$rec_line" '"reopen_ms":\([0-9]*\)')
rec_recovery_ms=$(extract "$rec_line" '"recovery_ms":\([0-9]*\)')
rec_checkpoint_ms=$(extract "$rec_line" '"checkpoint_ms":\([0-9]*\)')

if [[ -z "$rec_pairs" || -z "$rec_ratio" || -z "$base_put_p99" || -z "$wal_put_p99" ]]; then
  echo "bench_smoke: FAIL could not parse RECOVERY line" >&2
  exit 1
fi
check_verrors recovery "$rec_line"
# Recovery must replay a WAL tail — but only the tail: a replay count of 0
# means the WAL hooks are dead, a count == pairs means the checkpoint never
# truncated the log.
[[ "${rec_replayed:-0}" != 0 ]] || fail_gate "recovery replayed no WAL records"
(( ${rec_replayed:-0} < ${rec_pairs:-0} )) ||
  fail_gate "recovery replayed the whole dataset" \
            "(replayed=$rec_replayed pairs=$rec_pairs — checkpoint not used)"
[[ "$rec_final" == "$rec_pairs" ]] ||
  fail_gate "recovered size $rec_final != ingested $rec_pairs"
# Gate: WAL on the put path must stay within tolerance of in-memory puts
# (median of the per-rep paired ratios, as in the compaction leg).
within "$rec_ratio" 1 "$wal_tolerance" ||
  fail_gate "put p99 regression with WAL:" \
            "in-memory=${base_put_p99}ns wal=${wal_put_p99}ns ratio=$rec_ratio" \
            "(tolerance ${wal_tolerance}x)"
# Gate: the cold restart (checkpoint bulk load + tail replay) must beat
# re-ingesting the same data.
within "$rec_reopen_ms" "$rec_ingest_ms" "$rec_tolerance" ||
  fail_gate "cold restart too slow:" \
            "reopen=${rec_reopen_ms}ms ingest=${rec_ingest_ms}ms (tolerance ${rec_tolerance}x)"

rec_json="$build_dir/BENCH_recovery.json"
cat > "$rec_json" <<JSON
{
  "bench": "synchrobench --scenario recovery -t $rec_threads -i $rec_size -v $rec_value --shards 2 --maint-threads 2",
  "gates": [
    "median-of-$repeats paired wal/in-memory put p99 ratio <= $wal_tolerance",
    "reopen_ms <= durable ingest_ms * $rec_tolerance",
    "0 < replayed_records < pairs",
    "final_size == pairs"
  ],
  "result": ${rec_line#RECOVERY }
}
JSON
echo "bench_smoke: recovery put p99 in-memory=${base_put_p99}ns wal=${wal_put_p99}ns" \
     "(ratio $rec_ratio);" \
     "reopen ${rec_reopen_ms}ms (recovery ${rec_recovery_ms}ms, checkpoint ${rec_checkpoint_ms}ms," \
     "replayed ${rec_replayed}/${rec_pairs}); wrote $rec_json"
end_leg "recovery gate passed"

# ------------------------------------------------ relocation / compaction A/B
comp_tolerance=${OAK_BENCH_COMPACTION_TOLERANCE:-1.15}
# The sampled stage needs enough puts for a meaningful exact p99; the
# churn leg's pair count (5000 at smoke scale) gives ~2k samples per rep,
# too coarse, so the compaction leg runs its own larger range.
comp_size=${OAK_BENCH_COMPACTION_SIZE:-20000}
comp_threads=${OAK_BENCH_COMPACTION_THREADS:-4}

run_compaction() {  # prints the COMPACTION line
  OAK_BENCH_VALIDATE=1 run_bench --scenario compaction -t "$comp_threads" \
      -i "$comp_size" --shards 2 --maint-threads 2 | grep '^COMPACTION ' | head -1
}

# The scenario already medians paired stage reps internally; the
# script-level median-of-$repeats absorbs whole-run regime shifts on a
# busy host.
echo "bench_smoke: compaction A/B ($comp_size pairs, $repeats runs)..."
comp_line=$(median_line "$ratio" run_compaction)
check_bench_exit compaction

if [[ -z "$comp_line" ]]; then
  echo "bench_smoke: FAIL compaction run produced no COMPACTION line" >&2
  exit 1
fi

comp_ratio=$(extract "$comp_line" "$ratio")
comp_base_p99=$(extract "$comp_line" '"base_put_p99_ns":\([0-9]*\)')
comp_p99=$(extract "$comp_line" '"compact_put_p99_ns":\([0-9]*\)')
comp_base_blocks=$(extract "$comp_line" '"base_arena_blocks":\([0-9]*\)')
comp_blocks=$(extract "$comp_line" '"arena_blocks_after":\([0-9]*\)')
comp_evacuated=$(extract "$comp_line" '"arenas_evacuated":\([0-9]*\)')
comp_slices=$(extract "$comp_line" '"slices_relocated":\([0-9]*\)')
comp_bytes=$(extract "$comp_line" '"bytes_relocated":\([0-9]*\)')

if [[ -z "$comp_ratio" || -z "$comp_base_blocks" || -z "$comp_blocks" ]]; then
  echo "bench_smoke: FAIL could not parse COMPACTION line" >&2
  exit 1
fi
check_verrors compaction "$comp_line"
# Evacuation must actually run: slices moved, whole arenas retired.
[[ "${comp_slices:-0}" != 0 ]] || fail_gate "compaction relocated no slices"
[[ "${comp_evacuated:-0}" != 0 ]] || fail_gate "compaction evacuated no arenas"
# Gate: the armed leg must end smaller — reclaiming arenas is the point.
(( ${comp_blocks:-0} < ${comp_base_blocks:-0} )) ||
  fail_gate "compaction did not shrink the arena footprint:" \
            "baseline=$comp_base_blocks blocks, compacted=$comp_blocks"
# Gate: armed put p99 must stay within tolerance of the baseline (median
# of the per-rep paired ratios, so both sides saw the same host weather).
within "$comp_ratio" 1 "$comp_tolerance" ||
  fail_gate "put p99 regression with evacuation armed:" \
            "baseline=${comp_base_p99}ns armed=${comp_p99}ns ratio=$comp_ratio" \
            "(tolerance ${comp_tolerance}x)"

comp_json="$build_dir/BENCH_compaction.json"
cat > "$comp_json" <<JSON
{
  "bench": "synchrobench --scenario compaction -t $comp_threads -i $comp_size --shards 2 --maint-threads 2",
  "gates": [
    "median-of-$repeats paired put p99 ratio <= $comp_tolerance",
    "slices_relocated > 0 and arenas_evacuated > 0",
    "arena_blocks_after < base_arena_blocks",
    "validation_errors == 0"
  ],
  "result": ${comp_line#COMPACTION }
}
JSON
echo "bench_smoke: compaction put p99 baseline=${comp_base_p99}ns armed=${comp_p99}ns" \
     "(ratio $comp_ratio); arenas $comp_base_blocks -> $comp_blocks," \
     "${comp_slices} slices / ${comp_bytes} bytes moved; wrote $comp_json"
end_leg "compaction A/B gate passed"
