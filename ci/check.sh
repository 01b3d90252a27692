#!/usr/bin/env bash
# CI gate: configure -> build -> ctest, with warnings-as-errors for the
# storage subsystem (src/storage/ must stay warning-clean; the rest of the
# tree builds with -Wall -Wextra), followed by a low-memory smoke run that
# exercises the bounded buffer pool (eviction + spill) end to end, a perf
# smoke for the scan-resistant eviction policy, a per-edit cost gate for
# maintained DBSQL aggregate cells (flat from 20k to 1M rows, no DBSQL
# re-execution), a per-edit WAL gate for durable mid-sheet row edits (flat
# from 10k to 1M rows), a per-op count gate for delta window materialization
# (a one-screen hop writes one screen of cells), a crash-recovery smoke
# (SIGKILL a durable workload, reopen, diff, gate recovery time), a
# catalog-recovery smoke (SIGKILL a durable *database* mid-DDL-stream,
# reopen by path, verify schemas + data), an execution-pipeline perf smoke
# (a warm re-run of the join->filter->top-K shape at 100k movies must make
# 0 hash-join builds, and exactly 1 after a write to one build table; the
# morsel-parallel leaf must hold >= 1.8x over the serial batch pipeline at
# 4 threads on >= 4-core machines, and its 1-thread run must stay within
# 10% of serial batch; absolute ceilings on the batch pipeline), an
# end-to-end correctness smoke over the four user workloads (bench/e2e), and
# a docs-consistency check (BENCH field coverage + markdown cross-references).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-ci}"
JOBS="$(nproc)"

# Scratch area for spill files and bench JSON produced by the smoke run;
# removed on every exit path so CI leaves no artifacts behind.
SMOKE_DIR="$(mktemp -d "${TMPDIR:-/tmp}/ds-ci-smoke.XXXXXX")"
trap 'rm -rf "${SMOKE_DIR}"' EXIT

cmake -B "${BUILD_DIR}" -S . -DDS_STORAGE_WERROR=ON
cmake --build "${BUILD_DIR}" -j "${JOBS}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

# ---------------------------------------------------------------------------
# Low-memory smoke: the eviction/spill suite (it pins its own tiny pool
# sizes internally; env vars are not read by tests) plus one storage bench
# forced through a 64-frame pool via DS_MAX_RESIDENT_PAGES. Bench spill
# files land in the scratch dir via DS_SPILL_DIR and are wiped with it.
# ---------------------------------------------------------------------------
if [[ -x "${BUILD_DIR}/eviction_test" ]]; then
  "${BUILD_DIR}/eviction_test" --gtest_brief=1
else
  echo "ci/check.sh: eviction_test not built (GTest missing); skipping test smoke"
fi

if [[ -x "${BUILD_DIR}/bench_storage_models" ]]; then
  DS_MAX_RESIDENT_PAGES=64 DS_SPILL_DIR="${SMOKE_DIR}" \
    DS_BENCH_JSON_DIR="${SMOKE_DIR}" \
    "${BUILD_DIR}/bench_storage_models" \
    --benchmark_filter='BM_Storage_FullScan_(Row|Column|Hybrid)/100000' \
    --benchmark_min_time=0.02
else
  echo "ci/check.sh: bench binaries not built; skipping bounded-pool bench smoke"
fi

# ---------------------------------------------------------------------------
# Perf smoke: the mixed scan + hot-point workload behind a 64-frame pool.
# Guards the scan-resistant eviction policy against regressions two ways:
#   1. the scan-resistant run's hot-set faults must stay within a recorded
#      budget (measured ~0-30 at 64 frames; the clock-only baseline sits
#      around 1600), and
#   2. the clock-only baseline must show >= 2x the scan-resistant hot
#      faults, so the A/B itself keeps proving the policy win.
# ---------------------------------------------------------------------------
HOT_FAULTS_BUDGET=200

if [[ -x "${BUILD_DIR}/bench_mixed_workload" ]]; then
  DS_SPILL_DIR="${SMOKE_DIR}" DS_BENCH_JSON_DIR="${SMOKE_DIR}" \
    "${BUILD_DIR}/bench_mixed_workload" \
    --benchmark_filter='BM_Mixed_ScanWithHotLookups_Row_(Clock|ScanResistant)' \
    --benchmark_min_time=0.02

  scanres_faults="$(sed -n 's/.*"run":"[^"]*\/scanres".*"hot_faults":\([0-9]*\).*/\1/p' \
    "${SMOKE_DIR}/BENCH_mixed_workload.json" | head -n1)"
  clock_faults="$(sed -n 's/.*"run":"[^"]*\/clock".*"hot_faults":\([0-9]*\).*/\1/p' \
    "${SMOKE_DIR}/BENCH_mixed_workload.json" | head -n1)"
  if [[ -z "${scanres_faults}" || -z "${clock_faults}" ]]; then
    echo "ci/check.sh: could not parse hot_faults from BENCH_mixed_workload.json" >&2
    exit 1
  fi
  echo "ci/check.sh: mixed-workload hot faults: scan-resistant=${scanres_faults}" \
       "clock-only=${clock_faults} (budget ${HOT_FAULTS_BUDGET})"
  if (( scanres_faults > HOT_FAULTS_BUDGET )); then
    echo "ci/check.sh: scan-resistant hot faults ${scanres_faults} exceed the" \
         "budget of ${HOT_FAULTS_BUDGET} — eviction policy regression" >&2
    exit 1
  fi
  floor=$(( scanres_faults > 0 ? scanres_faults : 1 ))
  if (( clock_faults < 2 * floor )); then
    echo "ci/check.sh: clock-only baseline (${clock_faults}) is not >= 2x the" \
         "scan-resistant run (${scanres_faults}) — the policy win disappeared" >&2
    exit 1
  fi
else
  echo "ci/check.sh: bench_mixed_workload not built; skipping eviction perf smoke"
fi

# ---------------------------------------------------------------------------
# Maintained-DBSQL gate (DESIGN.md §6c): one keyed cell edit plus Pump in a
# bound table under a SUM cell and a GROUP BY ... ORDER BY spill. The cells
# fold the edit's delta instead of re-running, so the edit's cost must not
# grow with the table: op_ms (fastest of 200 in-process edits) at 1M rows
# must stay <= 2x op_ms at 20k rows, and no DBSQL query may re-execute
# (dbsql_execs = 0 per edit at both sizes).
# ---------------------------------------------------------------------------
if [[ -x "${BUILD_DIR}/bench_fig2a_dbsql" ]]; then
  DS_BENCH_JSON_DIR="${SMOKE_DIR}" "${BUILD_DIR}/bench_fig2a_dbsql" \
    --benchmark_filter='BM_Fig2a_EditUnderAggregateCells'
  edit_field() {
    sed -n "s/.*\"run\":\"EditUnderAggregateCells\/$1\".*\"$2\":\([0-9][0-9.e+-]*\).*/\1/p" \
      "${SMOKE_DIR}/BENCH_fig2a_dbsql.json" | head -n1
  }
  edit_20k_ms="$(edit_field 20000 op_ms)"
  edit_1m_ms="$(edit_field 1000000 op_ms)"
  edit_20k_execs="$(edit_field 20000 dbsql_execs)"
  edit_1m_execs="$(edit_field 1000000 dbsql_execs)"
  if [[ -z "${edit_20k_ms}" || -z "${edit_1m_ms}" || -z "${edit_20k_execs}" ||
        -z "${edit_1m_execs}" ]]; then
    echo "ci/check.sh: could not parse EditUnderAggregateCells from BENCH_fig2a_dbsql.json" >&2
    exit 1
  fi
  echo "ci/check.sh: edit under aggregate cells: 20k=${edit_20k_ms} ms" \
       "1M=${edit_1m_ms} ms (need <= 2x), dbsql_execs=${edit_20k_execs}/${edit_1m_execs}"
  if ! awk -v a="${edit_1m_ms}" -v b="${edit_20k_ms}" \
       -v e="${edit_20k_execs}" -v f="${edit_1m_execs}" \
       'BEGIN { exit !(b > 0 && a <= 2 * b && e == 0 && f == 0) }'; then
    echo "ci/check.sh: a cell edit under DBSQL aggregate cells costs" \
         "${edit_1m_ms} ms at 1M rows vs ${edit_20k_ms} ms at 20k, with" \
         "${edit_20k_execs}/${edit_1m_execs} DBSQL executions per edit —" \
         "maintained-DBSQL regression" >&2
    exit 1
  fi
else
  echo "ci/check.sh: bench_fig2a_dbsql not built; skipping maintained-DBSQL gate"
fi

# ---------------------------------------------------------------------------
# Logged display order (DESIGN.md §6 "Catalog recovery"): a row inserted at
# (and deleted from) the middle of a durable table logs one display-order
# record, not the shifted tail of the order, so the WAL bytes per edit must
# not grow with the table: wal_bytes at 1M rows <= 2x wal_bytes at 10k.
# Count-based (bytes, not time), so the gate is deterministic.
# ---------------------------------------------------------------------------
if [[ -x "${BUILD_DIR}/bench_positional_index" ]]; then
  DS_SPILL_DIR="${SMOKE_DIR}" DS_BENCH_JSON_DIR="${SMOKE_DIR}" \
    "${BUILD_DIR}/bench_positional_index" \
    --benchmark_filter='BM_Positional_DurableMidSheetEdit/(10000|1000000)/'
  mid_edit_wal() {
    sed -n "s/.*\"run\":\"DurableMidSheetEdit\/$1\".*\"wal_bytes\":\([0-9][0-9.e+-]*\).*/\1/p" \
      "${SMOKE_DIR}/BENCH_positional.json" | head -n1
  }
  wal_10k="$(mid_edit_wal 10000)"
  wal_1m="$(mid_edit_wal 1000000)"
  if [[ -z "${wal_10k}" || -z "${wal_1m}" ]]; then
    echo "ci/check.sh: could not parse DurableMidSheetEdit from BENCH_positional.json" >&2
    exit 1
  fi
  echo "ci/check.sh: durable mid-sheet edit WAL: 10k=${wal_10k} B" \
       "1M=${wal_1m} B (need <= 2x)"
  if ! awk -v a="${wal_1m}" -v b="${wal_10k}" \
       'BEGIN { exit !(b > 0 && a <= 2 * b) }'; then
    echo "ci/check.sh: a durable mid-sheet row edit logs ${wal_1m} B of WAL" \
         "at 1M rows vs ${wal_10k} B at 10k — per-edit cost grows with" \
         "the table (order persistence regression)" >&2
    exit 1
  fi
else
  echo "ci/check.sh: bench_positional_index not built; skipping durable edit WAL gate"
fi

# ---------------------------------------------------------------------------
# Delta materialization gate (DESIGN.md §6d "Materializing windows and spills"),
# count-based and so noise-free: at 10k and 1M bound rows, a one-screen hop
# of the pane writes and clears exactly one screen of rows (hop_rows x width
# cells, not the whole materialized span) and evaluates no formula, and a
# back-end UPDATE of one visible bound cell writes exactly that cell.
# ---------------------------------------------------------------------------
if [[ -x "${BUILD_DIR}/bench_window_scroll" ]]; then
  DS_SPILL_DIR="${SMOKE_DIR}" DS_BENCH_JSON_DIR="${SMOKE_DIR}" \
    "${BUILD_DIR}/bench_window_scroll" \
    --benchmark_filter='BM_WindowScroll_DeltaCounts/(10000|1000000)/'
  for rows in 10000 1000000; do
    delta_field() {
      sed -n "s/.*\"run\":\"DeltaCounts\/${rows}\".*\"$1\":\([0-9][0-9.e+-]*\).*/\1/p" \
        "${SMOKE_DIR}/BENCH_window_scroll.json" | head -n1
    }
    hop_rows="$(delta_field hop_rows)"
    width="$(delta_field width)"
    written="$(delta_field hop_cells_written)"
    cleared="$(delta_field hop_cells_cleared)"
    evaluated="$(delta_field hop_cells_evaluated)"
    update_written="$(delta_field update_cells_written)"
    if [[ -z "${hop_rows}" || -z "${width}" || -z "${written}" ||
          -z "${cleared}" || -z "${evaluated}" || -z "${update_written}" ]]; then
      echo "ci/check.sh: could not parse DeltaCounts/${rows} from BENCH_window_scroll.json" >&2
      exit 1
    fi
    echo "ci/check.sh: delta materialization @${rows}: hop writes ${written}," \
         "clears ${cleared} (need $(( hop_rows * width )) each), evaluates" \
         "${evaluated} (need 0); one-cell UPDATE writes ${update_written} (need 1)"
    if ! awk -v w="${written}" -v c="${cleared}" -v e="${evaluated}" \
         -v u="${update_written}" -v h="${hop_rows}" -v n="${width}" \
         'BEGIN { exit !(w == h * n && c == h * n && e == 0 && u == 1) }'; then
      echo "ci/check.sh: at ${rows} rows a one-screen hop wrote ${written} and" \
           "cleared ${cleared} cells and evaluated ${evaluated} formulas, and a" \
           "one-cell UPDATE wrote ${update_written} cells — delta" \
           "materialization regression" >&2
      exit 1
    fi
  done
else
  echo "ci/check.sh: bench_window_scroll not built; skipping delta materialization gate"
fi

# ---------------------------------------------------------------------------
# Execution-pipeline perf smoke. The serial batch pipeline's
# scan->filter->aggregate run at 100k rows (unbounded pool) is the baseline
# of the morsel-parallel gates below.
# ---------------------------------------------------------------------------
if [[ -x "${BUILD_DIR}/bench_exec_pipeline" ]]; then
  DS_SPILL_DIR="${SMOKE_DIR}" DS_BENCH_JSON_DIR="${SMOKE_DIR}" \
    "${BUILD_DIR}/bench_exec_pipeline" \
    --benchmark_filter='BM_ScanFilterAggregate/100000/0/0$' \
    --benchmark_min_time=0.02

  batch_op_ms="$(sed -n 's/.*"run":"ScanFilterAggregate\/batch\/100000".*"op_ms":\([0-9][0-9.e+-]*\),.*/\1/p' \
    "${SMOKE_DIR}/BENCH_exec_pipeline.json" | head -n1)"
  if [[ -z "${batch_op_ms}" ]]; then
    echo "ci/check.sh: could not parse op_ms from BENCH_exec_pipeline.json" >&2
    exit 1
  fi
  echo "ci/check.sh: exec pipeline scan-filter-aggregate @100k:" \
       "batch=${batch_op_ms} ms"
  # -------------------------------------------------------------------------
  # Join-build reuse gate (DESIGN.md §6a "Build reuse"), count-based and so
  # noise-free: a warm re-execution of the same join at 10k and 100k movies
  # must make 0 hash-join builds (both retained builds are reused), and one
  # execution after a write to one build table exactly 1.
  # -------------------------------------------------------------------------
  DS_SPILL_DIR="${SMOKE_DIR}" DS_BENCH_JSON_DIR="${SMOKE_DIR}" \
    "${BUILD_DIR}/bench_exec_pipeline" \
    --benchmark_filter='BM_JoinFilterTopKWarm/(10000|100000)$' \
    --benchmark_min_time=0.02
  for movies in 10000 100000; do
    warm_field() {
      sed -n "s/.*\"run\":\"JoinFilterTopK\/warm\/${movies}\".*\"$1\":\([0-9][0-9.e+-]*\).*/\1/p" \
        "${SMOKE_DIR}/BENCH_exec_pipeline.json" | head -n1
    }
    warm_builds="$(warm_field join_builds)"
    warm_rebuilds="$(warm_field rebuilds_after_write)"
    if [[ -z "${warm_builds}" || -z "${warm_rebuilds}" ]]; then
      echo "ci/check.sh: could not parse JoinFilterTopK/warm/${movies} from BENCH_exec_pipeline.json" >&2
      exit 1
    fi
    echo "ci/check.sh: join build reuse @${movies}: warm join_builds=${warm_builds}" \
         "(need 0), rebuilds_after_write=${warm_rebuilds} (need 1)"
    if [[ "${warm_builds}" != "0" || "${warm_rebuilds}" != "1" ]]; then
      echo "ci/check.sh: a warm join at ${movies} movies made ${warm_builds}" \
           "hash-join builds and ${warm_rebuilds} after one build-table write" \
           "(want 0 and 1) — join-build reuse regression" >&2
      exit 1
    fi
  done
  # -------------------------------------------------------------------------
  # Morsel-parallel gates over the scan-filter-aggregate query. Two checks:
  #   1. par1 (the worker pool at 1 thread, i.e. pure dispenser overhead)
  #      must stay within 10% of the serial batch pipeline — always enforced.
  #   2. par4 must be >= 1.8x faster than serial batch — only meaningful with
  #      real cores underneath, so it is skipped (with a notice) when nproc
  #      reports fewer than 4; single-core CI cannot observe a speedup.
  # -------------------------------------------------------------------------
  DS_SPILL_DIR="${SMOKE_DIR}" DS_BENCH_JSON_DIR="${SMOKE_DIR}" \
    "${BUILD_DIR}/bench_exec_pipeline" \
    --benchmark_filter='BM_ScanFilterAggregate/100000/0/(1|4)$' \
    --benchmark_min_time=0.02

  par1_op_ms="$(sed -n 's/.*"run":"ScanFilterAggregate\/par1\/100000".*"op_ms":\([0-9][0-9.e+-]*\),.*/\1/p' \
    "${SMOKE_DIR}/BENCH_exec_pipeline.json" | head -n1)"
  par4_op_ms="$(sed -n 's/.*"run":"ScanFilterAggregate\/par4\/100000".*"op_ms":\([0-9][0-9.e+-]*\),.*/\1/p' \
    "${SMOKE_DIR}/BENCH_exec_pipeline.json" | head -n1)"
  if [[ -z "${par1_op_ms}" || -z "${par4_op_ms}" ]]; then
    echo "ci/check.sh: could not parse parallel op_ms from BENCH_exec_pipeline.json" >&2
    exit 1
  fi
  echo "ci/check.sh: morsel-parallel scan-filter-aggregate @100k:" \
       "batch=${batch_op_ms} ms par1=${par1_op_ms} ms par4=${par4_op_ms} ms"
  if ! awk -v b="${batch_op_ms}" -v p="${par1_op_ms}" \
       'BEGIN { exit !(b > 0 && p <= 1.10 * b) }'; then
    echo "ci/check.sh: 1-thread morsel run (${par1_op_ms} ms) is more than 10%" \
         "slower than the serial batch pipeline (${batch_op_ms} ms) —" \
         "dispenser/worker-pool overhead regression" >&2
    exit 1
  fi
  if (( JOBS >= 4 )); then
    if ! awk -v b="${batch_op_ms}" -v p="${par4_op_ms}" \
         'BEGIN { exit !(p > 0 && b >= 1.8 * p) }'; then
      echo "ci/check.sh: 4-thread morsel run (${par4_op_ms} ms) is not >= 1.8x" \
           "faster than the serial batch pipeline (${batch_op_ms} ms) on a" \
           "${JOBS}-core machine — parallel-scan regression" >&2
      exit 1
    fi
  else
    echo "ci/check.sh: only ${JOBS} core(s) visible; skipping the 1.8x @4-thread" \
         "speedup gate (the par1-overhead gate above still ran)"
  fi
  # -------------------------------------------------------------------------
  # Absolute ceilings on the typed batch pipeline (DESIGN.md §6b "Batch
  # layout"), each on the fastest of 5 runs so one descheduled run on a
  # shared machine cannot fail it:
  #   ScanFilterAggregate/batch/100000 <= 10 ms  (28 ms with Value columns)
  #   JoinFilterTopK/warm/100000      <= 100 ms  (257 ms with Value columns)
  # Measured at about 7 ms and 40 ms on a 4-core container; the ceilings
  # arm only when nproc >= 4, the machine class they were recorded on.
  # -------------------------------------------------------------------------
  if (( JOBS >= 4 )); then
    ceiling_dir="${SMOKE_DIR}/ceilings"
    mkdir -p "${ceiling_dir}"
    for _ in 1 2 3 4 5; do
      DS_SPILL_DIR="${SMOKE_DIR}" DS_BENCH_JSON_DIR="${ceiling_dir}" \
        "${BUILD_DIR}/bench_exec_pipeline" \
        --benchmark_filter='BM_ScanFilterAggregate/100000/0/0$|BM_JoinFilterTopKWarm/100000$' \
        --benchmark_min_time=0.02 > /dev/null
    done
    check_ceiling() {  # <run, sed-escaped> <ceiling ms>
      local ms
      ms="$(sed -n "s/.*\"run\":\"$1\".*\"op_ms\":\([0-9][0-9.e+-]*\),.*/\1/p" \
        "${ceiling_dir}/BENCH_exec_pipeline.json" | sort -g | head -n1)"
      if [[ -z "${ms}" ]]; then
        echo "ci/check.sh: could not parse $1 op_ms for its ceiling" >&2
        exit 1
      fi
      local run="${1//\\/}"
      echo "ci/check.sh: exec ceiling ${run}: fastest of 5 runs ${ms} ms (need <= $2 ms)"
      if ! awk -v m="${ms}" -v c="$2" 'BEGIN { exit !(m <= c) }'; then
        echo "ci/check.sh: ${run} took ${ms} ms at best, over its $2 ms ceiling —" \
             "typed batch pipeline regression" >&2
        exit 1
      fi
    }
    check_ceiling 'ScanFilterAggregate\/batch\/100000' 10
    check_ceiling 'JoinFilterTopK\/warm\/100000' 100
  else
    echo "ci/check.sh: only ${JOBS} core(s) visible; skipping the exec ceilings" \
         "(recorded on a 4-core machine)"
  fi
else
  echo "ci/check.sh: bench_exec_pipeline not built; skipping exec perf smoke"
fi

# ---------------------------------------------------------------------------
# Recovery smoke: a bounded-pool durable workload is SIGKILLed mid-stream,
# then reopened — recovery must replay the WAL tail, hold every slot that was
# acknowledged (synced) before the kill, and diff clean against the
# deterministic generator. Recovery time is gated against the log size
# (measured ~5 ms/MB; the budget leaves ~20x slack for loaded CI machines).
# ---------------------------------------------------------------------------
if [[ -x "${BUILD_DIR}/recovery_smoke" ]]; then
  RECOVERY_DIR="${SMOKE_DIR}/recovery"
  mkdir -p "${RECOVERY_DIR}"
  "${BUILD_DIR}/recovery_smoke" run "${RECOVERY_DIR}" \
    > "${SMOKE_DIR}/recovery_run.log" 2>&1 &
  smoke_pid=$!
  sleep 2
  kill -9 "${smoke_pid}" 2>/dev/null || true
  wait "${smoke_pid}" 2>/dev/null || true
  min_slots="$(awk '/^synced/{n=$2} END{print n+0}' "${SMOKE_DIR}/recovery_run.log")"
  if (( min_slots == 0 )); then
    echo "ci/check.sh: recovery smoke never reached its first WAL sync" >&2
    exit 1
  fi
  wal_bytes="$(stat -c%s "${RECOVERY_DIR}/smoke.wal")"
  recover_line="$("${BUILD_DIR}/recovery_smoke" recover "${RECOVERY_DIR}" "${min_slots}")"
  echo "ci/check.sh: recovery smoke: ${recover_line}" \
       "(SIGKILL after >=${min_slots} acked slots, log ${wal_bytes} bytes)"
  recovery_ms="$(sed -n 's/.* ms=\([0-9]*\).*/\1/p' <<<"${recover_line}")"
  recovery_budget_ms=$(( 1000 + (wal_bytes / (1024 * 1024) + 1) * 100 ))
  if (( recovery_ms > recovery_budget_ms )); then
    echo "ci/check.sh: recovery took ${recovery_ms} ms for a" \
         "${wal_bytes}-byte log (budget ${recovery_budget_ms} ms) —" \
         "recovery-time regression" >&2
    exit 1
  fi
else
  echo "ci/check.sh: recovery_smoke not built; skipping crash-recovery smoke"
fi

# ---------------------------------------------------------------------------
# Catalog-recovery smoke: a durable *database* (four tables, one per storage
# model) is SIGKILLed mid-stream — with ALTER TABLE DDL statements landing
# every few thousand rows — then reopened by path alone. Recovery must
# rebuild every table, schema, and row with no application-side rebuild:
# at least the acknowledged (synced) rows and the acknowledged DDLs, every
# cell matching the deterministic generator (pre-DDL rows carry the column
# default). The recovery time is gated against the log size like the
# page-level smoke above.
# ---------------------------------------------------------------------------
if [[ -x "${BUILD_DIR}/catalog_smoke" ]]; then
  CATALOG_DIR="${SMOKE_DIR}/catalog"
  mkdir -p "${CATALOG_DIR}"
  "${BUILD_DIR}/catalog_smoke" run "${CATALOG_DIR}/db" \
    > "${SMOKE_DIR}/catalog_run.log" 2>&1 &
  catalog_pid=$!
  # Kill once the workload has provably passed its first DDL + a later sync
  # (polling, not a fixed sleep: the gate must not depend on machine speed),
  # with a generous ceiling for badly loaded runners.
  for _ in $(seq 1 120); do
    if grep -q '^ddl' "${SMOKE_DIR}/catalog_run.log" 2>/dev/null &&
       [[ "$(tail -n1 "${SMOKE_DIR}/catalog_run.log" 2>/dev/null)" == synced* ]]; then
      break
    fi
    sleep 0.5
  done
  kill -9 "${catalog_pid}" 2>/dev/null || true
  wait "${catalog_pid}" 2>/dev/null || true
  min_rows="$(awk '/^synced/{n=$2} END{print n+0}' "${SMOKE_DIR}/catalog_run.log")"
  min_ddl="$(awk '/^ddl/{n=$2} END{print n+0}' "${SMOKE_DIR}/catalog_run.log")"
  if (( min_rows == 0 || min_ddl == 0 )); then
    echo "ci/check.sh: catalog smoke never reached its first sync/DDL" >&2
    exit 1
  fi
  catalog_wal_bytes="$(stat -c%s "${CATALOG_DIR}/db.wal")"
  catalog_line="$("${BUILD_DIR}/catalog_smoke" recover "${CATALOG_DIR}/db" \
    "${min_rows}" "${min_ddl}")"
  echo "ci/check.sh: catalog smoke: ${catalog_line}" \
       "(SIGKILL after >=${min_rows} rows + ${min_ddl} DDLs," \
       "log ${catalog_wal_bytes} bytes)"
  catalog_ms="$(sed -n 's/.* ms=\([0-9]*\).*/\1/p' <<<"${catalog_line}")"
  catalog_budget_ms=$(( 2000 + (catalog_wal_bytes / (1024 * 1024) + 1) * 100 ))
  if (( catalog_ms > catalog_budget_ms )); then
    echo "ci/check.sh: catalog recovery took ${catalog_ms} ms for a" \
         "${catalog_wal_bytes}-byte log (budget ${catalog_budget_ms} ms) —" \
         "recovery-time regression" >&2
    exit 1
  fi
else
  echo "ci/check.sh: catalog_smoke not built; skipping catalog-recovery smoke"
fi

# ---------------------------------------------------------------------------
# Transaction-rollback smoke: one writer streams BEGIN..COMMIT / ROLLBACK
# transactions (every third rolled back and retried) with sync-on-commit,
# then is SIGKILLed mid-stream — often mid-transaction or mid-rollback.
# Reopening by path must surface exactly a committed-transaction prefix:
# every acknowledged COMMIT present, a whole number of transactions, and no
# trace of any rolled-back or open batch.
# ---------------------------------------------------------------------------
if [[ -x "${BUILD_DIR}/catalog_smoke" ]]; then
  TXN_DIR="${SMOKE_DIR}/txn"
  mkdir -p "${TXN_DIR}"
  "${BUILD_DIR}/catalog_smoke" txn-run "${TXN_DIR}/db" \
    > "${SMOKE_DIR}/txn_run.log" 2>&1 &
  txn_pid=$!
  # Kill only after several durable COMMITs (and, by the every-third cadence,
  # at least one ROLLBACK) have provably happened — polling, not a fixed
  # sleep, so the gate does not depend on machine speed.
  for _ in $(seq 1 120); do
    commits="$(awk '/^committed/{n++} END{print n+0}' \
      "${SMOKE_DIR}/txn_run.log" 2>/dev/null || true)"
    if (( ${commits:-0} >= 5 )); then
      break
    fi
    sleep 0.5
  done
  kill -9 "${txn_pid}" 2>/dev/null || true
  wait "${txn_pid}" 2>/dev/null || true
  min_txn_rows="$(awk '/^committed/{n=$2} END{print n+0}' "${SMOKE_DIR}/txn_run.log")"
  if (( min_txn_rows == 0 )); then
    echo "ci/check.sh: txn smoke never reached its first durable COMMIT" >&2
    exit 1
  fi
  txn_line="$("${BUILD_DIR}/catalog_smoke" txn-recover "${TXN_DIR}/db" "${min_txn_rows}")"
  echo "ci/check.sh: txn smoke: ${txn_line}" \
       "(SIGKILL after >=${min_txn_rows} committed rows)"
else
  echo "ci/check.sh: catalog_smoke not built; skipping transaction-rollback smoke"
fi

# ---------------------------------------------------------------------------
# Group-commit perf gate: concurrent committers batching onto one leader
# fsync (Pager::SyncWalThrough / Wal::SyncThrough) must sustain >= 2x the
# committed-statements/s of the fsync-per-commit baseline at 8 committer
# threads (measured ~3x; the 2x floor leaves headroom for loaded runners
# while still catching a commit-batching regression). The pager-level A/B
# isolates the barrier mechanism; bench_txn's SQL-level pair is trajectory
# context only.
# ---------------------------------------------------------------------------
if [[ -x "${BUILD_DIR}/bench_txn" ]]; then
  DS_SPILL_DIR="${SMOKE_DIR}" DS_BENCH_JSON_DIR="${SMOKE_DIR}" \
    "${BUILD_DIR}/bench_txn" \
    --benchmark_filter='BM_Txn_PagerCommit_(Serial|Group)/8' \
    --benchmark_min_time=0.05
  serial_cps="$(sed -n 's/.*"run":"PagerCommit\/serial\/t8".*"commits_per_sec":\([0-9][0-9.e+-]*\).*/\1/p' \
    "${SMOKE_DIR}/BENCH_txn.json" | head -n1)"
  group_cps="$(sed -n 's/.*"run":"PagerCommit\/group\/t8".*"commits_per_sec":\([0-9][0-9.e+-]*\).*/\1/p' \
    "${SMOKE_DIR}/BENCH_txn.json" | head -n1)"
  if [[ -z "${serial_cps}" || -z "${group_cps}" ]]; then
    echo "ci/check.sh: could not parse commits_per_sec from BENCH_txn.json" >&2
    exit 1
  fi
  echo "ci/check.sh: group commit @8 threads: group=${group_cps} serial=${serial_cps}" \
       "commits/s (need >= 2x)"
  if ! awk -v g="${group_cps}" -v s="${serial_cps}" \
       'BEGIN { exit !(s > 0 && g >= 2 * s) }'; then
    echo "ci/check.sh: group commit (${group_cps} commits/s) is not >= 2x the" \
         "fsync-per-commit baseline (${serial_cps} commits/s) —" \
         "commit-batching regression" >&2
    exit 1
  fi

  # -------------------------------------------------------------------------
  # Multi-statement transaction gate: grouping K=8 statements under one
  # BEGIN..COMMIT fsync must sustain >= 1.5x the committed statements/s of
  # K=1 autocommit (measured ~2-4x; the 1.5x floor leaves headroom for
  # loaded runners while still catching a statement-batching regression).
  # -------------------------------------------------------------------------
  DS_SPILL_DIR="${SMOKE_DIR}" DS_BENCH_JSON_DIR="${SMOKE_DIR}" \
    "${BUILD_DIR}/bench_txn" \
    --benchmark_filter='BM_Txn_Multi/(1|8)/' \
    --benchmark_min_time=0.05
  k1_sps="$(sed -n 's/.*"run":"Multi\/k1".*"statements_per_sec":\([0-9][0-9.e+-]*\).*/\1/p' \
    "${SMOKE_DIR}/BENCH_txn.json" | head -n1)"
  k8_sps="$(sed -n 's/.*"run":"Multi\/k8".*"statements_per_sec":\([0-9][0-9.e+-]*\).*/\1/p' \
    "${SMOKE_DIR}/BENCH_txn.json" | head -n1)"
  if [[ -z "${k1_sps}" || -z "${k8_sps}" ]]; then
    echo "ci/check.sh: could not parse statements_per_sec from BENCH_txn.json" >&2
    exit 1
  fi
  echo "ci/check.sh: multi-statement txns: k8=${k8_sps} k1=${k1_sps}" \
       "statements/s (need >= 1.5x)"
  if ! awk -v a="${k8_sps}" -v b="${k1_sps}" \
       'BEGIN { exit !(b > 0 && a >= 1.5 * b) }'; then
    echo "ci/check.sh: K=8 statement batching (${k8_sps} statements/s) is not" \
         ">= 1.5x the K=1 autocommit baseline (${k1_sps} statements/s) —" \
         "multi-statement-transaction regression" >&2
    exit 1
  fi

  # -------------------------------------------------------------------------
  # Multi-writer gate (partitioned write latches, DESIGN.md §7): 4 writer
  # sessions on disjoint tables must sustain >= 2x the committed
  # statements/s of a single writer — the point of per-table latching is
  # that disjoint transactions proceed fully in parallel, with group commit
  # batching their fsyncs. Only meaningful with real cores underneath, so
  # skipped (with a notice) when nproc reports fewer than 4; the contended
  # runs land in BENCH_txn.json as trajectory context either way.
  # -------------------------------------------------------------------------
  DS_SPILL_DIR="${SMOKE_DIR}" DS_BENCH_JSON_DIR="${SMOKE_DIR}" \
    "${BUILD_DIR}/bench_txn" \
    --benchmark_filter='BM_Txn_MultiWriter_(Disjoint|Contended)/(1|2|4)/' \
    --benchmark_min_time=0.05
  w1_sps="$(sed -n 's/.*"run":"MultiWriter\/disjoint\/w1".*"statements_per_sec":\([0-9][0-9.e+-]*\).*/\1/p' \
    "${SMOKE_DIR}/BENCH_txn.json" | head -n1)"
  w4_sps="$(sed -n 's/.*"run":"MultiWriter\/disjoint\/w4".*"statements_per_sec":\([0-9][0-9.e+-]*\).*/\1/p' \
    "${SMOKE_DIR}/BENCH_txn.json" | head -n1)"
  if [[ -z "${w1_sps}" || -z "${w4_sps}" ]]; then
    echo "ci/check.sh: could not parse MultiWriter statements_per_sec from BENCH_txn.json" >&2
    exit 1
  fi
  echo "ci/check.sh: multi-writer txns: disjoint w4=${w4_sps} w1=${w1_sps}" \
       "statements/s"
  if (( JOBS >= 4 )); then
    if ! awk -v a="${w4_sps}" -v b="${w1_sps}" \
         'BEGIN { exit !(b > 0 && a >= 2 * b) }'; then
      echo "ci/check.sh: 4 disjoint writers (${w4_sps} statements/s) are not" \
           ">= 2x one writer (${w1_sps} statements/s) on a ${JOBS}-core" \
           "machine — write-latch partitioning regression" >&2
      exit 1
    fi
  else
    echo "ci/check.sh: only ${JOBS} core(s) visible; skipping the 2x @4-writer" \
         "scaling gate (the multi-writer numbers were still recorded)"
  fi
else
  echo "ci/check.sh: bench_txn not built; skipping group-commit perf gate"
fi

# ---------------------------------------------------------------------------
# ThreadSanitizer: the concurrency suite (N reader cursors + 1 writer over a
# bounded pool, group commit, disjoint + contending multi-writer sessions
# over the partitioned write latches, the double-open lock) rebuilt with
# -fsanitize=thread. The value assertions prove consistency; TSan proves the
# pager's latching and the per-table write-latch table underneath are
# race-free.
# ---------------------------------------------------------------------------
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
cmake -B "${TSAN_BUILD_DIR}" -S . \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
if cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}" --target concurrency_test \
     2>/dev/null; then
  TSAN_OPTIONS="halt_on_error=1" "${TSAN_BUILD_DIR}/concurrency_test" \
    --gtest_brief=1
else
  echo "ci/check.sh: concurrency_test not built under TSan (GTest missing?); skipping"
fi

# ---------------------------------------------------------------------------
# End-to-end smoke: bench/e2e/smoke.sh builds ds_e2e (in build-e2e/) and runs
# all four user workloads (pan, sheet_edit, dbsql, oltp) briefly over small
# data, checking correctness only — every cross-layer check must pass.
# ---------------------------------------------------------------------------
if command -v python3 >/dev/null 2>&1; then
  bench/e2e/smoke.sh
else
  echo "ci/check.sh: python3 not found; skipping end-to-end smoke"
fi

# ---------------------------------------------------------------------------
# Docs consistency: every BENCH_*.json field must be documented in README's
# field table, and every relative markdown link in README/DESIGN/ROADMAP/
# docs/ must resolve (incl. the README -> docs/DURABILITY.md pointer).
# ---------------------------------------------------------------------------
if command -v python3 >/dev/null 2>&1; then
  python3 ci/docs_check.py
else
  echo "ci/check.sh: python3 not found; skipping docs consistency check"
fi

# The smoke run must not leak spill files outside its scratch dir, and ctest
# itself uses anonymous temp files only: the repo tree stays clean.
if compgen -G "ds-bench-spill-*" >/dev/null || compgen -G "BENCH_*.json.tmp" >/dev/null; then
  echo "ci/check.sh: stray spill/bench artifacts in the repo tree" >&2
  exit 1
fi

echo "ci/check.sh: configure + build + ctest + smokes + docs check all green"
