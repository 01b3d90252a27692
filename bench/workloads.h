#ifndef DATASPREAD_BENCH_WORKLOADS_H_
#define DATASPREAD_BENCH_WORKLOADS_H_

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/dataspread.h"

namespace dataspread::bench {

/// Buffer-pool policy for bench runs, from the environment:
///   DS_MAX_RESIDENT_PAGES — frame cap; when set it overrides `default_cap`
///                           entirely (an explicit 0 forces unbounded),
///   DS_SPILL_DIR          — directory for named spill files (unset =
///                           anonymous temp files, which is always clean).
/// Every call yields a distinct spill path, so the pagers of concurrently
/// loaded tables never collide on one file.
storage::PagerConfig PagerConfigFromEnv(size_t default_cap = 0);

/// Execution-pipeline batch size for bench runs: DS_EXEC_BATCH overrides
/// `default_size` (0 keeps the engine default, kDefaultExecBatchSize). The
/// shared knob every exec bench threads into DatabaseOptions.exec.
size_t ExecBatchSizeFromEnv(size_t default_size = 0);

/// Morsel-parallel worker count for bench runs: DS_EXEC_THREADS overrides
/// `default_threads` (0 keeps the serial pipeline). Mirrors DS_EXEC_BATCH —
/// the knob the serial-vs-parallel A/B families thread into
/// DatabaseOptions.exec.num_threads.
size_t ExecThreadsFromEnv(size_t default_threads = 0);

/// Appends one JSON object line to `BENCH_<bench>.json` under
/// DS_BENCH_JSON_DIR (default: current directory): the per-run trajectory
/// record (fault/eviction/spill counters, timings) that accumulates across
/// PRs. Failures to open the file are silently ignored — recording must
/// never break a bench run.
void AppendBenchJsonLine(
    const std::string& bench, const std::string& run,
    const std::vector<std::pair<std::string, double>>& fields);

/// Fraction of slot accesses (reads + writes) served without a demand page
/// fault between two PagerStats snapshots — the buffer-pool hit rate of the
/// measured window. 1.0 when the window had no slot accesses.
double HitRate(const storage::PagerStats& before,
               const storage::PagerStats& after);

/// The shared tail of every pager-reporting bench: sets the physical
/// buffer-pool counters (faults / readaheads / evictions / spill_bytes) on
/// `state` and appends the JSON trajectory line carrying them plus
/// `scan_evictions`, `iterations`, the applied pool cap, the measured
/// window's `hit_rate`, and the bench-specific `fields` (dirty_blocks,
/// pages_read, ... — already set as state counters by the caller). Every
/// pager counter is a delta over the `before` stats snapshot the caller took
/// at the top of its measured op, so it covers that op alone — not the load
/// or the benchmark loop's iterations.
void ReportPoolCountersAndJson(
    benchmark::State& state, storage::Pager& pager, const std::string& bench,
    const std::string& run, const storage::PagerStats& before,
    std::vector<std::pair<std::string, double>> fields);

/// Deterministic synthetic stand-in for the demo's IMDB-style data
/// (MOVIES, MOVIES2ACTORS, ACTORS — see DESIGN.md §2 substitution table).
/// `movies` rows, `actors` ≈ movies/2, and ~3 cast links per movie.
void LoadMovieWorkload(Database* db, size_t movies, uint32_t seed = 42);

/// Populates `table_name` with `rows` of (id INT PRIMARY KEY, v TEXT,
/// amount REAL) through the catalog (fast path for large tables).
void LoadWideTable(Database* db, const std::string& table_name, size_t rows,
                   uint32_t seed = 7);

/// Fills a sheet rectangle with typed data: col 0 ids, col 1 text, others
/// numeric. With `header`, row `top` gets column names id/name/v1/v2/...
void FillSheetTable(Sheet* sheet, int64_t top, int64_t left, int64_t rows,
                    int64_t cols, bool header, uint32_t seed = 3);

/// Builds a chain of formulas B[i] = B[i-1] + A[i] of the given length
/// starting at (0, 1); column A holds literals.
void BuildFormulaChain(DataSpread* ds, Sheet* sheet, int64_t length);

}  // namespace dataspread::bench

#endif  // DATASPREAD_BENCH_WORKLOADS_H_
