// Experiment F2a (paper Figure 2a): DBSQL querying three relations with
// relative cell references (RANGEVALUE). Series: latency of entering and
// computing the DBSQL cell vs database size; plus the re-parameterization
// latency when the referenced cell changes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "workloads.h"

namespace dataspread::bench {
namespace {

void BM_Fig2a_DbsqlJoinWithRangeValue(benchmark::State& state) {
  size_t movies = static_cast<size_t>(state.range(0));
  DataSpreadOptions opts;
  opts.auto_pump = false;
  // Bounded-pool runs (DS_MAX_RESIDENT_PAGES): the three relations share one
  // capped pager, so the join's block traffic shows up as faults/evictions.
  opts.pager = PagerConfigFromEnv();
  DataSpread ds(opts);
  LoadMovieWorkload(&ds.db(), movies);
  Sheet* sheet = ds.AddSheet("S").ValueOrDie();
  (void)ds.SetCellAt(sheet, 0, 1, "1980");  // B1: year threshold
  ds.Pump();
  const std::string formula =
      "=DBSQL(\"SELECT title, name FROM movies NATURAL JOIN movies2actors "
      "NATURAL JOIN actors WHERE year >= RANGEVALUE(B1) "
      "ORDER BY title LIMIT 8\")";
  for (auto _ : state) {
    (void)ds.SetCellAt(sheet, 2, 1, formula);
    ds.Pump();
    benchmark::DoNotOptimize(ds.GetValueAt(sheet, 2, 1));
    state.PauseTiming();
    (void)ds.SetCellAt(sheet, 2, 1, "");  // reset for the next iteration
    ds.Pump();
    state.ResumeTiming();
  }
  // Block-level cost of one DBSQL evaluation against the database's shared
  // pager pool (all three relations draw from it).
  storage::Pager& pager = ds.db().pager();
  pager.BeginEpoch();
  storage::PagerStats before = pager.stats();
  auto t0 = std::chrono::steady_clock::now();
  (void)ds.SetCellAt(sheet, 2, 1, formula);
  ds.Pump();
  auto t1 = std::chrono::steady_clock::now();
  double op_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          t1 - t0)
          .count();
  state.counters["op_ms"] = op_ms;
  state.counters["rows_per_s"] =
      op_ms > 0 ? static_cast<double>(movies) / (op_ms / 1000.0) : 0.0;
  state.counters["pages_read"] = static_cast<double>(pager.EpochPagesRead());
  state.counters["pages_written"] =
      static_cast<double>(pager.EpochPagesWritten());
  state.counters["resident_pages"] =
      static_cast<double>(pager.resident_pages());
  ReportPoolCountersAndJson(
      state, pager, "fig2a_dbsql",
      "DbsqlJoinWithRangeValue/" + std::to_string(movies), before,
      {{"op_ms", op_ms},
       {"rows_per_s", state.counters["rows_per_s"]},
       {"pages_read", state.counters["pages_read"]},
       {"pages_written", state.counters["pages_written"]},
       {"resident_pages", state.counters["resident_pages"]}});
  state.SetLabel(std::to_string(movies) + " movies");
}
BENCHMARK(BM_Fig2a_DbsqlJoinWithRangeValue)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_Fig2a_ReparameterizeViaCellEdit(benchmark::State& state) {
  size_t movies = static_cast<size_t>(state.range(0));
  DataSpreadOptions opts;
  opts.auto_pump = false;
  DataSpread ds(opts);
  LoadMovieWorkload(&ds.db(), movies);
  Sheet* sheet = ds.AddSheet("S").ValueOrDie();
  (void)ds.SetCellAt(sheet, 0, 1, "1980");
  (void)ds.SetCellAt(
      sheet, 2, 1,
      "=DBSQL(\"SELECT title FROM movies WHERE year >= RANGEVALUE(B1) "
      "ORDER BY title LIMIT 8\")");
  ds.Pump();
  int year = 1960;
  for (auto _ : state) {
    year = 1960 + (year - 1959) % 40;  // vary the parameter each iteration
    (void)ds.SetCellAt(sheet, 0, 1, std::to_string(year));
    ds.Pump();
    benchmark::DoNotOptimize(ds.GetValueAt(sheet, 2, 1));
  }
  state.SetLabel(std::to_string(movies) + " movies");
}
BENCHMARK(BM_Fig2a_ReparameterizeViaCellEdit)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Per-edit cost against table size (DESIGN.md §6c): one keyed cell edit in
// a bound table under a SUM cell and a GROUP BY … ORDER BY spill, plus the
// Pump that brings the sheet up to date. The cells fold each edit's delta
// instead of re-running, so `op_ms` (the fastest of the fixed iteration
// count, in process) stays flat from 20k to 1M rows and `dbsql_execs` (DBSQL
// executions per edit) is 0 — both gated in ci/check.sh. One invocation per
// size (fixed iterations): the load is not repeated for calibration.
void BM_Fig2a_EditUnderAggregateCells(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  DataSpreadOptions opts;
  opts.auto_pump = false;
  DataSpread ds(opts);
  Table* table =
      ds.db()
          .CreateTable("t", Schema({ColumnDef{"id", DataType::kInt, true},
                                    ColumnDef{"grp", DataType::kInt, false},
                                    ColumnDef{"qty", DataType::kInt, false}}))
          .ValueOrDie();
  for (size_t i = 0; i < rows; ++i) {
    const auto k = static_cast<int64_t>(i);
    (void)table->AppendRow(
        {Value::Int(k), Value::Int(k % 16), Value::Int(k * 7919 % 1000)});
  }
  Sheet* sheet = ds.AddSheet("S").ValueOrDie();
  (void)ds.ImportTable("S", "A1", "t");  // columns A–C, data from row 2
  (void)ds.SetCellAt(sheet, 0, 4, "=DBSQL(\"SELECT SUM(qty) FROM t\")");
  (void)ds.SetCellAt(sheet, 2, 4,
                     "=DBSQL(\"SELECT grp, SUM(qty) FROM t GROUP BY grp "
                     "ORDER BY grp\")");
  ds.Pump();
  const InterfaceManager& im = ds.interface_manager();
  const uint64_t executions = im.dbsql_executions();
  double best_ms = std::numeric_limits<double>::infinity();
  int64_t edits = 0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    (void)ds.SetCellAt(sheet, 1 + edits % 100, 2, std::to_string(edits % 997));
    ds.Pump();
    auto t1 = std::chrono::steady_clock::now();
    best_ms = std::min(
        best_ms,
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    ++edits;
  }
  const double dbsql_execs =
      static_cast<double>(im.dbsql_executions() - executions) /
      static_cast<double>(std::max<int64_t>(edits, 1));
  state.counters["op_ms"] = best_ms;
  state.counters["dbsql_execs"] = dbsql_execs;
  AppendBenchJsonLine(
      "fig2a_dbsql", "EditUnderAggregateCells/" + std::to_string(rows),
      {{"op_ms", best_ms},
       {"dbsql_execs", dbsql_execs},
       {"iterations", static_cast<double>(edits)},
       {"nproc", static_cast<double>(std::thread::hardware_concurrency())},
       {"threads", static_cast<double>(ds.db().exec_options().num_threads)}});
  state.SetLabel(std::to_string(rows) + " rows");
}
BENCHMARK(BM_Fig2a_EditUnderAggregateCells)
    ->Arg(20000)
    ->Arg(1000000)
    ->Iterations(200)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dataspread::bench
