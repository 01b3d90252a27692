// Experiment C1 (intro claim): spreadsheets die "beyond a few 100s of
// thousands of rows"; DataSpread's pane stays responsive because "the burden
// of supplying or refreshing the current window is placed on the relational
// database". Series: pane-move latency vs table size, DataSpread windowed
// fetch vs an Excel-like baseline that materializes the whole table.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <random>
#include <thread>

#include "workloads.h"

namespace dataspread::bench {
namespace {

void BM_WindowScroll_DataSpreadPane(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  DataSpreadOptions opts;
  opts.auto_pump = false;
  opts.binding_window = 64;
  opts.viewport_rows = 50;
  DataSpread ds(opts);
  LoadWideTable(&ds.db(), "t", rows);
  Sheet* sheet = ds.AddSheet("S").ValueOrDie();
  (void)ds.ImportTable("S", "A1", "t");
  ds.Pump();
  std::mt19937 rng(1);
  for (auto _ : state) {
    int64_t top = static_cast<int64_t>(rng() % rows);
    (void)ds.ScrollTo("S", top, 0);
    ds.Pump();
    benchmark::DoNotOptimize(ds.GetValueAt(sheet, top, 0));
  }
  state.SetLabel(std::to_string(rows) + " rows, random pans");
}
BENCHMARK(BM_WindowScroll_DataSpreadPane)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

// Per-op counts of delta materialization (DESIGN.md §6d): a one-screen hop
// of the pane over an N-row bound table must write and clear exactly one
// screen of rows (50 x width cells), not the 114-row span, and evaluate no
// formula; a back-end UPDATE of one visible bound cell must write that one
// cell. The sheet holds a formula beside the table that reads no bound cell.
// ci/check.sh gates the counts at 10k and 1M rows.
void BM_WindowScroll_DeltaCounts(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  constexpr int64_t kScreen = 50;
  DataSpreadOptions opts;
  opts.auto_pump = false;
  opts.viewport_rows = kScreen;
  DataSpread ds(opts);
  LoadWideTable(&ds.db(), "t", rows);
  Table* table = ds.db().catalog().GetTable("t").ValueOrDie();
  Sheet* sheet = ds.AddSheet("S").ValueOrDie();
  (void)ds.ImportTable("S", "A1", "t");
  (void)ds.SetCellAt(sheet, 0, 8, "5");          // I1
  (void)ds.SetCellAt(sheet, 1, 8, "=I1*2");      // I2
  int64_t top = static_cast<int64_t>(rows / 2);
  (void)ds.ScrollTo("S", top, 0);
  ds.Pump();
  TableBinding* binding = ds.interface_manager().FindBindingAt(sheet, 0, 0);
  const uint64_t written = binding->cells_written();
  const uint64_t cleared = binding->cells_cleared();
  const uint64_t evaluated = ds.engine().cells_evaluated();
  double best_ms = std::numeric_limits<double>::infinity();
  int64_t hops = 0;
  for (auto _ : state) {
    top += hops % 2 == 0 ? kScreen : -kScreen;  // down one screen, back up
    auto t0 = std::chrono::steady_clock::now();
    (void)ds.ScrollTo("S", top, 0);
    ds.Pump();
    auto t1 = std::chrono::steady_clock::now();
    best_ms = std::min(
        best_ms, std::chrono::duration<double, std::milli>(t1 - t0).count());
    ++hops;
  }
  const double n_hops = static_cast<double>(std::max<int64_t>(hops, 1));
  const double hop_written =
      static_cast<double>(binding->cells_written() - written) / n_hops;
  const double hop_cleared =
      static_cast<double>(binding->cells_cleared() - cleared) / n_hops;
  const double hop_evaluated =
      static_cast<double>(ds.engine().cells_evaluated() - evaluated) / n_hops;
  // One back-end UPDATE of a cell the pane shows.
  size_t pos = static_cast<size_t>(top - binding->data_row());
  Value key = table->GetAt(pos, 0).ValueOrDie();
  const uint64_t before_update = binding->cells_written();
  (void)ds.Sql("UPDATE t SET amount = 1.5 WHERE id = " + key.ToSqlLiteral());
  ds.Pump();
  const double update_written =
      static_cast<double>(binding->cells_written() - before_update);
  const double width = static_cast<double>(table->schema().num_columns());
  state.counters["hop_cells_written"] = hop_written;
  state.counters["hop_cells_cleared"] = hop_cleared;
  state.counters["hop_cells_evaluated"] = hop_evaluated;
  state.counters["update_cells_written"] = update_written;
  AppendBenchJsonLine(
      "window_scroll", "DeltaCounts/" + std::to_string(rows),
      {{"op_ms", best_ms},
       {"hop_rows", static_cast<double>(kScreen)},
       {"width", width},
       {"hop_cells_written", hop_written},
       {"hop_cells_cleared", hop_cleared},
       {"hop_cells_evaluated", hop_evaluated},
       {"update_cells_written", update_written},
       {"iterations", static_cast<double>(hops)},
       {"nproc", static_cast<double>(std::thread::hardware_concurrency())},
       {"threads", static_cast<double>(ds.db().exec_options().num_threads)}});
  state.SetLabel(std::to_string(rows) + " rows, one-screen hops");
}
BENCHMARK(BM_WindowScroll_DeltaCounts)
    ->Arg(10000)
    ->Arg(1000000)
    ->Iterations(200)
    ->Unit(benchmark::kMicrosecond);

// Excel-like baseline: every displayed row is a materialized sheet cell, so
// "opening" the data set costs O(table) before the first pan is possible.
void BM_WindowScroll_NaiveFullMaterialization(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  DataSpreadOptions opts;
  opts.auto_pump = false;
  DataSpread ds(opts);
  LoadWideTable(&ds.db(), "t", rows);
  Table* table = ds.db().catalog().GetTable("t").ValueOrDie();
  for (auto _ : state) {
    // Materialize all rows into a fresh sheet (what a classic spreadsheet
    // must do to show the data at all), then "pan" (reads are free after).
    static int gen = 0;
    Sheet* sheet = ds.AddSheet("naive" + std::to_string(gen++)).ValueOrDie();
    table->Scan([&](size_t pos, const Row& row) {
      for (size_t c = 0; c < row.size(); ++c) {
        (void)sheet->SetValue(static_cast<int64_t>(pos) + 1,
                              static_cast<int64_t>(c), row[c]);
      }
      return true;
    });
    benchmark::DoNotOptimize(sheet->cell_count());
    state.PauseTiming();
    (void)ds.workbook().RemoveSheet(sheet->name());
    state.ResumeTiming();
  }
  state.SetLabel(std::to_string(rows) + " rows fully materialized");
}
BENCHMARK(BM_WindowScroll_NaiveFullMaterialization)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// The positional-index window fetch that powers the pane (SQL pushdown path).
void BM_WindowScroll_SqlWindowFetch(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  DataSpreadOptions opts;
  opts.auto_pump = false;
  DataSpread ds(opts);
  LoadWideTable(&ds.db(), "t", rows);
  std::mt19937 rng(1);
  for (auto _ : state) {
    size_t offset = rng() % rows;
    auto rs = ds.Sql("SELECT * FROM t LIMIT 50 OFFSET " +
                     std::to_string(offset));
    benchmark::DoNotOptimize(rs);
  }
  state.SetLabel(std::to_string(rows) + " rows, LIMIT 50 window");
}
BENCHMARK(BM_WindowScroll_SqlWindowFetch)
    ->Arg(1000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace dataspread::bench
