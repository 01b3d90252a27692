// Experiment A1 (design ablation, DESIGN.md §4): ROM vs COM vs RCV vs hybrid
// attribute groups across the access patterns the unified system needs —
// full scans (queries), point tuple reads (pane fill), point updates (sync),
// row appends (imports), and sparse data. All tables honor the
// DS_MAX_RESIDENT_PAGES / DS_SPILL_DIR environment (bounded-pool runs), and
// the BoundedFullScan family drives million-row scans through a 256-frame
// pool explicitly. Every pager-reporting run appends a JSON trajectory line
// (see AppendBenchJsonLine).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <random>
#include <vector>

#include "storage/table_storage.h"
#include "workloads.h"

namespace dataspread {
namespace {

using bench::PagerConfigFromEnv;

constexpr size_t kCols = 8;

std::unique_ptr<TableStorage> MakeLoaded(StorageModel model, size_t rows,
                                         size_t pool_cap = 0) {
  auto s = CreateStorage(model, kCols, nullptr, PagerConfigFromEnv(pool_cap));
  s->pager().set_accounting_enabled(false);
  Row r(kCols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t c = 0; c < kCols; ++c) {
      r[c] = Value::Int(static_cast<int64_t>(i * kCols + c));
    }
    (void)s->AppendRow(r);
  }
  return s;
}

/// Reports the pager-measured block I/O of one `op` (run outside the timing
/// loop with accounting re-enabled), the table's resident page footprint,
/// the measured op's buffer-pool hit rate, and the physical fault/eviction/
/// spill traffic of the whole run; also appends the JSON trajectory line for
/// this bench run.
void ReportPagerCounters(benchmark::State& state, const std::string& run,
                         TableStorage& s, const std::function<void()>& op) {
  storage::Pager& pager = s.pager();
  pager.set_accounting_enabled(true);
  pager.BeginEpoch();
  storage::PagerStats before = pager.stats();
  auto op_start = std::chrono::steady_clock::now();
  op();
  state.counters["op_ms"] =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - op_start)
          .count();
  state.counters["pages_read"] = static_cast<double>(pager.EpochPagesRead());
  state.counters["pages_written"] =
      static_cast<double>(pager.EpochPagesWritten());
  state.counters["resident_pages"] =
      static_cast<double>(pager.resident_pages());
  bench::ReportPoolCountersAndJson(
      state, pager, "storage_models", run, before,
      {{"pages_read", state.counters["pages_read"]},
       {"pages_written", state.counters["pages_written"]},
       {"resident_pages", state.counters["resident_pages"]},
       {"op_ms", state.counters["op_ms"]}});
}

/// Full scan through the GatherRows (PageCursor) bulk read, in executor-
/// sized chunks: every column of every tuple is copied into reused column
/// vectors, one page pin per data page per chunk.
int64_t ScanAll(TableStorage& s, size_t rows) {
  constexpr size_t kChunk = 1024;
  std::vector<size_t> columns(s.num_columns());
  for (size_t c = 0; c < columns.size(); ++c) columns[c] = c;
  std::vector<std::vector<Value>> values(columns.size());
  std::vector<std::vector<Value>*> out;
  for (std::vector<Value>& v : values) out.push_back(&v);
  std::vector<size_t> slots;
  int64_t sum = 0;
  for (size_t start = 0; start < rows; start += kChunk) {
    size_t n = std::min(kChunk, rows - start);
    slots.resize(n);
    for (size_t k = 0; k < n; ++k) slots[k] = start + k;
    for (std::vector<Value>& v : values) v.clear();
    (void)s.GatherRows(slots.data(), n, columns, out.data());
    for (const Value& v : values[0]) sum += v.int_value();
  }
  return sum;
}

void RunScan(benchmark::State& state, StorageModel model) {
  size_t rows = static_cast<size_t>(state.range(0));
  auto s = MakeLoaded(model, rows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScanAll(*s, rows));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
  ReportPagerCounters(
      state,
      "FullScan/" + std::string(StorageModelName(model)) + "/" +
          std::to_string(rows),
      *s, [&] { benchmark::DoNotOptimize(ScanAll(*s, rows)); });
  state.SetLabel(StorageModelName(model));
}

// The paper's billion-cell premise: the same full scan, but the table lives
// behind a genuinely bounded pool (default 256 frames for a ~31k-page
// million-row heap), so cold pages are spilled and faulted back for real.
void RunBoundedScan(benchmark::State& state, StorageModel model) {
  size_t rows = static_cast<size_t>(state.range(0));
  size_t pool = static_cast<size_t>(state.range(1));
  auto s = MakeLoaded(model, rows, pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScanAll(*s, rows));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
  // The run key records the cap actually applied (DS_MAX_RESIDENT_PAGES
  // overrides the benchmark arg), so trajectory lines never mislabel runs.
  ReportPagerCounters(
      state,
      "BoundedFullScan/" + std::string(StorageModelName(model)) + "/" +
          std::to_string(rows) + "/pool" +
          std::to_string(s->pager().max_resident_pages()),
      *s, [&] { benchmark::DoNotOptimize(ScanAll(*s, rows)); });
  state.SetLabel(std::string(StorageModelName(model)) + ", pool=" +
                 std::to_string(s->pager().max_resident_pages()));
}

void RunPointUpdate(benchmark::State& state, StorageModel model) {
  size_t rows = static_cast<size_t>(state.range(0));
  auto s = MakeLoaded(model, rows);
  std::mt19937 rng(3);
  for (auto _ : state) {
    (void)s->Set(rng() % rows, rng() % kCols, Value::Int(1));
  }
  ReportPagerCounters(state,
                      "PointUpdate/" + std::string(StorageModelName(model)) +
                          "/" + std::to_string(rows),
                      *s,
                      [&] { (void)s->Set(rng() % rows, 0, Value::Int(1)); });
  state.SetLabel(StorageModelName(model));
}

void RunAppend(benchmark::State& state, StorageModel model) {
  auto s = CreateStorage(model, kCols);
  s->pager().set_accounting_enabled(false);
  Row r(kCols, Value::Int(7));
  for (auto _ : state) {
    (void)s->AppendRow(r);
  }
  ReportPagerCounters(state,
                      "Append/" + std::string(StorageModelName(model)), *s,
                      [&] { (void)s->AppendRow(r); });
  state.SetLabel(StorageModelName(model));
}

void RunSparseColumnScan(benchmark::State& state, StorageModel model) {
  // 90% NULL data: RCV's home turf.
  size_t rows = static_cast<size_t>(state.range(0));
  auto s = CreateStorage(model, kCols);
  s->pager().set_accounting_enabled(false);
  std::mt19937 rng(5);
  Row r(kCols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t c = 0; c < kCols; ++c) {
      r[c] = (rng() % 10 == 0) ? Value::Int(1) : Value::Null();
    }
    (void)s->AppendRow(r);
  }
  for (auto _ : state) {
    int64_t non_null = 0;
    for (size_t i = 0; i < rows; ++i) {
      if (!s->Get(i, 2).ValueOrDie().is_null()) ++non_null;
    }
    benchmark::DoNotOptimize(non_null);
  }
  ReportPagerCounters(
      state,
      "SparseColumnScan/" + std::string(StorageModelName(model)) + "/" +
          std::to_string(rows),
      *s, [&] {
        for (size_t i = 0; i < rows; ++i) (void)s->Get(i, 2);
      });
  state.SetLabel(StorageModelName(model));
}

#define DS_STORAGE_BENCH(runner, name)                                  \
  void BM_Storage_##name##_Row(benchmark::State& s) {                   \
    runner(s, StorageModel::kRow);                                      \
  }                                                                     \
  void BM_Storage_##name##_Column(benchmark::State& s) {                \
    runner(s, StorageModel::kColumn);                                   \
  }                                                                     \
  void BM_Storage_##name##_Rcv(benchmark::State& s) {                   \
    runner(s, StorageModel::kRcv);                                      \
  }                                                                     \
  void BM_Storage_##name##_Hybrid(benchmark::State& s) {                \
    runner(s, StorageModel::kHybrid);                                   \
  }                                                                     \
  BENCHMARK(BM_Storage_##name##_Row)->Arg(100000);                      \
  BENCHMARK(BM_Storage_##name##_Column)->Arg(100000);                   \
  BENCHMARK(BM_Storage_##name##_Rcv)->Arg(100000);                      \
  BENCHMARK(BM_Storage_##name##_Hybrid)->Arg(100000)

DS_STORAGE_BENCH(RunScan, FullScan);
DS_STORAGE_BENCH(RunPointUpdate, PointUpdate);
DS_STORAGE_BENCH(RunAppend, Append);
DS_STORAGE_BENCH(RunSparseColumnScan, SparseColumnScan);

// Million-row scans through a few hundred frames: args are {rows, pool cap}.
void BM_Storage_BoundedFullScan_Row(benchmark::State& s) {
  RunBoundedScan(s, StorageModel::kRow);
}
void BM_Storage_BoundedFullScan_Hybrid(benchmark::State& s) {
  RunBoundedScan(s, StorageModel::kHybrid);
}
BENCHMARK(BM_Storage_BoundedFullScan_Row)
    ->Args({1000000, 256})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Storage_BoundedFullScan_Hybrid)
    ->Args({1000000, 256})
    ->Unit(benchmark::kMillisecond);

// The legacy row-at-a-time path (GetRow per row: one chain hash lookup per
// tuple, no cursor, no readahead hint) over the same bounded table — kept so
// every BENCH_storage_models.json snapshot records the cursor path's
// wall-time and fault win against it.
void BM_Storage_BoundedFullScanRowAtATime_Row(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  size_t pool = static_cast<size_t>(state.range(1));
  auto s = MakeLoaded(StorageModel::kRow, rows, pool);
  for (auto _ : state) {
    int64_t sum = 0;
    for (size_t i = 0; i < rows; ++i) {
      Row r = s->GetRow(i).ValueOrDie();
      sum += r[0].int_value();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
  ReportPagerCounters(
      state,
      "BoundedFullScanRowAtATime/row/" + std::to_string(rows) + "/pool" +
          std::to_string(s->pager().max_resident_pages()),
      *s, [&] {
        for (size_t i = 0; i < rows; ++i) (void)s->GetRow(i);
      });
  state.SetLabel("row (GetRow loop), pool=" +
                 std::to_string(s->pager().max_resident_pages()));
}
BENCHMARK(BM_Storage_BoundedFullScanRowAtATime_Row)
    ->Args({1000000, 256})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dataspread
