// The workload the paper's presentational storage argument is really about:
// a user scrolls through a big table (sequential full scan) while the
// application keeps touching a small hot set (point lookups into the rows
// backing the visible pane, indexes, headers). Under the PR 2 clock-only
// policy a scan through a small pool flushes the hot set over and over; the
// scan-resistant ring (DESIGN.md §5a "Scan resistance & cursors") routes the
// scan's pages through a dedicated FIFO so hot-set faults stay flat.
//
// Each benchmark interleaves chunked GatherRows scans with batches of hot-set
// point lookups behind a 64-frame pool and reports
//   hot_faults  — demand faults incurred by the point-lookup batches alone
//                 (the number the eviction policy is judged on),
//   faults / readaheads / hit_rate — the physical traffic of the whole run.
// The *_Clock variants disable scan resistance + readahead (the PR 2
// baseline policy) so every BENCH_mixed_workload.json snapshot carries its
// own A/B; ci/check.sh gates on the scan-resistant hot_faults budget and on
// the >= 2x policy win.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <vector>

#include "storage/table_storage.h"
#include "workloads.h"

namespace dataspread {
namespace {

using bench::PagerConfigFromEnv;

constexpr size_t kCols = 8;
constexpr size_t kRowsPerPage =
    storage::Pager::kSlotsPerPage / kCols;  // 32 row-major tuples per page
constexpr size_t kScanChunkRows = 1024;
constexpr size_t kHotPages = 24;  // hot set: fits the pool beside the ring
constexpr size_t kHotRows = kHotPages * kRowsPerPage;
constexpr size_t kLookupsPerChunk = 64;

std::unique_ptr<TableStorage> MakeLoaded(StorageModel model, size_t rows,
                                         size_t pool_cap,
                                         bool scan_resistant) {
  storage::PagerConfig config = PagerConfigFromEnv(pool_cap);
  config.scan_resistant = scan_resistant;
  config.readahead = scan_resistant;
  auto s = CreateStorage(model, kCols, nullptr, config);
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

struct MixedResult {
  int64_t checksum = 0;
  uint64_t hot_faults = 0;  // demand faults during point-lookup batches
};

/// One pass: chunked full scan, a batch of hot point lookups after every
/// chunk. The hot block sits in the middle of the table so the scan streams
/// straight through it.
MixedResult RunMixedPass(TableStorage& s, size_t rows, std::mt19937& rng) {
  const size_t hot_start = (rows / 2 / kRowsPerPage) * kRowsPerPage;
  // stats() returns a snapshot by value (it merges backend counters), so
  // the fault delta brackets each lookup batch with two snapshots.
  MixedResult result;
  std::vector<size_t> columns(kCols);
  for (size_t c = 0; c < kCols; ++c) columns[c] = c;
  std::vector<std::vector<Value>> values(kCols);
  std::vector<std::vector<Value>*> out;
  for (std::vector<Value>& v : values) out.push_back(&v);
  std::vector<size_t> slots;
  for (size_t i = 0; i < rows; i += kScanChunkRows) {
    size_t n = std::min(kScanChunkRows, rows - i);
    slots.resize(n);
    for (size_t k = 0; k < n; ++k) slots[k] = i + k;
    for (std::vector<Value>& v : values) v.clear();
    (void)s.GatherRows(slots.data(), n, columns, out.data());
    int64_t chunk_sum = 0;
    for (const Value& v : values[0]) chunk_sum += v.int_value();
    result.checksum += chunk_sum;
    uint64_t faults_before = s.pager().stats().faults;
    for (size_t k = 0; k < kLookupsPerChunk; ++k) {
      size_t row = hot_start + rng() % kHotRows;
      result.checksum += s.Get(row, rng() % kCols).ValueOrDie().int_value();
    }
    result.hot_faults += s.pager().stats().faults - faults_before;
  }
  return result;
}

void RunMixed(benchmark::State& state, StorageModel model,
              bool scan_resistant) {
  size_t rows = static_cast<size_t>(state.range(0));
  size_t pool = static_cast<size_t>(state.range(1));
  auto s = MakeLoaded(model, rows, pool, scan_resistant);
  storage::Pager& pager = s->pager();
  std::mt19937 rng(29);
  MixedResult last;
  for (auto _ : state) {
    last = RunMixedPass(*s, rows, rng);
    benchmark::DoNotOptimize(last.checksum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
  state.counters["hot_faults"] = static_cast<double>(last.hot_faults);

  // Measured pass outside the timing loop, accounting on, for the JSON line.
  pager.set_accounting_enabled(true);
  pager.BeginEpoch();
  storage::PagerStats before = pager.stats();
  auto pass_start = std::chrono::steady_clock::now();
  MixedResult measured = RunMixedPass(*s, rows, rng);
  state.counters["pass_ms"] =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - pass_start)
          .count();
  state.counters["hot_faults"] = static_cast<double>(measured.hot_faults);
  state.counters["pages_read"] = static_cast<double>(pager.EpochPagesRead());
  const char* policy = scan_resistant ? "scanres" : "clock";
  bench::ReportPoolCountersAndJson(
      state, pager, "mixed_workload",
      "MixedScanPoint/" + std::string(StorageModelName(model)) + "/" +
          std::to_string(rows) + "/pool" +
          std::to_string(pager.max_resident_pages()) + "/" + policy,
      before,
      {{"hot_faults", state.counters["hot_faults"]},
       {"pages_read", state.counters["pages_read"]},
       {"hot_pages", static_cast<double>(kHotPages)},
       {"pass_ms", state.counters["pass_ms"]}});
  state.SetLabel(std::string(StorageModelName(model)) + ", pool=" +
                 std::to_string(pager.max_resident_pages()) + ", " + policy);
}

void BM_Mixed_ScanWithHotLookups_Row_Clock(benchmark::State& state) {
  RunMixed(state, StorageModel::kRow, /*scan_resistant=*/false);
}
void BM_Mixed_ScanWithHotLookups_Row_ScanResistant(benchmark::State& state) {
  RunMixed(state, StorageModel::kRow, /*scan_resistant=*/true);
}
void BM_Mixed_ScanWithHotLookups_Hybrid_Clock(benchmark::State& state) {
  RunMixed(state, StorageModel::kHybrid, /*scan_resistant=*/false);
}
void BM_Mixed_ScanWithHotLookups_Hybrid_ScanResistant(
    benchmark::State& state) {
  RunMixed(state, StorageModel::kHybrid, /*scan_resistant=*/true);
}
BENCHMARK(BM_Mixed_ScanWithHotLookups_Row_Clock)
    ->Args({200000, 64})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Mixed_ScanWithHotLookups_Row_ScanResistant)
    ->Args({200000, 64})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Mixed_ScanWithHotLookups_Hybrid_Clock)
    ->Args({200000, 64})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Mixed_ScanWithHotLookups_Hybrid_ScanResistant)
    ->Args({200000, 64})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dataspread
