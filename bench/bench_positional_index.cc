// Experiment C3 (paper §3): "We introduce a new type of index, positional,
// which makes interface-oriented operations, e.g., ordered presentation,
// efficient." Series: get-by-position / insert-at / erase-at / window fetch,
// counted B+-tree vs the shifting-array baseline, vs element count; and the
// same edit on a durable table, where the display order is made durable by
// one logged record per edit (BENCH_positional.json, DS_BENCH_JSON_DIR).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <thread>

#include "catalog/table.h"
#include "index/offset_array.h"
#include "index/positional_index.h"
#include "workloads.h"

namespace dataspread {
namespace {

template <typename Index>
Index MakeFilled(size_t n) {
  std::vector<uint64_t> payloads(n);
  for (size_t i = 0; i < n; ++i) payloads[i] = i;
  Index idx;
  idx.Build(payloads);
  return idx;
}

template <typename Index>
void RunRandomGet(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Index idx = MakeFilled<Index>(n);
  std::mt19937 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.Get(rng() % n));
  }
  state.SetLabel(std::to_string(n) + " elements");
}

template <typename Index>
void RunRandomInsertErase(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Index idx = MakeFilled<Index>(n);
  std::mt19937 rng(7);
  for (auto _ : state) {
    size_t pos = rng() % (idx.size() + 1);
    (void)idx.InsertAt(pos, pos);
    (void)idx.EraseAt(rng() % idx.size());
  }
  state.SetLabel(std::to_string(n) + " elements");
}

template <typename Index>
void RunWindowFetch(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Index idx = MakeFilled<Index>(n);
  std::mt19937 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.GetRange(rng() % n, 50));
  }
  state.SetLabel(std::to_string(n) + " elements, 50-row window");
}

void BM_Positional_Get_Tree(benchmark::State& s) {
  RunRandomGet<PositionalIndex>(s);
}
void BM_Positional_Get_Array(benchmark::State& s) {
  RunRandomGet<OffsetArray>(s);
}
void BM_Positional_InsertErase_Tree(benchmark::State& s) {
  RunRandomInsertErase<PositionalIndex>(s);
}
void BM_Positional_InsertErase_Array(benchmark::State& s) {
  RunRandomInsertErase<OffsetArray>(s);
}
void BM_Positional_Window_Tree(benchmark::State& s) {
  RunWindowFetch<PositionalIndex>(s);
}
void BM_Positional_Window_Array(benchmark::State& s) {
  RunWindowFetch<OffsetArray>(s);
}

BENCHMARK(BM_Positional_Get_Tree)->Arg(1000)->Arg(100000)->Arg(1000000);
BENCHMARK(BM_Positional_Get_Array)->Arg(1000)->Arg(100000)->Arg(1000000);
BENCHMARK(BM_Positional_InsertErase_Tree)
    ->Arg(1000)->Arg(100000)->Arg(1000000);
BENCHMARK(BM_Positional_InsertErase_Array)
    ->Arg(1000)->Arg(100000)->Arg(1000000);
BENCHMARK(BM_Positional_Window_Tree)->Arg(100000)->Arg(1000000);
BENCHMARK(BM_Positional_Window_Array)->Arg(100000)->Arg(1000000);

// Bulk build cost (table load path).
void BM_Positional_BulkBuild(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> payloads(n);
  for (size_t i = 0; i < n; ++i) payloads[i] = i;
  for (auto _ : state) {
    PositionalIndex idx;
    idx.Build(payloads);
    benchmark::DoNotOptimize(idx.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Positional_BulkBuild)->Arg(1000000)->Unit(benchmark::kMillisecond);

// Durable mid-sheet edits: on an N-row durable hybrid table, insert a row at
// display position N/2 and delete it again. Per edit the table logs one
// display-order record, one rid-file slot and the data row — nothing that
// grows with N. op_ms is the fastest edit; wal_bytes and slot_writes are
// per-edit means over the measured iterations, after one warm-up pair has
// logged the touched pages' full images. ci/check.sh gates wal_bytes at 1M
// rows <= 2x at 10k.
void BM_Positional_DurableMidSheetEdit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const char* dir = std::getenv("DS_SPILL_DIR");
  const std::string base = std::string(dir != nullptr ? dir : "/tmp") +
                           "/ds-bench-positional-" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(n);
  storage::PagerConfig config;
  config.spill_path = base + ".pages";
  config.wal_path = base + ".wal";
  config.durable_spill = true;
  config.wal_auto_checkpoint_bytes = 64u << 20;  // bounds the load's log
  std::remove(config.spill_path.c_str());
  std::remove(config.wal_path.c_str());
  {
    storage::Pager pager(config);
    auto table =
        Table::Create("t",
                      Schema({ColumnDef{"id", DataType::kInt, false},
                              ColumnDef{"name", DataType::kText, false},
                              ColumnDef{"qty", DataType::kInt, false}}),
                      StorageModel::kHybrid, &pager)
            .ValueOrDie();
    for (size_t i = 0; i < n; ++i) {
      const auto k = static_cast<int64_t>(i);
      (void)table->AppendRow(
          {Value::Int(k), Value::Text("r" + std::to_string(k)),
           Value::Int(k % 97)});
    }
    const size_t mid = n / 2;
    auto edit_pair = [&] {
      (void)table->InsertRowAt(mid, {Value::Int(-1), Value::Text("mid"),
                                     Value::Int(0)});
      (void)table->DeleteRowAt(mid);
    };
    pager.FlushAll();
    edit_pair();
    const storage::PagerStats before = pager.stats();
    double best_ms = std::numeric_limits<double>::infinity();
    int64_t pairs = 0;
    for (auto _ : state) {
      auto t0 = std::chrono::steady_clock::now();
      edit_pair();
      auto t1 = std::chrono::steady_clock::now();
      best_ms = std::min(
          best_ms,
          std::chrono::duration<double, std::milli>(t1 - t0).count() / 2);
      ++pairs;
    }
    const storage::PagerStats after = pager.stats();
    const double edits = static_cast<double>(std::max<int64_t>(2 * pairs, 1));
    const double wal_bytes =
        static_cast<double>(after.wal_bytes - before.wal_bytes) / edits;
    const double slot_writes =
        static_cast<double>(after.slot_writes - before.slot_writes) / edits;
    state.counters["op_ms"] = best_ms;
    state.counters["wal_bytes"] = wal_bytes;
    state.counters["slot_writes"] = slot_writes;
    bench::AppendBenchJsonLine(
        "positional", "DurableMidSheetEdit/" + std::to_string(n),
        {{"op_ms", best_ms},
         {"wal_bytes", wal_bytes},
         {"slot_writes", slot_writes},
         {"iterations", edits},
         {"nproc", static_cast<double>(std::thread::hardware_concurrency())},
         {"threads", 0}});
    state.SetLabel(std::to_string(n) + " rows");
  }
  std::remove(config.spill_path.c_str());
  std::remove(config.wal_path.c_str());
}
BENCHMARK(BM_Positional_DurableMidSheetEdit)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Iterations(200)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dataspread
