// Execution-pipeline bench: the serial batch pipeline against the
// morsel-parallel leaf, over identical plans and data. Series:
// scan→filter→aggregate (serial vs parallel at 1/2/4 threads) and the
// Figure-2a join shape at 1k/10k/100k rows, unbounded and bounded (64-frame)
// pools. The recorded op_ms of the "/batch/" and "/parN/" runs back the
// ci/check.sh exec perf gates (parallel ≥1.8x over batch at 4 threads on
// ≥4 cores; par1 within 10% of batch; absolute ceilings). The "/batch/"
// join runs time a cold build: every execution follows a write to both
// build tables. The "/warm/" join runs time the retained-build path
// (DESIGN.md §6a "Build reuse") and back the count gate: 0 builds warm,
// exactly 1 after one build table is written.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <thread>

#include "workloads.h"

namespace dataspread::bench {
namespace {

/// One timed evaluation of `query` after the benchmark loop, bracketed with
/// pager epoch + stats snapshots, reported as op_ms / rows_per_s (throughput
/// in *input* rows of the driving relation).
/// `extra` fields are appended to the JSON line.
void ReportTimedQuery(
    benchmark::State& state, Database& db, const std::string& bench,
    const std::string& run, const std::string& query, size_t input_rows,
    std::vector<std::pair<std::string, double>> extra = {}) {
  storage::Pager& pager = db.pager();
  pager.BeginEpoch();
  storage::PagerStats before = pager.stats();
  uint64_t builds = db.join_builds();
  auto t0 = std::chrono::steady_clock::now();
  auto rs = db.Execute(query);
  auto t1 = std::chrono::steady_clock::now();
  if (!rs.ok()) {
    state.SkipWithError(rs.status().message().c_str());
    return;
  }
  double op_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          t1 - t0)
          .count();
  double rows_per_s =
      op_ms > 0 ? static_cast<double>(input_rows) / (op_ms / 1000.0) : 0.0;
  state.counters["op_ms"] = op_ms;
  state.counters["rows_per_s"] = rows_per_s;
  state.counters["pages_read"] = static_cast<double>(pager.EpochPagesRead());
  size_t batch = EffectiveBatchSize(db.exec_options());
  size_t threads = db.exec_options().num_threads;  // 0 = serial pipeline
  state.counters["join_builds"] =
      static_cast<double>(db.join_builds() - builds);
  std::vector<std::pair<std::string, double>> fields = {
      {"op_ms", op_ms},
      {"rows_per_s", rows_per_s},
      {"rows", static_cast<double>(input_rows)},
      {"batch_size", static_cast<double>(batch)},
      {"threads", static_cast<double>(threads)},
      {"nproc", static_cast<double>(std::thread::hardware_concurrency())},
      {"pages_read", state.counters["pages_read"]},
      {"join_builds", state.counters["join_builds"]}};
  fields.insert(fields.end(), extra.begin(), extra.end());
  ReportPoolCountersAndJson(state, pager, bench, run, before,
                            std::move(fields));
}

/// Args: {rows, pool cap (0 = unbounded), threads (0 = serial)}.
std::string ModeLabel(const benchmark::State& state) {
  return state.range(2) != 0 ? "par" + std::to_string(state.range(2))
                             : "batch";
}

std::string RunName(const std::string& series, const benchmark::State& state) {
  std::string run = series + "/" + ModeLabel(state) + "/" +
                    std::to_string(state.range(0));
  if (state.range(1) != 0) run += "/pool" + std::to_string(state.range(1));
  return run;
}

DatabaseOptions OptionsFor(const benchmark::State& state) {
  DatabaseOptions opts;
  opts.pager = PagerConfigFromEnv(static_cast<size_t>(state.range(1)));
  opts.exec.batch_size = ExecBatchSizeFromEnv();
  opts.exec.num_threads =
      ExecThreadsFromEnv(static_cast<size_t>(state.range(2)));
  return opts;
}

void BM_ScanFilterAggregate(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Database db(OptionsFor(state));
  LoadWideTable(&db, "t", rows);
  const std::string query =
      "SELECT COUNT(*), SUM(amount), AVG(amount) FROM t "
      "WHERE amount >= 25.0 AND id % 4 <> 0";
  for (auto _ : state) {
    auto rs = db.Execute(query);
    if (!rs.ok()) {
      state.SkipWithError(rs.status().message().c_str());
      return;
    }
    benchmark::DoNotOptimize(rs.value().rows);
  }
  ReportTimedQuery(state, db, "exec_pipeline",
                   RunName("ScanFilterAggregate", state), query, rows);
  state.SetLabel(std::to_string(rows) + " rows, " + ModeLabel(state));
}
BENCHMARK(BM_ScanFilterAggregate)
    ->Args({1000, 0, 0})
    ->Args({10000, 0, 0})
    ->Args({10000, 0, 4})
    ->Args({100000, 0, 0})
    ->Args({100000, 0, 1})
    ->Args({100000, 0, 2})
    ->Args({100000, 0, 4})
    ->Args({100000, 64, 0})
    ->Args({100000, 64, 4})
    ->Unit(benchmark::kMillisecond);

// The Figure-2a join shape (three-relation NATURAL JOIN + filter + top-k),
// minus the spreadsheet wrapping: pure engine. Joins are not
// morsel-eligible (the parallel leaf covers single-table shapes), so these
// families record threads = 0.
const char* const kJoinTopKQuery =
    "SELECT title, name FROM movies NATURAL JOIN movies2actors "
    "NATURAL JOIN actors WHERE year >= 1980 ORDER BY title LIMIT 8";

/// Advances a build table's version with a same-value write to row 0, so
/// the next join cannot reuse its retained build.
void TouchTable(Database& db, const std::string& name) {
  Table* table = db.catalog().GetTable(name).ValueOrDie();
  (void)table->UpdateAt(0, 1, table->GetAt(0, 1).ValueOrDie());
}

void TouchBuildTables(Database& db) {
  TouchTable(db, "movies2actors");
  TouchTable(db, "actors");
}

/// Cold: every execution, timed ones included, rebuilds both build tables.
void BM_JoinFilterTopK(benchmark::State& state) {
  size_t movies = static_cast<size_t>(state.range(0));
  Database db(OptionsFor(state));
  LoadMovieWorkload(&db, movies);
  for (auto _ : state) {
    state.PauseTiming();
    TouchBuildTables(db);
    state.ResumeTiming();
    auto rs = db.Execute(kJoinTopKQuery);
    if (!rs.ok()) {
      state.SkipWithError(rs.status().message().c_str());
      return;
    }
    benchmark::DoNotOptimize(rs.value().rows);
  }
  TouchBuildTables(db);
  ReportTimedQuery(state, db, "exec_pipeline", RunName("JoinFilterTopK", state),
                   kJoinTopKQuery, movies);
  state.SetLabel(std::to_string(movies) + " movies, " + ModeLabel(state));
}
BENCHMARK(BM_JoinFilterTopK)
    ->Args({1000, 0, 0})
    ->Args({10000, 0, 0})
    ->Args({100000, 0, 0})
    ->Args({100000, 64, 0})
    ->Unit(benchmark::kMillisecond);

/// Warm: the build tables never change, so every execution after the first
/// reuses both retained builds and pays only the probe side. The row also
/// records `rebuilds_after_write`: the builds one execution makes after a
/// write to one build table (actors).
void BM_JoinFilterTopKWarm(benchmark::State& state) {
  size_t movies = static_cast<size_t>(state.range(0));
  Database db;
  LoadMovieWorkload(&db, movies);
  auto run = [&] {
    auto rs = db.Execute(kJoinTopKQuery);
    if (!rs.ok()) state.SkipWithError(rs.status().message().c_str());
    return rs.ok();
  };
  if (!run()) return;
  for (auto _ : state) {
    if (!run()) return;
  }
  TouchTable(db, "actors");
  uint64_t builds = db.join_builds();
  if (!run()) return;
  double rebuilds = static_cast<double>(db.join_builds() - builds);
  ReportTimedQuery(state, db, "exec_pipeline",
                   "JoinFilterTopK/warm/" + std::to_string(movies),
                   kJoinTopKQuery, movies, {{"rebuilds_after_write", rebuilds}});
  state.SetLabel(std::to_string(movies) + " movies, warm");
}
BENCHMARK(BM_JoinFilterTopKWarm)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dataspread::bench
