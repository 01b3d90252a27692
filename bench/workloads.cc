#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <random>

#include <unistd.h>

namespace dataspread::bench {

namespace {
const char* kTitleWords[] = {"Blue", "Night", "Iron", "Last", "Silent",
                             "Golden", "Lost", "Wild", "Broken", "Red"};
const char* kNameWords[] = {"Adams", "Brooks", "Chen", "Diaz", "Evans",
                            "Fischer", "Garcia", "Hoffman", "Ito", "Jones"};

/// JSON string escaping for the small label/name strings we emit.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}
}  // namespace

storage::PagerConfig PagerConfigFromEnv(size_t default_cap) {
  storage::PagerConfig config;
  config.max_resident_pages = default_cap;
  if (const char* cap = std::getenv("DS_MAX_RESIDENT_PAGES")) {
    config.max_resident_pages = static_cast<size_t>(std::strtoull(cap, nullptr, 10));
  }
  if (const char* dir = std::getenv("DS_SPILL_DIR")) {
    static int counter = 0;
    config.spill_path = std::string(dir) + "/ds-bench-spill-" +
                        std::to_string(::getpid()) + "-" +
                        std::to_string(counter++) + ".bin";
  }
  return config;
}

size_t ExecBatchSizeFromEnv(size_t default_size) {
  if (const char* b = std::getenv("DS_EXEC_BATCH")) {
    return static_cast<size_t>(std::strtoull(b, nullptr, 10));
  }
  return default_size;
}

size_t ExecThreadsFromEnv(size_t default_threads) {
  if (const char* t = std::getenv("DS_EXEC_THREADS")) {
    return static_cast<size_t>(std::strtoull(t, nullptr, 10));
  }
  return default_threads;
}

namespace {

/// Google Benchmark re-invokes each benchmark function several times while
/// calibrating the iteration count, and every invocation reaches the
/// reporting tail. Writing immediately would record one line per calibration
/// trial; instead lines are keyed by (bench, run), later trials overwrite
/// earlier ones, and everything flushes once at process exit — exactly one
/// (final) record per run per bench execution.
class BenchJsonRegistry {
 public:
  void Record(const std::string& bench, const std::string& run,
              std::string line) {
    for (auto& entry : lines_) {
      if (entry.bench == bench && entry.run == run) {
        entry.line = std::move(line);
        return;
      }
    }
    lines_.push_back({bench, run, std::move(line)});
  }

  ~BenchJsonRegistry() {
    const char* dir = std::getenv("DS_BENCH_JSON_DIR");
    std::string base = std::string(dir != nullptr ? dir : ".") + "/BENCH_";
    for (const auto& entry : lines_) {
      std::FILE* f = std::fopen((base + entry.bench + ".json").c_str(), "ab");
      if (f == nullptr) continue;  // recording must never break a bench run
      std::fputs(entry.line.c_str(), f);
      std::fclose(f);
    }
  }

 private:
  struct Entry {
    std::string bench, run, line;
  };
  std::vector<Entry> lines_;  // insertion order = registration order
};

}  // namespace

void AppendBenchJsonLine(
    const std::string& bench, const std::string& run,
    const std::vector<std::pair<std::string, double>>& fields) {
  static BenchJsonRegistry registry;  // flushed by its destructor at exit
  std::string line = "{\"bench\":\"" + JsonEscape(bench) + "\",\"run\":\"" +
                     JsonEscape(run) + "\"";
  char buf[64];
  for (const auto& [key, value] : fields) {
    // Counters are exact integers (faults, bytes) — keep every digit; only
    // genuinely fractional values (timings) go through floating formatting.
    if (value == static_cast<double>(static_cast<long long>(value))) {
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
    } else {
      std::snprintf(buf, sizeof buf, "%.17g", value);
    }
    line += ",\"" + JsonEscape(key) + "\":" + buf;
  }
  line += "}\n";
  registry.Record(bench, run, std::move(line));
}

double HitRate(const storage::PagerStats& before,
               const storage::PagerStats& after) {
  double accesses =
      static_cast<double>((after.slot_reads - before.slot_reads) +
                          (after.slot_writes - before.slot_writes));
  if (accesses <= 0) return 1.0;
  double faults = static_cast<double>(after.faults - before.faults);
  double served = accesses - faults;
  return served > 0 ? served / accesses : 0.0;
}

void ReportPoolCountersAndJson(
    benchmark::State& state, storage::Pager& pager, const std::string& bench,
    const std::string& run, const storage::PagerStats& before,
    std::vector<std::pair<std::string, double>> fields) {
  const storage::PagerStats& stats = pager.stats();
  auto delta = [](uint64_t after, uint64_t at_start) {
    return static_cast<double>(after - at_start);
  };
  state.counters["faults"] = delta(stats.faults, before.faults);
  state.counters["readaheads"] = delta(stats.readaheads, before.readaheads);
  state.counters["evictions"] = delta(stats.evictions, before.evictions);
  state.counters["spill_bytes"] =
      delta(stats.spill_bytes_written + stats.spill_bytes_read,
            before.spill_bytes_written + before.spill_bytes_read);
  state.counters["hit_rate"] = HitRate(before, stats);
  fields.insert(
      fields.begin(),
      {{"iterations", static_cast<double>(state.iterations())},
       {"pool", static_cast<double>(pager.max_resident_pages())},
       {"faults", state.counters["faults"]},
       {"readaheads", state.counters["readaheads"]},
       {"evictions", state.counters["evictions"]},
       {"scan_evictions", delta(stats.scan_evictions, before.scan_evictions)},
       {"spill_bytes", state.counters["spill_bytes"]},
       {"hit_rate", state.counters["hit_rate"]}});
  AppendBenchJsonLine(bench, run, fields);
}

void LoadMovieWorkload(Database* db, size_t movies, uint32_t seed) {
  std::mt19937 rng(seed);
  auto movies_table =
      db->CreateTable("movies",
                      Schema({ColumnDef{"movieid", DataType::kInt, true},
                              ColumnDef{"title", DataType::kText, false},
                              ColumnDef{"year", DataType::kInt, false}}))
          .ValueOrDie();
  size_t actors = movies / 2 + 1;
  auto actors_table =
      db->CreateTable("actors",
                      Schema({ColumnDef{"actorid", DataType::kInt, true},
                              ColumnDef{"name", DataType::kText, false}}))
          .ValueOrDie();
  auto links_table =
      db->CreateTable("movies2actors",
                      Schema({ColumnDef{"movieid", DataType::kInt, false},
                              ColumnDef{"actorid", DataType::kInt, false}}))
          .ValueOrDie();
  for (size_t i = 0; i < movies; ++i) {
    std::string title = std::string(kTitleWords[rng() % 10]) + " " +
                        kTitleWords[rng() % 10] + " " + std::to_string(i);
    (void)movies_table->AppendRow(
        {Value::Int(static_cast<int64_t>(i)), Value::Text(title),
         Value::Int(static_cast<int64_t>(1950 + rng() % 75))});
  }
  for (size_t i = 0; i < actors; ++i) {
    std::string name = std::string(kNameWords[rng() % 10]) + " " +
                       std::to_string(i);
    (void)actors_table->AppendRow(
        {Value::Int(static_cast<int64_t>(i)), Value::Text(name)});
  }
  for (size_t i = 0; i < movies; ++i) {
    size_t cast = 1 + rng() % 4;
    for (size_t j = 0; j < cast; ++j) {
      (void)links_table->AppendRow(
          {Value::Int(static_cast<int64_t>(i)),
           Value::Int(static_cast<int64_t>(rng() % actors))});
    }
  }
}

void LoadWideTable(Database* db, const std::string& table_name, size_t rows,
                   uint32_t seed) {
  std::mt19937 rng(seed);
  auto table =
      db->CreateTable(table_name,
                      Schema({ColumnDef{"id", DataType::kInt, true},
                              ColumnDef{"v", DataType::kText, false},
                              ColumnDef{"amount", DataType::kReal, false}}))
          .ValueOrDie();
  for (size_t i = 0; i < rows; ++i) {
    (void)table->AppendRow(
        {Value::Int(static_cast<int64_t>(i)),
         Value::Text("row" + std::to_string(i)),
         Value::Real(static_cast<double>(rng() % 10000) / 100.0)});
  }
}

void FillSheetTable(Sheet* sheet, int64_t top, int64_t left, int64_t rows,
                    int64_t cols, bool header, uint32_t seed) {
  std::mt19937 rng(seed);
  int64_t r0 = top;
  if (header) {
    (void)sheet->SetValue(top, left, Value::Text("id"));
    if (cols > 1) (void)sheet->SetValue(top, left + 1, Value::Text("name"));
    for (int64_t c = 2; c < cols; ++c) {
      (void)sheet->SetValue(top, left + c,
                            Value::Text("v" + std::to_string(c - 1)));
    }
    r0 += 1;
  }
  for (int64_t r = 0; r < rows; ++r) {
    (void)sheet->SetValue(r0 + r, left, Value::Int(r));
    if (cols > 1) {
      (void)sheet->SetValue(r0 + r, left + 1,
                            Value::Text("n" + std::to_string(r)));
    }
    for (int64_t c = 2; c < cols; ++c) {
      (void)sheet->SetValue(r0 + r, left + c,
                            Value::Int(static_cast<int64_t>(rng() % 1000)));
    }
  }
}

void BuildFormulaChain(DataSpread* ds, Sheet* sheet, int64_t length) {
  for (int64_t i = 0; i < length; ++i) {
    (void)sheet->SetValue(i, 0, Value::Int(1));
  }
  (void)sheet->SetFormula(0, 1, "=A1");
  for (int64_t i = 1; i < length; ++i) {
    (void)sheet->SetFormula(
        i, 1, "=B" + std::to_string(i) + "+A" + std::to_string(i + 1));
  }
  (void)ds->RecalcNow();
}

}  // namespace dataspread::bench
