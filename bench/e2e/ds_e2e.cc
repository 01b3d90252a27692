// ds_e2e — end-to-end benchmark program for DataSpread.
//
// Runs one closed-loop user workload against the public API (DataSpread,
// Database/Session, Table), checks every result against a shadow model, and
// prints one JSON line of raw measurements: per-class latency quantiles,
// set-up times, throughput, CPU, peak RSS, counter deltas and (traced runs)
// layer probes. `--trace FILE` traces the run and writes the spans timed
// around each call into a layer to FILE, one JSON object per line:
//   {"op", "span", "parent", "name", "start_ns", "end_ns"}
// run.py turns all of this into the benchmark's metrics; README.md explains
// them.
//
//   ds_e2e --workload pan|sheet_edit|dbsql|oltp --seed N --seconds S
//          --dir SCRATCH [--trace FILE] [--smoke]
//
// Inputs come from --seed through a counter-based hash, so the shadow model
// recomputes any generated value instead of keeping a copy of the data.
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/dataspread.h"
#include "exec/planner.h"
#include "sql/parser.h"

#ifndef DS_E2E_BUILD_TYPE
#define DS_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using dataspread::ColumnDef;
using dataspread::Database;
using dataspread::DatabaseOptions;
using dataspread::DataSpread;
using dataspread::DataSpreadOptions;
using dataspread::DataType;
using dataspread::Priority;
using dataspread::Result;
using dataspread::ResultSet;
using dataspread::Row;
using dataspread::Schema;
using dataspread::Session;
using dataspread::Sheet;
using dataspread::Status;
using dataspread::StatusCode;
using dataspread::Table;
using dataspread::Value;
namespace fs = std::filesystem;
namespace storage = dataspread::storage;

// ---------------------------------------------------------------------------
// Deterministic inputs
// ---------------------------------------------------------------------------

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The i-th value of stream `stream` under `seed`.
uint64_t Hash(uint64_t seed, uint64_t stream, uint64_t i) {
  return Mix(Mix(seed * 0x100000001b3ULL + stream) ^ i);
}

enum Stream : uint64_t {
  kPanText = 1,
  kPanAmount,
  kPanOp,
  kSheetGrp,
  kSheetQty,
  kSheetOp,
  kMovieTitle,
  kMovieYear,
  kMovieCastSize,
  kMovieCast,
  kActorName,
  kDbsqlOp,
  kOltpValue,
  kOltpKey,
  kOltpRead,
  kProbe,
};

/// Warm-up ops draw their inputs from this far into the op stream, so they
/// never repeat a measured op's inputs.
constexpr uint64_t kWarmupBase = 1ULL << 40;

// ---------------------------------------------------------------------------
// Time and process accounting
// ---------------------------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

/// This process's peak resident set. VmHWM, unlike getrusage's ru_maxrss,
/// does not inherit the high-water mark of the process that exec'd us.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  char line[256];
  long long kib = -1;
  while (f != nullptr && std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
  }
  if (f != nullptr) std::fclose(f);
  if (kib < 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kib = ru.ru_maxrss;
  }
  return static_cast<double>(kib) / 1024.0;
}

// ---------------------------------------------------------------------------
// CPU rotation
// ---------------------------------------------------------------------------

/// Moves each client thread to the next allowed CPU every kPeriod, each
/// thread on its own CPU, so that a run sees the average speed of the
/// machine's CPUs. On a shared virtual machine one CPU can run at half speed
/// for seconds while the host core under it is busy; a thread the scheduler
/// leaves on that CPU turns this into a difference between runs. At five
/// moves a second, refilling the new CPU's caches after a move costs well
/// under 1% of a run.
class CpuRotor {
 public:
  static CpuRotor& Get() {
    static CpuRotor rotor;
    return rotor;
  }

  /// Rotates the calling thread from construction to destruction.
  class Member {
   public:
    Member() : tid_(static_cast<pid_t>(syscall(SYS_gettid))) {
      Get().Add(tid_);
    }
    ~Member() { Get().Remove(tid_); }
    Member(const Member&) = delete;
    Member& operator=(const Member&) = delete;

   private:
    pid_t tid_;
  };

  ~CpuRotor() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  static constexpr std::chrono::milliseconds kPeriod{200};

  CpuRotor() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
    if (cpus_.size() > 1) thread_ = std::thread([this] { Loop(); });
  }

  void Add(pid_t tid) {
    std::lock_guard<std::mutex> lock(mu_);
    tids_.push_back(tid);
  }
  /// Unpins `tid`; once this returns the rotor never touches it again.
  void Remove(pid_t tid) {
    std::lock_guard<std::mutex> lock(mu_);
    tids_.erase(std::find(tids_.begin(), tids_.end(), tid));
    Pin(tid, cpus_);
  }

  static void Pin(pid_t tid, const std::vector<int>& cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus) CPU_SET(c, &set);
    (void)sched_setaffinity(tid, sizeof set, &set);
  }

  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t turn = 0; !stop_; ++turn) {
      for (size_t i = 0; i < tids_.size(); ++i) {
        Pin(tids_[i], {cpus_[(turn + i) % cpus_.size()]});
      }
      cv_.wait_for(lock, kPeriod, [this] { return stop_; });
    }
  }

  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<pid_t> tids_;  // in the order they joined
  bool stop_ = false;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, one recorder per client thread
// ---------------------------------------------------------------------------

struct SpanRecord {
  uint64_t op;
  uint64_t id;
  uint64_t parent;  // 0 = root
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
};

/// Records spans of the ops marked traced. Op and span ids carry the thread
/// in their high bits so the recorders of concurrent clients merge cleanly.
class Tracer {
 public:
  explicit Tracer(uint64_t thread) : thread_(thread) {}

  bool active() const { return active_; }
  void BeginOp(uint64_t op, bool traced) {
    op_ = (thread_ << 40) | op;
    active_ = traced;
  }
  void EndOp() { active_ = false; }

  size_t Open(const char* name) {
    uint64_t parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    spans_.push_back(
        {op_, (thread_ << 40) | next_id_++, parent, name, NowNs(), 0});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void Close(size_t index, const char* rename) {
    spans_[index].end_ns = NowNs();
    if (rename != nullptr) spans_[index].name = rename;
    stack_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  uint64_t thread_;
  uint64_t op_ = 0;
  uint64_t next_id_ = 1;
  bool active_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<size_t> stack_;
};

/// A span around one call into a layer; a no-op on untraced ops.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer.active() ? &tracer : nullptr) {
    if (tracer_ != nullptr) index_ = tracer_->Open(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->Close(index_, rename_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Names the span after the fact (a scheduler task's band is known only
  /// once it has run).
  void Rename(const char* name) { rename_ = name; }

 private:
  Tracer* tracer_;
  size_t index_ = 0;
  const char* rename_ = nullptr;
};

// ---------------------------------------------------------------------------
// Configuration and results
// ---------------------------------------------------------------------------

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  // where a traced run writes its spans
  bool smoke = false;
  std::string dir;
};

/// Data size and op counts of one workload. A full run measures a fixed
/// number of ops, `rate` per second of --seconds: `rate` is the workload's
/// throughput at the parent commit on the reference runner (README.md), so
/// the measured phase lasts about --seconds there while both sides of a
/// comparison do the same work. --smoke runs `smoke_ops` ops over
/// `smoke_rows` of data, after 1% of the warm-up. A full run sets up
/// `setup_reps` times (see RepeatSetup).
struct Sizes {
  size_t rows;
  size_t warmup;
  double rate;
  size_t smoke_rows;
  size_t smoke_ops;
  int setup_reps;
};

struct Samples {
  std::vector<double> ms;
  std::vector<double> traced_ms;    // traced runs: ops that recorded spans
  std::vector<double> untraced_ms;  // traced runs: the ops in between

  void Add(double v, bool traced, bool trace_run) {
    ms.push_back(v);
    if (trace_run) (traced ? traced_ms : untraced_ms).push_back(v);
  }
  void Merge(const Samples& o) {
    ms.insert(ms.end(), o.ms.begin(), o.ms.end());
    traced_ms.insert(traced_ms.end(), o.traced_ms.begin(), o.traced_ms.end());
    untraced_ms.insert(untraced_ms.end(), o.untraced_ms.begin(),
                       o.untraced_ms.end());
  }
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few messages
  std::vector<double> setup_s;
  Samples primary, secondary;  // the two op classes (README.md)
  uint64_t ops = 0;
  double measured_s = 0;
  double cpu_ms = 0;
  double peak_rss_mb = 0;  // at the end of the measured phase
  int threads = 1;
  std::vector<double> recover_s;
  std::vector<std::pair<std::string, double>> counters;
  std::vector<std::pair<std::string, double>> probes;
  std::vector<std::unique_ptr<Tracer>> tracers;

  Tracer& NewTracer() {
    tracers.push_back(std::make_unique<Tracer>(tracers.size()));
    return *tracers.back();
  }
  void Fail(const std::string& what) {
    failed += 1;
    if (failures.size() < 8) failures.push_back(what);
  }
  /// One verified outcome: counts as attempted, and as failed unless `ok`.
  void Check(bool ok, const std::function<std::string()>& what) {
    attempted += 1;
    if (!ok) Fail(what());
  }
  void Counter(const std::string& name, double v) {
    counters.emplace_back(name, v);
  }
  /// Folds a client thread's outcomes and samples into this result.
  void Merge(const RunResult& o) {
    attempted += o.attempted;
    for (const std::string& f : o.failures) Fail(f);
    failed += o.failed - o.failures.size();
    primary.Merge(o.primary);
    secondary.Merge(o.secondary);
  }
};

std::string Str(const Status& s) { return s.ToString(); }

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Every layer's public counters, snapshotted around the measured phase.
struct Counters {
  storage::PagerStats pager;
  uint64_t statements = 0;
  uint64_t dbsql_execs = 0, dbsql_hits = 0, backend_refreshes = 0;
  uint64_t cells_evaluated = 0, window_moves = 0, binding_refreshes = 0;
  uint64_t sched[3] = {0, 0, 0};
};

Counters Snap(Database& db, DataSpread* ds) {
  Counters c;
  c.pager = db.pager().stats();
  c.statements = db.statements_executed();
  if (ds != nullptr) {
    c.dbsql_execs = ds->interface_manager().dbsql_executions();
    c.dbsql_hits = ds->interface_manager().dbsql_cache_hits();
    c.backend_refreshes = ds->interface_manager().backend_refreshes();
    c.cells_evaluated = ds->engine().cells_evaluated();
    c.window_moves = ds->window_manager().window_moves();
    for (const auto& b : ds->interface_manager().bindings()) {
      c.binding_refreshes += b->refreshes();
    }
    for (int p = 0; p < 3; ++p) {
      c.sched[p] = ds->scheduler().executed(static_cast<Priority>(p));
    }
  }
  return c;
}

/// Records after − before of every counter; layers.py divides by ops.
void RecordDeltas(const Counters& a, const Counters& b, RunResult* run) {
  auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
  run->Counter("pager.slot_reads", d(a.pager.slot_reads, b.pager.slot_reads));
  run->Counter("pager.slot_writes",
               d(a.pager.slot_writes, b.pager.slot_writes));
  run->Counter("pager.pages_flushed",
               d(a.pager.pages_flushed, b.pager.pages_flushed));
  run->Counter("pager.faults", d(a.pager.faults, b.pager.faults));
  run->Counter("pager.readaheads", d(a.pager.readaheads, b.pager.readaheads));
  run->Counter("pager.evictions", d(a.pager.evictions, b.pager.evictions));
  run->Counter("pager.spill_bytes",
               d(a.pager.spill_bytes_written + a.pager.spill_bytes_read,
                 b.pager.spill_bytes_written + b.pager.spill_bytes_read));
  run->Counter("wal.records", d(a.pager.wal_records, b.pager.wal_records));
  run->Counter("wal.bytes", d(a.pager.wal_bytes, b.pager.wal_bytes));
  run->Counter("wal.syncs", d(a.pager.wal_syncs, b.pager.wal_syncs));
  run->Counter("db.statements", d(a.statements, b.statements));
  run->Counter("im.dbsql_execs", d(a.dbsql_execs, b.dbsql_execs));
  run->Counter("im.dbsql_hits", d(a.dbsql_hits, b.dbsql_hits));
  run->Counter("im.backend_refreshes",
               d(a.backend_refreshes, b.backend_refreshes));
  run->Counter("formula.cells_evaluated",
               d(a.cells_evaluated, b.cells_evaluated));
  run->Counter("wm.window_moves", d(a.window_moves, b.window_moves));
  run->Counter("binding.refreshes",
               d(a.binding_refreshes, b.binding_refreshes));
  run->Counter("sched.visible", d(a.sched[0], b.sched[0]));
  run->Counter("sched.near", d(a.sched[1], b.sched[1]));
  run->Counter("sched.background", d(a.sched[2], b.sched[2]));
}

// ---------------------------------------------------------------------------
// Measured loop, set-up repetition, pump, probes
// ---------------------------------------------------------------------------

/// The measured phase's op count (see Sizes).
size_t OpBudget(const Config& cfg, const Sizes& sizes) {
  if (cfg.smoke) return sizes.smoke_ops;
  return static_cast<size_t>(std::llround(cfg.seconds * sizes.rate));
}

size_t Warmup(const Config& cfg, const Sizes& sizes) {
  return cfg.smoke ? sizes.warmup / 100 : sizes.warmup;
}

/// Deadline that stops a measured phase running far slower than the rate
/// its op budget assumes (the 180-second limit on a run must hold).
int64_t WallLimitNs(const Config& cfg) {
  return NowNs() + static_cast<int64_t>((3 * cfg.seconds + 5) * 1e9);
}

/// Sets up `sizes.setup_reps` times, each in a fresh scratch subdirectory,
/// and records every set-up's duration (load, bind and warm-up; teardown is
/// not timed). The reps of a workload together last three seconds or more
/// at the parent commit, so a short slow spell of the host slows only a few
/// of them and leaves their median alone. The last state is returned for
/// the measured phase; null on failure (already recorded in `run`).
template <typename State>
std::unique_ptr<State> RepeatSetup(
    const Config& cfg, const Sizes& sizes, RunResult* run,
    const std::function<std::unique_ptr<State>(const std::string&)>& setup) {
  std::unique_ptr<State> state;
  int reps = cfg.smoke ? 1 : sizes.setup_reps;
  for (int rep = 0; rep < reps; ++rep) {
    state.reset();
    if (rep > 0) fs::remove_all(cfg.dir + "/rep" + std::to_string(rep - 1));
    std::string dir = cfg.dir + "/rep" + std::to_string(rep);
    fs::create_directories(dir);
    int64_t t0 = NowNs();
    state = setup(dir);
    run->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (state == nullptr) return nullptr;
  }
  return state;
}

const char* BandSpanName(int band) {
  static const char* const kNames[] = {
      "core.sched.visible", "core.sched.near", "core.sched.background"};
  return kNames[band];
}

/// DataSpread::Pump, plus — on traced ops — a span around each scheduler
/// task, named by the band whose executed() count moved. Tasks run through
/// RunUntilIdle(1) because RunOne() does not count executed(). The closing
/// Pump() finishes any fixpoint iteration exactly as on an untraced op.
void Pump(DataSpread& ds, Tracer& tracer) {
  if (!tracer.active()) {
    ds.Pump();
    return;
  }
  Span pump(tracer, "core.pump");
  dataspread::Scheduler& sched = ds.scheduler();
  while (sched.pending() > 0) {
    uint64_t before[3];
    for (int p = 0; p < 3; ++p) {
      before[p] = sched.executed(static_cast<Priority>(p));
    }
    Span task(tracer, "core.sched.task");
    sched.RunUntilIdle(1);
    for (int p = 0; p < 3; ++p) {
      if (sched.executed(static_cast<Priority>(p)) != before[p]) {
        task.Rename(BandSpanName(p));
      }
    }
  }
  ds.Pump();
}

/// The measured phase of a one-client DataSpread workload. `step(i,
/// &secondary)` runs op i and says which class it belongs to; `diff()`
/// compares the sheet with the shadow ("" when they agree). Ops run closed
/// loop over the op budget; every other op records spans on traced runs.
/// Each op's status, the shadow and the absence of dirty cells are checked
/// outside the timed region.
void MeasureClient(const Config& cfg, const Sizes& sizes, DataSpread& ds,
                   Tracer& tracer,
                   const std::function<Status(uint64_t, bool*)>& step,
                   const std::function<std::string()>& diff,
                   RunResult* run) {
  Counters before = Snap(ds.db(), &ds);
  double cpu0 = CpuMs();
  const size_t budget = OpBudget(cfg, sizes);
  const int64_t wall_limit = WallLimitNs(cfg);
  int64_t timed_ns = 0;
  for (uint64_t i = 0; i < budget && NowNs() < wall_limit; ++i) {
    bool traced = cfg.trace && i % 2 == 1;
    tracer.BeginOp(i, traced);
    bool secondary = false;
    Status s;
    int64_t t0 = NowNs();
    {
      Span op(tracer, "op");
      s = step(i, &secondary);
    }
    int64_t t1 = NowNs();
    tracer.EndOp();
    timed_ns += t1 - t0;
    (secondary ? run->secondary : run->primary)
        .Add(static_cast<double>(t1 - t0) / 1e6, traced, cfg.trace);
    auto at = [i](const std::string& what) {
      return "op " + std::to_string(i) + ": " + what;
    };
    run->Check(s.ok(), [&] { return at(Str(s)); });
    if (!s.ok()) break;  // the shadow no longer knows the state
    std::string d = diff();
    run->Check(d.empty(), [&] { return at(d); });
    run->Check(ds.engine().dirty_count() == 0,
               [&] { return at("cells left dirty"); });
  }
  run->cpu_ms = CpuMs() - cpu0;
  run->peak_rss_mb = PeakRssMb();
  run->measured_s = static_cast<double>(timed_ns) / 1e9;
  run->ops = run->primary.ms.size() + run->secondary.ms.size();
  RecordDeltas(before, Snap(ds.db(), &ds), run);
}

/// Median of the nanoseconds `fn` reports over up to `calls` calls (at least
/// three; stops early once `budget_s` is spent).
double MedianNs(size_t calls, double budget_s,
                const std::function<int64_t(size_t)>& fn) {
  std::vector<double> ns;
  int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (size_t i = 0; i < calls; ++i) {
    ns.push_back(static_cast<double>(fn(i)));
    if (i >= 2 && NowNs() > deadline) break;
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// What the probe phase of a traced run times: each layer's public function
/// over the workload's own statements, table, positions and keys.
struct ProbeInputs {
  dataspread::Catalog* catalog = nullptr;
  dataspread::ExternalResolver* resolver = nullptr;  // null = plain SQL
  dataspread::ExecOptions exec;
  std::vector<std::string> selects;  // parsed, planned and run
  std::vector<std::string> others;   // parsed only
  const Table* table = nullptr;
  std::vector<size_t> positions;  // GetWindow starts
  size_t window = 0;
  std::vector<Value> keys;  // FindByKey inputs
};

void RunProbes(const ProbeInputs& in, RunResult* run) {
  std::vector<std::string> all = in.selects;
  all.insert(all.end(), in.others.begin(), in.others.end());
  auto parse_select = [&](size_t i) {
    auto st = dataspread::sql::Parse(in.selects[i % in.selects.size()]);
    if (!st.ok()) run->Fail("probe parse: " + Str(st.status()));
    return st;
  };
  double parse = MedianNs(20 * all.size(), 0.3, [&](size_t i) {
    int64_t t0 = NowNs();
    auto st = dataspread::sql::Parse(all[i % all.size()]);
    int64_t t1 = NowNs();
    if (!st.ok()) run->Fail("probe parse: " + Str(st.status()));
    return t1 - t0;
  });
  double plan = MedianNs(20 * in.selects.size(), 0.3, [&](size_t i) {
    auto st = parse_select(i);
    if (!st.ok()) return int64_t{0};
    auto* stmt = std::get_if<dataspread::sql::SelectStmt>(&st.value());
    int64_t t0 = NowNs();
    auto planned =
        dataspread::PlanSelect(stmt, *in.catalog, in.resolver, in.exec);
    int64_t t1 = NowNs();
    if (!planned.ok()) run->Fail("probe plan: " + Str(planned.status()));
    return t1 - t0;
  });
  double select = MedianNs(10 * in.selects.size(), 0.5, [&](size_t i) {
    auto st = parse_select(i);
    if (!st.ok()) return int64_t{0};
    auto* stmt = std::get_if<dataspread::sql::SelectStmt>(&st.value());
    int64_t t0 = NowNs();
    auto rs = dataspread::RunSelect(stmt, *in.catalog, in.resolver, in.exec);
    int64_t t1 = NowNs();
    if (!rs.ok()) run->Fail("probe select: " + Str(rs.status()));
    return t1 - t0;
  });
  double window = MedianNs(200, 0.3, [&](size_t i) {
    size_t start = in.positions[i % in.positions.size()];
    int64_t t0 = NowNs();
    std::vector<Row> rows = in.table->GetWindow(start, in.window);
    int64_t t1 = NowNs();
    if (rows.empty()) run->Fail("probe window: no rows");
    return t1 - t0;
  });
  double find = MedianNs(50, 0.3, [&](size_t i) {
    int64_t t0 = NowNs();
    auto pos = in.table->FindByKey(in.keys[i % in.keys.size()]);
    int64_t t1 = NowNs();
    if (!pos.ok()) run->Fail("probe find: " + Str(pos.status()));
    return t1 - t0;
  });
  run->probes = {{"sql.parse_us", parse / 1e3},
                 {"exec.plan_us", plan / 1e3},
                 {"exec.select_ms", select / 1e6},
                 {"catalog.get_window_us", window / 1e3},
                 {"catalog.find_by_key_us", find / 1e3}};
}

/// Sixteen seed-determined keys in [0, rows), for FindByKey probes.
std::vector<Value> ProbeKeys(uint64_t seed, size_t rows) {
  std::vector<Value> keys;
  for (uint64_t k = 0; k < 16; ++k) {
    keys.push_back(
        Value::Int(static_cast<int64_t>(Hash(seed, kProbe, k) % rows)));
  }
  return keys;
}

/// Sixty-four seed-determined positions in [0, rows), for GetWindow probes.
std::vector<size_t> ProbePositions(uint64_t seed, size_t rows) {
  std::vector<size_t> positions;
  for (uint64_t k = 0; k < 64; ++k) {
    positions.push_back(Hash(seed, kProbe, 100 + k) % rows);
  }
  return positions;
}

// ---------------------------------------------------------------------------
// pan — a table far larger than the buffer pool, panned by one user
// ---------------------------------------------------------------------------

constexpr Sizes kPanSizes{1000000, 1000, 2300, 20000, 300, 5};
constexpr int64_t kViewRows = 50;

/// Rows a binding keeps materialized around the pane.
size_t PaneSpan(const DataSpreadOptions& opts) {
  return static_cast<size_t>(opts.viewport_rows + 2 * opts.prefetch_margin);
}

std::string PanText(uint64_t seed, uint64_t p) {
  return "v" + std::to_string(Hash(seed, kPanText, p) % 1000000007ULL);
}
double PanAmount(uint64_t seed, uint64_t p) {
  return static_cast<double>(Hash(seed, kPanAmount, p) % 1000000) / 100.0;
}

struct PanState {
  std::unique_ptr<DataSpread> ds;
  Sheet* sheet = nullptr;
  int64_t top = 1;
};

/// Next pane top (sheet row; data position p displays at row p + 1): 80%
/// hops of ±1–3 screens, reflected at the table's ends; 20% uniform jumps.
int64_t NextTop(uint64_t seed, uint64_t i, int64_t top, int64_t rows,
                bool* jump) {
  uint64_t h = Hash(seed, kPanOp, i);
  int64_t max_top = rows - kViewRows + 1;
  *jump = h % 100 < 20;
  if (*jump) return 1 + static_cast<int64_t>((h >> 8) % max_top);
  int64_t step = (1 + static_cast<int64_t>((h >> 8) % 3)) * kViewRows;
  if ((h >> 16) & 1) step = -step;
  int64_t next = top + step;
  if (next < 1 || next > max_top) next = top - step;
  return std::clamp<int64_t>(next, 1, max_top);
}

/// "" when every cell of `want` matches the sheet from (row, col) on, value
/// and type; otherwise the first difference.
std::string RowDiff(Sheet* sheet, int64_t row, int64_t col,
                    const std::vector<Value>& want) {
  for (size_t c = 0; c < want.size(); ++c) {
    Value got = sheet->GetValue(row, col + static_cast<int64_t>(c));
    if (got != want[c] || got.type() != want[c].type()) {
      return "cell (" + std::to_string(row) + "," +
             std::to_string(col + static_cast<int64_t>(c)) + ") is '" +
             got.ToDisplayString() + "', want '" + want[c].ToDisplayString() +
             "'";
    }
  }
  return "";
}

/// Every visible cell holds the generated value of its row.
std::string PaneDiff(Sheet* sheet, uint64_t seed, int64_t top, int64_t rows) {
  for (int64_t r = top; r < top + kViewRows && r <= rows; ++r) {
    uint64_t p = static_cast<uint64_t>(r - 1);
    std::string d = RowDiff(sheet, r, 0,
                            {Value::Int(static_cast<int64_t>(p)),
                             Value::Text(PanText(seed, p)),
                             Value::Real(PanAmount(seed, p))});
    if (!d.empty()) return d;
  }
  return "";
}

void RunPan(const Config& cfg, RunResult* run) {
  const size_t rows = cfg.smoke ? kPanSizes.smoke_rows : kPanSizes.rows;
  const int64_t n = static_cast<int64_t>(rows);
  Tracer& tracer = run->NewTracer();
  auto pan = [&](PanState& st, uint64_t i, bool* jump) -> Status {
    st.top = NextTop(cfg.seed, i, st.top, n, jump);
    {
      Span span(tracer, "core.scroll_to");
      DS_RETURN_IF_ERROR(st.ds->ScrollTo("S", st.top, 0));
    }
    Pump(*st.ds, tracer);
    return Status::OK();
  };

  auto state = RepeatSetup<PanState>(
      cfg, kPanSizes, run,
      [&](const std::string& dir) -> std::unique_ptr<PanState> {
        auto st = std::make_unique<PanState>();
        DataSpreadOptions opts;
        opts.auto_pump = false;
        opts.viewport_rows = kViewRows;
        opts.pager.max_resident_pages = 256;
        opts.pager.spill_path = dir + "/pan.spill";
        st->ds = std::make_unique<DataSpread>(opts);
        Schema schema({ColumnDef{"id", DataType::kInt, true},
                       ColumnDef{"v", DataType::kText, false},
                       ColumnDef{"amount", DataType::kReal, false}});
        auto table = st->ds->db().CreateTable("t", schema);
        if (!table.ok()) {
          run->Fail("create: " + Str(table.status()));
          return nullptr;
        }
        for (size_t p = 0; p < rows; ++p) {
          Status s = table.value()->AppendRow(
              {Value::Int(static_cast<int64_t>(p)),
               Value::Text(PanText(cfg.seed, p)),
               Value::Real(PanAmount(cfg.seed, p))});
          if (!s.ok()) {
            run->Fail("load: " + Str(s));
            return nullptr;
          }
        }
        st->sheet = st->ds->AddSheet("S").ValueOrDie();
        auto bound = st->ds->ImportTable("S", "A1", "t");
        if (!bound.ok()) {
          run->Fail("bind: " + Str(bound.status()));
          return nullptr;
        }
        st->ds->Pump();
        for (size_t w = 0; w < Warmup(cfg, kPanSizes); ++w) {
          bool jump = false;
          Status s = pan(*st, kWarmupBase + w, &jump);
          if (!s.ok()) {
            run->Fail("warm-up: " + Str(s));
            return nullptr;
          }
        }
        return st;
      });
  if (state == nullptr) return;
  PanState& st = *state;
  MeasureClient(
      cfg, kPanSizes, *st.ds, tracer,
      [&](uint64_t i, bool* jump) { return pan(st, i, jump); },
      [&] { return PaneDiff(st.sheet, cfg.seed, st.top, n); }, run);

  if (cfg.trace) {
    ProbeInputs in;
    in.catalog = &st.ds->db().catalog();
    auto resolver = st.ds->interface_manager().MakeResolver(st.sheet);
    in.resolver = resolver.get();
    in.exec = st.ds->db().exec_options();
    // The pane fetch in its SQL form, and a keyed point lookup.
    in.window = PaneSpan(st.ds->options());
    in.positions = ProbePositions(cfg.seed, rows);
    for (size_t k = 0; k < 4; ++k) {
      in.selects.push_back("SELECT * FROM t LIMIT " +
                           std::to_string(in.window) + " OFFSET " +
                           std::to_string(in.positions[k]));
    }
    in.keys = ProbeKeys(cfg.seed, rows);
    in.selects.push_back("SELECT * FROM t WHERE id = " +
                         in.keys[0].ToDisplayString());
    in.table = in.catalog->GetTable("t").ValueOrDie();
    RunProbes(in, run);
  }
}

// ---------------------------------------------------------------------------
// sheet_edit — a durable bound table under DBSQL aggregates and formulas
// ---------------------------------------------------------------------------

constexpr Sizes kSheetSizes{20000, 100, 250, 2000, 22, 7};
constexpr int kGroups = 16;
// Sheet layout: the table is bound at A1 (columns A–C); E1 holds the total,
// E3 spills the per-group sums over E3:F18, G3:G18 each group's share.
constexpr int64_t kQtyCol = 2, kAggCol = 4, kShareCol = 6, kSpillRow = 2;
const char* const kSumSql = "SELECT SUM(qty) FROM t";
const char* const kGroupSql =
    "SELECT grp, SUM(qty) FROM t GROUP BY grp ORDER BY grp";

/// The table as the user's edits left it: display order and values by id.
struct SheetShadow {
  std::vector<int64_t> order;    // ids in display order
  std::vector<int64_t> grp, qty;  // by id
  int64_t total = 0;
  int64_t grp_sum[kGroups] = {};

  void Insert(size_t pos, int64_t id, int64_t g, int64_t q) {
    order.insert(order.begin() + static_cast<std::ptrdiff_t>(pos), id);
    grp.push_back(g);
    qty.push_back(q);
    total += q;
    grp_sum[g] += q;
  }
  void Erase(size_t pos) {
    int64_t id = order[pos];
    total -= qty[id];
    grp_sum[grp[id]] -= qty[id];
    order.erase(order.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  void SetQty(size_t pos, int64_t q) {
    int64_t id = order[pos];
    total += q - qty[id];
    grp_sum[grp[id]] += q - qty[id];
    qty[id] = q;
  }
};

struct SheetState {
  std::unique_ptr<DataSpread> ds;
  Sheet* sheet = nullptr;
  Table* table = nullptr;
  SheetShadow shadow;
  std::string base;
};

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

/// The table's size, the total, the spilled group sums and the share
/// formulas all match the shadow.
std::string SheetDiff(const SheetState& st) {
  const SheetShadow& sh = st.shadow;
  if (st.table->num_rows() != sh.order.size()) {
    return "table has " + std::to_string(st.table->num_rows()) +
           " rows, want " + std::to_string(sh.order.size());
  }
  std::string d = RowDiff(st.sheet, 0, kAggCol, {Value::Int(sh.total)});
  for (int g = 0; g < kGroups && d.empty(); ++g) {
    int64_t r = kSpillRow + g;
    d = RowDiff(st.sheet, r, kAggCol,
                {Value::Int(g), Value::Int(sh.grp_sum[g])});
    double want = static_cast<double>(sh.grp_sum[g]) /
                  static_cast<double>(sh.total);
    auto share = st.sheet->GetValue(r, kShareCol).AsReal();
    if (d.empty() && !(share.ok() && NearlyEqual(share.value(), want))) {
      d = "share of group " + std::to_string(g) + " is not " +
          std::to_string(want);
    }
  }
  return d;
}

void RunSheetEdit(const Config& cfg, RunResult* run) {
  const size_t rows = cfg.smoke ? kSheetSizes.smoke_rows : kSheetSizes.rows;
  Tracer& tracer = run->NewTracer();

  // One user edit, chosen by the op stream: half cell edits (the keyed
  // UPDATE path), half row inserts/deletes at a random position.
  auto edit = [&](SheetState& st, uint64_t i, bool* row_edit) -> Status {
    uint64_t h = Hash(cfg.seed, kSheetOp, i);
    size_t n = st.shadow.order.size();
    int64_t q = static_cast<int64_t>((h >> 40) % 1000);
    *row_edit = h % 2 == 1;
    if (!*row_edit) {
      size_t pos = (h >> 8) % n;
      {
        Span span(tracer, "core.set_cell");
        DS_RETURN_IF_ERROR(st.ds->SetCellAt(
            st.sheet, 1 + static_cast<int64_t>(pos), kQtyCol,
            std::to_string(q)));
      }
      Pump(*st.ds, tracer);
      st.shadow.SetQty(pos, q);
      return Status::OK();
    }
    if ((h >> 1) % 2 == 0) {
      size_t pos = (h >> 8) % (n + 1);
      int64_t id = static_cast<int64_t>(st.shadow.grp.size());
      int64_t g = static_cast<int64_t>((h >> 32) % kGroups);
      {
        Span span(tracer, "catalog.row_edit");
        DS_RETURN_IF_ERROR(st.table->InsertRowAt(
            pos, {Value::Int(id), Value::Int(g), Value::Int(q)}));
      }
      Pump(*st.ds, tracer);
      st.shadow.Insert(pos, id, g, q);
    } else {
      size_t pos = (h >> 8) % n;
      {
        Span span(tracer, "catalog.row_edit");
        DS_RETURN_IF_ERROR(st.table->DeleteRowAt(pos));
      }
      Pump(*st.ds, tracer);
      st.shadow.Erase(pos);
    }
    return Status::OK();
  };

  auto state = RepeatSetup<SheetState>(
      cfg, kSheetSizes, run,
      [&](const std::string& dir) -> std::unique_ptr<SheetState> {
        auto st = std::make_unique<SheetState>();
        st->base = dir + "/sheet";
        DataSpreadOptions opts;
        opts.auto_pump = false;
        opts.viewport_rows = kViewRows;
        opts.database_path = st->base;
        opts.pager.wal_auto_checkpoint_bytes = 64ULL << 20;
        st->ds = std::make_unique<DataSpread>(opts);
        Schema schema({ColumnDef{"id", DataType::kInt, true},
                       ColumnDef{"grp", DataType::kInt, false},
                       ColumnDef{"qty", DataType::kInt, false}});
        auto table = st->ds->db().CreateTable("t", schema);
        if (!table.ok()) {
          run->Fail("create: " + Str(table.status()));
          return nullptr;
        }
        st->table = table.value();
        for (size_t p = 0; p < rows; ++p) {
          int64_t g = static_cast<int64_t>(Hash(cfg.seed, kSheetGrp, p) %
                                           kGroups);
          int64_t q =
              static_cast<int64_t>(Hash(cfg.seed, kSheetQty, p) % 1000);
          Status s = st->table->AppendRow({Value::Int(static_cast<int64_t>(p)),
                                           Value::Int(g), Value::Int(q)});
          if (!s.ok()) {
            run->Fail("load: " + Str(s));
            return nullptr;
          }
          st->shadow.Insert(p, static_cast<int64_t>(p), g, q);
        }
        st->ds->db().Checkpoint();
        st->sheet = st->ds->AddSheet("S").ValueOrDie();
        Status s = st->ds->ImportTable("S", "A1", "t").status();
        auto formula = [&](int64_t r, int64_t c, const std::string& text) {
          if (s.ok()) s = st->ds->SetCellAt(st->sheet, r, c, text);
        };
        formula(0, kAggCol, std::string("=DBSQL(\"") + kSumSql + "\")");
        formula(kSpillRow, kAggCol,
                std::string("=DBSQL(\"") + kGroupSql + "\")");
        for (int g = 0; g < kGroups; ++g) {
          formula(kSpillRow + g, kShareCol,
                  "=F" + std::to_string(kSpillRow + g + 1) + "/E1");
        }
        if (s.ok()) s = st->ds->ScrollTo("S", 0, 0);
        if (!s.ok()) {
          run->Fail("sheet: " + Str(s));
          return nullptr;
        }
        st->ds->Pump();
        for (size_t w = 0; w < Warmup(cfg, kSheetSizes) && s.ok(); ++w) {
          bool row_edit = false;
          s = edit(*st, kWarmupBase + w, &row_edit);
        }
        std::string diff = s.ok() ? SheetDiff(*st) : Str(s);
        if (!diff.empty()) {
          run->Fail("set-up: " + diff);
          return nullptr;
        }
        return st;
      });
  if (state == nullptr) return;
  SheetState& st = *state;
  MeasureClient(
      cfg, kSheetSizes, *st.ds, tracer,
      [&](uint64_t i, bool* row_edit) { return edit(st, i, row_edit); },
      [&] { return SheetDiff(st); }, run);

  if (cfg.trace) {
    ProbeInputs in;
    in.catalog = &st.ds->db().catalog();
    auto resolver = st.ds->interface_manager().MakeResolver(st.sheet);
    in.resolver = resolver.get();
    in.exec = st.ds->db().exec_options();
    in.selects = {kSumSql, kGroupSql};
    in.others = {"UPDATE t SET qty = 7 WHERE id = 42"};  // a cell edit's SQL
    in.table = st.table;
    in.positions = ProbePositions(cfg.seed, st.shadow.order.size());
    in.window = PaneSpan(st.ds->options());
    // Ids of rows still present: the run deleted some of the loaded ones.
    for (size_t k = 0; k < 16; ++k) {
      in.keys.push_back(Value::Int(st.shadow.order[in.positions[k]]));
    }
    RunProbes(in, run);
  }

  // A clean close, then a reopen, must leave exactly the shadow's table.
  state->ds.reset();
  auto db = Database::TryOpen(st.base);
  bool same = db.ok();
  if (same) {
    auto t = db.value()->catalog().GetTable("t");
    same = t.ok() && t.value()->num_rows() == st.shadow.order.size();
    if (same) {
      const SheetShadow& sh = st.shadow;
      t.value()->Scan([&](size_t pos, const Row& row) {
        int64_t id = sh.order[pos];
        same = row[0] == Value::Int(id) && row[1] == Value::Int(sh.grp[id]) &&
               row[2] == Value::Int(sh.qty[id]);
        return same;
      });
    }
  }
  run->Check(same, [] { return std::string("reopened table differs"); });
}

// ---------------------------------------------------------------------------
// dbsql — parameterized DBSQL cells over a movie database
// ---------------------------------------------------------------------------

constexpr Sizes kDbsqlSizes{2000, 50, 190, 500, 15, 12};
constexpr int64_t kFirstYear = 1950, kYears = 75;
// Half the ops are back-end UPDATEs, so that class, too, gets more than
// 1,000 samples in a run.
constexpr int kUpdatePercent = 50;
// Sheet layout: B1 holds the year parameter; D1 spills the top-8 join over
// D1:E8; G1, J1 and M1 hold the same per-year count. The pane is 16 columns
// wide so all of them are in view: RecalcWindow erases the edited cell's
// dirty mark, so an off-pane dependent of B1 is never recomputed.
constexpr int64_t kDbsqlPaneCols = 16;
constexpr int64_t kParamCol = 1, kJoinCol = 3;
constexpr int64_t kGroupCols[] = {6, 9, 12};
const char* const kJoinSql =
    "SELECT title, name FROM movies NATURAL JOIN movies2actors NATURAL JOIN "
    "actors WHERE year >= RANGEVALUE(B1) ORDER BY title, name LIMIT 8";
const char* const kYearSql =
    "SELECT year, COUNT(*) FROM movies WHERE year >= RANGEVALUE(B1) GROUP BY "
    "year ORDER BY year";
const char* const kWords[] = {"Blue",   "Night", "Iron", "Last",   "Silent",
                              "Golden", "Lost",  "Wild", "Broken", "Red"};
const char* const kNames[] = {"Adams",   "Brooks", "Chen", "Diaz",  "Evans",
                              "Fischer", "Garcia", "Hoff", "Ito",   "Jones"};

/// The movie database's contents. Titles, names and cast never change, so
/// the join's rows are kept pre-sorted by (title, name); only years move.
struct Movies {
  std::vector<std::string> title, name;
  std::vector<int64_t> year;
  std::vector<std::vector<int64_t>> cast;
  std::vector<std::pair<int64_t, int64_t>> join;  // (movie, actor), sorted
  int64_t per_year[kYears] = {};

  Movies(uint64_t seed, size_t movies) {
    size_t actors = movies / 2 + 1;
    for (size_t a = 0; a < actors; ++a) {
      name.push_back(std::string(kNames[Hash(seed, kActorName, a) % 10]) +
                     " " + std::to_string(a));
    }
    for (size_t m = 0; m < movies; ++m) {
      uint64_t h = Hash(seed, kMovieTitle, m);
      title.push_back(std::string(kWords[h % 10]) + " " +
                      kWords[(h >> 8) % 10] + " " + std::to_string(m));
      year.push_back(kFirstYear +
                     static_cast<int64_t>(Hash(seed, kMovieYear, m) % kYears));
      per_year[year.back() - kFirstYear] += 1;
      cast.emplace_back();
      size_t size = 1 + Hash(seed, kMovieCastSize, m) % 4;
      for (size_t j = 0; j < size; ++j) {
        int64_t a =
            static_cast<int64_t>(Hash(seed, kMovieCast, m * 4 + j) % actors);
        cast.back().push_back(a);
        join.emplace_back(static_cast<int64_t>(m), a);
      }
    }
    std::sort(join.begin(), join.end(), [&](const auto& x, const auto& y) {
      if (title[x.first] != title[y.first]) {
        return title[x.first] < title[y.first];
      }
      return name[x.second] < name[y.second];
    });
  }

  void SetYear(int64_t movie, int64_t y) {
    per_year[year[movie] - kFirstYear] -= 1;
    per_year[y - kFirstYear] += 1;
    year[movie] = y;
  }
};

struct DbsqlState {
  std::unique_ptr<DataSpread> ds;
  Sheet* sheet = nullptr;
  std::unique_ptr<Movies> shadow;
  int64_t param = 0;
};

/// The join spill and all three per-year counts match the shadow for the
/// current parameter (checked outside the timed region). Returns the first
/// difference, or "" when there is none.
std::string DbsqlDiff(const DbsqlState& st) {
  const Movies& m = *st.shadow;
  int64_t r = 0;
  std::string diff;
  for (const auto& [movie, actor] : m.join) {
    if (r == 8) break;
    if (m.year[movie] < st.param) continue;
    diff = RowDiff(st.sheet, r++, kJoinCol,
                   {Value::Text(m.title[movie]), Value::Text(m.name[actor])});
    if (!diff.empty()) return diff;
  }
  for (int64_t col : kGroupCols) {
    int64_t row = 0;
    for (int64_t y = st.param; y < kFirstYear + kYears; ++y) {
      int64_t count = m.per_year[y - kFirstYear];
      if (count == 0) continue;
      diff = RowDiff(st.sheet, row++, col, {Value::Int(y), Value::Int(count)});
      if (!diff.empty()) return diff;
    }
    diff = RowDiff(st.sheet, row, col, {Value::Null()});  // a stale spill row
    if (!diff.empty()) return diff;
  }
  return "";
}

Status LoadMovies(Database& db, const Movies& m) {
  Schema movie_schema({ColumnDef{"movieid", DataType::kInt, true},
                       ColumnDef{"title", DataType::kText, false},
                       ColumnDef{"year", DataType::kInt, false}});
  Schema actor_schema({ColumnDef{"actorid", DataType::kInt, true},
                       ColumnDef{"name", DataType::kText, false}});
  Schema link_schema({ColumnDef{"movieid", DataType::kInt, false},
                      ColumnDef{"actorid", DataType::kInt, false}});
  DS_ASSIGN_OR_RETURN(Table * movies, db.CreateTable("movies", movie_schema));
  DS_ASSIGN_OR_RETURN(Table * actors, db.CreateTable("actors", actor_schema));
  DS_ASSIGN_OR_RETURN(Table * links,
                      db.CreateTable("movies2actors", link_schema));
  for (size_t a = 0; a < m.name.size(); ++a) {
    DS_RETURN_IF_ERROR(actors->AppendRow(
        {Value::Int(static_cast<int64_t>(a)), Value::Text(m.name[a])}));
  }
  for (size_t i = 0; i < m.title.size(); ++i) {
    int64_t id = static_cast<int64_t>(i);
    DS_RETURN_IF_ERROR(movies->AppendRow(
        {Value::Int(id), Value::Text(m.title[i]), Value::Int(m.year[i])}));
    for (int64_t a : m.cast[i]) {
      DS_RETURN_IF_ERROR(links->AppendRow({Value::Int(id), Value::Int(a)}));
    }
  }
  return Status::OK();
}

void RunDbsql(const Config& cfg, RunResult* run) {
  const size_t movies = cfg.smoke ? kDbsqlSizes.smoke_rows : kDbsqlSizes.rows;
  Tracer& tracer = run->NewTracer();

  // One op from the op stream: a parameter edit, or (kUpdatePercent) a
  // back-end UPDATE that invalidates every cached DBSQL result.
  auto step = [&](DbsqlState& st, uint64_t i, bool* update) -> Status {
    uint64_t h = Hash(cfg.seed, kDbsqlOp, i);
    *update = h % 100 < kUpdatePercent;
    if (!*update) {
      st.param = kFirstYear + static_cast<int64_t>((h >> 8) % kYears);
      {
        Span span(tracer, "core.set_cell");
        DS_RETURN_IF_ERROR(st.ds->SetCellAt(st.sheet, 0, kParamCol,
                                            std::to_string(st.param)));
      }
      Pump(*st.ds, tracer);
      return Status::OK();
    }
    int64_t movie = static_cast<int64_t>((h >> 8) % movies);
    int64_t y = kFirstYear + static_cast<int64_t>((h >> 40) % kYears);
    {
      Span span(tracer, "db.sql");
      DS_ASSIGN_OR_RETURN(
          ResultSet rs,
          st.ds->Sql("UPDATE movies SET year = " + std::to_string(y) +
                     " WHERE movieid = " + std::to_string(movie)));
      if (rs.affected_rows != 1) {
        return Status::Internal("update affected " +
                                std::to_string(rs.affected_rows) + " rows");
      }
    }
    Pump(*st.ds, tracer);
    st.shadow->SetYear(movie, y);
    return Status::OK();
  };

  auto state = RepeatSetup<DbsqlState>(
      cfg, kDbsqlSizes, run,
      [&](const std::string&) -> std::unique_ptr<DbsqlState> {
        auto st = std::make_unique<DbsqlState>();
        DataSpreadOptions opts;
        opts.auto_pump = false;
        opts.viewport_rows = kViewRows;
        opts.viewport_cols = kDbsqlPaneCols;
        st->ds = std::make_unique<DataSpread>(opts);
        st->shadow = std::make_unique<Movies>(cfg.seed, movies);
        Status s = LoadMovies(st->ds->db(), *st->shadow);
        st->sheet = st->ds->AddSheet("S").ValueOrDie();
        st->param = kFirstYear + kYears / 2;
        if (s.ok()) {
          s = st->ds->SetCellAt(st->sheet, 0, kParamCol,
                                std::to_string(st->param));
        }
        if (s.ok()) {
          s = st->ds->SetCellAt(st->sheet, 0, kJoinCol,
                                std::string("=DBSQL(\"") + kJoinSql + "\")");
        }
        for (int64_t col : kGroupCols) {
          if (s.ok()) {
            s = st->ds->SetCellAt(st->sheet, 0, col,
                                  std::string("=DBSQL(\"") + kYearSql + "\")");
          }
        }
        if (s.ok()) s = st->ds->ScrollTo("S", 0, 0);
        st->ds->Pump();
        for (size_t w = 0; w < Warmup(cfg, kDbsqlSizes) && s.ok(); ++w) {
          bool update = false;
          s = step(*st, kWarmupBase + w, &update);
        }
        std::string diff = s.ok() ? DbsqlDiff(*st) : Str(s);
        if (!diff.empty()) {
          run->Fail("set-up: " + diff);
          return nullptr;
        }
        return st;
      });
  if (state == nullptr) return;
  DbsqlState& st = *state;
  MeasureClient(
      cfg, kDbsqlSizes, *st.ds, tracer,
      [&](uint64_t i, bool* update) { return step(st, i, update); },
      [&] { return DbsqlDiff(st); }, run);

  if (cfg.trace) {
    ProbeInputs in;
    in.catalog = &st.ds->db().catalog();
    auto resolver = st.ds->interface_manager().MakeResolver(st.sheet);
    in.resolver = resolver.get();
    in.exec = st.ds->db().exec_options();
    in.selects = {kJoinSql, kYearSql};
    in.others = {"UPDATE movies SET year = 1990 WHERE movieid = 42"};
    in.table = in.catalog->GetTable("movies").ValueOrDie();
    in.positions = ProbePositions(cfg.seed, movies);
    in.window = PaneSpan(st.ds->options());
    in.keys = ProbeKeys(cfg.seed, movies);
    RunProbes(in, run);
  }
}

// ---------------------------------------------------------------------------
// oltp — two writer sessions and a reader over a sync-on-commit database
// ---------------------------------------------------------------------------

// `rate` counts each writer's transactions.
constexpr Sizes kOltpSizes{10000, 200, 6000, 1000, 300, 15};
// Tables w0 and w1 each belong to one writer session; w2 is read-only
// reference data. The reader's point lookups go to w2, so they never queue
// behind a writer's table latch: with both sharing a table, which side won
// the latch varied from run to run and moved both classes' medians by up to
// 30%. Every tenth reader statement audits a writer table instead.
constexpr int kWriters = 2;
constexpr int kTables = kWriters + 1;
constexpr int kReference = kWriters;
constexpr uint64_t kAuditEvery = 10;
// w2 holds five times a writer table's rows, so a lookup's full scan (about
// 3 ms) outweighs the writers' interference with it; at equal size that
// interference moved the reader's median by 20% between runs.
constexpr size_t kReferenceScale = 5;
// The reader runs one statement per kTxnsPerRead transactions of the
// writers' budget, back to back from the start, so reads are the same share
// of every run's work and end before the writers do.
constexpr uint64_t kTxnsPerRead = 72;
constexpr int64_t kRangeIds = 200;  // the reader's range aggregate: id < 200

std::string TableName(int w) { return "w" + std::to_string(w); }

/// Rows table `w` holds before any transaction (`rows` per writer table).
size_t Preloaded(int w, size_t rows) {
  return w == kReference ? kReferenceScale * rows : rows;
}

int64_t InitialValue(uint64_t seed, int w, int64_t id) {
  return static_cast<int64_t>(
      Hash(seed, kOltpValue, (static_cast<uint64_t>(w) << 40) | id) % 1000);
}
/// The preloaded row writer `w`'s transaction `j` increments.
int64_t TxnKey(uint64_t seed, int w, uint64_t j, size_t rows) {
  return static_cast<int64_t>(
      Hash(seed, kOltpKey, (static_cast<uint64_t>(w) << 40) | j) % rows);
}

struct Observation {
  int table;
  bool point;
  int64_t key;
  int64_t a, b;   // point: (v, 0); range: (count, sum)
  uint64_t lo, hi;  // the table's txns acknowledged before / started by the end
};

struct OltpState {
  std::unique_ptr<Database> db;
  std::vector<std::unique_ptr<Session>> sessions;  // writers, then reader
  std::string base;
  uint64_t acked[kTables] = {};  // per table; the reference table stays 0
};

Result<ResultSet> Exec(Session& session, Tracer& tracer,
                       const std::string& sql, const char* span) {
  Span s(tracer, span);
  return session.Execute(sql);
}

/// Writer `w`'s transaction `j`: BEGIN; INSERT a new row; UPDATE a preloaded
/// row; COMMIT — retried whole on a serialization conflict.
Status WriterTxn(Session& session, Tracer& tracer, uint64_t seed, int w,
                 uint64_t j, size_t rows, uint64_t* retries) {
  const std::string t = TableName(w);
  const std::string insert = "INSERT INTO " + t + " VALUES (" +
                             std::to_string(rows + j) + ", 0)";
  const std::string update = "UPDATE " + t + " SET v = v + 1 WHERE id = " +
                             std::to_string(TxnKey(seed, w, j, rows));
  for (;;) {
    Status s = Exec(session, tracer, "BEGIN", "db.begin").status();
    if (s.ok()) {
      auto rs = Exec(session, tracer, insert, "db.dml");
      s = rs.ok() && rs.value().affected_rows != 1
              ? Status::Internal("insert affected no row")
              : rs.status();
    }
    if (s.ok()) {
      auto rs = Exec(session, tracer, update, "db.dml");
      s = rs.ok() && rs.value().affected_rows != 1
              ? Status::Internal("update affected no row")
              : rs.status();
    }
    if (s.ok()) {
      auto rs = Exec(session, tracer, "COMMIT", "db.commit");
      s = rs.ok() && rs.value().message != "COMMIT"
              ? Status::Internal("COMMIT rolled back")
              : rs.status();
      if (s.ok()) return s;
    }
    if (session.in_transaction()) (void)session.Execute("ROLLBACK");
    if (s.code() != StatusCode::kSerializationConflict) return s;
    *retries += 1;
  }
}

/// Every acknowledged transaction, and nothing else, is in the tables.
bool OltpTablesMatch(Database& db, uint64_t seed, size_t rows,
                     const uint64_t acked[kTables]) {
  for (int w = 0; w < kTables; ++w) {
    auto t = db.catalog().GetTable(TableName(w));
    const size_t base = Preloaded(w, rows);
    if (!t.ok() || t.value()->num_rows() != base + acked[w]) return false;
    std::vector<int64_t> expect(base + acked[w], 0);
    for (size_t id = 0; id < base; ++id) {
      expect[id] = InitialValue(seed, w, static_cast<int64_t>(id));
    }
    for (uint64_t j = 0; j < acked[w]; ++j) {
      expect[TxnKey(seed, w, j, rows)] += 1;
    }
    std::vector<bool> seen(expect.size(), false);
    bool ok = true;
    t.value()->Scan([&](size_t, const Row& row) {
      int64_t id = row[0].int_value();
      ok = id >= 0 && static_cast<size_t>(id) < expect.size() && !seen[id] &&
           row[1] == Value::Int(expect[id]);
      if (ok) seen[id] = true;
      return ok;
    });
    if (!ok) return false;
  }
  return true;
}

void RunOltp(const Config& cfg, RunResult* run) {
  const size_t rows = cfg.smoke ? kOltpSizes.smoke_rows : kOltpSizes.rows;
  run->threads = kWriters + 1;
  std::vector<Tracer*> tracers;
  for (int c = 0; c < kWriters + 1; ++c) tracers.push_back(&run->NewTracer());
  uint64_t setup_retries = 0;

  auto state = RepeatSetup<OltpState>(
      cfg, kOltpSizes, run,
      [&](const std::string& dir) -> std::unique_ptr<OltpState> {
        auto st = std::make_unique<OltpState>();
        st->base = dir + "/oltp";
        DatabaseOptions opts;
        opts.sync_on_commit = true;
        opts.group_commit = true;
        auto db = Database::TryOpen(st->base, opts);
        if (!db.ok()) {
          run->Fail("open: " + Str(db.status()));
          return nullptr;
        }
        st->db = std::move(db).value();
        for (int w = 0; w < kTables; ++w) {
          auto created = st->db->Execute("CREATE TABLE " + TableName(w) +
                                         " (id INT PRIMARY KEY, v INT)");
          Table* t = created.ok()
                         ? st->db->catalog().GetTable(TableName(w)).value()
                         : nullptr;
          for (size_t id = 0; t != nullptr && id < Preloaded(w, rows); ++id) {
            int64_t key = static_cast<int64_t>(id);
            Status s = t->AppendRow(
                {Value::Int(key), Value::Int(InitialValue(cfg.seed, w, key))});
            if (!s.ok()) t = nullptr;
          }
          if (t == nullptr) {
            run->Fail("preload " + TableName(w));
            return nullptr;
          }
        }
        st->db->Checkpoint();
        for (int c = 0; c < kWriters + 1; ++c) {
          st->sessions.push_back(st->db->CreateSession());
        }
        const size_t warmup = Warmup(cfg, kOltpSizes);
        Tracer untraced(0);
        for (int w = 0; w < kWriters; ++w) {
          for (; st->acked[w] < warmup; ++st->acked[w]) {
            Status s = WriterTxn(*st->sessions[w], untraced, cfg.seed, w,
                                 st->acked[w], rows, &setup_retries);
            if (!s.ok()) {
              run->Fail("warm-up: " + Str(s));
              return nullptr;
            }
          }
        }
        return st;
      });
  if (state == nullptr) return;
  OltpState& st = *state;

  std::atomic<uint64_t> acked[kTables];
  std::atomic<uint64_t> started[kTables];
  for (int w = 0; w < kTables; ++w) {
    acked[w] = st.acked[w];
    started[w] = st.acked[w];
  }
  std::vector<RunResult> client(kWriters + 1);
  std::vector<uint64_t> retries(kWriters + 1, 0);
  std::vector<Observation> seen;
  const size_t budget = OpBudget(cfg, kOltpSizes);
  const int64_t wall_limit = WallLimitNs(cfg);

  auto writer = [&](int w) {
    CpuRotor::Member rotate;
    Tracer& tracer = *tracers[w];
    for (uint64_t i = 0; i < budget && NowNs() < wall_limit; ++i) {
      uint64_t j = acked[w].load();
      started[w].store(j + 1);
      bool traced = cfg.trace && i % 2 == 1;
      tracer.BeginOp(i, traced);
      Status s;
      int64_t t0 = NowNs();
      {
        Span op(tracer, "op");
        s = WriterTxn(*st.sessions[w], tracer, cfg.seed, w, j, rows,
                      &retries[w]);
      }
      int64_t t1 = NowNs();
      tracer.EndOp();
      client[w].primary.Add(static_cast<double>(t1 - t0) / 1e6, traced,
                            cfg.trace);
      client[w].Check(s.ok(), [&] { return "txn: " + Str(s); });
      if (!s.ok()) break;  // its outcome is unknown to the shadow
      acked[w].store(j + 1);
    }
  };
  auto reader = [&]() {
    CpuRotor::Member rotate;
    const int c = kWriters;
    Tracer& tracer = *tracers[c];
    const uint64_t reads = kWriters * budget / kTxnsPerRead;
    for (uint64_t r = 0; r < reads && NowNs() < wall_limit; ++r) {
      Observation o{};
      o.point = r % kAuditEvery != kAuditEvery - 1;
      o.table = o.point ? kReference
                        : static_cast<int>((r / kAuditEvery) % kWriters);
      o.key = static_cast<int64_t>(Hash(cfg.seed, kOltpRead, r) %
                                   Preloaded(o.table, rows));
      const std::string sql =
          o.point ? "SELECT v FROM " + TableName(o.table) +
                        " WHERE id = " + std::to_string(o.key)
                  : "SELECT COUNT(*), SUM(v) FROM " + TableName(o.table) +
                        " WHERE id < " + std::to_string(kRangeIds);
      o.lo = acked[o.table].load();
      bool traced = cfg.trace && r % 2 == 1;
      tracer.BeginOp(r, traced);
      auto query = [&]() -> Result<ResultSet> {
        Span op(tracer, "op");
        for (;;) {
          auto rs = Exec(*st.sessions[c], tracer, sql, "db.select");
          if (rs.ok() ||
              rs.status().code() != StatusCode::kSerializationConflict) {
            return rs;
          }
          retries[c] += 1;
        }
      };
      int64_t t0 = NowNs();
      Result<ResultSet> rs = query();
      int64_t t1 = NowNs();
      tracer.EndOp();
      o.hi = started[o.table].load();
      client[c].secondary.Add(static_cast<double>(t1 - t0) / 1e6, traced,
                              cfg.trace);
      size_t width = o.point ? 1 : 2;
      bool shaped = rs.ok() && rs.value().rows.size() == 1 &&
                    rs.value().rows[0].size() == width;
      for (size_t k = 0; shaped && k < width; ++k) {
        shaped = rs.value().rows[0][k].type() == DataType::kInt;
      }
      client[c].Check(shaped, [&] {
        return "select: " +
               (rs.ok() ? std::string("unexpected result") : Str(rs.status()));
      });
      if (!shaped) continue;
      const Row& row = rs.value().rows[0];
      o.a = row[0].int_value();
      o.b = o.point ? 0 : row[1].int_value();
      seen.push_back(o);
    }
  };

  Counters before = Snap(*st.db, nullptr);
  double cpu0 = CpuMs();
  int64_t t0 = NowNs();
  {
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) threads.emplace_back(writer, w);
    threads.emplace_back(reader);
    for (auto& t : threads) t.join();
  }
  run->measured_s = static_cast<double>(NowNs() - t0) / 1e9;
  run->cpu_ms = CpuMs() - cpu0;
  run->peak_rss_mb = PeakRssMb();
  Counters after = Snap(*st.db, nullptr);
  uint64_t txns = 0;
  for (auto& c : client) run->Merge(c);
  for (int w = 0; w < kWriters; ++w) {
    txns += acked[w].load() - st.acked[w];
    st.acked[w] = acked[w].load();
  }
  run->ops = run->primary.ms.size() + run->secondary.ms.size();
  RecordDeltas(before, after, run);
  run->Counter("txn.commits", static_cast<double>(txns));
  run->Counter("txn.count", static_cast<double>(run->primary.ms.size()));
  uint64_t total_retries = 0;
  for (uint64_t r : retries) total_retries += r;
  run->Counter("txn.retries", static_cast<double>(total_retries));

  // Each read saw the state after some acknowledged-or-started prefix of its
  // table's transactions; every increment is +1, so any value between the
  // counts at `lo` and `hi` is reachable.
  std::vector<std::vector<std::vector<uint64_t>>> hits(kTables);
  std::vector<std::vector<uint64_t>> range_hits(kTables);
  for (int w = 0; w < kTables; ++w) {
    hits[w].resize(Preloaded(w, rows));
    range_hits[w].push_back(0);
    for (uint64_t j = 0; j < st.acked[w]; ++j) {
      int64_t k = TxnKey(cfg.seed, w, j, rows);
      hits[w][k].push_back(j);
      range_hits[w].push_back(range_hits[w].back() + (k < kRangeIds ? 1 : 0));
    }
  }
  auto count_before = [](const std::vector<uint64_t>& js, uint64_t c) {
    return static_cast<int64_t>(std::lower_bound(js.begin(), js.end(), c) -
                                js.begin());
  };
  for (const Observation& o : seen) {
    const auto& rh = range_hits[o.table];
    uint64_t lo = std::min<uint64_t>(o.lo, rh.size() - 1);
    uint64_t hi = std::min<uint64_t>(o.hi, rh.size() - 1);
    bool ok;
    if (o.point) {
      int64_t v0 = InitialValue(cfg.seed, o.table, o.key);
      const auto& js = hits[o.table][o.key];
      ok = o.a >= v0 + count_before(js, lo) && o.a <= v0 + count_before(js, hi);
    } else {
      int64_t s0 = 0;
      for (int64_t id = 0; id < kRangeIds; ++id) {
        s0 += InitialValue(cfg.seed, o.table, id);
      }
      ok = o.a == kRangeIds && o.b >= s0 + static_cast<int64_t>(rh[lo]) &&
           o.b <= s0 + static_cast<int64_t>(rh[hi]);
    }
    run->Check(ok, [&] {
      return std::string("read of ") + TableName(o.table) +
             (o.point ? " point " : " range ") + std::to_string(o.key) +
             " saw a state no commit prefix explains";
    });
  }
  run->Check(OltpTablesMatch(*st.db, cfg.seed, rows, st.acked),
             [] { return std::string("tables differ after the run"); });

  // Crash, then recover three copies of the crashed pair: each Open plus a
  // full shadow check is one recover_s sample.
  st.sessions.clear();
  st.db->pager().CrashForTesting();
  std::error_code ec;
  uint64_t wal_bytes = fs::file_size(st.base + ".wal", ec);
  run->Counter("wal.bytes_at_crash", ec ? 0.0 : static_cast<double>(wal_bytes));
  st.db.reset();
  std::unique_ptr<Database> recovered;
  for (int copy = 0; copy < 3; ++copy) {
    recovered.reset();
    std::string base = cfg.dir + "/crash" + std::to_string(copy);
    fs::copy_file(st.base + ".pages", base + ".pages",
                  fs::copy_options::overwrite_existing, ec);
    if (!ec) {
      fs::copy_file(st.base + ".wal", base + ".wal",
                    fs::copy_options::overwrite_existing, ec);
    }
    int64_t r0 = NowNs();
    auto db = Database::TryOpen(base);
    bool ok = !ec && db.ok() &&
              OltpTablesMatch(*db.value(), cfg.seed, rows, st.acked);
    run->recover_s.push_back(static_cast<double>(NowNs() - r0) / 1e9);
    run->Check(ok, [&] {
      return "recovery lost or invented a commit (copy " +
             std::to_string(copy) + ")";
    });
    if (db.ok()) recovered = std::move(db).value();
  }

  if (cfg.trace && recovered != nullptr) {
    ProbeInputs in;
    in.catalog = &recovered->catalog();
    in.exec = recovered->exec_options();
    in.selects = {"SELECT v FROM w2 WHERE id = 42",
                  "SELECT COUNT(*), SUM(v) FROM w0 WHERE id < 200"};
    in.others = {"BEGIN", "INSERT INTO w0 VALUES (123456, 0)",
                 "UPDATE w0 SET v = v + 1 WHERE id = 42", "COMMIT"};
    in.table = in.catalog->GetTable("w0").ValueOrDie();
    in.positions = ProbePositions(cfg.seed, rows);
    in.window = PaneSpan(DataSpreadOptions{});
    in.keys = ProbeKeys(cfg.seed, rows);
    RunProbes(in, run);
  }
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Nearest-rank quantile; null for an empty class.
std::string Quantile(std::vector<double> v, double q) {
  if (v.empty()) return "null";
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return Num(v[std::max<size_t>(rank, 1) - 1]);
}

std::string ClassJson(const Samples& s) {
  return "{\"n\":" + std::to_string(s.ms.size()) +
         ",\"p50_ms\":" + Quantile(s.ms, 0.5) +
         ",\"p90_ms\":" + Quantile(s.ms, 0.9) +
         ",\"p99_ms\":" + Quantile(s.ms, 0.99) +
         ",\"traced_p50_ms\":" + Quantile(s.traced_ms, 0.5) +
         ",\"untraced_p50_ms\":" + Quantile(s.untraced_ms, 0.5) + "}";
}

std::string PairsJson(const std::vector<std::pair<std::string, double>>& kv) {
  std::string out = "{";
  for (size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) out += ",";
    out += Quote(kv[i].first) + ":" + Num(kv[i].second);
  }
  return out + "}";
}

std::string ListJson(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + Num(v[i]);
  return out + "]";
}

std::string ResultJson(const Config& cfg, const RunResult& run) {
  std::string failures = "[";
  for (size_t i = 0; i < run.failures.size(); ++i) {
    failures += (i ? "," : "") + Quote(run.failures[i]);
  }
  failures += "]";
  return "{\"workload\":" + Quote(cfg.workload) +
         ",\"seed\":" + std::to_string(cfg.seed) +
         ",\"trace\":" + (cfg.trace ? "1" : "0") +
         ",\"smoke\":" + (cfg.smoke ? "1" : "0") +
         ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"threads\":" + std::to_string(run.threads) +
         ",\"build_type\":" + Quote(DS_E2E_BUILD_TYPE) +
         ",\"attempted\":" + std::to_string(run.attempted) +
         ",\"failed\":" + std::to_string(run.failed) +
         ",\"failures\":" + failures +
         ",\"setup_s\":" + ListJson(run.setup_s) +
         ",\"ops\":" + std::to_string(run.ops) +
         ",\"measured_s\":" + Num(run.measured_s) +
         ",\"cpu_ms\":" + Num(run.cpu_ms) +
         ",\"peak_rss_mb\":" + Num(run.peak_rss_mb) +
         ",\"recover_s\":" + ListJson(run.recover_s) +
         ",\"primary\":" + ClassJson(run.primary) +
         ",\"secondary\":" + ClassJson(run.secondary) +
         ",\"counters\":" + PairsJson(run.counters) +
         ",\"probes\":" + PairsJson(run.probes) + "}";
}

bool WriteTrace(const std::string& path, const RunResult& run, int64_t t0) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& tracer : run.tracers) {
    for (const SpanRecord& s : tracer->spans()) {
      std::fprintf(f,
                   "{\"op\":%llu,\"span\":%llu,\"parent\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0));
    }
  }
  return std::fclose(f) == 0;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "ds_e2e: %s\nusage: ds_e2e --workload pan|sheet_edit|dbsql|oltp "
               "--seed N --seconds S --dir DIR [--trace FILE] [--smoke]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t t0 = NowNs();
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      cfg.workload = argv[++i];
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--dir") {
      cfg.dir = argv[++i];
    } else if (arg == "--trace") {
      cfg.trace = true;
      cfg.trace_path = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (cfg.dir.empty() || !fs::is_directory(cfg.dir)) {
    return Usage("--dir must name an existing directory");
  }
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");

  RunResult run;
  CpuRotor::Member rotate;
  if (cfg.workload == "pan") {
    RunPan(cfg, &run);
  } else if (cfg.workload == "sheet_edit") {
    RunSheetEdit(cfg, &run);
  } else if (cfg.workload == "dbsql") {
    RunDbsql(cfg, &run);
  } else if (cfg.workload == "oltp") {
    RunOltp(cfg, &run);
  } else {
    return Usage("unknown workload");
  }
  if (cfg.trace && !WriteTrace(cfg.trace_path, run, t0)) {
    run.Fail("cannot write " + cfg.trace_path);
  }
  std::printf("%s\n", ResultJson(cfg, run).c_str());
  return run.failed == 0 && run.attempted > 0 ? 0 : 1;
}
