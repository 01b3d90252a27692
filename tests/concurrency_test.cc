// Concurrency: the thread-safe pager, group commit, and the double-open
// guard (DESIGN.md §7 "Transactions & concurrency").
//
// ci/check.sh runs this suite a second time under ThreadSanitizer — the
// assertions here prove *values* stay consistent; TSan proves the latching
// underneath is race-free. Layers under test:
//   - N reader cursors + 1 writer thread over a 64-frame bounded pool, so
//     faults, evictions, and write-backs interleave with latch-free slot
//     reads; a single-threaded shadow replays the writer's ops and the
//     final states must match slot for slot,
//   - slot-API reads (Pager::Read) from several threads over a 4-frame
//     pool, each returning its own slot's value while others evict,
//   - group commit: concurrent committers on one durable database, every
//     successful statement individually durable across a crash,
//   - multi-statement transactions: readers interleave with a writer's
//     BEGIN..COMMIT / ROLLBACK brackets and only ever observe statement
//     boundaries — a ROLLBACK's undo retracts its batch atomically,
//   - the advisory pair lock: a second open fails fast with AlreadyExists
//     while the first database lives, and succeeds after it dies.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "exec/morsel.h"
#include "storage/page_cursor.h"
#include "storage/pager.h"

namespace dataspread {
namespace {

using storage::FileId;
using storage::PageCursor;
using storage::Pager;
using storage::PagerConfig;

constexpr uint64_t kSlots = Pager::kSlotsPerPage;

// ---------------------------------------------------------------------------
// N readers + 1 writer over a bounded pool
// ---------------------------------------------------------------------------

TEST(ConcurrentPagerTest, ReadersAndOneWriterOverABoundedPool) {
  // Every slot only ever holds Value::Int(slot * kStride + version), so a
  // reader can validate any value it observes without knowing *when* it was
  // written — the invariant concurrent reads must preserve.
  constexpr uint64_t kPages = 96;  // 1.5x the pool: every thread faults
  constexpr uint64_t kSlotCount = kPages * kSlots;
  constexpr int64_t kStride = 1 << 20;
  constexpr int kReaders = 4;
  constexpr int kWriterOps = 20000;
  constexpr int kReadsPerReader = 20000;

  PagerConfig config;
  config.max_resident_pages = 64;
  Pager pager(config);
  FileId f = pager.CreateFile();
  {
    PageCursor init(pager, f);
    for (uint64_t s = 0; s < kSlotCount; ++s) {
      init.Write(s, Value::Int(static_cast<int64_t>(s) * kStride));
    }
  }

  // The writer's op sequence, fixed up front so a single-threaded shadow
  // can replay it exactly.
  std::vector<std::pair<uint64_t, int64_t>> writes;
  writes.reserve(kWriterOps);
  std::mt19937_64 wrng(1234);
  for (int i = 0; i < kWriterOps; ++i) {
    writes.emplace_back(wrng() % kSlotCount, 1 + (i % (kStride - 1)));
  }

  std::atomic<bool> failed{false};
  std::thread writer([&] {
    PageCursor cursor(pager, f);
    for (const auto& [slot, version] : writes) {
      cursor.Write(slot, Value::Int(static_cast<int64_t>(slot) * kStride +
                                    version));
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(77 + r);
      PageCursor cursor(pager, f);
      for (int i = 0; i < kReadsPerReader && !failed.load(); ++i) {
        uint64_t slot = rng() % kSlotCount;
        Value v = cursor.Read(slot);  // copy out from under the data latch
        if (v.type() != DataType::kInt ||
            v.int_value() / kStride != static_cast<int64_t>(slot)) {
          failed.store(true);
        }
        if (i % 64 == 0) cursor.Release();  // exercise unpinned re-entry
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load()) << "a reader observed a value no write produced";

  // Single-threaded shadow replay: the writer's final state is exact.
  Pager shadow;
  FileId sf = shadow.CreateFile();
  for (uint64_t s = 0; s < kSlotCount; ++s) {
    shadow.Write(sf, s, Value::Int(static_cast<int64_t>(s) * kStride));
  }
  for (const auto& [slot, version] : writes) {
    shadow.Write(sf, slot,
                 Value::Int(static_cast<int64_t>(slot) * kStride + version));
  }
  ASSERT_EQ(pager.FileSize(f), shadow.FileSize(sf));
  for (uint64_t s = 0; s < kSlotCount; ++s) {
    ASSERT_EQ(pager.Read(f, s), shadow.Read(sf, s)) << "slot " << s;
  }
  EXPECT_GT(pager.stats().evictions, 0u);  // the pool was genuinely bounded
}

// Slot-API reads (Pager::Read, what GetRow and point reads use) from several
// threads over a pool far smaller than the file: every read faults and
// evicts, so one thread's fault-in recycles frames other threads just read
// from. Each read must copy its value before the structural latch drops —
// a returned reference into the frame raced with that recycling (wrong or
// NULL values under concurrent sessions; TSan flags it here).
/// A heap-allocated (beyond the small-string buffer) text naming `slot`.
std::string SlotText(uint64_t slot) {
  return "slot value number " + std::to_string(slot);
}

TEST(ConcurrentPagerTest, SlotReadsBesideEvictingReaders) {
  constexpr uint64_t kPages = 32;  // 8x the pool
  constexpr uint64_t kSlotCount = kPages * kSlots;
  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 5000;

  PagerConfig config;
  config.max_resident_pages = 4;
  Pager pager(config);
  FileId f = pager.CreateFile();
  for (uint64_t s = 0; s < kSlotCount; ++s) {
    pager.Write(f, s, Value::Text(SlotText(s)));
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(991 + r);
      for (int i = 0; i < kReadsPerReader && !failed.load(); ++i) {
        uint64_t slot = rng() % kSlotCount;
        Value v = pager.Read(f, slot);
        if (v.type() != DataType::kText || v.text_value() != SlotText(slot)) {
          failed.store(true);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load()) << "a slot read returned another slot's value";
  EXPECT_GT(pager.stats().evictions, 0u);
}

// ---------------------------------------------------------------------------
// Group commit: concurrent committers, each statement durable
// ---------------------------------------------------------------------------

struct DurableBase {
  explicit DurableBase(const std::string& tag) {
    base = ::testing::TempDir() + "ds_conc_" + tag;
    Remove();
  }
  ~DurableBase() { Remove(); }
  void Remove() {
    std::remove((base + ".wal").c_str());
    std::remove((base + ".pages").c_str());
    std::remove((base + ".wal.lock").c_str());
  }
  std::string base;
};

TEST(GroupCommitTest, ConcurrentCommittersAreEachDurableAcrossACrash) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  DurableBase files("group_commit");
  {
    DatabaseOptions options;
    options.sync_on_commit = true;
    options.group_commit = true;
    auto db = Database::Open(files.base, options);
    ASSERT_TRUE(
        db->Execute("CREATE TABLE t (a INT, b INT)").ok());
    std::vector<std::thread> committers;
    std::atomic<int> errors{0};
    for (int th = 0; th < kThreads; ++th) {
      committers.emplace_back([&, th] {
        for (int i = 0; i < kPerThread; ++i) {
          int v = th * kPerThread + i;
          auto r = db->Execute("INSERT INTO t VALUES (" + std::to_string(v) +
                               ", " + std::to_string(v * 3) + ")");
          if (!r.ok()) errors.fetch_add(1);
        }
      });
    }
    for (std::thread& t : committers) t.join();
    EXPECT_EQ(errors.load(), 0);
    db->pager().CrashForTesting();  // no destructor checkpoint: the WAL must
                                    // already hold every synced commit
  }
  auto db = Database::Open(files.base);
  auto r = db->Execute("SELECT COUNT(*), SUM(a), SUM(b) FROM t");
  ASSERT_TRUE(r.ok());
  const int n = kThreads * kPerThread;
  const int64_t sum = static_cast<int64_t>(n) * (n - 1) / 2;
  EXPECT_EQ(r.value().rows[0][0], Value::Int(n));
  EXPECT_EQ(r.value().rows[0][1], Value::Int(sum));
  EXPECT_EQ(r.value().rows[0][2], Value::Int(sum * 3));
}

// ---------------------------------------------------------------------------
// Multi-statement transactions beside readers (DESIGN.md §7)
// ---------------------------------------------------------------------------

// One writer drives BEGIN..COMMIT / ROLLBACK transactions of kBatch INSERTs
// each, re-issuing a rolled-back batch until it commits, so the table always
// holds a prefix 0..n-1 of the sequence (a, 3a): a partially applied open
// transaction extends the prefix one statement at a time, and a ROLLBACK
// retracts it atomically (the whole undo runs inside one statement).
// Statements serialize, so every concurrent SELECT must see such a prefix —
// COUNT == n forces SUM(a) == n(n-1)/2 and SUM(b) == 3·SUM(a). TSan over
// this test proves the undo journal and the transaction state machine are
// race-free beside readers.
TEST(TxnConcurrencyTest, ReadersBesideAWriterWithRandomRollbacks) {
  constexpr int kTxns = 40;
  constexpr int kBatch = 5;
  DurableBase files("txn_rollback");
  DatabaseOptions options;
  options.sync_on_commit = true;
  options.group_commit = true;
  auto db = Database::Open(files.base, options);
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT, b INT)").ok());

  std::atomic<bool> done{false};
  std::atomic<int> writer_errors{0};
  std::atomic<int> reader_errors{0};
  int committed = 0;
  std::thread writer([&] {
    std::mt19937 rng(4242);
    auto run = [&](const std::string& sql) {
      if (!db->Execute(sql).ok()) writer_errors.fetch_add(1);
    };
    for (int txn = 0; txn < kTxns; ++txn) {
      bool doomed = rng() % 3 == 0;
      run("BEGIN");
      for (int i = 0; i < kBatch; ++i) {
        int v = committed + i;
        run("INSERT INTO t VALUES (" + std::to_string(v) + ", " +
            std::to_string(3 * v) + ")");
      }
      if (doomed) {
        run("ROLLBACK");  // the batch vanishes; the next txn re-inserts it
      } else {
        run("COMMIT");
        committed += kBatch;
      }
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        auto res = db->Execute("SELECT COUNT(*), SUM(a), SUM(b) FROM t");
        if (!res.ok()) {
          reader_errors.fetch_add(1);
          continue;
        }
        int64_t n = res.value().rows[0][0].int_value();
        if (n > 0) {
          int64_t sum = n * (n - 1) / 2;
          if (res.value().rows[0][1] != Value::Int(sum) ||
              res.value().rows[0][2] != Value::Int(3 * sum)) {
            reader_errors.fetch_add(1);
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(writer_errors.load(), 0);
  EXPECT_EQ(reader_errors.load(), 0);
  ASSERT_GT(committed, 0);

  auto fin = db->Execute("SELECT COUNT(*), SUM(a) FROM t");
  ASSERT_TRUE(fin.ok());
  EXPECT_EQ(fin.value().rows[0][0], Value::Int(committed));
  EXPECT_EQ(fin.value().rows[0][1],
            Value::Int(static_cast<int64_t>(committed) * (committed - 1) / 2));
}

// ---------------------------------------------------------------------------
// Partitioned write latches: many writers at once (DESIGN.md §7)
// ---------------------------------------------------------------------------

// The full multi-writer matrix in one test: four writers on disjoint tables
// (the per-table latches never serialize them against each other), two
// writers contending for the same pair of tables in opposite orders — the
// classic deadlock, resolved by wait-die aborting the younger with a
// retryable serialization conflict — plus readers polling every table with
// morsel-parallel aggregate fan-out underneath. Disjoint writer t appends
// whole batches of consecutive values, so COUNT == n forces SUM(a) ==
// n(n-1)/2 and SUM(b) == 3·SUM(a); the contended tables only ever grow by
// committed rows of (1, 3), so SUM(a) == COUNT and SUM(b) == 3·COUNT at
// every observation. TSan over this test proves the latch table, the
// per-session undo journals, and the interleaved commit brackets race-free.
TEST(MultiWriterTest, DisjointAndContendingWritersBesideReaders) {
  constexpr int kDisjoint = 4;
  constexpr int kTxns = 30;
  constexpr int kBatch = 4;
  DurableBase files("multi_writer");
  DatabaseOptions options;
  options.sync_on_commit = true;
  options.group_commit = true;
  options.exec = ExecOptions{8, false, 4, 16};  // 4 workers, tiny morsels
  auto db = Database::Open(files.base, options);
  for (int t = 0; t < kDisjoint; ++t) {
    ASSERT_TRUE(
        db->Execute("CREATE TABLE d" + std::to_string(t) + " (a INT, b INT)")
            .ok());
  }
  ASSERT_TRUE(db->Execute("CREATE TABLE c1 (a INT, b INT)").ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE c2 (a INT, b INT)").ok());

  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::atomic<int> reader_errors{0};
  std::atomic<int> contended_commits{0};
  std::atomic<int> victim_retries{0};
  int disjoint_committed[kDisjoint] = {};
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < kDisjoint + 2; ++i) {
    sessions.push_back(db->CreateSession());
  }

  std::vector<std::thread> writers;
  for (int t = 0; t < kDisjoint; ++t) {
    writers.emplace_back([&, t] {
      Session* s = sessions[t].get();
      std::string table = "d" + std::to_string(t);
      std::mt19937 rng(1000 + t);
      auto run = [&](const std::string& sql) {
        if (!s->Execute(sql).ok()) errors.fetch_add(1);
      };
      int committed = 0;
      for (int txn = 0; txn < kTxns; ++txn) {
        bool doomed = rng() % 3 == 0;
        run("BEGIN");
        for (int i = 0; i < kBatch; ++i) {
          int v = committed + i;
          run("INSERT INTO " + table + " VALUES (" + std::to_string(v) +
              ", " + std::to_string(3 * v) + ")");
        }
        if (doomed) {
          run("ROLLBACK");  // the batch vanishes; the next txn re-inserts it
        } else {
          run("COMMIT");
          committed += kBatch;
        }
      }
      disjoint_committed[t] = committed;
    });
  }
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      Session* s = sessions[kDisjoint + w].get();
      const std::string first = w == 0 ? "c1" : "c2";
      const std::string second = w == 0 ? "c2" : "c1";
      for (int txn = 0; txn < kTxns; ++txn) {
        for (;;) {  // a wait-die victim rolls back and re-runs its txn
          bool conflicted = false;
          auto exec = [&](const std::string& sql) {
            auto r = s->Execute(sql);
            if (r.ok()) return true;
            if (r.status().code() == StatusCode::kSerializationConflict) {
              conflicted = true;
            } else {
              errors.fetch_add(1);
            }
            return false;
          };
          bool ok = exec("BEGIN") &&
                    exec("INSERT INTO " + first + " VALUES (1, 3)") &&
                    exec("INSERT INTO " + second + " VALUES (1, 3)") &&
                    exec("COMMIT");
          if (ok) {
            contended_commits.fetch_add(1);
            break;
          }
          // Abort acknowledgement: ROLLBACK clears the poisoned state
          // whether the victim's transaction was already rolled back by
          // wait-die or a statement failed for any other reason.
          if (!s->Execute("ROLLBACK").ok()) errors.fetch_add(1);
          if (!conflicted) break;  // a real error: don't loop on it
          victim_retries.fetch_add(1);
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load()) {
        // Disjoint tables hold a committed prefix of 0..n-1.
        std::string dt = "d" + std::to_string(r * 2);  // d0 / d2
        auto res = db->Execute("SELECT COUNT(*), SUM(a), SUM(b) FROM " + dt);
        if (!res.ok()) {
          reader_errors.fetch_add(1);
          continue;
        }
        int64_t n = res.value().rows[0][0].int_value();
        if (n > 0) {
          int64_t sum = n * (n - 1) / 2;
          if (res.value().rows[0][1] != Value::Int(sum) ||
              res.value().rows[0][2] != Value::Int(3 * sum)) {
            reader_errors.fetch_add(1);
          }
        }
        // Contended tables hold only whole committed (1, 3) rows.
        std::string ct = r == 0 ? "c1" : "c2";
        res = db->Execute("SELECT COUNT(*), SUM(a), SUM(b) FROM " + ct);
        if (!res.ok()) {
          reader_errors.fetch_add(1);
          continue;
        }
        n = res.value().rows[0][0].int_value();
        if (n > 0 && (res.value().rows[0][1] != Value::Int(n) ||
                      res.value().rows[0][2] != Value::Int(3 * n))) {
          reader_errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(contended_commits.load(), 2 * kTxns);

  for (int t = 0; t < kDisjoint; ++t) {
    ASSERT_GT(disjoint_committed[t], 0);
    auto fin = db->Execute("SELECT COUNT(*), SUM(a) FROM d" +
                           std::to_string(t));
    ASSERT_TRUE(fin.ok());
    int64_t n = disjoint_committed[t];
    EXPECT_EQ(fin.value().rows[0][0], Value::Int(n));
    EXPECT_EQ(fin.value().rows[0][1], Value::Int(n * (n - 1) / 2));
  }
  for (const char* ct : {"c1", "c2"}) {
    // A morsel-parallel grouped scan over the contended survivors.
    auto fin = db->Execute(std::string("SELECT a, COUNT(*), SUM(b) FROM ") +
                           ct + " GROUP BY a");
    ASSERT_TRUE(fin.ok());
    ASSERT_EQ(fin.value().num_rows(), 1u) << ct;
    EXPECT_EQ(fin.value().rows[0][1], Value::Int(2 * kTxns)) << ct;
    EXPECT_EQ(fin.value().rows[0][2], Value::Int(3 * 2 * kTxns)) << ct;
  }
}

// ---------------------------------------------------------------------------
// Morsel-parallel scans beside a writer (DESIGN.md §6b)
// ---------------------------------------------------------------------------

// SQL level: every SELECT fans out over 4 morsel workers while one DML
// writer commits with group commit on — the workers overlap each other, the
// previous statement's leader fsync (which runs outside the statement
// mutex), and the pager's eviction machinery. Statements serialize, so each
// read must observe a committed prefix of the single appender: COUNT == n
// implies SUM(a) == n(n-1)/2 and SUM(b) == 3·SUM(a), and n never decreases.
TEST(MorselScanTest, ParallelScanBesideAWriterObservesCommittedPrefixes) {
  constexpr int kRows = 300;
  DurableBase files("morsel_scan");
  DatabaseOptions options;
  options.sync_on_commit = true;
  options.group_commit = true;
  options.exec = ExecOptions{8, false, 4, 16};  // 4 workers, tiny morsels
  auto db = Database::Open(files.base, options);
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT, b INT)").ok());

  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::thread writer([&] {
    for (int i = 0; i < kRows; ++i) {
      auto r = db->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", " + std::to_string(3 * i) + ")");
      if (!r.ok()) errors.fetch_add(1);
    }
    done.store(true);
  });

  int64_t last_count = 0;
  while (!done.load()) {
    auto r = db->Execute("SELECT COUNT(*), SUM(a), SUM(b) FROM t");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    int64_t n = r.value().rows[0][0].int_value();
    EXPECT_GE(n, last_count);  // a single appender only grows the prefix
    last_count = n;
    if (n > 0) {
      int64_t sum = n * (n - 1) / 2;
      EXPECT_EQ(r.value().rows[0][1], Value::Int(sum)) << "n=" << n;
      EXPECT_EQ(r.value().rows[0][2], Value::Int(3 * sum)) << "n=" << n;
    }
  }
  writer.join();
  EXPECT_EQ(errors.load(), 0);

  auto fin = db->Execute(
      "SELECT a % 3, COUNT(*), SUM(b) FROM t GROUP BY a % 3 ORDER BY 1");
  ASSERT_TRUE(fin.ok());
  ASSERT_EQ(fin.value().num_rows(), 3u);
  EXPECT_EQ(fin.value().rows[0][1], Value::Int(kRows / 3));
  auto count = db->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value().rows[0][0], Value::Int(kRows));
}

// Pager level: 4 dispenser workers with private cursors sweep a file while
// one writer mutates random slots through the slot API, behind a pool small
// enough that faults and evictions interleave with the latch-free reads.
// Values are self-validating (slot s always holds s·1000 + version), so a
// torn or misrouted read shows up as a value whose slot part is wrong; TSan
// over this test proves the dispenser + worker-pool protocol race-free.
TEST(MorselScanTest, DispenserWorkersReadBesideAPagerWriter) {
  constexpr uint64_t kPages = 24;
  constexpr uint64_t kTotal = kPages * kSlots;
  PagerConfig config;
  config.max_resident_pages = 16;
  Pager pager(config);
  FileId f = pager.CreateFile();
  {
    PageCursor init(pager, f);
    for (uint64_t s = 0; s < kTotal; ++s) {
      init.Write(s, Value::Int(static_cast<int64_t>(s * 1000)));
    }
  }

  std::vector<Morsel> morsels;
  for (uint64_t s = 0, i = 0; s < kTotal; s += 512, ++i) {
    morsels.push_back(Morsel{i, s, 512});
  }
  MorselDispenser dispenser(std::move(morsels));
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread writer([&] {
    std::mt19937 rng(7);
    while (!stop.load()) {
      uint64_t s = rng() % kTotal;
      pager.Write(f, s,
                  Value::Int(static_cast<int64_t>(s * 1000 + rng() % 1000)));
    }
  });
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      PageCursor cursor(pager, f);
      Morsel m;
      while (dispenser.Next(&m)) {
        for (uint64_t s = m.start; s < m.start + m.count; ++s) {
          int64_t got = cursor.Read(s).int_value();
          if (got / 1000 != static_cast<int64_t>(s)) bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(bad.load(), 0);
}

// ---------------------------------------------------------------------------
// The advisory pair lock: double open fails fast
// ---------------------------------------------------------------------------

TEST(FileLockTest, SecondOpenFailsFastWhileTheFirstLives) {
  DurableBase files("double_open");
  auto first = Database::TryOpen(files.base);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first.value()->Execute("CREATE TABLE t (a INT)").ok());

  auto second = Database::TryOpen(files.base);
  ASSERT_FALSE(second.ok()) << "double open must be refused";
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists)
      << second.status().ToString();

  first.value().reset();  // destroys the first database, releasing the lock
  auto third = Database::TryOpen(files.base);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  auto r = third.value()->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows[0][0], Value::Int(0));
}

}  // namespace
}  // namespace dataspread
