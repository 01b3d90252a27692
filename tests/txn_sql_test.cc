// Multi-statement transaction state machine (DESIGN.md §7): SQL
// BEGIN/COMMIT/ROLLBACK over the per-Database transaction state, undo of
// partially applied transactions, Postgres-style poisoning. Crash-side
// coverage (committed-prefix recovery of transaction brackets) lives in
// wal_test.cc / catalog_recovery_test.cc; transactional transparency in
// property_test.cc invariant 11.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "db/database.h"

namespace dataspread {
namespace {

// ---------------------------------------------------------------------------
// State machine over every storage model
// ---------------------------------------------------------------------------

class TxnSqlTest : public ::testing::TestWithParam<StorageModel> {
 protected:
  void SetUp() override {
    Schema schema;
    ASSERT_TRUE(schema.AddColumn(ColumnDef{"id", DataType::kInt, true}).ok());
    ASSERT_TRUE(schema.AddColumn(ColumnDef{"v", DataType::kText, false}).ok());
    ASSERT_TRUE(db_.CreateTable("t", std::move(schema), GetParam()).ok());
  }

  ResultSet Run(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : ResultSet{};
  }
  size_t CountRows() { return Run("SELECT * FROM t").num_rows(); }

  Database db_;
};

TEST_P(TxnSqlTest, BeginCommitMakesAllStatementsVisible) {
  Run("BEGIN");
  Run("INSERT INTO t VALUES (1, 'a')");
  Run("INSERT INTO t VALUES (2, 'b')");
  Run("UPDATE t SET v = 'a2' WHERE id = 1");
  // Own writes are visible inside the transaction.
  EXPECT_EQ(CountRows(), 2u);
  ResultSet rs = Run("COMMIT");
  EXPECT_EQ(rs.message, "COMMIT");
  EXPECT_EQ(CountRows(), 2u);
  rs = Run("SELECT v FROM t WHERE id = 1");
  EXPECT_EQ(rs.rows[0][0], Value::Text("a2"));
}

TEST_P(TxnSqlTest, RollbackRestoresThePreTransactionState) {
  Run("INSERT INTO t VALUES (1, 'keep')");
  Run("BEGIN");
  Run("INSERT INTO t VALUES (2, 'gone')");
  Run("UPDATE t SET v = 'mutated' WHERE id = 1");
  Run("DELETE FROM t WHERE id = 1");
  EXPECT_EQ(CountRows(), 1u);
  ResultSet rs = Run("ROLLBACK");
  EXPECT_EQ(rs.message, "ROLLBACK");
  EXPECT_EQ(CountRows(), 1u);
  rs = Run("SELECT v FROM t WHERE id = 1");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Text("keep"));
}

// Point SELECTs take the key-direct path (DESIGN.md §6a); inside a
// transaction it must see the transaction's own INSERT, key UPDATE, and
// DELETE, and after ROLLBACK the restored key index.
TEST_P(TxnSqlTest, PointSelectSeesOwnWritesAndRollback) {
  Run("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  auto point = [&](int id) {
    ResultSet rs = Run("SELECT v FROM t WHERE id = " + std::to_string(id));
    return rs.num_rows() == 0 ? std::string("-")
                              : rs.rows[0][0].ToDisplayString();
  };
  Run("BEGIN");
  Run("INSERT INTO t VALUES (4, 'd')");
  EXPECT_EQ(point(4), "d");
  Run("UPDATE t SET id = 20, v = 'b2' WHERE id = 2");
  EXPECT_EQ(point(2), "-");
  EXPECT_EQ(point(20), "b2");
  Run("DELETE FROM t WHERE id = 3");
  EXPECT_EQ(point(3), "-");
  Run("ROLLBACK");
  EXPECT_EQ(point(1), "a");
  EXPECT_EQ(point(2), "b");
  EXPECT_EQ(point(3), "c");
  EXPECT_EQ(point(4), "-");
  EXPECT_EQ(point(20), "-");
}

TEST_P(TxnSqlTest, RollbackRestoresDisplayOrderAndRowIds) {
  for (int i = 0; i < 4; ++i) {
    Run("INSERT INTO t VALUES (" + std::to_string(i) + ", 'r" +
        std::to_string(i) + "')");
  }
  Table* table = db_.catalog().GetTable("t").ValueOrDie();
  // Middle insert + middle delete scramble display order and the rid maps;
  // ROLLBACK must put back the exact order, not just the row multiset.
  // Direct Table-API writes inside a transaction require LOCK TABLE: the
  // undo journal installs with the write latch, not at BEGIN.
  Run("BEGIN");
  ASSERT_EQ(Run("LOCK TABLE t").message, "LOCK TABLE t");
  ASSERT_TRUE(table->InsertRowAt(1, {Value::Int(99), Value::Text("mid")}).ok());
  ASSERT_TRUE(table->DeleteRowAt(3).ok());
  ASSERT_TRUE(table->DeleteRowAt(0).ok());
  Run("ROLLBACK");
  ASSERT_EQ(table->num_rows(), 4u);
  for (size_t pos = 0; pos < 4; ++pos) {
    Row row = table->GetRowAt(pos).ValueOrDie();
    EXPECT_EQ(row[0], Value::Int(static_cast<int64_t>(pos))) << "pos " << pos;
    EXPECT_EQ(row[1], Value::Text("r" + std::to_string(pos))) << "pos " << pos;
  }
  // The rid maps survived too: key-direct access still lands on every row.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(table->GetRowByKey(Value::Int(i)).ok()) << i;
  }
}

TEST_P(TxnSqlTest, NestedBeginRejectedWithoutPoisoning) {
  Run("BEGIN");
  Run("INSERT INTO t VALUES (1, 'a')");
  EXPECT_FALSE(db_.Execute("BEGIN").ok());
  // The rejection is protocol noise, not a transaction failure: work
  // continues and commits.
  Run("INSERT INTO t VALUES (2, 'b')");
  Run("COMMIT");
  EXPECT_EQ(CountRows(), 2u);
}

TEST_P(TxnSqlTest, CommitAndRollbackWithoutBeginRejected) {
  EXPECT_FALSE(db_.Execute("COMMIT").ok());
  EXPECT_FALSE(db_.Execute("ROLLBACK").ok());
  EXPECT_FALSE(db_.Execute("ABORT").ok());
  // The rejections leave autocommit intact.
  Run("INSERT INTO t VALUES (1, 'a')");
  EXPECT_EQ(CountRows(), 1u);
}

TEST_P(TxnSqlTest, StatementErrorPoisonsUntilRollback) {
  Run("INSERT INTO t VALUES (1, 'a')");
  Run("BEGIN");
  Run("INSERT INTO t VALUES (2, 'b')");
  // Duplicate PK: the statement fails and poisons the transaction.
  EXPECT_FALSE(db_.Execute("INSERT INTO t VALUES (1, 'dup')").ok());
  // Everything — DML and SELECT alike — fails until ROLLBACK.
  EXPECT_FALSE(db_.Execute("INSERT INTO t VALUES (3, 'c')").ok());
  EXPECT_FALSE(db_.Execute("SELECT * FROM t").ok());
  Run("ROLLBACK");
  // The poisoned transaction's pre-error work is gone too.
  EXPECT_EQ(CountRows(), 1u);
  Run("INSERT INTO t VALUES (3, 'c')");
  EXPECT_EQ(CountRows(), 2u);
}

TEST_P(TxnSqlTest, ParseErrorPoisonsToo) {
  Run("BEGIN");
  Run("INSERT INTO t VALUES (1, 'a')");
  EXPECT_FALSE(db_.Execute("INSRT INTO t VALUES (2, 'b')").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO t VALUES (2, 'b')").ok());
  Run("ROLLBACK");
  EXPECT_EQ(CountRows(), 0u);
}

TEST_P(TxnSqlTest, CommitOfPoisonedTransactionRollsBack) {
  Run("BEGIN");
  Run("INSERT INTO t VALUES (1, 'a')");
  EXPECT_FALSE(db_.Execute("SELECT * FROM missing").ok());
  ResultSet rs = Run("COMMIT");
  EXPECT_EQ(rs.message, "ROLLBACK");
  EXPECT_EQ(CountRows(), 0u);
  // The transaction is over: a fresh BEGIN works.
  Run("BEGIN");
  Run("INSERT INTO t VALUES (1, 'a')");
  Run("COMMIT");
  EXPECT_EQ(CountRows(), 1u);
}

TEST_P(TxnSqlTest, DdlInsideTransactionRejectedAndPoisons) {
  Run("BEGIN");
  EXPECT_FALSE(db_.Execute("CREATE TABLE u (a INT)").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO t VALUES (1, 'a')").ok());
  Run("ROLLBACK");
  EXPECT_FALSE(db_.catalog().HasTable("u"));
  // Direct-API DDL is gated the same way.
  Run("BEGIN");
  Schema schema;
  ASSERT_TRUE(schema.AddColumn(ColumnDef{"a", DataType::kInt, false}).ok());
  EXPECT_FALSE(db_.CreateTable("u", std::move(schema)).ok());
  Run("ROLLBACK");
}

TEST_P(TxnSqlTest, AutocommitUnchangedOutsideBegin) {
  Run("INSERT INTO t VALUES (1, 'a')");
  EXPECT_FALSE(db_.Execute("INSERT INTO t VALUES (1, 'dup')").ok());
  // No poison without an open transaction: the next statement just runs.
  Run("INSERT INTO t VALUES (2, 'b')");
  EXPECT_EQ(CountRows(), 2u);
}

TEST_P(TxnSqlTest, AbortAliasAndNoiseWords) {
  Run("BEGIN TRANSACTION");
  Run("INSERT INTO t VALUES (1, 'a')");
  ResultSet rs = Run("ABORT");
  EXPECT_EQ(rs.message, "ROLLBACK");
  EXPECT_EQ(CountRows(), 0u);
  Run("BEGIN WORK");
  Run("INSERT INTO t VALUES (1, 'a')");
  Run("COMMIT WORK;");
  EXPECT_EQ(CountRows(), 1u);
  Run("BEGIN");
  Run("DELETE FROM t");
  Run("ROLLBACK TRANSACTION");
  EXPECT_EQ(CountRows(), 1u);
}

TEST_P(TxnSqlTest, RollbackOfManyInterleavedStatements) {
  // A longer tape of mixed DML, rolled back: byte-for-byte restoration.
  for (int i = 0; i < 16; ++i) {
    Run("INSERT INTO t VALUES (" + std::to_string(i) + ", 'v" +
        std::to_string(i) + "')");
  }
  ResultSet before = Run("SELECT id, v FROM t");
  Run("BEGIN");
  for (int i = 0; i < 8; ++i) {
    Run("UPDATE t SET v = 'x' WHERE id = " + std::to_string(2 * i));
    Run("DELETE FROM t WHERE id = " + std::to_string(2 * i + 1));
    Run("INSERT INTO t VALUES (" + std::to_string(100 + i) + ", 'new')");
  }
  Run("ROLLBACK");
  ResultSet after = Run("SELECT id, v FROM t");
  ASSERT_EQ(after.num_rows(), before.num_rows());
  for (size_t r = 0; r < before.num_rows(); ++r) {
    EXPECT_EQ(after.rows[r], before.rows[r]) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Models, TxnSqlTest,
                         ::testing::Values(StorageModel::kRow,
                                           StorageModel::kColumn,
                                           StorageModel::kRcv,
                                           StorageModel::kHybrid),
                         [](const auto& info) {
                           switch (info.param) {
                             case StorageModel::kRow: return "row";
                             case StorageModel::kColumn: return "column";
                             case StorageModel::kRcv: return "rcv";
                             case StorageModel::kHybrid: return "hybrid";
                           }
                           return "unknown";
                         });

// ---------------------------------------------------------------------------
// Durable-pair behavior: commit barrier placement and reopen
// ---------------------------------------------------------------------------

class TxnDurableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "txn_sql_durable";
    std::remove((base_ + ".wal").c_str());
    std::remove((base_ + ".pages").c_str());
  }
  std::string base_;
};

TEST_F(TxnDurableTest, CommittedTransactionSurvivesReopen) {
  {
    auto db = Database::Open(base_);
    ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)").ok());
    ASSERT_TRUE(db->Execute("BEGIN").ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                              ", 'v')").ok());
    }
    ASSERT_TRUE(db->Execute("COMMIT").ok());
  }
  auto db = Database::Open(base_);
  EXPECT_EQ(db->Execute("SELECT * FROM t").ValueOrDie().num_rows(), 10u);
}

TEST_F(TxnDurableTest, OpenTransactionAtCrashVanishesWholesale) {
  {
    auto db = Database::Open(base_);
    ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT PRIMARY KEY)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (0)").ok());
    db->pager().SyncWal();
    ASSERT_TRUE(db->Execute("BEGIN").ok());
    for (int i = 1; i < 8; ++i) {
      ASSERT_TRUE(
          db->Execute("INSERT INTO t VALUES (" + std::to_string(i) + ")").ok());
    }
    // No COMMIT: simulate a crash mid-transaction.
    db->pager().CrashForTesting();
  }
  auto db = Database::Open(base_);
  // The whole open transaction is gone — not one statement leaked.
  EXPECT_EQ(db->Execute("SELECT * FROM t").ValueOrDie().num_rows(), 1u);
}

TEST_F(TxnDurableTest, RolledBackTransactionIsANetNoOpAcrossReopen) {
  {
    auto db = Database::Open(base_);
    ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1, 'keep')").ok());
    ASSERT_TRUE(db->Execute("BEGIN").ok());
    ASSERT_TRUE(db->Execute("UPDATE t SET v = 'poof' WHERE id = 1").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (2, 'poof')").ok());
    ASSERT_TRUE(db->Execute("ROLLBACK").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (3, 'after')").ok());
  }
  auto db = Database::Open(base_);
  ResultSet rs = db->Execute("SELECT id, v FROM t ORDER BY id").ValueOrDie();
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][1], Value::Text("keep"));
  EXPECT_EQ(rs.rows[1][0], Value::Int(3));
}

TEST_F(TxnDurableTest, DestructionWithOpenTransactionRollsBack) {
  {
    auto db = Database::Open(base_);
    ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT PRIMARY KEY)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1)").ok());
    ASSERT_TRUE(db->Execute("BEGIN").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (2)").ok());
    // Clean destruction (checkpoint) with the transaction still open.
  }
  auto db = Database::Open(base_);
  EXPECT_EQ(db->Execute("SELECT * FROM t").ValueOrDie().num_rows(), 1u);
}

// ---------------------------------------------------------------------------
// Deadlock handling: wait-die, deterministic and single-threaded
// ---------------------------------------------------------------------------

/// Two sessions acquire tables A and B in opposite order. No threads are
/// needed: the younger transaction's cross-acquisition hits wait-die
/// *synchronously* (it already holds a latch, so it may not block on the
/// older holder) and is aborted on the spot with a retryable
/// serialization-conflict error. The survivor commits untouched, and the
/// retried victim then succeeds — the canonical deadlock→abort→retry
/// round-trip, with the final state matching a serial execution.
TEST(TxnDeadlockTest, YoungerAbortsRetryableAndSurvivorCommits) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE a (id INT PRIMARY KEY, v TEXT)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE b (id INT PRIMARY KEY, v TEXT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO a VALUES (1, 'a-seed')").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO b VALUES (1, 'b-seed')").ok());
  auto s1 = db.CreateSession();
  auto s2 = db.CreateSession();
  auto run = [](Session* s, const std::string& sql) {
    auto r = s->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  run(s1.get(), "BEGIN");  // the older transaction (smaller txn id)
  run(s2.get(), "BEGIN");  // the younger one
  run(s1.get(), "INSERT INTO a VALUES (2, 's1')");  // s1 latches a
  run(s2.get(), "INSERT INTO b VALUES (2, 's2')");  // s2 latches b
  // The cycle's closing edge: s2 (younger, already holding b) asks for a,
  // held by the older s1. Wait-die kills the requester.
  auto conflict = s2->Execute("INSERT INTO a VALUES (3, 's2-boom')");
  ASSERT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kSerializationConflict)
      << conflict.status().ToString();
  // The victim was rolled back immediately — its latch on b is gone and its
  // mutations undone — but the session stays poisoned until ROLLBACK.
  auto poisoned = s2->Execute("SELECT * FROM b");
  EXPECT_FALSE(poisoned.ok());
  // The survivor now takes b without waiting and commits.
  run(s1.get(), "UPDATE b SET v = 's1-was-here' WHERE id = 1");
  run(s1.get(), "COMMIT");
  // The victim acknowledges the abort and retries its whole transaction,
  // which now sails through.
  EXPECT_EQ(s2->Execute("ROLLBACK").ValueOrDie().message, "ROLLBACK");
  run(s2.get(), "BEGIN");
  run(s2.get(), "INSERT INTO b VALUES (2, 's2')");
  run(s2.get(), "INSERT INTO a VALUES (3, 's2-boom')");
  run(s2.get(), "COMMIT");
  // Final state = serial s1-then-s2: s1's insert and update landed, s2's
  // first attempt vanished, its retry landed whole.
  ResultSet a = db.Execute("SELECT id, v FROM a ORDER BY id").ValueOrDie();
  ASSERT_EQ(a.num_rows(), 3u);
  EXPECT_EQ(a.rows[0][1], Value::Text("a-seed"));
  EXPECT_EQ(a.rows[1][1], Value::Text("s1"));
  EXPECT_EQ(a.rows[2][1], Value::Text("s2-boom"));
  ResultSet b = db.Execute("SELECT id, v FROM b ORDER BY id").ValueOrDie();
  ASSERT_EQ(b.num_rows(), 2u);
  EXPECT_EQ(b.rows[0][1], Value::Text("s1-was-here"));
  EXPECT_EQ(b.rows[1][1], Value::Text("s2"));
}

TEST_F(TxnDurableTest, GroupCommitSyncsOnceAtCommit) {
  DatabaseOptions options;
  options.sync_on_commit = true;
  auto db = Database::Open(base_, options);
  ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT PRIMARY KEY)").ok());
  uint64_t before = db->pager().stats().wal_syncs;
  ASSERT_TRUE(db->Execute("BEGIN").ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        db->Execute("INSERT INTO t VALUES (" + std::to_string(i) + ")").ok());
  }
  // The member statements take no commit barrier of their own.
  EXPECT_EQ(db->pager().stats().wal_syncs, before);
  ASSERT_TRUE(db->Execute("COMMIT").ok());
  EXPECT_EQ(db->pager().stats().wal_syncs, before + 1);
}

}  // namespace
}  // namespace dataspread
