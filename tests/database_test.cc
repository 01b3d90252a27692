#include <gtest/gtest.h>

#include "db/database.h"

namespace dataspread {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  ResultSet Run(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : ResultSet{};
  }
  Database db_;
};

TEST_F(DatabaseTest, CreateInsertSelectRoundTrip) {
  ResultSet rs = Run("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)");
  EXPECT_NE(rs.message.find("created"), std::string::npos);
  rs = Run("INSERT INTO t VALUES (1, 'a'), (2, 'b')");
  EXPECT_EQ(rs.affected_rows, 2u);
  rs = Run("SELECT * FROM t ORDER BY id");
  EXPECT_EQ(rs.num_rows(), 2u);
}

TEST_F(DatabaseTest, CreateIfNotExists) {
  Run("CREATE TABLE t (a INT)");
  EXPECT_FALSE(db_.Execute("CREATE TABLE t (a INT)").ok());
  EXPECT_TRUE(db_.Execute("CREATE TABLE IF NOT EXISTS t (a INT)").ok());
}

TEST_F(DatabaseTest, DropIfExists) {
  EXPECT_FALSE(db_.Execute("DROP TABLE ghost").ok());
  EXPECT_TRUE(db_.Execute("DROP TABLE IF EXISTS ghost").ok());
  Run("CREATE TABLE t (a INT)");
  Run("DROP TABLE t");
  EXPECT_FALSE(db_.catalog().HasTable("t"));
}

TEST_F(DatabaseTest, InsertColumnSubsetFillsNulls) {
  Run("CREATE TABLE t (a INT, b TEXT, c REAL)");
  Run("INSERT INTO t (c, a) VALUES (1.5, 7)");
  ResultSet rs = Run("SELECT a, b, c FROM t");
  EXPECT_EQ(rs.rows[0][0], Value::Int(7));
  EXPECT_TRUE(rs.rows[0][1].is_null());
  EXPECT_EQ(rs.rows[0][2], Value::Real(1.5));
}

TEST_F(DatabaseTest, InsertAtomicityOnPkViolation) {
  Run("CREATE TABLE t (id INT PRIMARY KEY)");
  Run("INSERT INTO t VALUES (1)");
  // Second row collides; the whole statement must roll back.
  EXPECT_FALSE(db_.Execute("INSERT INTO t VALUES (2), (1), (3)").ok());
  EXPECT_EQ(Run("SELECT * FROM t").num_rows(), 1u);
}

TEST_F(DatabaseTest, InsertSelect) {
  Run("CREATE TABLE src (a INT)");
  Run("INSERT INTO src VALUES (1), (2), (3)");
  Run("CREATE TABLE dst (a INT)");
  ResultSet rs = Run("INSERT INTO dst SELECT a * 10 FROM src WHERE a > 1");
  EXPECT_EQ(rs.affected_rows, 2u);
  rs = Run("SELECT a FROM dst ORDER BY a");
  EXPECT_EQ(rs.rows[0][0], Value::Int(20));
}

TEST_F(DatabaseTest, UpdateWithExpressionsAndWhere) {
  Run("CREATE TABLE t (id INT PRIMARY KEY, n INT)");
  Run("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  ResultSet rs = Run("UPDATE t SET n = n + 1 WHERE n >= 20");
  EXPECT_EQ(rs.affected_rows, 2u);
  rs = Run("SELECT n FROM t ORDER BY id");
  EXPECT_EQ(rs.rows[0][0], Value::Int(10));
  EXPECT_EQ(rs.rows[1][0], Value::Int(21));
  EXPECT_EQ(rs.rows[2][0], Value::Int(31));
}

TEST_F(DatabaseTest, UpdateRollsBackOnPkViolation) {
  Run("CREATE TABLE t (id INT PRIMARY KEY, n INT)");
  Run("INSERT INTO t VALUES (1, 10), (2, 20)");
  // Setting every id to 5 collides on the second row; first must roll back.
  EXPECT_FALSE(db_.Execute("UPDATE t SET id = 5").ok());
  ResultSet rs = Run("SELECT id FROM t ORDER BY id");
  EXPECT_EQ(rs.rows[0][0], Value::Int(1));
  EXPECT_EQ(rs.rows[1][0], Value::Int(2));
}

TEST_F(DatabaseTest, DeleteWithAndWithoutWhere) {
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1), (2), (3), (4)");
  EXPECT_EQ(Run("DELETE FROM t WHERE a % 2 = 0").affected_rows, 2u);
  EXPECT_EQ(Run("SELECT * FROM t").num_rows(), 2u);
  EXPECT_EQ(Run("DELETE FROM t").affected_rows, 2u);
  EXPECT_EQ(Run("SELECT * FROM t").num_rows(), 0u);
}

TEST_F(DatabaseTest, AlterTableLifecycle) {
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1), (2)");
  Run("ALTER TABLE t ADD COLUMN b TEXT DEFAULT 'x'");
  ResultSet rs = Run("SELECT b FROM t");
  EXPECT_EQ(rs.rows[0][0], Value::Text("x"));
  Run("ALTER TABLE t RENAME COLUMN b TO label");
  rs = Run("SELECT label FROM t");
  EXPECT_EQ(rs.num_rows(), 2u);
  Run("ALTER TABLE t DROP COLUMN a");
  rs = Run("SELECT * FROM t");
  EXPECT_EQ(rs.columns, std::vector<std::string>{"label"});
}

TEST_F(DatabaseTest, ChangeListenersFireAndDetach) {
  std::vector<std::string> log;
  int token = db_.AddChangeListener(
      [&](const std::string& table, const TableChange& change) {
        log.push_back(table + "/" + std::to_string(static_cast<int>(change.kind)));
      });
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1)");
  Run("UPDATE t SET a = 2");
  Run("DELETE FROM t");
  Run("ALTER TABLE t ADD COLUMN b INT");
  ASSERT_EQ(log.size(), 4u);  // insert, update, delete, schema
  db_.RemoveChangeListener(token);
  Run("INSERT INTO t VALUES (1, 2)");
  EXPECT_EQ(log.size(), 4u);
}

// The key-direct path's cost does not grow with the table: one point SELECT
// reads the same number of pager slots at 1k and at 100k rows, at most one
// per column (a count, so the gate is independent of timing). The key may be
// written as any expression that folds to a literal, on either side.
TEST(KeyDirectCostTest, PointSelectSlotReadsIndependentOfTableSize) {
  auto slot_reads = [](int64_t rows, const std::string& sql) {
    Database db;
    Table* t = db.CreateTable("t",
                              Schema({ColumnDef{"id", DataType::kInt, true},
                                      ColumnDef{"v", DataType::kInt, false}}))
                   .ValueOrDie();
    for (int64_t i = 0; i < rows; ++i) {
      EXPECT_TRUE(t->AppendRow({Value::Int(i), Value::Int(i * 2)}).ok());
    }
    uint64_t before = db.pager().stats().slot_reads;
    ResultSet rs = db.Execute(sql).ValueOrDie();
    uint64_t reads = db.pager().stats().slot_reads - before;
    EXPECT_EQ(rs.num_rows(), 1u);
    EXPECT_EQ(rs.rows[0][0], Value::Int(1554));
    return reads;
  };
  uint64_t small = slot_reads(1000, "SELECT v FROM t WHERE id = 777");
  EXPECT_GT(small, 0u);
  EXPECT_LE(small, 2u);  // the column count
  EXPECT_EQ(slot_reads(100000, "SELECT v FROM t WHERE id = 777"), small);
  EXPECT_EQ(slot_reads(100000, "SELECT v FROM t WHERE 770 + 7 = id"), small);
}

// Column pruning: a scan reads only the columns the query references. On a
// column-model table (one file per attribute) `SELECT SUM(c2)` touches one
// of four column files, so it reads about a quarter of the distinct pages
// `SELECT *` does; `COUNT(*)` reads no column at all.
TEST(ColumnPruningCostTest, ScanReadsOnlyReferencedColumns) {
  Database db;
  Table* t = db.CreateTable("t",
                            Schema({ColumnDef{"c0", DataType::kInt, false},
                                    ColumnDef{"c1", DataType::kInt, false},
                                    ColumnDef{"c2", DataType::kInt, false},
                                    ColumnDef{"c3", DataType::kInt, false}}),
                            StorageModel::kColumn)
                 .ValueOrDie();
  constexpr int64_t kRows = 10000;
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int(i), Value::Int(-i), Value::Int(1),
                              Value::Int(i % 7)})
                    .ok());
  }
  auto pages_read = [&db](const std::string& sql, Value want) {
    db.pager().BeginEpoch();
    ResultSet rs = db.Execute(sql).ValueOrDie();
    EXPECT_EQ(rs.rows.back()[0], want) << sql;
    return db.pager().EpochPagesRead();
  };
  size_t all = pages_read("SELECT * FROM t", Value::Int(kRows - 1));
  size_t one = pages_read("SELECT SUM(c2) FROM t", Value::Int(kRows));
  size_t none = pages_read("SELECT COUNT(*) FROM t", Value::Int(kRows));
  EXPECT_GT(one, 0u);
  EXPECT_NEAR(static_cast<double>(one), static_cast<double>(all) / 4.0,
              static_cast<double>(all) / 40.0)
      << "SUM(c2) read " << one << " pages, SELECT * read " << all;
  EXPECT_EQ(none, 0u);
}

TEST_F(DatabaseTest, StatementCounter) {
  uint64_t before = db_.statements_executed();
  Run("CREATE TABLE t (a INT)");
  Run("SELECT * FROM t");
  EXPECT_EQ(db_.statements_executed(), before + 2);
}

TEST_F(DatabaseTest, RangeConstructsRequireResolver) {
  Run("CREATE TABLE t (a INT)");
  auto r = db_.Execute("SELECT * FROM t WHERE a = RANGEVALUE(A1)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  r = db_.Execute("SELECT * FROM RANGETABLE(A1:B2)");
  ASSERT_FALSE(r.ok());
}

}  // namespace
}  // namespace dataspread
