#include <gtest/gtest.h>

#include "core/dataspread.h"

namespace dataspread {
namespace {

/// Distinct corner cases discovered while exercising the full system; each
/// test pins one behaviour that is easy to regress.
class RegressionTest : public ::testing::Test {
 protected:
  ResultSet Run(const std::string& sql) {
    auto r = ds_.Sql(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : ResultSet{};
  }
  DataSpread ds_;
};

TEST_F(RegressionTest, SelfJoinWithAliases) {
  Run("CREATE TABLE emp (id INT PRIMARY KEY, boss INT, name TEXT)");
  Run("INSERT INTO emp VALUES (1, NULL, 'root'), (2, 1, 'ann'), (3, 1, 'bob'),"
      " (4, 2, 'cat')");
  ResultSet rs = Run(
      "SELECT e.name, b.name AS boss_name FROM emp e JOIN emp b "
      "ON e.boss = b.id ORDER BY e.id");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.rows[0][0], Value::Text("ann"));
  EXPECT_EQ(rs.rows[0][1], Value::Text("root"));
  EXPECT_EQ(rs.rows[2][1], Value::Text("ann"));
}

TEST_F(RegressionTest, ThreeWayNaturalJoinSharedColumnChain) {
  Run("CREATE TABLE a (k INT, x INT)");
  Run("CREATE TABLE b (k INT, y INT)");
  Run("CREATE TABLE c (y INT, z INT)");
  Run("INSERT INTO a VALUES (1, 10)");
  Run("INSERT INTO b VALUES (1, 20)");
  Run("INSERT INTO c VALUES (20, 30)");
  ResultSet rs = Run("SELECT * FROM a NATURAL JOIN b NATURAL JOIN c");
  EXPECT_EQ(rs.columns, (std::vector<std::string>{"k", "x", "y", "z"}));
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][3], Value::Int(30));
}

TEST_F(RegressionTest, OrderByPutsNullsFirst) {
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (2), (NULL), (1)");
  ResultSet rs = Run("SELECT a FROM t ORDER BY a");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_TRUE(rs.rows[0][0].is_null());  // NULL ranks lowest in the order
  EXPECT_EQ(rs.rows[1][0], Value::Int(1));
  // And last under DESC.
  rs = Run("SELECT a FROM t ORDER BY a DESC");
  EXPECT_TRUE(rs.rows[2][0].is_null());
}

TEST_F(RegressionTest, LimitZeroAndHugeOffset) {
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1), (2), (3)");
  EXPECT_EQ(Run("SELECT * FROM t LIMIT 0").num_rows(), 0u);
  EXPECT_EQ(Run("SELECT * FROM t LIMIT 10 OFFSET 100").num_rows(), 0u);
  EXPECT_EQ(Run("SELECT * FROM t OFFSET 2").num_rows(), 1u);
}

TEST_F(RegressionTest, HavingWithoutGroupByActsOnGlobalGroup) {
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1), (2)");
  EXPECT_EQ(Run("SELECT SUM(a) FROM t HAVING COUNT(*) > 1").num_rows(), 1u);
  EXPECT_EQ(Run("SELECT SUM(a) FROM t HAVING COUNT(*) > 5").num_rows(), 0u);
}

TEST_F(RegressionTest, DistinctOnExpressions) {
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1), (2), (3), (4)");
  ResultSet rs = Run("SELECT DISTINCT a % 2 FROM t ORDER BY 1");
  ASSERT_EQ(rs.num_rows(), 2u);
}

TEST_F(RegressionTest, CaseWithoutElseYieldsNull) {
  ResultSet rs = Run("SELECT CASE WHEN 1 = 2 THEN 'x' END");
  EXPECT_TRUE(rs.rows[0][0].is_null());
}

TEST_F(RegressionTest, UpdatePkViaFastPathRepointsKey) {
  Run("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Run("INSERT INTO t VALUES (1, 10)");
  // PK change through the keyed fast path must keep the index coherent.
  EXPECT_EQ(Run("UPDATE t SET id = 9 WHERE id = 1").affected_rows, 1u);
  EXPECT_EQ(Run("SELECT v FROM t WHERE id = 9").num_rows(), 1u);
  EXPECT_EQ(Run("SELECT v FROM t WHERE id = 1").num_rows(), 0u);
  // Key not present: zero rows, no error.
  EXPECT_EQ(Run("UPDATE t SET v = 0 WHERE id = 777").affected_rows, 0u);
}

// The key-direct path used to look any literal up in the key index as is.
// Above 2^53 `Value::Hash` and `Value::Compare` disagree across INTEGER and
// REAL: 9007199254740993 compares equal to 9007199254740992.0 (the INTEGER
// rounds on conversion) but hashes apart, so the keyed UPDATE matched 0 rows
// where the scan matched 1.
TEST_F(RegressionTest, KeyedUpdateAgreesWithScanBeyondTwoTo53) {
  Run("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Run("INSERT INTO t VALUES (9007199254740993, 1)");
  EXPECT_EQ(Run("SELECT * FROM t WHERE id = 9007199254740992.0").num_rows(),
            1u);
  EXPECT_EQ(Run("UPDATE t SET v = 2 WHERE id = 9007199254740992.0")
                .affected_rows,
            1u);
  EXPECT_EQ(Run("UPDATE t SET v = 3 WHERE id + 0 = 9007199254740992.0")
                .affected_rows,
            1u);
  EXPECT_EQ(Run("DELETE FROM t WHERE id = 9007199254740992.0").affected_rows,
            1u);
  EXPECT_EQ(Run("SELECT * FROM t").num_rows(), 0u);
}

// Comparing an INTEGER key with TEXT is a TypeError on the scan path (and in
// SELECT); the keyed UPDATE used to report 0 rows affected instead.
TEST_F(RegressionTest, KeyedUpdateTextLiteralOnIntKeyIsTypeError) {
  Run("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Run("INSERT INTO t VALUES (9007199254740993, 1)");
  for (const char* sql :
       {"UPDATE t SET v = 4 WHERE id = '9007199254740993'",
        "UPDATE t SET v = 4 WHERE id + 0 = '9007199254740993'",
        "SELECT * FROM t WHERE id = '9007199254740993'",
        "DELETE FROM t WHERE id = '9007199254740993'"}) {
    auto r = ds_.Sql(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kTypeError) << sql;
  }
  EXPECT_EQ(Run("SELECT v FROM t").rows[0][0], Value::Int(1));
}

// A keyed UPDATE that sets the key to a value of another type re-keys by the
// value as stored: `SET id = '7'` stores INTEGER 7, and the next assignment
// must find the row under 7, not '7' (it used to fail with NotFound after
// the key had already moved, leaving the statement half applied).
TEST_F(RegressionTest, KeyedUpdateRekeysByStoredKey) {
  Run("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Run("INSERT INTO t VALUES (5, 1)");
  EXPECT_EQ(Run("UPDATE t SET id = '7', v = 9 WHERE id = 5").affected_rows,
            1u);
  ResultSet rs = Run("SELECT id, v FROM t");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(7));
  EXPECT_EQ(rs.rows[0][1], Value::Int(9));
}

// NaN compares equal to every number, so a NaN key would make `id = x`
// match it for every x while the key index could never find it.
TEST_F(RegressionTest, NanPrimaryKeyIsRejected) {
  Run("CREATE TABLE r (id REAL PRIMARY KEY, v INT)");
  Run("INSERT INTO r VALUES (5.0, 1)");
  auto r = ds_.Sql("INSERT INTO r VALUES (1e308 * 10 - 1e308 * 10, 2)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
  r = ds_.Sql("UPDATE r SET id = 1e308 * 10 - 1e308 * 10 WHERE id = 5");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(Run("SELECT id FROM r WHERE id + 0 = 5").num_rows(), 1u);
}

TEST_F(RegressionTest, InsertSelectRespectsColumnList) {
  Run("CREATE TABLE src (a INT, b TEXT)");
  Run("INSERT INTO src VALUES (1, 'x')");
  Run("CREATE TABLE dst (p TEXT, q INT, r REAL)");
  Run("INSERT INTO dst (q, p) SELECT a, b FROM src");
  ResultSet rs = Run("SELECT p, q, r FROM dst");
  EXPECT_EQ(rs.rows[0][0], Value::Text("x"));
  EXPECT_EQ(rs.rows[0][1], Value::Int(1));
  EXPECT_TRUE(rs.rows[0][2].is_null());
}

class SheetRegressionTest : public ::testing::Test {
 protected:
  SheetRegressionTest() { sheet_ = ds_.AddSheet("S").ValueOrDie(); }
  void Put(int64_t r, int64_t c, const std::string& v) {
    ASSERT_TRUE(ds_.SetCellAt(sheet_, r, c, v).ok());
  }
  DataSpread ds_;
  Sheet* sheet_;
};

TEST_F(SheetRegressionTest, ColumnInsertAdjustsFormulaText) {
  Put(0, 0, "5");        // A1
  Put(0, 3, "=A1*2");    // D1
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 3), Value::Int(10));
  ASSERT_TRUE(ds_.InsertCols("S", 0, 2).ok());
  // Both the data and the formula moved right; the reference follows.
  EXPECT_EQ(sheet_->GetCell(0, 5)->formula, "=C1*2");
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 5), Value::Int(10));
  Put(0, 2, "7");
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 5), Value::Int(14));
}

TEST_F(SheetRegressionTest, ColumnDeleteProducesRefError) {
  Put(0, 1, "3");       // B1
  Put(0, 4, "=B1+1");   // E1
  ASSERT_TRUE(ds_.DeleteCols("S", 1, 1).ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 3), Value::Error("#REF!"));
}

TEST_F(SheetRegressionTest, AbsoluteAnchorsSurviveAdjustment) {
  Put(4, 0, "9");          // A5
  Put(0, 1, "=$A$5");      // B1, fully anchored
  ASSERT_TRUE(ds_.InsertRows("S", 1, 2).ok());
  // $ anchors mark copy/paste behaviour, not immunity to structural shifts:
  // the referenced *cell* moved, so the reference follows it.
  EXPECT_EQ(sheet_->GetCell(0, 1)->formula, "=$A$7");
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 1), Value::Int(9));
}

TEST_F(SheetRegressionTest, TwoBindingsOnOneTableBothRefresh) {
  ASSERT_TRUE(ds_.Sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(ds_.Sql("INSERT INTO t VALUES (1, 10)").ok());
  Sheet* other = ds_.AddSheet("S2").ValueOrDie();
  ASSERT_TRUE(ds_.ImportTable("S", "A1", "t").ok());
  ASSERT_TRUE(ds_.ImportTable("S2", "A1", "t").ok());
  ASSERT_TRUE(ds_.Sql("UPDATE t SET v = 42 WHERE id = 1").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 1, 1), Value::Int(42));
  EXPECT_EQ(ds_.GetValueAt(other, 1, 1), Value::Int(42));
  // An edit through one binding reaches the other.
  ASSERT_TRUE(ds_.SetCellAt(other, 1, 1, "77").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 1, 1), Value::Int(77));
}

TEST_F(SheetRegressionTest, DroppingBoundTableColumnShrinksRegion) {
  ASSERT_TRUE(ds_.Sql("CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)")
                  .ok());
  ASSERT_TRUE(ds_.Sql("INSERT INTO t VALUES (1, 10, 100)").ok());
  ASSERT_TRUE(ds_.ImportTable("S", "A1", "t").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 1, 2), Value::Int(100));
  ASSERT_TRUE(ds_.Sql("ALTER TABLE t DROP COLUMN v").ok());
  // The region narrows; edits at the old width are plain cells now.
  EXPECT_EQ(ds_.GetValueAt(sheet_, 1, 1), Value::Int(100));
  auto* binding = ds_.interface_manager().FindBindingAt(sheet_, 1, 2);
  EXPECT_EQ(binding, nullptr);
}

TEST_F(SheetRegressionTest, DbsqlOverEmptyRangeTable) {
  Put(0, 0, "h1");
  Put(0, 1, "h2");
  // Header-only range: zero data rows, but a valid relation.
  Put(0, 3, "=DBSQL(\"SELECT COUNT(*) FROM RANGETABLE(A1:B1)\")");
  // A single all-text row is data (no second row to prove it is a header).
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 3), Value::Int(1));
}

TEST_F(SheetRegressionTest, CrossSheetDbsqlRangeTable) {
  Sheet* data = ds_.AddSheet("Data").ValueOrDie();
  ASSERT_TRUE(ds_.SetCellAt(data, 0, 0, "n").ok());
  ASSERT_TRUE(ds_.SetCellAt(data, 1, 0, "4").ok());
  ASSERT_TRUE(ds_.SetCellAt(data, 2, 0, "6").ok());
  Put(0, 0, "=DBSQL(\"SELECT SUM(n) FROM RANGETABLE(Data!A1:A3)\")");
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Int(10));
  // Cross-sheet dependency: editing Data re-runs the query.
  ASSERT_TRUE(ds_.SetCellAt(data, 2, 0, "16").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Int(20));
}

TEST_F(SheetRegressionTest, FormulaOnBindingEdgeIsAllowedOutside) {
  ASSERT_TRUE(ds_.Sql("CREATE TABLE t (id INT PRIMARY KEY)").ok());
  ASSERT_TRUE(ds_.Sql("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(ds_.ImportTable("S", "A1", "t").ok());
  // One column wide, two rows tall (header + 1): C1 is outside the region.
  EXPECT_TRUE(ds_.SetCellAt(sheet_, 0, 2, "=1+1").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 2), Value::Int(2));
}

}  // namespace
}  // namespace dataspread
