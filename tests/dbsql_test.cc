#include <gtest/gtest.h>

#include "core/dataspread.h"

namespace dataspread {
namespace {

/// Figure 2a scenarios: DBSQL with positional addressing (RANGEVALUE /
/// RANGETABLE) and result spills.
class DbsqlTest : public ::testing::Test {
 protected:
  DbsqlTest() {
    sheet_ = ds_.AddSheet("S").ValueOrDie();
    EXPECT_TRUE(ds_.Sql("CREATE TABLE actors (actorid INT PRIMARY KEY, "
                        "name TEXT)").ok());
    EXPECT_TRUE(ds_.Sql("INSERT INTO actors VALUES (1, 'Weaver'), "
                        "(2, 'Oldman'), (3, 'Thurman')").ok());
  }

  DataSpread ds_;
  Sheet* sheet_;
};

TEST_F(DbsqlTest, PlainQuerySpillsBlock) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0,
                            "=DBSQL(\"SELECT actorid, name FROM actors "
                            "ORDER BY actorid\")").ok());
  // Anchor gets the first value; the block spans 3 rows × 2 columns.
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Int(1));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 1), Value::Text("Weaver"));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 2, 1), Value::Text("Thurman"));
}

TEST_F(DbsqlTest, RangeValueRelativeReference) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0, "2").ok());  // A1
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 1,
                            "=DBSQL(\"SELECT name FROM actors WHERE "
                            "actorid = RANGEVALUE(A1)\")").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 1), Value::Text("Oldman"));
  // Editing the referenced cell re-runs the query (dependency tracked).
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0, "3").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 1), Value::Text("Thurman"));
}

TEST_F(DbsqlTest, BackEndChangeRerunsDbsql) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0,
                            "=DBSQL(\"SELECT COUNT(*) FROM actors\")").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Int(3));
  ASSERT_TRUE(ds_.Sql("INSERT INTO actors VALUES (4, 'Rickman')").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Int(4));
}

TEST_F(DbsqlTest, RangeTableJoinsSheetDataWithDatabase) {
  // Sheet range with header: actorid | bonus.
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 3, "actorid").ok());  // D1
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 4, "bonus").ok());    // E1
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 1, 3, "1").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 1, 4, "100").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 2, 3, "3").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 2, 4, "250").ok());
  ASSERT_TRUE(ds_.SetCellAt(
                    sheet_, 0, 6,
                    "=DBSQL(\"SELECT name, bonus FROM actors NATURAL JOIN "
                    "RANGETABLE(D1:E3) ORDER BY bonus DESC\")")
                  .ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 6), Value::Text("Thurman"));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 7), Value::Int(250));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 1, 6), Value::Text("Weaver"));
  // Editing sheet data inside the RANGETABLE re-runs the query.
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 1, 4, "999").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 6), Value::Text("Weaver"));
}

TEST_F(DbsqlTest, SpillShrinksCleanly) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0,
                            "=DBSQL(\"SELECT name FROM actors ORDER BY "
                            "actorid\")").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 2, 0), Value::Text("Thurman"));
  ASSERT_TRUE(ds_.Sql("DELETE FROM actors WHERE actorid > 1").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Text("Weaver"));
  // Stale spill rows are cleared.
  EXPECT_TRUE(ds_.GetValueAt(sheet_, 1, 0).is_null());
  EXPECT_TRUE(ds_.GetValueAt(sheet_, 2, 0).is_null());
}

TEST_F(DbsqlTest, SharedComputationAcrossIdenticalCells) {
  uint64_t before = ds_.interface_manager().dbsql_executions();
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0,
                            "=DBSQL(\"SELECT COUNT(*) FROM actors\")").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 5, 0,
                            "=DBSQL(\"SELECT COUNT(*) FROM actors\")").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 5, 0), Value::Int(3));
  // The second identical query is served from the shared-result cache.
  EXPECT_EQ(ds_.interface_manager().dbsql_executions() - before, 1u);
  EXPECT_GE(ds_.interface_manager().dbsql_cache_hits(), 1u);
}

TEST_F(DbsqlTest, DbsqlRejectsNonSelect) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0,
                            "=DBSQL(\"DELETE FROM actors\")").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Error("#VALUE!"));
  EXPECT_EQ(ds_.Sql("SELECT COUNT(*) FROM actors").value().rows[0][0],
            Value::Int(3));
}

TEST_F(DbsqlTest, BadSqlShowsValueError) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0, "=DBSQL(\"SELEKT nope\")").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Error("#VALUE!"));
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 1, 0, "=DBSQL(42)").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 1, 0), Value::Error("#VALUE!"));
}

TEST_F(DbsqlTest, EmptyResultShowsPlaceholder) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0,
                            "=DBSQL(\"SELECT name FROM actors WHERE "
                            "actorid = 99\")").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Text("(0 rows)"));
}

TEST_F(DbsqlTest, FormulasOverSpill) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0,
                            "=DBSQL(\"SELECT actorid FROM actors ORDER BY "
                            "actorid\")").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 2, "=SUM(A1:A3)").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 2), Value::Real(6.0));
  // Figure 2c chain: DB change → DBSQL spill refresh → dependent formula.
  // Inserting actorid 0 shifts the ordered spill to [0,1,2,3]: SUM(A1:A3)=3.
  ASSERT_TRUE(ds_.Sql("INSERT INTO actors VALUES (0, 'Zeta')").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 2), Value::Real(3.0));
}

TEST_F(DbsqlTest, SqlThroughFacadeSupportsQualifiedRefs) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0, "2").ok());
  auto rs = ds_.Sql("SELECT name FROM actors WHERE actorid = RANGEVALUE(S!A1)");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().num_rows(), 1u);
  EXPECT_EQ(rs.value().rows[0][0], Value::Text("Oldman"));
  // Unqualified refs have no anchor through the facade.
  EXPECT_FALSE(ds_.Sql("SELECT RANGEVALUE(A1)").ok());
}

TEST(DbsqlVersionTest, DroppedAndRecreatedTableIsNotServedFromCache) {
  DataSpreadOptions opts;
  opts.auto_pump = false;
  DataSpread ds(opts);
  Sheet* sheet = ds.AddSheet("S").ValueOrDie();
  ASSERT_TRUE(ds.Sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(ds.Sql("INSERT INTO t VALUES (1, 10), (2, 20)").ok());
  ASSERT_TRUE(
      ds.SetCellAt(sheet, 0, 0, "=DBSQL(\"SELECT SUM(v) FROM t\")").ok());
  ds.Pump();
  EXPECT_EQ(ds.GetValueAt(sheet, 0, 0), Value::Int(30));
  // The new table has made as many changes as the old one had; its
  // versions must still differ.
  ASSERT_TRUE(ds.Sql("DROP TABLE t").ok());
  ASSERT_TRUE(ds.Sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(ds.Sql("INSERT INTO t VALUES (1, 100), (2, 200)").ok());
  ds.Pump();
  EXPECT_EQ(ds.GetValueAt(sheet, 0, 0), Value::Int(300));
}

TEST_F(DbsqlTest, OverwrittenAnchorClearsItsSpill) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0,
                            "=DBSQL(\"SELECT actorid, name FROM actors "
                            "ORDER BY actorid\")").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 2, 1), Value::Text("Thurman"));
  EXPECT_EQ(ds_.interface_manager().dbsql_cache_size(), 1u);
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0, "7").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Int(7));
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t c = 0; c < 2; ++c) {
      if (r == 0 && c == 0) continue;
      EXPECT_TRUE(ds_.GetValueAt(sheet_, r, c).is_null()) << r << "," << c;
    }
  }
  EXPECT_EQ(ds_.interface_manager().dbsql_cache_size(), 0u);
  // The retired anchor no longer follows the table.
  uint64_t executions = ds_.interface_manager().dbsql_executions();
  ASSERT_TRUE(ds_.Sql("INSERT INTO actors VALUES (4, 'Rickman')").ok());
  EXPECT_EQ(ds_.interface_manager().dbsql_executions(), executions);
  EXPECT_TRUE(ds_.GetValueAt(sheet_, 3, 1).is_null());
}

TEST_F(DbsqlTest, ParameterEditsKeepOneCacheEntryPerAnchor) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0, "1").ok());  // A1: parameter
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 1,
                            "=DBSQL(\"SELECT COUNT(*) FROM actors WHERE "
                            "actorid >= RANGEVALUE(A1)\")").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 2,
                            "=DBSQL(\"SELECT name FROM actors WHERE "
                            "actorid = RANGEVALUE(A1)\")").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0, std::to_string(i % 5)).ok());
    EXPECT_LE(ds_.interface_manager().dbsql_cache_size(), 2u) << i;
  }
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0, "2").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 1), Value::Int(2));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 2), Value::Text("Oldman"));
  EXPECT_EQ(ds_.interface_manager().dbsql_cache_size(), 2u);
}

TEST_F(DbsqlTest, AggregateCellsFoldEditsWithoutReexecuting) {
  ASSERT_TRUE(ds_.Sql("CREATE TABLE t (id INT PRIMARY KEY, grp INT, "
                      "qty INT)").ok());
  ASSERT_TRUE(ds_.Sql("INSERT INTO t VALUES (1, 0, 10), (2, 1, 20), "
                      "(3, 0, 30)").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 4,
                            "=DBSQL(\"SELECT SUM(qty), COUNT(*), AVG(qty) "
                            "FROM t\")").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 2, 4,
                            "=DBSQL(\"SELECT grp, SUM(qty) FROM t GROUP BY "
                            "grp ORDER BY grp DESC\")").ok());
  InterfaceManager& im = ds_.interface_manager();
  uint64_t executions = im.dbsql_executions();
  // A keyed cell edit, a new group, a positional update, and a delete that
  // empties a group: all folded in, none re-executed.
  ASSERT_TRUE(ds_.Sql("UPDATE t SET qty = 15 WHERE id = 1").ok());
  ASSERT_TRUE(ds_.Sql("INSERT INTO t VALUES (4, 2, 5)").ok());
  Table* t = ds_.db().catalog().GetTable("t").ValueOrDie();
  ASSERT_TRUE(t->UpdateAt(1, 2, Value::Int(25)).ok());  // id 2: qty 25
  ASSERT_TRUE(ds_.Sql("DELETE FROM t WHERE id = 2").ok());
  ds_.Pump();
  EXPECT_EQ(im.dbsql_executions(), executions);
  EXPECT_GE(im.dbsql_maintained(), 8u);  // four changes × two cells
  EXPECT_EQ(im.dbsql_fallbacks(), 0u);
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 4), Value::Int(50));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 5), Value::Int(3));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 6), Value::Real(50.0 / 3.0));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 2, 4), Value::Int(2));  // groups 2, 0
  EXPECT_EQ(ds_.GetValueAt(sheet_, 2, 5), Value::Int(5));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 3, 4), Value::Int(0));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 3, 5), Value::Int(45));
  EXPECT_TRUE(ds_.GetValueAt(sheet_, 4, 4).is_null());  // group 1 emptied
  // A schema change is not folded: the next evaluation re-executes.
  ASSERT_TRUE(ds_.Sql("ALTER TABLE t ADD COLUMN note TEXT").ok());
  EXPECT_GE(im.dbsql_fallbacks(), 2u);
  EXPECT_GT(im.dbsql_executions(), executions);
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 4), Value::Int(50));
}

TEST_F(DbsqlTest, IntegerSumOverflowShowsValueError) {
  ASSERT_TRUE(ds_.Sql("CREATE TABLE big (k INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(
      ds_.Sql("INSERT INTO big VALUES (1, 9223372036854775807)").ok());
  ASSERT_TRUE(
      ds_.SetCellAt(sheet_, 0, 0, "=DBSQL(\"SELECT SUM(v) FROM big\")").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Int(INT64_MAX));
  // Maintained or re-executed, a total beyond INTEGER is an error.
  ASSERT_TRUE(ds_.Sql("INSERT INTO big VALUES (2, 1)").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Error("#VALUE!"));
  ASSERT_TRUE(ds_.Sql("INSERT INTO big VALUES (3, -1)").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Int(INT64_MAX));
}

}  // namespace
}  // namespace dataspread
