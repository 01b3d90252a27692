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

// WHERE placement across joins (DESIGN.md §6a): a WHERE with a conjunct that
// can raise is never split below the joins. It raises, or does not, on
// exactly the rows the joins emit, as one filter above them would.
class JoinWhereTest : public DatabaseTest {
 protected:
  void SetUp() override {
    Run("CREATE TABLE t (id INT, grp TEXT, x REAL)");
    Run("CREATE TABLE u (grp TEXT, tag INT)");
    Run("CREATE TABLE v (grp TEXT)");
    Run("INSERT INTO t VALUES (1, 'a', 100), (2, 'b', 900), (3, 'z', 800)");
    Run("INSERT INTO u VALUES ('a', 1), ('b', 2)");
    Run("INSERT INTO v VALUES ('a')");
  }
};

TEST_F(JoinWhereTest, RaisingWhereKeepsItsError) {
  auto r = db_.Execute(
      "SELECT * FROM t JOIN u ON t.grp = u.grp WHERE t.grp > 5");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
  EXPECT_EQ(r.status().message(), "cannot compare TEXT with INTEGER");
  // No joined row gets past `u.tag < 0`, so the raising conjunct never runs.
  EXPECT_EQ(Run("SELECT * FROM t JOIN u ON t.grp = u.grp "
                "WHERE u.tag < 0 AND t.grp > 5")
                .num_rows(),
            0u);
}

TEST_F(JoinWhereTest, MixedWhereIsNotSplit) {
  // `t.x > 500` alone could move below the join; the division cannot, so
  // neither does. Row 2 joins u and reaches the division.
  auto r = db_.Execute(
      "SELECT t.id FROM t JOIN u ON t.grp = u.grp "
      "WHERE t.x > 500 AND 1 / (t.id - t.id) > 0");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "division by zero");
  // Only row 1 (x = 100) joins v, so no row reaches the division. Below the
  // join, `t.x > 500` would pass rows 2 and 3 into it.
  EXPECT_EQ(Run("SELECT t.id FROM t JOIN v ON t.grp = v.grp "
                "WHERE t.x > 500 AND 1 / (t.id - t.id) > 0")
                .num_rows(),
            0u);
}

TEST_F(JoinWhereTest, TypedColumnPairsSplitAndClashingPairsKeepTheirError) {
  // Column against column of compatible declared types cannot raise, so
  // the conjuncts split below the joins: `t.id < t.x` filters t, and
  // `t.id <= u.tag` the join's output. The answer is the unsplit one.
  ResultSet rs = Run(
      "SELECT t.id, u.tag FROM t JOIN u ON t.grp = u.grp "
      "WHERE t.id < t.x AND t.id <= u.tag AND u.grp <> t.grp ORDER BY t.id");
  EXPECT_EQ(rs.num_rows(), 0u);
  rs = Run(
      "SELECT t.id, u.tag FROM t JOIN u ON t.grp = u.grp "
      "WHERE t.id < t.x AND t.id <= u.tag ORDER BY t.id");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0], (Row{Value::Int(1), Value::Int(1)}));
  EXPECT_EQ(rs.rows[1], (Row{Value::Int(2), Value::Int(2)}));
  // TEXT against INTEGER can raise: the WHERE stays whole above the join,
  // and raises on the first joined row.
  auto r = db_.Execute(
      "SELECT t.id FROM t JOIN u ON t.grp = u.grp WHERE t.grp > u.tag");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "cannot compare TEXT with INTEGER");
  EXPECT_EQ(Run("SELECT t.id FROM t JOIN u ON t.grp = u.grp "
                "WHERE u.tag < 0 AND t.grp > u.tag")
                .num_rows(),
            0u);
}

// Build reuse (DESIGN.md §6a): a hash join whose right input scans a catalog
// table keeps its build table while that table's version stands still.
class JoinBuildReuseTest : public DatabaseTest {
 protected:
  static constexpr const char* kJoin =
      "SELECT title, name FROM m NATURAL JOIN l NATURAL JOIN a "
      "ORDER BY title, name";

  void SetUp() override {
    Run("CREATE TABLE m (movieid INT PRIMARY KEY, title TEXT, year INT)");
    Run("CREATE TABLE l (movieid INT, actorid INT)");
    Run("CREATE TABLE a (actorid INT PRIMARY KEY, name TEXT)");
    Run("INSERT INTO m VALUES (1, 'Heat', 1995), (2, 'Ran', 1985), "
        "(3, 'Up', 2009)");
    Run("INSERT INTO l VALUES (1, 10), (1, 11), (2, 12), (3, 10), (NULL, 11)");
    Run("INSERT INTO a VALUES (10, 'Ann'), (11, 'Bo'), (12, 'Cy')");
  }

  /// Runs `sql` and returns the (builds, reuses) it caused.
  std::pair<uint64_t, uint64_t> Counted(const std::string& sql,
                                        ResultSet* rs = nullptr) {
    uint64_t builds = db_.join_builds(), reuses = db_.join_build_reuses();
    ResultSet got = Run(sql);
    if (rs != nullptr) *rs = std::move(got);
    return {db_.join_builds() - builds, db_.join_build_reuses() - reuses};
  }

  static std::vector<std::string> Texts(const ResultSet& rs) {
    std::vector<std::string> out;
    for (const Row& row : rs.rows) {
      std::string line;
      for (const Value& v : row) line += v.ToDisplayString() + "|";
      out.push_back(line);
    }
    return out;
  }

  using Counts = std::pair<uint64_t, uint64_t>;
};

TEST_F(JoinBuildReuseTest, SecondIdenticalJoinReusesBothBuilds) {
  ResultSet first, second;
  EXPECT_EQ(Counted(kJoin, &first), (Counts{2, 0}));
  EXPECT_EQ(Counted(kJoin, &second), (Counts{0, 2}));
  EXPECT_EQ(Texts(second),
            (std::vector<std::string>{"Heat|Ann|", "Heat|Bo|", "Ran|Cy|",
                                      "Up|Ann|"}));
  EXPECT_EQ(Texts(first), Texts(second));
  // Another session shares the builds.
  auto session = db_.CreateSession();
  uint64_t reuses = db_.join_build_reuses();
  ASSERT_TRUE(session->Execute(kJoin).ok());
  EXPECT_EQ(db_.join_build_reuses(), reuses + 2);
}

TEST_F(JoinBuildReuseTest, ProbeTableWritesRebuildNothing) {
  Run(kJoin);
  ResultSet rs;
  Run("UPDATE m SET title = 'Alien' WHERE movieid = 3");
  EXPECT_EQ(Counted(kJoin, &rs), (Counts{0, 2}));
  EXPECT_EQ(Texts(rs).front(), "Alien|Ann|");
}

TEST_F(JoinBuildReuseTest, BuildTableWriteRebuildsExactlyThatBuild) {
  Run(kJoin);
  Run("UPDATE a SET name = 'Al' WHERE actorid = 10");
  ResultSet rs;
  EXPECT_EQ(Counted(kJoin, &rs), (Counts{1, 1}));
  EXPECT_EQ(Texts(rs), (std::vector<std::string>{"Heat|Al|", "Heat|Bo|",
                                                 "Ran|Cy|", "Up|Al|"}));
  EXPECT_EQ(Counted(kJoin), (Counts{0, 2}));
  // A direct table-API write moves the version too.
  Table* l = db_.catalog().GetTable("l").ValueOrDie();
  ASSERT_TRUE(l->DeleteRowAt(0).ok());
  EXPECT_EQ(Counted(kJoin, &rs), (Counts{1, 1}));
  EXPECT_EQ(rs.num_rows(), 3u);
}

TEST_F(JoinBuildReuseTest, RolledBackWriteRebuildsWithTheOriginalRows) {
  ResultSet before;
  Run(kJoin);
  Run("BEGIN");
  Run("INSERT INTO l VALUES (2, 10)");
  ResultSet inside;
  EXPECT_EQ(Counted(kJoin, &inside), (Counts{1, 1}));
  EXPECT_EQ(inside.num_rows(), 5u);
  Run("ROLLBACK");
  ResultSet after;
  EXPECT_EQ(Counted(kJoin, &after), (Counts{1, 1}));
  EXPECT_EQ(Texts(after), (std::vector<std::string>{"Heat|Ann|", "Heat|Bo|",
                                                    "Ran|Cy|", "Up|Ann|"}));
}

TEST_F(JoinBuildReuseTest, DropAndRecreateServesTheNewRows) {
  Run(kJoin);
  Run("DROP TABLE a");
  Run("CREATE TABLE a (actorid INT PRIMARY KEY, name TEXT)");
  Run("INSERT INTO a VALUES (10, 'Zed')");
  ResultSet rs;
  EXPECT_EQ(Counted(kJoin, &rs), (Counts{1, 1}));
  EXPECT_EQ(Texts(rs), (std::vector<std::string>{"Heat|Zed|", "Up|Zed|"}));
}

TEST_F(JoinBuildReuseTest, AddColumnOnABuildTableRebuilds) {
  Run(kJoin);
  Run("ALTER TABLE a ADD COLUMN age INT DEFAULT 40");
  ResultSet rs;
  EXPECT_EQ(Counted("SELECT title, name, age FROM m NATURAL JOIN l "
                    "NATURAL JOIN a ORDER BY title, name",
                    &rs),
            (Counts{1, 1}));
  ASSERT_EQ(rs.num_rows(), 4u);
  EXPECT_EQ(rs.rows[0][2], Value::Int(40));
  // The unchanged query's build of `a` is rebuilt as well: new version.
  EXPECT_EQ(Counted(kJoin), (Counts{1, 1}));
}

TEST_F(JoinBuildReuseTest, RangeTableRightInputIsNeverCached) {
  class Ranges : public ExternalResolver {
   public:
    RangeTableData data{{"actorid", "nick"},
                        {{Value::Int(10), Value::Text("A")},
                         {Value::Int(12), Value::Text("C")}}};
    Result<Value> ResolveRangeValue(const std::string&) override {
      return Status::NotFound("no cells");
    }
    Result<RangeTableData> ResolveRangeTable(const std::string&) override {
      return data;
    }
  } ranges;
  const std::string sql =
      "SELECT l.movieid, r.nick FROM l JOIN RANGETABLE(A1:B2) r "
      "ON l.actorid = r.actorid ORDER BY 1, 2";
  const std::vector<std::string> want[] = {
      {"1|A|", "2|C|", "3|A|"},
      {"|B|", "1|A|", "1|B|", "2|Cee|", "3|A|"},
  };
  for (const std::vector<std::string>& rows : want) {
    uint64_t builds = db_.join_builds(), reuses = db_.join_build_reuses();
    auto rs = db_.Execute(sql, &ranges);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(db_.join_builds(), builds + 1);
    EXPECT_EQ(db_.join_build_reuses(), reuses);
    EXPECT_EQ(Texts(rs.value()), rows);
    // The sheet changes under the query; no version tracks it.
    ranges.data.rows[1][1] = Value::Text("Cee");
    ranges.data.rows.push_back({Value::Int(11), Value::Text("B")});
  }
}

TEST_F(JoinBuildReuseTest, LeftAndMultiKeyJoinsReuseCorrectly) {
  Run("CREATE TABLE c (movieid INT, year INT, note TEXT)");
  Run("INSERT INTO c VALUES (1, 1995, 'ok'), (2, 1900, 'no'), "
      "(3, 2009, 'yes'), (3, 2009, 'again'), (NULL, 1985, 'null')");
  const std::string left =
      "SELECT m.title, c.note FROM m LEFT JOIN c ON m.movieid = c.movieid "
      "AND m.year = c.year ORDER BY 1, 2";
  ResultSet first, second;
  EXPECT_EQ(Counted(left, &first), (Counts{1, 0}));
  EXPECT_EQ(Counted(left, &second), (Counts{0, 1}));
  EXPECT_EQ(Texts(second), (std::vector<std::string>{"Heat|ok|", "Ran||",
                                                     "Up|again|", "Up|yes|"}));
  EXPECT_EQ(Texts(first), Texts(second));
  Run("INSERT INTO c VALUES (2, 1985, 'fix')");
  EXPECT_EQ(Counted(left, &second), (Counts{1, 0}));
  EXPECT_EQ(Texts(second), (std::vector<std::string>{"Heat|ok|", "Ran|fix|",
                                                     "Up|again|", "Up|yes|"}));
  EXPECT_EQ(Counted(left), (Counts{0, 1}));
}

TEST_F(JoinBuildReuseTest, BuildOverTheByteBoundIsUsedOnceAndNotKept) {
  DatabaseOptions options;
  options.pager.max_resident_pages = 1;  // a bound of one frame
  Database db(options);
  ASSERT_TRUE(db.Execute("CREATE TABLE p (k INT, v TEXT)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE b (k INT, w TEXT)").ok());
  for (int i = 0; i < 400; ++i) {
    std::string k = std::to_string(i);
    ASSERT_TRUE(db.Execute("INSERT INTO b VALUES (" + k + ", 'w" + k + "')")
                    .ok());
  }
  ASSERT_TRUE(db.Execute("INSERT INTO p VALUES (7, 'x'), (399, 'y')").ok());
  const std::string sql =
      "SELECT v, w FROM p JOIN b ON p.k = b.k ORDER BY v";
  for (int run = 0; run < 2; ++run) {
    uint64_t builds = db.join_builds();
    auto rs = db.Execute(sql);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ASSERT_EQ(rs.value().num_rows(), 2u);
    EXPECT_EQ(rs.value().rows[0][1], Value::Text("w7"));
    EXPECT_EQ(rs.value().rows[1][1], Value::Text("w399"));
    EXPECT_EQ(db.join_builds(), builds + 1);
  }
  EXPECT_EQ(db.join_build_reuses(), 0u);
  EXPECT_EQ(db.join_build_cache().retained_bytes(), 0u);
  // Raising the bound lets the same build stay.
  db.pager().set_max_resident_pages(4096);
  ASSERT_TRUE(db.Execute(sql).ok());
  ASSERT_TRUE(db.Execute(sql).ok());
  EXPECT_EQ(db.join_build_reuses(), 1u);
  EXPECT_GT(db.join_build_cache().retained_bytes(), 0u);
}

TEST_F(JoinBuildReuseTest, ChainMapsAreSizedByDistinctKeys) {
  // 2,000 build rows over 200 keys, ten rows each: reserving a bucket per
  // build row would leave the maps about ten times too large.
  constexpr int kRows = 2000, kKeys = 200;
  Run("CREATE TABLE p (k INT, j INT)");
  Run("CREATE TABLE r (k INT, j INT, w INT)");
  Table* r = db_.catalog().GetTable("r").ValueOrDie();
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(r->AppendRow(Row{Value::Int(i % kKeys),
                                 Value::Int(i / kKeys % 2), Value::Int(i)})
                    .ok());
  }
  Run("INSERT INTO p VALUES (7, 1), (8, 0)");
  ResultSet one = Run("SELECT w FROM p JOIN r ON p.k = r.k ORDER BY w");
  EXPECT_EQ(one.num_rows(), 20u);
  ResultSet two =
      Run("SELECT w FROM p JOIN r ON p.k = r.k AND p.j = r.j ORDER BY w");
  EXPECT_EQ(two.num_rows(), 10u);
  std::vector<std::shared_ptr<const JoinBuild>> kept =
      db_.join_build_cache().Retained(r);
  ASSERT_EQ(kept.size(), 2u);
  for (const std::shared_ptr<const JoinBuild>& build : kept) {
    // The single INT key is int64-keyed; the two-column key is Row-keyed.
    size_t keys = build->int_chains.size() + build->value_chains.size() +
                  build->row_chains.size();
    size_t buckets = build->row_chains.empty()
                         ? build->int_chains.bucket_count()
                         : build->row_chains.bucket_count();
    EXPECT_TRUE(build->value_chains.empty());
    EXPECT_EQ(keys, build->row_chains.empty() ? 200u : 400u);
    EXPECT_LE(buckets, 2 * keys);
    // The same build with a bucket reserved per build row estimates more.
    JoinBuild per_row = *build;
    per_row.int_chains.reserve(per_row.next.size());
    per_row.value_chains.reserve(per_row.next.size());
    per_row.row_chains.reserve(per_row.next.size());
    per_row.MeasureBytes();
    EXPECT_LT(build->bytes, per_row.bytes);
  }
}

TEST_F(JoinBuildReuseTest, DropTableReleasesItsBuilds) {
  Run(kJoin);
  Table* a = db_.catalog().GetTable("a").ValueOrDie();
  std::vector<std::shared_ptr<const JoinBuild>> kept =
      db_.join_build_cache().Retained(a);
  ASSERT_EQ(kept.size(), 1u);
  std::weak_ptr<const JoinBuild> build = kept.front();
  kept.clear();
  EXPECT_FALSE(build.expired());
  Run("DROP TABLE a");
  EXPECT_TRUE(build.expired());
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
