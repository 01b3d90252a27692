#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <thread>

#include "db/database.h"
#include "exec/expr_eval.h"
#include "exec/morsel.h"
#include "exec/operators.h"

namespace dataspread {
namespace {

/// The serial pipeline at `batch_size` tuples per batch (0 = the default).
ExecOptions Batches(size_t batch_size) {
  ExecOptions exec;
  exec.batch_size = batch_size;
  return exec;
}

/// Executes against a fresh database pre-loaded with a small emp table.
class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Run("CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, dept TEXT, "
        "salary REAL)");
    Run("INSERT INTO emp VALUES (1, 'ann', 'eng', 120.0), "
        "(2, 'bob', 'eng', 100.0), (3, 'cat', 'ops', 90.0), "
        "(4, 'dan', 'ops', 80.0), (5, 'eve', 'hr', 70.0)");
  }

  ResultSet Run(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : ResultSet{};
  }

  Status RunErr(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_FALSE(r.ok()) << sql;
    return r.ok() ? Status::OK() : r.status();
  }

  Database db_;
};

TEST_F(ExecTest, SelectStar) {
  ResultSet rs = Run("SELECT * FROM emp");
  EXPECT_EQ(rs.columns,
            (std::vector<std::string>{"id", "name", "dept", "salary"}));
  EXPECT_EQ(rs.num_rows(), 5u);
  EXPECT_EQ(rs.rows[0][1], Value::Text("ann"));
}

TEST_F(ExecTest, Projection) {
  ResultSet rs = Run("SELECT name, salary * 2 AS double_pay FROM emp");
  EXPECT_EQ(rs.columns, (std::vector<std::string>{"name", "double_pay"}));
  EXPECT_EQ(rs.rows[0][1], Value::Real(240.0));
}

TEST_F(ExecTest, WhereFilters) {
  ResultSet rs = Run("SELECT name FROM emp WHERE salary >= 90 AND dept = 'eng'");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value::Text("ann"));
}

TEST_F(ExecTest, WhereWithInBetweenLike) {
  EXPECT_EQ(Run("SELECT * FROM emp WHERE id IN (1, 3, 5)").num_rows(), 3u);
  EXPECT_EQ(Run("SELECT * FROM emp WHERE salary BETWEEN 80 AND 100").num_rows(),
            3u);
  EXPECT_EQ(Run("SELECT * FROM emp WHERE name LIKE '%a%'").num_rows(), 3u);
  EXPECT_EQ(Run("SELECT * FROM emp WHERE name LIKE '_o_'").num_rows(), 1u);
}

TEST_F(ExecTest, OrderByAndLimit) {
  ResultSet rs = Run("SELECT name FROM emp ORDER BY salary DESC LIMIT 2");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value::Text("ann"));
  EXPECT_EQ(rs.rows[1][0], Value::Text("bob"));
  // Positional and multi-key ordering.
  rs = Run("SELECT dept, name FROM emp ORDER BY 1, 2 DESC");
  EXPECT_EQ(rs.rows[0][0], Value::Text("eng"));
  EXPECT_EQ(rs.rows[0][1], Value::Text("bob"));
}

TEST_F(ExecTest, LimitOffset) {
  ResultSet rs = Run("SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 2");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(3));
}

TEST_F(ExecTest, WindowPushdownPreservesOrder) {
  // The LIMIT/OFFSET pushdown path (no predicates): display order.
  ResultSet rs = Run("SELECT id FROM emp LIMIT 3 OFFSET 1");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(2));
  EXPECT_EQ(rs.rows[2][0], Value::Int(4));
}

TEST_F(ExecTest, Distinct) {
  ResultSet rs = Run("SELECT DISTINCT dept FROM emp ORDER BY dept");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.rows[0][0], Value::Text("eng"));
}

TEST_F(ExecTest, GlobalAggregates) {
  ResultSet rs = Run(
      "SELECT COUNT(*), COUNT(salary), SUM(salary), AVG(salary), "
      "MIN(salary), MAX(salary) FROM emp");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(5));
  EXPECT_EQ(rs.rows[0][1], Value::Int(5));
  EXPECT_EQ(rs.rows[0][2], Value::Real(460.0));
  EXPECT_EQ(rs.rows[0][3], Value::Real(92.0));
  EXPECT_EQ(rs.rows[0][4], Value::Real(70.0));
  EXPECT_EQ(rs.rows[0][5], Value::Real(120.0));
}

TEST_F(ExecTest, GroupByWithHaving) {
  ResultSet rs = Run(
      "SELECT dept, COUNT(*) AS n, AVG(salary) AS a FROM emp "
      "GROUP BY dept HAVING COUNT(*) >= 2 ORDER BY a DESC");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value::Text("eng"));
  EXPECT_EQ(rs.rows[0][1], Value::Int(2));
  EXPECT_EQ(rs.rows[0][2], Value::Real(110.0));
  EXPECT_EQ(rs.rows[1][0], Value::Text("ops"));
}

TEST_F(ExecTest, IntegerSumIsExactInEveryFoldOrder) {
  // A running int64 total of {INT64_MAX, 1, -1} overflows after the second
  // value; the exact 128-bit total is INT64_MAX whatever the batch size or
  // morsel split ({1 row per morsel} × 4 workers).
  Run("CREATE TABLE big (k INT PRIMARY KEY, v INT)");
  Run("INSERT INTO big VALUES (1, 9223372036854775807), (2, 1), (3, -1)");
  std::vector<ExecOptions> modes;
  for (size_t batch : {size_t{1}, size_t{3}, size_t{512}}) {
    modes.push_back(Batches(batch));
  }
  ExecOptions morsels = Batches(1);
  morsels.num_threads = 4;
  morsels.morsel_size = 1;
  modes.push_back(morsels);
  for (const ExecOptions& exec : modes) {
    db_.set_exec_options(exec);
    ResultSet rs = Run("SELECT SUM(v), AVG(v) FROM big");
    ASSERT_EQ(rs.rows.size(), 1u);
    EXPECT_EQ(rs.rows[0][0], Value::Int(INT64_MAX)) << exec.batch_size;
    EXPECT_EQ(rs.rows[0][0].type(), DataType::kInt);
    EXPECT_EQ(rs.rows[0][1], Value::Real(static_cast<double>(INT64_MAX) / 3));
  }
  // Without the -1 the total leaves INTEGER: a defined error, not UB.
  Run("DELETE FROM big WHERE k = 3");
  for (const ExecOptions& exec : modes) {
    db_.set_exec_options(exec);
    EXPECT_EQ(RunErr("SELECT SUM(v) FROM big").code(),
              StatusCode::kOutOfRange);
  }
  db_.set_exec_options(ExecOptions{});
}

TEST_F(ExecTest, AggregateOverEmptyInput) {
  ResultSet rs = Run("SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 100");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(0));
  EXPECT_TRUE(rs.rows[0][1].is_null());
  // Grouped aggregate over empty input: zero groups.
  rs = Run("SELECT dept, COUNT(*) FROM emp WHERE id > 100 GROUP BY dept");
  EXPECT_EQ(rs.num_rows(), 0u);
}

TEST(JoinBatchCapacityTest, CrossJoinNeverOvershootsBatchCapacity) {
  // Tiny batch, high fan-out: 3 left rows × 10 right rows through a
  // 4-tuple batch. The regression: resuming a new left row into a batch
  // already holding rows from the previous one used to size its emit chunk
  // from the full capacity, overshooting the batch (capacity was "a target,
  // not a limit"). Batches must now never exceed capacity.
  auto left = std::make_shared<std::vector<Row>>();
  for (int i = 0; i < 3; ++i) left->push_back(Row{Value::Int(i)});
  auto right = std::make_shared<std::vector<Row>>();
  for (int j = 0; j < 10; ++j) right->push_back(Row{Value::Int(100 + j)});
  NestedLoopJoinOp join(std::make_unique<RowsScanOp>(left),
                        std::make_unique<RowsScanOp>(right),
                        /*on=*/nullptr, /*left_outer=*/false,
                        /*right_width=*/1);
  ASSERT_TRUE(join.Open().ok());
  RowBatch out(4);
  std::vector<Row> got;
  while (true) {
    auto more = join.Next(&out);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    EXPECT_LE(out.size(), out.capacity()) << "batch overshot its capacity";
    std::vector<uint32_t> scratch;
    for (uint32_t p : out.ActivePositions(&scratch)) {
      got.push_back(out.MaterializeRow(p));
    }
  }
  ASSERT_EQ(got.size(), 30u);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 10; ++j) {
      EXPECT_EQ(got[static_cast<size_t>(i) * 10 + j][0], Value::Int(i));
      EXPECT_EQ(got[static_cast<size_t>(i) * 10 + j][1], Value::Int(100 + j));
    }
  }
}

TEST(JoinBatchCapacityTest, HashJoinResumesMidChainWithinCapacity) {
  // Left keys 0..3 against a build side where key k has 3k tuples (key 0
  // none): chains of 3, 6 and 9 through a 4-tuple batch resume mid-chain,
  // and the unmatched key 0 is NULL-extended (LEFT JOIN).
  auto left = std::make_shared<std::vector<Row>>();
  for (int i = 0; i < 4; ++i) left->push_back(Row{Value::Int(i)});
  auto right = std::make_shared<std::vector<Row>>();
  const int pattern[] = {3, 2, 3, 1, 2, 3};  // chains interleave
  for (int j = 0; j < 18; ++j) {
    right->push_back(Row{Value::Int(pattern[j % 6]), Value::Int(100 + j)});
  }
  // Built first: the scan moves the tuples out of `right`.
  std::vector<Row> want = {{Value::Int(0), Value::Null(), Value::Null()}};
  for (int key = 1; key <= 3; ++key) {
    for (const Row& r : *right) {  // chains keep right-input order
      if (r[0] == Value::Int(key)) want.push_back({Value::Int(key), r[0], r[1]});
    }
  }
  HashJoinOp join(std::make_unique<RowsScanOp>(left),
                  std::make_unique<RowsScanOp>(right), {0}, {0},
                  /*left_outer=*/true, /*right_width=*/2);
  ASSERT_TRUE(join.Open().ok());
  RowBatch out(4);
  std::vector<Row> got;
  while (true) {
    auto more = join.Next(&out);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    EXPECT_LE(out.size(), out.capacity()) << "batch overshot its capacity";
    std::vector<uint32_t> scratch;
    for (uint32_t p : out.ActivePositions(&scratch)) {
      got.push_back(out.MaterializeRow(p));
    }
  }
  EXPECT_EQ(got, want);
}

TEST_F(ExecTest, InnerJoinHashPath) {
  Run("CREATE TABLE dept (dept TEXT, floor INT)");
  Run("INSERT INTO dept VALUES ('eng', 3), ('ops', 1)");
  ResultSet rs = Run(
      "SELECT e.name, d.floor FROM emp e JOIN dept d ON e.dept = d.dept "
      "ORDER BY e.name");
  ASSERT_EQ(rs.num_rows(), 4u);  // hr has no match
  EXPECT_EQ(rs.rows[0][0], Value::Text("ann"));
  EXPECT_EQ(rs.rows[0][1], Value::Int(3));
}

TEST_F(ExecTest, LeftJoinKeepsUnmatched) {
  Run("CREATE TABLE dept (dept TEXT, floor INT)");
  Run("INSERT INTO dept VALUES ('eng', 3)");
  ResultSet rs = Run(
      "SELECT e.name, d.floor FROM emp e LEFT JOIN dept d ON e.dept = d.dept "
      "ORDER BY e.id");
  ASSERT_EQ(rs.num_rows(), 5u);
  EXPECT_EQ(rs.rows[0][1], Value::Int(3));
  EXPECT_TRUE(rs.rows[2][1].is_null());  // ops unmatched
}

TEST_F(ExecTest, NaturalJoinSharesColumnsOnce) {
  Run("CREATE TABLE dept (dept TEXT, floor INT)");
  Run("INSERT INTO dept VALUES ('eng', 3), ('ops', 1), ('hr', 2)");
  ResultSet rs = Run("SELECT * FROM emp NATURAL JOIN dept ORDER BY id");
  // dept appears once: id, name, dept, salary, floor.
  EXPECT_EQ(rs.columns, (std::vector<std::string>{"id", "name", "dept",
                                                  "salary", "floor"}));
  ASSERT_EQ(rs.num_rows(), 5u);
  EXPECT_EQ(rs.rows[0][4], Value::Int(3));
}

TEST_F(ExecTest, CrossJoinCounts) {
  Run("CREATE TABLE two (x INT)");
  Run("INSERT INTO two VALUES (1), (2)");
  EXPECT_EQ(Run("SELECT * FROM emp, two").num_rows(), 10u);
  EXPECT_EQ(Run("SELECT * FROM emp CROSS JOIN two").num_rows(), 10u);
}

TEST_F(ExecTest, NonEquiJoinFallsBackToNestedLoop) {
  Run("CREATE TABLE grades (lo REAL, hi REAL, grade TEXT)");
  Run("INSERT INTO grades VALUES (0, 85, 'B'), (85, 200, 'A')");
  ResultSet rs = Run(
      "SELECT e.name, g.grade FROM emp e JOIN grades g "
      "ON e.salary >= g.lo AND e.salary < g.hi ORDER BY e.id");
  ASSERT_EQ(rs.num_rows(), 5u);
  EXPECT_EQ(rs.rows[0][1], Value::Text("A"));   // ann 120
  EXPECT_EQ(rs.rows[4][1], Value::Text("B"));   // eve 70
}

TEST_F(ExecTest, ScalarFunctions) {
  ResultSet rs = Run(
      "SELECT ABS(-3), ROUND(2.567, 1), UPPER('ab'), LENGTH('abcd'), "
      "SUBSTR('hello', 2, 3), COALESCE(NULL, 7), NULLIF(3, 3)");
  EXPECT_EQ(rs.rows[0][0], Value::Int(3));
  EXPECT_EQ(rs.rows[0][1], Value::Real(2.6));
  EXPECT_EQ(rs.rows[0][2], Value::Text("AB"));
  EXPECT_EQ(rs.rows[0][3], Value::Int(4));
  EXPECT_EQ(rs.rows[0][4], Value::Text("ell"));
  EXPECT_EQ(rs.rows[0][5], Value::Int(7));
  EXPECT_TRUE(rs.rows[0][6].is_null());
}

TEST_F(ExecTest, CaseExpression) {
  ResultSet rs = Run(
      "SELECT name, CASE WHEN salary >= 100 THEN 'high' "
      "WHEN salary >= 80 THEN 'mid' ELSE 'low' END AS band "
      "FROM emp ORDER BY id");
  EXPECT_EQ(rs.rows[0][1], Value::Text("high"));
  EXPECT_EQ(rs.rows[2][1], Value::Text("mid"));
  EXPECT_EQ(rs.rows[4][1], Value::Text("low"));
}

TEST_F(ExecTest, NullSemantics) {
  Run("CREATE TABLE n (a INT, b INT)");
  Run("INSERT INTO n VALUES (1, NULL), (NULL, 2), (3, 4)");
  // NULL comparisons reject rows.
  EXPECT_EQ(Run("SELECT * FROM n WHERE a > 0").num_rows(), 2u);
  EXPECT_EQ(Run("SELECT * FROM n WHERE a IS NULL").num_rows(), 1u);
  // NULL keys never hash-join.
  Run("CREATE TABLE m (a INT)");
  Run("INSERT INTO m VALUES (NULL), (1)");
  EXPECT_EQ(Run("SELECT * FROM n JOIN m ON n.a = m.a").num_rows(), 1u);
  // Aggregates skip NULLs.
  ResultSet rs = Run("SELECT COUNT(a), SUM(a) FROM n");
  EXPECT_EQ(rs.rows[0][0], Value::Int(2));
  EXPECT_EQ(rs.rows[0][1], Value::Int(4));
}

TEST_F(ExecTest, DivisionByZeroIsError) {
  RunErr("SELECT 1 / 0");
  RunErr("SELECT 5 % 0");
}

TEST_F(ExecTest, IntegerDivisionStaysExactWhenPossible) {
  ResultSet rs = Run("SELECT 6 / 3, 7 / 2, 7 % 3, 'a' || 1");
  EXPECT_EQ(rs.rows[0][0], Value::Int(2));
  EXPECT_EQ(rs.rows[0][1], Value::Real(3.5));
  EXPECT_EQ(rs.rows[0][2], Value::Int(1));
  EXPECT_EQ(rs.rows[0][3], Value::Text("a1"));
  // INT64_MIN by -1: % is 0, / and negation wrap the way * does, and none
  // of them traps (constant folding evaluates them at plan time).
  rs = Run("SELECT (-9223372036854775807 - 1) % -1, "
           "(-9223372036854775807 - 1) / -1, -(-9223372036854775807 - 1)");
  EXPECT_EQ(rs.rows[0][0], Value::Int(0));
  EXPECT_EQ(rs.rows[0][1], Value::Int(INT64_MIN));
  EXPECT_EQ(rs.rows[0][2], Value::Int(INT64_MIN));
  // The same through a column: the typed % kernel and the Value evaluator.
  Run("CREATE TABLE lo (v INT)");
  Run("INSERT INTO lo VALUES (-9223372036854775807 - 1), (7)");
  rs = Run("SELECT v % -1, v / -1, -v FROM lo WHERE v % -1 = 0");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(0));
  EXPECT_EQ(rs.rows[0][1], Value::Int(INT64_MIN));
  EXPECT_EQ(rs.rows[0][2], Value::Int(INT64_MIN));
  EXPECT_EQ(rs.rows[1][1], Value::Int(-7));
}

TEST_F(ExecTest, BinderErrors) {
  RunErr("SELECT nope FROM emp");
  RunErr("SELECT x.name FROM emp");
  RunErr("SELECT * FROM ghost");
  RunErr("SELECT SUM(salary) FROM emp WHERE SUM(salary) > 1");  // agg in WHERE
  RunErr("SELECT UNKNOWN_FN(1)");
  // Ambiguity.
  Run("CREATE TABLE emp2 (name TEXT)");
  Run("INSERT INTO emp2 VALUES ('x')");
  RunErr("SELECT name FROM emp, emp2");
}

TEST_F(ExecTest, TypeMismatchComparisonIsError) {
  RunErr("SELECT * FROM emp WHERE name > 5");
}

TEST_F(ExecTest, MixedTypeJoinKeysRaiseInsteadOfMatchingNothing) {
  // An INTEGER key against a TEXT key raises wherever the comparison runs;
  // the hash join used to return 0 rows for the plain equi-join spelling.
  Run("CREATE TABLE a (id INT)");
  Run("INSERT INTO a VALUES (1), (2)");
  Run("CREATE TABLE b (k TEXT)");
  Run("INSERT INTO b VALUES ('1'), ('x')");
  for (const char* q : {"SELECT * FROM a JOIN b ON a.id = b.k",
                        "SELECT * FROM a LEFT JOIN b ON a.id = b.k",
                        "SELECT * FROM a JOIN b ON a.id = b.k AND 1 = 1",
                        "SELECT * FROM a, b WHERE a.id = b.k"}) {
    Status st = RunErr(q);
    EXPECT_EQ(st.code(), StatusCode::kTypeError) << q;
    EXPECT_EQ(st.message(), "cannot compare INTEGER with TEXT") << q;
  }
  // A NATURAL JOIN over a clashing shared column fails at plan time and
  // names the column.
  Run("CREATE TABLE c (id TEXT)");
  Run("INSERT INTO c VALUES ('1')");
  Status st = RunErr("SELECT * FROM a NATURAL JOIN c");
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
  EXPECT_NE(st.message().find("id"), std::string::npos) << st.message();
  // INTEGER against REAL compares without raising, and still hash-joins.
  Run("CREATE TABLE r (v REAL)");
  Run("INSERT INTO r VALUES (2.0), (2.5)");
  ResultSet rs = Run("SELECT a.id, r.v FROM a JOIN r ON a.id = r.v");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(2));
}

TEST_F(ExecTest, FromlessSelect) {
  ResultSet rs = Run("SELECT 1 + 1 AS two, 'x'");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(2));
}

// ---- Batch pipeline (vectorized execution) ---------------------------------

/// Batch-size transparency: the default batch size is the reference; every
/// query here must come out byte-identical at several other batch sizes,
/// including degenerate (1) and larger-than-input (512) batches.
class BatchPipelineTest : public ExecTest {
 protected:
  ResultSet RunWith(const std::string& sql, const ExecOptions& exec) {
    db_.set_exec_options(exec);
    ResultSet rs = Run(sql);
    db_.set_exec_options(ExecOptions{});
    return rs;
  }

  void ExpectSame(const std::string& sql) {
    ResultSet reference = RunWith(sql, ExecOptions{});
    for (size_t batch : {size_t{1}, size_t{3}, size_t{512}}) {
      ResultSet b = RunWith(sql, Batches(batch));
      EXPECT_EQ(reference.columns, b.columns) << sql;
      EXPECT_EQ(reference.rows, b.rows) << sql << " (batch=" << batch << ")";
    }
  }
};

TEST_F(BatchPipelineTest, BatchSizeIsInvisibleOnCoreQueries) {
  Run("CREATE TABLE dept (dept TEXT, floor INT)");
  Run("INSERT INTO dept VALUES ('eng', 3), ('ops', 1)");
  for (const char* q : {
           "SELECT * FROM emp",
           "SELECT name, salary * 2 + 1 FROM emp",
           "SELECT name FROM emp WHERE salary >= 90 AND dept = 'eng'",
           "SELECT * FROM emp WHERE id IN (1, 3, 5)",
           "SELECT * FROM emp WHERE name LIKE '%a%'",
           "SELECT CASE WHEN salary > 95 THEN 'hi' ELSE 'lo' END FROM emp",
           "SELECT name FROM emp ORDER BY salary DESC, name",
           "SELECT DISTINCT dept FROM emp ORDER BY dept",
           "SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept "
           "HAVING COUNT(*) > 1 ORDER BY dept",
           "SELECT COUNT(*), SUM(salary), MIN(name), MAX(salary) FROM emp",
           "SELECT e.name, d.floor FROM emp e JOIN dept d ON e.dept = d.dept "
           "ORDER BY e.id",
           "SELECT e.name, d.floor FROM emp e LEFT JOIN dept d "
           "ON e.dept = d.dept ORDER BY e.id",
           "SELECT * FROM emp NATURAL JOIN dept ORDER BY id",
           "SELECT * FROM emp CROSS JOIN dept ORDER BY id, floor",
           "SELECT e.name, d.dept FROM emp e JOIN dept d ON e.salary > "
           "d.floor * 30 ORDER BY e.id, d.dept",
           "SELECT 1 + 1, 'x'",
       }) {
    ExpectSame(q);
  }
}

TEST_F(BatchPipelineTest, EmptyAndSingleTupleInputs) {
  Run("CREATE TABLE empty (a INT, b TEXT)");
  Run("CREATE TABLE one (a INT, b TEXT)");
  Run("INSERT INTO one VALUES (1, 'x')");
  for (const char* q : {
           "SELECT * FROM empty",
           "SELECT a + 1 FROM empty WHERE a > 0",
           "SELECT COUNT(*), SUM(a) FROM empty",
           "SELECT b, COUNT(*) FROM empty GROUP BY b",
           "SELECT * FROM empty ORDER BY a LIMIT 3",
           "SELECT DISTINCT b FROM empty",
           "SELECT * FROM one",
           "SELECT * FROM one CROSS JOIN empty",
           "SELECT * FROM one LEFT JOIN empty ON one.a = empty.a",
           "SELECT COUNT(*) FROM one",
       }) {
    ExpectSame(q);
  }
}

TEST_F(BatchPipelineTest, ExactBatchBoundary) {
  // 6 input tuples against batch sizes that divide, straddle, and exceed
  // the input: the final batch is exactly full, partially full, and the
  // only batch respectively.
  Run("CREATE TABLE six (a INT)");
  Run("INSERT INTO six VALUES (1), (2), (3), (4), (5), (6)");
  ResultSet reference = RunWith(
      "SELECT a * 10 FROM six WHERE a <> 4 ORDER BY a", ExecOptions{});
  ASSERT_EQ(reference.num_rows(), 5u);
  for (size_t batch : {size_t{2}, size_t{3}, size_t{4}, size_t{6}, size_t{7}}) {
    ResultSet b = RunWith("SELECT a * 10 FROM six WHERE a <> 4 ORDER BY a",
                          Batches(batch));
    EXPECT_EQ(reference.rows, b.rows) << "batch=" << batch;
  }
}

TEST_F(BatchPipelineTest, LimitOffsetPushdownBoundaries) {
  // The bare-scan pushdown window (no WHERE/ORDER) and the generic LimitOp
  // path must agree at every batch size and boundary.
  for (const char* q : {
           "SELECT id FROM emp LIMIT 2",
           "SELECT id FROM emp LIMIT 2 OFFSET 2",
           "SELECT id FROM emp LIMIT 10 OFFSET 4",   // clipped at the end
           "SELECT id FROM emp LIMIT 3 OFFSET 5",    // offset == num_rows
           "SELECT id FROM emp LIMIT 3 OFFSET 9",    // offset past the end
           "SELECT id FROM emp LIMIT 0",
           "SELECT id FROM emp LIMIT 5 OFFSET 0",
           "SELECT id FROM emp WHERE id > 1 LIMIT 2 OFFSET 1",  // no pushdown
           "SELECT id FROM emp ORDER BY id DESC LIMIT 2 OFFSET 3",
       }) {
    ExpectSame(q);
  }
}

TEST_F(BatchPipelineTest, ErrorsSurfaceAtEveryBatchSize) {
  for (size_t batch : {size_t{1}, size_t{0}}) {
    db_.set_exec_options(Batches(batch));
    RunErr("SELECT salary / (id - id) FROM emp");
    RunErr("SELECT * FROM emp WHERE name > 5");
  }
  db_.set_exec_options(ExecOptions{});
}

// ---- Morsel-parallel pipeline (DESIGN.md §6b) ------------------------------

/// The serial batch pipeline is the reference; every query here must come
/// out byte-identical through the morsel-parallel leaf across thread counts
/// and morsel sizes that force boundary edges (one morsel, many tiny
/// morsels, counts not divisible by the morsel size). Aggregate inputs are
/// multiples of 0.25 so parallel SUM/AVG merges are fp-exact.
class MorselPipelineTest : public ExecTest {
 protected:
  /// nums: 50 rows, k = 0..49, grp cycles g0..g6, x = (k % 40) / 4.0 with a
  /// NULL every 11th row.
  void LoadNums() {
    Run("CREATE TABLE nums (k INT PRIMARY KEY, grp TEXT, x REAL)");
    std::string insert = "INSERT INTO nums VALUES ";
    for (int k = 0; k < 50; ++k) {
      if (k > 0) insert += ", ";
      insert += "(" + std::to_string(k) + ", 'g" + std::to_string(k % 7) +
                "', ";
      insert += (k % 11 == 10)
                    ? "NULL)"
                    : std::to_string(static_cast<double>(k % 40) / 4.0) + ")";
    }
    Run(insert);
  }

  ResultSet RunWith(const std::string& sql, const ExecOptions& exec) {
    db_.set_exec_options(exec);
    ResultSet rs = Run(sql);
    db_.set_exec_options(ExecOptions{});
    return rs;
  }

  /// Serial batch reference vs parallel at 1/2/4 threads × morsel sizes
  /// {1 row, 8 rows (does not divide 50), default}.
  void ExpectParallelMatchesSerial(const std::string& sql,
                                   size_t batch_size = 4) {
    ResultSet serial = RunWith(sql, Batches(batch_size));
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      for (size_t morsel : {size_t{1}, size_t{8}, size_t{0}}) {
        ExecOptions exec = Batches(batch_size);
        exec.num_threads = threads;
        exec.morsel_size = morsel;
        ResultSet par = RunWith(sql, exec);
        EXPECT_EQ(serial.columns, par.columns) << sql;
        EXPECT_EQ(serial.rows, par.rows)
            << sql << " (threads=" << threads << ", morsel=" << morsel << ")";
      }
    }
  }
};

TEST_F(MorselPipelineTest, EmptyTable) {
  Run("CREATE TABLE nothing (a INT, b REAL)");
  for (const char* q : {
           "SELECT * FROM nothing",
           "SELECT a FROM nothing WHERE a > 0",
           "SELECT COUNT(*), SUM(b), MIN(a) FROM nothing",
           "SELECT b, COUNT(*) FROM nothing GROUP BY b",
           "SELECT a FROM nothing LIMIT 3",
       }) {
    ExpectParallelMatchesSerial(q);
  }
}

TEST_F(MorselPipelineTest, SingleMorselAndNonDivisibleCounts) {
  LoadNums();
  // Morsel sizes 1/8/default against 50 rows: 50 one-row morsels, seven
  // 8-row morsels minus an absorbed tail, and one morsel covering the whole
  // table — all must agree with the serial pipeline.
  for (const char* q : {
           "SELECT * FROM nums",
           "SELECT k, x FROM nums WHERE k % 3 = 0",
           "SELECT COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x) "
           "FROM nums",
           "SELECT COUNT(*) FROM nums WHERE k > 100",
       }) {
    ExpectParallelMatchesSerial(q);
  }
}

TEST_F(MorselPipelineTest, GroupOrderAndAggregatesMatchSerial) {
  LoadNums();
  for (const char* q : {
           // No ORDER BY: group first-seen order itself must reproduce.
           "SELECT grp, COUNT(*), SUM(x), MIN(k), MAX(x) FROM nums "
           "GROUP BY grp",
           "SELECT grp, COUNT(*) AS n, AVG(x) AS a FROM nums "
           "GROUP BY grp HAVING COUNT(*) > 6 ORDER BY a DESC, grp",
           "SELECT k % 2, MIN(x), MAX(k) FROM nums WHERE x >= 1.0 "
           "GROUP BY k % 2",
           "SELECT DISTINCT grp FROM nums",
       }) {
    ExpectParallelMatchesSerial(q);
  }
}

TEST_F(MorselPipelineTest, LimitCutsMidMorsel) {
  LoadNums();
  for (const char* q : {
           "SELECT k FROM nums LIMIT 11",            // pushdown window
           "SELECT k FROM nums LIMIT 11 OFFSET 5",   // pushdown window
           "SELECT k FROM nums WHERE x >= 2.0 LIMIT 11",        // early stop
           "SELECT k + 1 FROM nums WHERE k <> 25 LIMIT 9 OFFSET 2",
           "SELECT k FROM nums WHERE k % 2 = 0 LIMIT 100",  // limit > rows
           "SELECT k FROM nums LIMIT 0",
           "SELECT k FROM nums ORDER BY x DESC, k LIMIT 7",  // no early stop
       }) {
    ExpectParallelMatchesSerial(q);
  }
}

TEST_F(MorselPipelineTest, ErrorsSurfaceInParallelMode) {
  LoadNums();
  ExecOptions exec = Batches(4);
  exec.num_threads = 4;
  exec.morsel_size = 8;
  db_.set_exec_options(exec);
  RunErr("SELECT x / (k - k) FROM nums");
  RunErr("SELECT SUM(x / (k - k)) FROM nums");
  RunErr("SELECT * FROM nums WHERE grp > 5");
  db_.set_exec_options(ExecOptions{});
}

TEST_F(MorselPipelineTest, BuildMorselsTilesTheWindow) {
  LoadNums();
  const Table* t = db_.catalog().GetTable("nums").value();
  for (size_t morsel_size : {size_t{1}, size_t{7}, size_t{8}, size_t{64}}) {
    std::vector<Morsel> ms = BuildMorsels(*t, 0, 50, morsel_size);
    size_t pos = 0;
    for (size_t i = 0; i < ms.size(); ++i) {
      EXPECT_EQ(ms[i].index, i);
      EXPECT_EQ(ms[i].start, pos) << "morsel_size=" << morsel_size;
      EXPECT_GT(ms[i].count, 0u);
      if (i + 1 < ms.size()) {
        EXPECT_GE(ms[i].count, morsel_size);
        EXPECT_LT(ms[i].count, 2 * morsel_size);
      }
      pos += ms[i].count;
    }
    EXPECT_EQ(pos, 50u) << "morsel_size=" << morsel_size;
  }
  EXPECT_TRUE(BuildMorsels(*t, 50, 10, 8).empty());  // window past the end
  EXPECT_TRUE(BuildMorsels(*t, 0, 0, 8).empty());
  // Clipped window.
  std::vector<Morsel> tail = BuildMorsels(*t, 45, 100, 8);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].start, 45u);
  EXPECT_EQ(tail[0].count, 5u);
}

TEST(MorselDispenserTest, DispensesEachMorselOnceInOrder) {
  std::vector<Morsel> ms;
  for (size_t i = 0; i < 64; ++i) ms.push_back(Morsel{i, i * 10, 10});
  MorselDispenser d(std::move(ms));
  std::mutex mu;
  std::vector<size_t> got;
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&] {
      Morsel m;
      while (d.Next(&m)) {
        std::lock_guard<std::mutex> lock(mu);
        got.push_back(m.index);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::sort(got.begin(), got.end());
  ASSERT_EQ(got.size(), 64u);
  for (size_t i = 0; i < 64; ++i) EXPECT_EQ(got[i], i);
}

TEST(MorselDispenserTest, CloseStopsDispensing) {
  MorselDispenser d(std::vector<Morsel>{Morsel{0, 0, 5}, Morsel{1, 5, 5}});
  Morsel m;
  ASSERT_TRUE(d.Next(&m));
  EXPECT_EQ(m.index, 0u);
  d.Close();
  EXPECT_FALSE(d.Next(&m));
}

TEST(LikeMatchTest, Patterns) {
  EXPECT_TRUE(LikeMatch("hello", "h%o"));
  EXPECT_TRUE(LikeMatch("hello", "%"));
  EXPECT_TRUE(LikeMatch("hello", "_ello"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abc", "abc"));
  EXPECT_FALSE(LikeMatch("abc", "ab"));
  EXPECT_TRUE(LikeMatch("aXbXc", "a%b%c"));
  EXPECT_FALSE(LikeMatch("ac", "a_c"));
  EXPECT_TRUE(LikeMatch("mississippi", "%ss%pp%"));
}

}  // namespace
}  // namespace dataspread
