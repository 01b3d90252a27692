#include <gtest/gtest.h>

#include "core/dataspread.h"
#include "formula/engine.h"
#include "sheet/workbook.h"

namespace dataspread::formula {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : engine_(&workbook_) {
    sheet_ = workbook_.AddSheet("S").ValueOrDie();
    engine_.AttachSheet(sheet_);
  }

  void Set(int64_t row, int64_t col, const std::string& input) {
    if (!input.empty() && input[0] == '=') {
      ASSERT_TRUE(sheet_->SetFormula(row, col, input).ok());
    } else {
      ASSERT_TRUE(sheet_->SetValue(row, col, Value::FromUserInput(input)).ok());
    }
  }

  void Recalc() { ASSERT_TRUE(engine_.RecalcDirty().ok()); }

  Value At(int64_t row, int64_t col) { return sheet_->GetValue(row, col); }

  Workbook workbook_;
  Sheet* sheet_;
  FormulaEngine engine_;
};

TEST_F(EngineTest, SimpleArithmetic) {
  Set(0, 0, "=1+2*3");
  Recalc();
  EXPECT_EQ(At(0, 0), Value::Int(7));
}

TEST_F(EngineTest, CellReferencesAndPropagation) {
  Set(0, 0, "5");          // A1
  Set(0, 1, "=A1*2");      // B1
  Set(0, 2, "=B1+1");      // C1
  Recalc();
  EXPECT_EQ(At(0, 1), Value::Int(10));
  EXPECT_EQ(At(0, 2), Value::Int(11));
  // Edit the root; both dependents recompute.
  Set(0, 0, "7");
  EXPECT_EQ(engine_.dirty_count(), 1u);
  Recalc();
  EXPECT_EQ(At(0, 1), Value::Int(14));
  EXPECT_EQ(At(0, 2), Value::Int(15));
}

TEST_F(EngineTest, RangeAggregation) {
  for (int i = 0; i < 10; ++i) Set(i, 0, std::to_string(i + 1));
  Set(0, 1, "=SUM(A1:A10)");
  Set(1, 1, "=AVERAGE(A1:A10)");
  Set(2, 1, "=COUNTIF(A1:A10,\">5\")");
  Recalc();
  EXPECT_EQ(At(0, 1), Value::Real(55.0));
  EXPECT_EQ(At(1, 1), Value::Real(5.5));
  EXPECT_EQ(At(2, 1), Value::Int(5));
  // Range dependency: changing one member re-dirties the aggregate.
  Set(4, 0, "100");
  Recalc();
  EXPECT_EQ(At(0, 1), Value::Real(150.0));
}

TEST_F(EngineTest, EmptyCellsActAsZeroInArithmetic) {
  Set(0, 1, "=A1+5");
  Recalc();
  EXPECT_EQ(At(0, 1), Value::Int(5));
}

TEST_F(EngineTest, DivisionByZeroAndPropagation) {
  Set(0, 0, "=1/0");
  Set(0, 1, "=A1+1");
  Recalc();
  EXPECT_EQ(At(0, 0), Value::Error("#DIV/0!"));
  EXPECT_EQ(At(0, 1), Value::Error("#DIV/0!"));
  // IFERROR rescues.
  Set(0, 2, "=IFERROR(A1, -1)");
  Recalc();
  EXPECT_EQ(At(0, 2), Value::Int(-1));
}

TEST_F(EngineTest, CycleDetection) {
  Set(0, 0, "=B1+1");
  Set(0, 1, "=A1+1");
  Recalc();
  EXPECT_EQ(At(0, 0), Value::Error("#CYCLE!"));
  EXPECT_EQ(At(0, 1), Value::Error("#CYCLE!"));
  // Self-reference.
  Set(1, 0, "=A2");
  Recalc();
  EXPECT_EQ(At(1, 0), Value::Error("#CYCLE!"));
  // Breaking the cycle heals it.
  Set(0, 1, "3");
  Recalc();
  EXPECT_EQ(At(0, 0), Value::Int(4));
}

TEST_F(EngineTest, DiamondDependencyEvaluatesOnce) {
  Set(0, 0, "1");            // A1
  Set(0, 1, "=A1+1");        // B1
  Set(0, 2, "=A1+2");        // C1
  Set(0, 3, "=B1+C1");       // D1
  Recalc();
  EXPECT_EQ(At(0, 3), Value::Int(5));
  uint64_t before = engine_.cells_evaluated();
  Set(0, 0, "10");
  Recalc();
  EXPECT_EQ(At(0, 3), Value::Int(23));
  EXPECT_EQ(engine_.cells_evaluated() - before, 3u);  // B1, C1, D1 once each
}

TEST_F(EngineTest, MalformedFormulaShowsNameError) {
  Set(0, 0, "=SUM(");
  Recalc();
  EXPECT_EQ(At(0, 0), Value::Error("#NAME?"));
}

TEST_F(EngineTest, UnknownSheetReference) {
  Set(0, 0, "=Ghost!A1");
  Recalc();
  EXPECT_EQ(At(0, 0), Value::Error("#REF!"));
}

TEST_F(EngineTest, CrossSheetReferences) {
  Sheet* data = workbook_.AddSheet("Data").ValueOrDie();
  engine_.AttachSheet(data);
  ASSERT_TRUE(data->SetValue(0, 0, Value::Int(21)).ok());
  Set(0, 0, "=Data!A1*2");
  Recalc();
  EXPECT_EQ(At(0, 0), Value::Int(42));
  // Edits on the other sheet propagate across.
  ASSERT_TRUE(data->SetValue(0, 0, Value::Int(5)).ok());
  Recalc();
  EXPECT_EQ(At(0, 0), Value::Int(10));
}

TEST_F(EngineTest, ReplacingFormulaWithValueDropsDependencies) {
  Set(0, 0, "1");
  Set(0, 1, "=A1");
  Recalc();
  EXPECT_EQ(engine_.formula_count(), 1u);
  Set(0, 1, "9");  // plain value now
  Recalc();
  EXPECT_EQ(engine_.formula_count(), 0u);
  Set(0, 0, "2");
  Recalc();
  EXPECT_EQ(At(0, 1), Value::Int(9));  // no recompute
}

// The dirty-mark rule: a cell enters the dirty set only if it holds a
// formula or some formula reads it.

TEST_F(EngineTest, ValueWriteNothingReadsStaysOutOfTheDirtySet) {
  Set(0, 0, "1");
  Set(0, 1, "=A1+1");
  Recalc();
  uint64_t evaluated = engine_.cells_evaluated();
  Set(5, 5, "42");  // F6: no formula reads it
  ASSERT_TRUE(sheet_->ClearCell(6, 6).ok());
  EXPECT_EQ(engine_.dirty_count(), 0u);
  EXPECT_FALSE(engine_.HasDependents(CellKey{sheet_, 5, 5}));
  engine_.MarkDirty(sheet_, 5, 5);  // the binding / spill hook
  EXPECT_EQ(engine_.dirty_count(), 0u);
  Recalc();
  EXPECT_EQ(engine_.cells_evaluated(), evaluated);
}

TEST_F(EngineTest, EveryKindOfReaderMarksItsPrecedent) {
  Set(10, 0, "1");               // A11: read by an exact reference
  Set(0, 1, "=A11*2");           // B1
  Set(20, 0, "1");               // A21: read by a range of a few tiles
  Set(1, 1, "=SUM(A21:A30)");    // B2
  Set(3000, 3, "1");             // D3001: read by a range of many tiles
  Set(2, 1, "=SUM(D1:D5000)");   // B3 (overflow list)
  Recalc();
  ASSERT_EQ(At(0, 1), Value::Int(2));
  struct Probe {
    int64_t row, col;     // the precedent edited
    int64_t reader_row;   // the formula in column B that reads it
    Value want;
  };
  for (const Probe& p : {Probe{10, 0, 0, Value::Int(10)},
                         Probe{20, 0, 1, Value::Real(5.0)},
                         Probe{3000, 3, 2, Value::Real(5.0)}}) {
    EXPECT_TRUE(engine_.HasDependents(CellKey{sheet_, p.row, p.col}));
    Set(p.row, p.col, "5");
    EXPECT_TRUE(engine_.IsDirty(sheet_, p.row, p.col)) << p.row;
    Recalc();
    EXPECT_EQ(At(p.reader_row, 1), p.want) << p.row;
    // The hook path marks by the same rule.
    engine_.MarkDirty(sheet_, p.row, p.col);
    EXPECT_TRUE(engine_.IsDirty(sheet_, p.row, p.col)) << p.row;
    Recalc();
  }
}

TEST_F(EngineTest, ReplacingAFormulaWithAValueRecomputesItsReaders) {
  Set(0, 0, "3");
  Set(0, 1, "=A1*2");  // B1
  Set(0, 2, "=B1+1");  // C1 reads B1
  Recalc();
  ASSERT_EQ(At(0, 2), Value::Int(7));
  uint64_t evaluated = engine_.cells_evaluated();
  Set(0, 1, "10");  // B1 stops being a formula; C1 still reads it
  EXPECT_TRUE(engine_.IsDirty(sheet_, 0, 1));
  Recalc();
  EXPECT_EQ(At(0, 2), Value::Int(11));
  EXPECT_EQ(engine_.cells_evaluated(), evaluated + 1);
}

TEST(EngineDirtyRuleTest, DbsqlRangeValueMarksItsParameterCell) {
  DataSpreadOptions opts;
  opts.auto_pump = false;
  DataSpread ds(opts);
  Sheet* s = ds.AddSheet("S").ValueOrDie();
  ASSERT_TRUE(ds.Sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(ds.Sql("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)").ok());
  ASSERT_TRUE(ds.SetCellAt(s, 0, 0, "15").ok());  // A1, the parameter
  ASSERT_TRUE(ds.SetCellAt(s, 0, 2,
                           "=DBSQL(\"SELECT COUNT(*) FROM t WHERE v >= "
                           "RANGEVALUE(A1)\")")
                  .ok());
  ASSERT_TRUE(ds.SetCellAt(s, 5, 5, "7").ok());  // F6: nothing reads it
  ds.Pump();
  ASSERT_EQ(ds.GetValueAt(s, 0, 2), Value::Int(2));
  EXPECT_EQ(ds.engine().dirty_count(), 0u);
  ASSERT_TRUE(ds.SetCellAt(s, 5, 5, "8").ok());
  EXPECT_EQ(ds.engine().dirty_count(), 0u);
  ASSERT_TRUE(ds.SetCellAt(s, 0, 0, "25").ok());
  EXPECT_TRUE(ds.engine().IsDirty(s, 0, 0));
  ds.Pump();
  EXPECT_EQ(ds.GetValueAt(s, 0, 2), Value::Int(1));
  EXPECT_EQ(ds.engine().dirty_count(), 0u);
}

TEST_F(EngineTest, InsertRowsAdjustsReferencesAndText) {
  Set(4, 0, "8");           // A5
  Set(0, 1, "=A5*2");       // B1
  Recalc();
  EXPECT_EQ(At(0, 1), Value::Int(16));
  ASSERT_TRUE(sheet_->InsertRows(2, 3).ok());
  // The referenced cell moved to A8; the formula text must follow.
  EXPECT_EQ(sheet_->GetCell(0, 1)->formula, "=A8*2");
  Recalc();
  EXPECT_EQ(At(0, 1), Value::Int(16));
  // The moved data is still reachable.
  EXPECT_EQ(At(7, 0), Value::Int(8));
}

TEST_F(EngineTest, DeleteRowsMakesRefErrors) {
  Set(4, 0, "8");       // A5
  Set(0, 1, "=A5*2");   // B1
  Recalc();
  ASSERT_TRUE(sheet_->DeleteRows(4, 1).ok());
  Recalc();
  EXPECT_EQ(At(0, 1), Value::Error("#REF!"));
  EXPECT_EQ(sheet_->GetCell(0, 1)->formula, "=#REF!*2");
}

TEST_F(EngineTest, RangeShrinksWhenRowsDeleted) {
  for (int i = 0; i < 5; ++i) Set(i, 0, "1");  // A1:A5 all ones
  Set(0, 1, "=SUM(A1:A5)");
  Recalc();
  EXPECT_EQ(At(0, 1), Value::Real(5.0));
  ASSERT_TRUE(sheet_->DeleteRows(1, 2).ok());
  EXPECT_EQ(sheet_->GetCell(0, 1)->formula, "=SUM(A1:A3)");
  Recalc();
  EXPECT_EQ(At(0, 1), Value::Real(3.0));
}

TEST_F(EngineTest, RangeGrowsWhenRowsInsertedInside) {
  Set(0, 0, "1");
  Set(1, 0, "2");
  Set(0, 1, "=SUM(A1:A2)");
  Recalc();
  ASSERT_TRUE(sheet_->InsertRows(1, 1).ok());
  EXPECT_EQ(sheet_->GetCell(0, 1)->formula, "=SUM(A1:A3)");
  Set(1, 0, "10");  // fill the inserted row
  Recalc();
  EXPECT_EQ(At(0, 1), Value::Real(13.0));
}

TEST_F(EngineTest, FormulaCellsThemselvesShiftOnInsert) {
  Set(0, 0, "3");
  Set(5, 0, "=A1*3");  // A6
  Recalc();
  ASSERT_TRUE(sheet_->InsertRows(2, 2).ok());
  // The formula cell moved to A8 and still works.
  EXPECT_EQ(At(7, 0), Value::Int(9));
  Set(0, 0, "4");
  Recalc();
  EXPECT_EQ(At(7, 0), Value::Int(12));
}

TEST_F(EngineTest, RecalcWindowOnlyComputesNeededCells) {
  // 100 independent chains; window covers only the first.
  for (int r = 0; r < 100; ++r) {
    Set(r, 0, std::to_string(r));
    Set(r, 1, "=A" + std::to_string(r + 1) + "*2");
  }
  ASSERT_TRUE(engine_.RecalcWindow(sheet_, 0, 0, 0, 3).ok());
  EXPECT_EQ(At(0, 1), Value::Int(0));
  EXPECT_GT(engine_.dirty_count(), 0u);  // the other 99 remain queued
  Recalc();
  EXPECT_EQ(engine_.dirty_count(), 0u);
  EXPECT_EQ(At(99, 1), Value::Int(198));
}

TEST_F(EngineTest, RecalcWindowPullsDirtyPrecedentsOutsideWindow) {
  Set(50, 0, "5");            // A51 (outside window)
  Set(0, 0, "=A51*2");        // A1 (inside window)
  ASSERT_TRUE(engine_.RecalcWindow(sheet_, 0, 0, 5, 5).ok());
  EXPECT_EQ(At(0, 0), Value::Int(10));
}

TEST_F(EngineTest, EvaluateImmediate) {
  Set(0, 0, "6");
  EXPECT_EQ(engine_.EvaluateImmediate(sheet_, "=A1*7", 0, 1).value(),
            Value::Int(42));
  EXPECT_FALSE(engine_.EvaluateImmediate(sheet_, "=(", 0, 1).ok());
}

TEST_F(EngineTest, StringOpsAndComparisons) {
  Set(0, 0, "hello");
  Set(0, 1, "=A1&\" world\"");
  Set(0, 2, "=A1=\"hello\"");
  Set(0, 3, "=2>1");
  Recalc();
  EXPECT_EQ(At(0, 1), Value::Text("hello world"));
  EXPECT_EQ(At(0, 2), Value::Bool(true));
  EXPECT_EQ(At(0, 3), Value::Bool(true));
}

TEST_F(EngineTest, VlookupOverSheetRange) {
  Set(0, 0, "1");
  Set(0, 1, "ann");
  Set(1, 0, "2");
  Set(1, 1, "bob");
  Set(0, 3, "=VLOOKUP(2, A1:B2, 2)");
  Recalc();
  EXPECT_EQ(At(0, 3), Value::Text("bob"));
}

}  // namespace
}  // namespace dataspread::formula
