#include <gtest/gtest.h>

#include "core/dataspread.h"

namespace dataspread {
namespace {

/// Pane semantics (paper §2.2 "Window"): only the visible region burdens the
/// interface; panning pages rows in from the database.
class WindowTest : public ::testing::Test {
 protected:
  WindowTest() {
    DataSpreadOptions opts;
    opts.binding_window = 32;  // small windows make paging observable
    opts.viewport_rows = 10;
    opts.viewport_cols = 6;
    opts.prefetch_margin = 4;
    ds_ = std::make_unique<DataSpread>(opts);
    sheet_ = ds_->AddSheet("S").ValueOrDie();
    EXPECT_TRUE(ds_->Sql("CREATE TABLE big (id INT PRIMARY KEY, v TEXT)").ok());
    Table* table = ds_->db().catalog().GetTable("big").ValueOrDie();
    for (int i = 0; i < 1000; ++i) {
      EXPECT_TRUE(table
                      ->AppendRow({Value::Int(i),
                                   Value::Text("v" + std::to_string(i))})
                      .ok());
    }
  }

  std::unique_ptr<DataSpread> ds_;
  Sheet* sheet_;
};

TEST_F(WindowTest, OnlyWindowMaterialized) {
  ASSERT_TRUE(ds_->ImportTable("S", "A1", "big").ok());
  // First 32 positions materialized; row 500 is not.
  EXPECT_EQ(ds_->GetValueAt(sheet_, 1, 0), Value::Int(0));
  EXPECT_EQ(ds_->GetValueAt(sheet_, 32, 0), Value::Int(31));
  EXPECT_TRUE(ds_->GetValueAt(sheet_, 500, 0).is_null());
  // The sheet holds ~32 rows of cells, not 1000.
  EXPECT_LT(sheet_->cell_count(), 100u);
}

TEST_F(WindowTest, ScrollPagesRowsIn) {
  ASSERT_TRUE(ds_->ImportTable("S", "A1", "big").ok());
  ASSERT_TRUE(ds_->ScrollTo("S", 500, 0).ok());
  // Pane rows 500..509 display table positions 499..508.
  EXPECT_EQ(ds_->GetValueAt(sheet_, 500, 0), Value::Int(499));
  EXPECT_EQ(ds_->GetValueAt(sheet_, 509, 1), Value::Text("v508"));
  // The old window was evicted.
  EXPECT_TRUE(ds_->GetValueAt(sheet_, 1, 0).is_null());
  // Memory stays bounded by the window, not the table.
  EXPECT_LT(sheet_->cell_count(), 200u);
}

TEST_F(WindowTest, ScrollBackAndForth) {
  ASSERT_TRUE(ds_->ImportTable("S", "A1", "big").ok());
  for (int64_t top : {100, 900, 0, 512}) {
    ASSERT_TRUE(ds_->ScrollTo("S", top, 0).ok());
    int64_t probe_row = std::max<int64_t>(top, 1);
    EXPECT_EQ(ds_->GetValueAt(sheet_, probe_row, 0), Value::Int(probe_row - 1))
        << "top=" << top;
  }
}

TEST_F(WindowTest, EditWorksOnPagedInRows) {
  ASSERT_TRUE(ds_->ImportTable("S", "A1", "big").ok());
  ASSERT_TRUE(ds_->ScrollTo("S", 700, 0).ok());
  ASSERT_TRUE(ds_->SetCellAt(sheet_, 700, 1, "edited").ok());
  auto rs = ds_->Sql("SELECT v FROM big WHERE id = 699");
  EXPECT_EQ(rs.value().rows[0][0], Value::Text("edited"));
}

TEST_F(WindowTest, ViewportGeometry) {
  Viewport vp;
  vp.sheet = sheet_;
  vp.top = 10;
  vp.left = 2;
  vp.rows = 5;
  vp.cols = 3;
  EXPECT_TRUE(vp.Intersects(sheet_, 10, 2, 10, 2));
  EXPECT_TRUE(vp.Intersects(sheet_, 0, 0, 100, 100));
  EXPECT_FALSE(vp.Intersects(sheet_, 15, 2, 20, 3));  // below
  EXPECT_FALSE(vp.Intersects(sheet_, 10, 5, 10, 9));  // right
  EXPECT_FALSE(vp.Intersects(nullptr, 10, 2, 10, 2));
}

TEST_F(WindowTest, VisibleRecalcRunsBeforeBackground) {
  // Build many dirty formulas; only the pane ones must be clean after the
  // visible-priority drain step.
  DataSpreadOptions opts;
  opts.auto_pump = false;
  DataSpread ds(opts);
  Sheet* s = ds.AddSheet("S").ValueOrDie();
  for (int r = 0; r < 200; ++r) {
    ASSERT_TRUE(ds.SetCellAt(s, r, 0, std::to_string(r)).ok());
    ASSERT_TRUE(
        ds.SetCellAt(s, r, 1, "=A" + std::to_string(r + 1) + "*2").ok());
  }
  ASSERT_TRUE(ds.ScrollTo("S", 0, 0).ok());
  // Run only the first (visible) task.
  ASSERT_TRUE(ds.scheduler().RunOne());
  EXPECT_EQ(ds.GetValueAt(s, 0, 1), Value::Int(0));
  EXPECT_EQ(ds.GetValueAt(s, 5, 1), Value::Int(10));
  // Off-screen cells are still dirty at this point.
  EXPECT_GT(ds.engine().dirty_count(), 0u);
  ds.Pump();
  EXPECT_EQ(ds.GetValueAt(s, 199, 1), Value::Int(398));
}

TEST_F(WindowTest, EditRecomputesOffPaneDependentsOfAnOnPaneFormula) {
  // B1 feeds one DBSQL cell on the pane (C1) and one far below it (C500).
  // The visible recalc consumes B1's dirty mark while computing C1; C500
  // must still be recomputed by the background pass.
  ASSERT_TRUE(ds_->ScrollTo("S", 0, 0).ok());
  ASSERT_TRUE(ds_->SetCell("S", "B1", "990").ok());
  ASSERT_TRUE(ds_->SetCell("S", "C1",
                           "=DBSQL(\"SELECT COUNT(*) FROM big WHERE id >= "
                           "RANGEVALUE(B1)\")")
                  .ok());
  ASSERT_TRUE(ds_->SetCell("S", "C500",
                           "=DBSQL(\"SELECT MAX(id) - RANGEVALUE(B1) FROM "
                           "big\")")
                  .ok());
  ds_->Pump();
  EXPECT_EQ(ds_->GetValue("S", "C1").ValueOrDie(), Value::Int(10));
  EXPECT_EQ(ds_->GetValue("S", "C500").ValueOrDie(), Value::Int(9));

  ASSERT_TRUE(ds_->SetCell("S", "B1", "995").ok());
  ds_->Pump();
  EXPECT_EQ(ds_->GetValue("S", "C1").ValueOrDie(), Value::Int(5));
  EXPECT_EQ(ds_->GetValue("S", "C500").ValueOrDie(), Value::Int(4));
  EXPECT_EQ(ds_->engine().dirty_count(), 0u);
}

TEST_F(WindowTest, WindowMoveCounterAdvances) {
  uint64_t before = ds_->window_manager().window_moves();
  ASSERT_TRUE(ds_->ScrollTo("S", 10, 0).ok());
  ASSERT_TRUE(ds_->ScrollTo("S", 20, 0).ok());
  EXPECT_EQ(ds_->window_manager().window_moves(), before + 2);
}

// A back-end change to the rows the pane shows is refreshed at visible
// priority wherever the user has scrolled to; a pane that starts right of
// the table does not show it.
TEST(WindowPriorityTest, BackEndRefreshOfAScrolledPaneRunsAtVisiblePriority) {
  DataSpreadOptions opts;
  opts.auto_pump = false;
  DataSpread ds(opts);
  Sheet* s = ds.AddSheet("S").ValueOrDie();
  Table* table =
      ds.db()
          .CreateTable("t", Schema({ColumnDef{"id", DataType::kInt, true},
                                    ColumnDef{"v", DataType::kInt, false}}))
          .ValueOrDie();
  for (int64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(table->AppendRow({Value::Int(i), Value::Int(0)}).ok());
  }
  ASSERT_TRUE(ds.ImportTable("S", "A1", "t").ok());
  ds.Pump();
  ASSERT_TRUE(ds.ScrollTo("S", 5000, 0).ok());
  ds.Pump();
  ASSERT_EQ(ds.GetValueAt(s, 5005, 0), Value::Int(5004));

  // Sheet row 5005 shows id 5004.
  ASSERT_TRUE(ds.Sql("UPDATE t SET v = 7 WHERE id = 5004").ok());
  uint64_t visible = ds.scheduler().executed(Priority::kVisible);
  ASSERT_TRUE(ds.scheduler().RunOne());
  EXPECT_EQ(ds.scheduler().executed(Priority::kVisible), visible + 1);
  EXPECT_EQ(ds.GetValueAt(s, 5005, 1), Value::Int(7));

  // Columns A:B are bound; a pane starting at column C does not show them.
  ASSERT_TRUE(ds.ScrollTo("S", 5000, 2).ok());
  ds.Pump();
  ASSERT_TRUE(ds.Sql("UPDATE t SET v = 8 WHERE id = 5004").ok());
  uint64_t background = ds.scheduler().executed(Priority::kBackground);
  ASSERT_TRUE(ds.scheduler().RunOne());
  EXPECT_EQ(ds.scheduler().executed(Priority::kBackground), background + 1);
  EXPECT_EQ(ds.GetValueAt(s, 5005, 1), Value::Int(8));
}

}  // namespace
}  // namespace dataspread
