#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <thread>

#include "core/dataspread.h"
#include "exec/planner.h"
#include "io/csv.h"
#include "sql/parser.h"
#include "storage/page_cursor.h"

namespace dataspread {
namespace {

// ---------------------------------------------------------------------------
// Invariant 1: dirty-set recalculation ≡ full recomputation.
// ---------------------------------------------------------------------------

class RecalcEquivalenceTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RecalcEquivalenceTest, DirtyRecalcMatchesFullRecompute) {
  DataSpreadOptions opts;
  opts.auto_pump = false;
  DataSpread ds(opts);
  Sheet* s = ds.AddSheet("S").ValueOrDie();
  std::mt19937 rng(GetParam());

  constexpr int64_t kRows = 24;
  // Literal column A, formula columns B..D referencing earlier columns.
  for (int64_t r = 0; r < kRows; ++r) {
    ASSERT_TRUE(
        s->SetValue(r, 0, Value::Int(static_cast<int64_t>(rng() % 50))).ok());
  }
  for (int64_t r = 0; r < kRows; ++r) {
    std::string row = std::to_string(r + 1);
    ASSERT_TRUE(s->SetFormula(r, 1, "=A" + row + "*2").ok());
    ASSERT_TRUE(s->SetFormula(r, 2, "=B" + row + "+A" +
                                        std::to_string(rng() % kRows + 1)).ok());
    if (r % 3 == 0) {
      ASSERT_TRUE(s->SetFormula(r, 3, "=SUM(A1:B" + row + ")").ok());
    }
  }
  ASSERT_TRUE(ds.RecalcNow().ok());

  // Random edit bursts, each followed by incremental recalculation.
  for (int burst = 0; burst < 20; ++burst) {
    int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) {
      int64_t r = static_cast<int64_t>(rng() % kRows);
      ASSERT_TRUE(
          s->SetValue(r, 0, Value::Int(static_cast<int64_t>(rng() % 100))).ok());
    }
    ASSERT_TRUE(ds.RecalcNow().ok());
  }

  // Snapshot, then force a from-scratch recomputation and compare.
  std::vector<std::pair<std::pair<int64_t, int64_t>, std::string>> snapshot;
  s->VisitRange(0, 0, kRows, 4, [&](int64_t r, int64_t c, const Cell& cell) {
    snapshot.push_back({{r, c}, cell.value.ToDisplayString()});
  });
  ASSERT_TRUE(ds.engine().RecalcAll().ok());
  for (const auto& [pos, display] : snapshot) {
    EXPECT_EQ(s->GetValue(pos.first, pos.second).ToDisplayString(), display)
        << "cell " << FormatCell(pos.first, pos.second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecalcEquivalenceTest,
                         ::testing::Values(1u, 17u, 23u, 404u));

// ---------------------------------------------------------------------------
// Invariant 2: query results agree across all four storage models.
// ---------------------------------------------------------------------------

class StorageEquivalenceTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(StorageEquivalenceTest, QueriesAgreeAcrossModels) {
  std::mt19937 rng(GetParam());
  std::vector<Database> dbs(4);
  StorageModel models[] = {StorageModel::kRow, StorageModel::kColumn,
                           StorageModel::kRcv, StorageModel::kHybrid};
  Schema schema({ColumnDef{"id", DataType::kInt, true},
                 ColumnDef{"grp", DataType::kText, false},
                 ColumnDef{"x", DataType::kReal, false}});
  std::vector<Table*> tables;
  for (size_t i = 0; i < 4; ++i) {
    tables.push_back(dbs[i].CreateTable("t", schema, models[i]).ValueOrDie());
  }
  // Same random content everywhere (including NULLs), plus schema churn.
  for (int64_t id = 0; id < 200; ++id) {
    Row row{Value::Int(id), Value::Text("g" + std::to_string(rng() % 5)),
            (rng() % 7 == 0) ? Value::Null()
                             : Value::Real(static_cast<double>(rng() % 1000))};
    for (Table* t : tables) ASSERT_TRUE(t->AppendRow(row).ok());
  }
  for (Database& db : dbs) {
    ASSERT_TRUE(db.Execute("ALTER TABLE t ADD COLUMN flag INT DEFAULT 1").ok());
    ASSERT_TRUE(db.Execute("UPDATE t SET flag = 0 WHERE id % 3 = 0").ok());
    ASSERT_TRUE(db.Execute("DELETE FROM t WHERE id % 17 = 5").ok());
  }
  const char* queries[] = {
      "SELECT * FROM t ORDER BY id",
      "SELECT grp, COUNT(*), SUM(x), AVG(x) FROM t GROUP BY grp ORDER BY grp",
      "SELECT id FROM t WHERE x IS NULL ORDER BY id",
      "SELECT COUNT(*) FROM t WHERE flag = 0",
      "SELECT grp, MAX(x) FROM t WHERE id BETWEEN 20 AND 150 GROUP BY grp "
      "HAVING COUNT(*) > 3 ORDER BY grp",
  };
  for (const char* q : queries) {
    auto reference = dbs[0].Execute(q);
    ASSERT_TRUE(reference.ok()) << q;
    for (size_t i = 1; i < 4; ++i) {
      auto rs = dbs[i].Execute(q);
      ASSERT_TRUE(rs.ok()) << q;
      ASSERT_EQ(rs.value().num_rows(), reference.value().num_rows())
          << q << " model " << StorageModelName(models[i]);
      for (size_t r = 0; r < rs.value().rows.size(); ++r) {
        EXPECT_TRUE(RowEq{}(rs.value().rows[r], reference.value().rows[r]))
            << q << " row " << r << " model " << StorageModelName(models[i]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageEquivalenceTest,
                         ::testing::Values(3u, 31u, 314u));

// ---------------------------------------------------------------------------
// Invariant 3: two-way sync converges — the bound region always equals the
// table after the compute engine drains.
// ---------------------------------------------------------------------------

class SyncConvergenceTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SyncConvergenceTest, RandomInterleavedEditsConverge) {
  std::mt19937 rng(GetParam());
  DataSpread ds;
  Sheet* s = ds.AddSheet("S").ValueOrDie();
  ASSERT_TRUE(ds.Sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ds.Sql("INSERT INTO t VALUES (" + std::to_string(i) + ", 0)")
                    .ok());
  }
  ASSERT_TRUE(ds.ImportTable("S", "A1", "t").ok());

  for (int step = 0; step < 60; ++step) {
    int action = static_cast<int>(rng() % 4);
    Table* table = ds.db().catalog().GetTable("t").ValueOrDie();
    if (action == 0) {
      // Front-end edit of a bound value cell.
      size_t n = table->num_rows();
      if (n > 0) {
        int64_t row = 1 + static_cast<int64_t>(rng() % n);
        (void)ds.SetCellAt(s, row, 1, std::to_string(rng() % 100));
      }
    } else if (action == 1) {
      (void)ds.Sql("UPDATE t SET v = " + std::to_string(rng() % 100) +
                   " WHERE id = " + std::to_string(rng() % 40));
    } else if (action == 2) {
      (void)ds.Sql("INSERT INTO t VALUES (" + std::to_string(20 + step) +
                   ", " + std::to_string(rng() % 100) + ")");
    } else {
      (void)ds.Sql("DELETE FROM t WHERE id = " + std::to_string(rng() % 40));
    }
  }
  ds.Pump();

  // The materialized window must mirror the table exactly.
  Table* table = ds.db().catalog().GetTable("t").ValueOrDie();
  auto* binding = ds.interface_manager().FindBindingAt(s, 0, 0);
  ASSERT_NE(binding, nullptr);
  std::vector<Row> window =
      table->GetWindow(binding->window_start(), binding->window_count());
  for (size_t i = 0; i < window.size(); ++i) {
    int64_t sheet_row = binding->data_row() +
                        static_cast<int64_t>(binding->window_start() + i);
    for (size_t c = 0; c < window[i].size(); ++c) {
      EXPECT_EQ(s->GetValue(sheet_row, static_cast<int64_t>(c)), window[i][c])
          << "row " << sheet_row << " col " << c;
    }
  }
  // No stale cells below the window.
  int64_t first_stale = binding->data_row() +
                        static_cast<int64_t>(table->num_rows());
  EXPECT_TRUE(s->GetValue(first_stale, 0).is_null());
  EXPECT_TRUE(s->GetValue(first_stale, 1).is_null());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyncConvergenceTest,
                         ::testing::Values(5u, 55u, 555u, 5555u));

// ---------------------------------------------------------------------------
// Invariant 4: pane materialization matches table content wherever the user
// pans, and sheet memory stays bounded by the window.
// ---------------------------------------------------------------------------

class PanePropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PanePropertyTest, RandomPansStayConsistentAndBounded) {
  std::mt19937 rng(GetParam());
  DataSpreadOptions opts;
  opts.binding_window = 48;
  opts.viewport_rows = 20;
  opts.viewport_cols = 4;
  opts.prefetch_margin = 8;
  DataSpread ds(opts);
  Sheet* s = ds.AddSheet("S").ValueOrDie();
  Table* table =
      ds.db()
          .CreateTable("t", Schema({ColumnDef{"id", DataType::kInt, true},
                                    ColumnDef{"v", DataType::kText, false}}))
          .ValueOrDie();
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(
        table->AppendRow({Value::Int(i), Value::Text("v" + std::to_string(i))})
            .ok());
  }
  ASSERT_TRUE(ds.ImportTable("S", "A1", "t").ok());

  for (int pan = 0; pan < 25; ++pan) {
    int64_t top = static_cast<int64_t>(rng() % 5000);
    ASSERT_TRUE(ds.ScrollTo("S", top, 0).ok());
    // Every visible data row shows exactly the table tuple at its position.
    for (int64_t r = top; r < top + opts.viewport_rows; ++r) {
      int64_t position = r - 1;  // header at row 0
      if (position < 0 || position >= 5000) continue;
      EXPECT_EQ(s->GetValue(r, 0), Value::Int(position)) << "pan " << top;
      EXPECT_EQ(s->GetValue(r, 1), Value::Text("v" + std::to_string(position)));
    }
    // Memory bounded by the window, never the table.
    EXPECT_LT(s->cell_count(), 500u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PanePropertyTest,
                         ::testing::Values(9u, 99u, 999u));

// ---------------------------------------------------------------------------
// Invariant 5: CSV round trips preserve values and dynamic types.
// ---------------------------------------------------------------------------

class CsvRoundTripTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CsvRoundTripTest, RandomRowsSurviveRoundTrip) {
  std::mt19937 rng(GetParam());
  std::vector<Row> rows;
  for (int r = 0; r < 40; ++r) {
    Row row;
    for (int c = 0; c < 5; ++c) {
      switch (rng() % 6) {
        case 0:
          row.push_back(Value::Int(static_cast<int64_t>(rng()) - (1u << 30)));
          break;
        case 1:
          row.push_back(Value::Real(static_cast<double>(rng()) / 7.0));
          break;
        case 2:
          row.push_back(Value::Bool(rng() % 2 == 0));
          break;
        case 3:
          row.push_back(Value::Null());
          break;
        case 4:
          // Adversarial text: delimiters, quotes, numeric look-alikes.
          row.push_back(Value::Text(
              std::vector<std::string>{"a,b", "say \"hi\"", "42", "true",
                                       "line\nbreak", "plain"}[rng() % 6]));
          break;
        default:
          row.push_back(Value::Text("w" + std::to_string(rng() % 1000)));
      }
    }
    rows.push_back(std::move(row));
  }
  auto back = ParseCsv(WriteCsv(rows)).value();
  ASSERT_EQ(back.size(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    ASSERT_EQ(back[r].size(), rows[r].size()) << "row " << r;
    for (size_t c = 0; c < rows[r].size(); ++c) {
      // Values are preserved under the cross-type numeric equality the
      // system uses everywhere (an integral REAL like 2.0 displays as "2"
      // and legitimately re-types as INT).
      EXPECT_EQ(back[r][c], rows[r][c]) << "row " << r << " col " << c;
      EXPECT_EQ(back[r][c].ToDisplayString(), rows[r][c].ToDisplayString())
          << "row " << r << " col " << c;
      if (!rows[r][c].is_numeric()) {
        EXPECT_EQ(back[r][c].type(), rows[r][c].type())
            << "row " << r << " col " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTripTest,
                         ::testing::Values(2u, 22u, 222u, 2222u));

// ---------------------------------------------------------------------------
// Invariant 6: the buffer-pool size is invisible. The same workload run under
// an unbounded pool, a comfortable cap, and a pathologically tiny cap must
// leave byte-identical visible contents — eviction may only move pages, never
// change what callers read.
// ---------------------------------------------------------------------------

class EvictionTransparencyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(EvictionTransparencyTest, PoolSizeNeverChangesVisibleContents) {
  using storage::FileId;
  using storage::Pager;
  using storage::PagerConfig;
  constexpr uint64_t kSlotsPerPage = Pager::kSlotsPerPage;
  constexpr size_t kPoolSizes[] = {0, 64, 4};  // unbounded, roomy, tiny
  constexpr int kFiles = 2;
  constexpr uint64_t kMaxSlots = 10 * kSlotsPerPage;

  // One deterministic op tape, replayed against every pool size.
  struct Op {
    int kind;  // 0 write, 1 truncate, 2 flush
    int file;
    uint64_t slot;
    Value value;
  };
  std::vector<Op> tape;
  std::mt19937 rng(GetParam());
  for (int i = 0; i < 1500; ++i) {
    Op op;
    uint32_t k = rng() % 16;
    op.kind = k < 12 ? 0 : (k < 14 ? 1 : 2);
    op.file = static_cast<int>(rng() % kFiles);
    op.slot = rng() % kMaxSlots;
    switch (rng() % 4) {
      case 0:
        op.value = Value::Int(static_cast<int64_t>(rng()));
        break;
      case 1:
        op.value = Value::Text("s" + std::to_string(rng() % 512));
        break;
      case 2:
        op.value = Value::Real(static_cast<double>(rng()) / 17.0);
        break;
      default:
        op.value = Value::Null();
    }
    tape.push_back(std::move(op));
  }

  // Visible contents of every file after replaying the tape on `cap`.
  auto replay = [&](size_t cap) {
    PagerConfig config;
    config.max_resident_pages = cap;
    Pager pager(config);
    std::vector<FileId> files;
    for (int i = 0; i < kFiles; ++i) files.push_back(pager.CreateFile());
    for (const Op& op : tape) {
      FileId f = files[op.file];
      if (op.kind == 0) {
        pager.Write(f, op.slot, op.value);
      } else if (op.kind == 1) {
        uint64_t size = pager.FileSize(f);
        if (size > 0) pager.Truncate(f, op.slot % size);
      } else {
        (void)pager.FlushAll();
      }
      if (cap > 0) {
        EXPECT_LE(pager.resident_pages(), cap);
      }
    }
    std::vector<std::vector<Value>> contents(kFiles);
    for (int i = 0; i < kFiles; ++i) {
      uint64_t capacity = pager.FilePages(files[i]) * kSlotsPerPage;
      for (uint64_t s = 0; s < capacity; ++s) {
        contents[i].push_back(pager.Read(files[i], s));
      }
    }
    return contents;
  };

  auto reference = replay(kPoolSizes[0]);
  for (size_t p = 1; p < 3; ++p) {
    auto bounded = replay(kPoolSizes[p]);
    for (int i = 0; i < kFiles; ++i) {
      ASSERT_EQ(bounded[i].size(), reference[i].size())
          << "pool " << kPoolSizes[p] << " file " << i;
      for (size_t s = 0; s < reference[i].size(); ++s) {
        ASSERT_EQ(bounded[i][s], reference[i][s])
            << "pool " << kPoolSizes[p] << " file " << i << " slot " << s;
        ASSERT_EQ(bounded[i][s].type(), reference[i][s].type())
            << "pool " << kPoolSizes[p] << " file " << i << " slot " << s;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvictionTransparencyTest,
                         ::testing::Values(7u, 77u, 7777u));

// ---------------------------------------------------------------------------
// Invariant 7: the access path is invisible. Replaying one op tape through
// the slot-granular APIs and through PageCursors must leave byte-identical
// visible contents — for every pool size and both eviction policies (clock
// only vs scan-resistant + readahead). The cursor fast path and the scan
// ring may only change *where* pages live, never what callers read.
// ---------------------------------------------------------------------------

class CursorTransparencyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CursorTransparencyTest, CursorAndSlotPathsConverge) {
  using storage::FileId;
  using storage::PageCursor;
  using storage::Pager;
  using storage::PagerConfig;
  constexpr uint64_t kSlotsPerPage = Pager::kSlotsPerPage;
  constexpr int kFiles = 2;
  constexpr uint64_t kMaxSlots = 9 * kSlotsPerPage;

  struct Op {
    int kind;  // 0 write, 1 take, 2 flush, 3 bulk run of writes
    int file;
    uint64_t slot;
    Value value;
  };
  std::vector<Op> tape;
  std::mt19937 rng(GetParam());
  for (int i = 0; i < 1200; ++i) {
    Op op;
    uint32_t k = rng() % 16;
    op.kind = k < 10 ? 0 : (k < 12 ? 1 : (k < 14 ? 3 : 2));
    op.file = static_cast<int>(rng() % kFiles);
    op.slot = rng() % kMaxSlots;
    op.value = (rng() % 3 == 0)
                   ? Value::Text("s" + std::to_string(rng() % 512))
                   : Value::Int(static_cast<int64_t>(rng()));
    tape.push_back(std::move(op));
  }

  // `use_cursor` routes every op through long-lived per-file cursors;
  // otherwise the slot APIs serve them. Takes on not-yet-addressable slots
  // are skipped identically in both modes.
  auto replay = [&](size_t cap, bool scan_resistant, bool use_cursor) {
    PagerConfig config;
    config.max_resident_pages = cap;
    config.scan_resistant = scan_resistant;
    config.readahead = scan_resistant;
    Pager pager(config);
    std::vector<FileId> files;
    for (int i = 0; i < kFiles; ++i) files.push_back(pager.CreateFile());
    {
      std::vector<PageCursor> cursors;
      for (int i = 0; i < kFiles; ++i) cursors.emplace_back(pager, files[i]);
      for (const Op& op : tape) {
        FileId f = files[op.file];
        PageCursor& cur = cursors[static_cast<size_t>(op.file)];
        switch (op.kind) {
          case 0:
            if (use_cursor) {
              cur.Write(op.slot, op.value);
            } else {
              pager.Write(f, op.slot, op.value);
            }
            break;
          case 1: {
            uint64_t capacity = pager.FilePages(f) * kSlotsPerPage;
            if (op.slot >= capacity) break;
            if (use_cursor) {
              (void)cur.Take(op.slot);
            } else {
              (void)pager.Take(f, op.slot);
            }
            break;
          }
          case 3: {  // short sequential burst: the scan-classified shape
            uint64_t start = op.slot % (kMaxSlots / 2);
            for (uint64_t s = 0; s < kSlotsPerPage + 9; ++s) {
              if (use_cursor) {
                cur.Write(start + s, Value::Int(static_cast<int64_t>(s)));
              } else {
                pager.Write(f, start + s, Value::Int(static_cast<int64_t>(s)));
              }
            }
            break;
          }
          default:
            (void)pager.FlushAll();
        }
        if (cap > 0) {
          EXPECT_LE(pager.resident_pages(), cap);
        }
      }
    }  // cursors released
    std::vector<std::vector<Value>> contents(kFiles);
    for (int i = 0; i < kFiles; ++i) {
      uint64_t capacity = pager.FilePages(files[i]) * kSlotsPerPage;
      for (uint64_t s = 0; s < capacity; ++s) {
        contents[i].push_back(pager.Read(files[i], s));
      }
    }
    return contents;
  };

  auto reference = replay(/*cap=*/0, /*scan_resistant=*/false,
                          /*use_cursor=*/false);
  for (size_t cap : {size_t{0}, size_t{48}, size_t{3}}) {
    for (bool scan_resistant : {false, true}) {
      for (bool use_cursor : {false, true}) {
        auto got = replay(cap, scan_resistant, use_cursor);
        for (int i = 0; i < kFiles; ++i) {
          ASSERT_EQ(got[i].size(), reference[i].size())
              << "cap " << cap << " scanres " << scan_resistant << " cursor "
              << use_cursor << " file " << i;
          for (size_t s = 0; s < reference[i].size(); ++s) {
            ASSERT_EQ(got[i][s], reference[i][s])
                << "cap " << cap << " scanres " << scan_resistant
                << " cursor " << use_cursor << " file " << i << " slot " << s;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CursorTransparencyTest,
                         ::testing::Values(5u, 55u, 5555u));

// ---------------------------------------------------------------------------
// Invariant 8: durability is invisible. One op tape (DML with positional
// inserts/deletes, schema churn) replayed on a scratch database and on a
// durable database — then *closed and reopened* — must leave every storage
// model byte- and schema-identical, across pool sizes. The close/reopen
// cycle may only move state through disk, never change what callers read.
// ---------------------------------------------------------------------------

class ReopenTransparencyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ReopenTransparencyTest, CloseReopenNeverChangesVisibleState) {
  constexpr StorageModel kModels[] = {StorageModel::kRow,
                                      StorageModel::kColumn,
                                      StorageModel::kRcv,
                                      StorageModel::kHybrid};
  struct Op {
    int kind;  // 0 append, 1 insert-at, 2 delete-at, 3 update, 4 add col,
               // 5 drop col, 6 checkpoint
    uint32_t a, b, c;
  };
  std::vector<Op> tape;
  std::mt19937 rng(GetParam());
  for (int i = 0; i < 400; ++i) {
    uint32_t k = rng() % 32;
    int kind = k < 14 ? 0 : (k < 19 ? 1 : (k < 24 ? 2 : (k < 29 ? 3
               : (k < 30 ? 4 : (k < 31 ? 5 : 6)))));
    uint32_t a = static_cast<uint32_t>(rng());
    uint32_t b = static_cast<uint32_t>(rng());
    uint32_t c = static_cast<uint32_t>(rng());
    tape.push_back(Op{kind, a, b, c});
  }

  auto drive = [&](Database& db) {
    int col_counter = 0;
    for (StorageModel model : kModels) {
      Table* t =
          db.catalog()
              .CreateTable(std::string("t_") + StorageModelName(model),
                           Schema({ColumnDef{"id", DataType::kInt, false},
                                   ColumnDef{"s", DataType::kText, false}}),
                           model)
              .ValueOrDie();
      for (const Op& op : tape) {
        size_t n = t->num_rows();
        size_t cols = t->schema().num_columns();
        Row row;
        for (size_t c = 0; c < cols; ++c) {
          row.push_back(t->schema().column(c).type == DataType::kText
                            ? Value::Text("s" + std::to_string(op.b % 77))
                            : Value::Int(static_cast<int64_t>(op.a % 500)));
        }
        switch (op.kind) {
          case 0:
            ASSERT_TRUE(t->AppendRow(std::move(row)).ok());
            break;
          case 1:
            ASSERT_TRUE(t->InsertRowAt(op.c % (n + 1), std::move(row)).ok());
            break;
          case 2:
            if (n > 0) {
              ASSERT_TRUE(t->DeleteRowAt(op.c % n).ok());
            }
            break;
          case 3:
            if (n > 0) {
              size_t col = op.a % cols;
              Value v = (op.b % 6 == 0)
                            ? Value::Null()
                            : (t->schema().column(col).type == DataType::kText
                                   ? Value::Text("u" + std::to_string(op.b))
                                   : Value::Int(static_cast<int64_t>(op.b)));
              ASSERT_TRUE(t->UpdateAt(op.c % n, col, std::move(v)).ok());
            }
            break;
          case 4:
            ASSERT_TRUE(t->AddColumn(ColumnDef{"c" + std::to_string(
                                                   col_counter++),
                                               DataType::kInt, false},
                                     Value::Int(-1))
                            .ok());
            break;
          case 5:
            if (cols > 1) {
              ASSERT_TRUE(
                  t->DropColumn(t->schema().column(cols - 1).name).ok());
            }
            break;
          default:
            (void)db.Checkpoint();
        }
      }
    }
  };
  auto capture = [&](Database& db) {
    std::vector<std::vector<Row>> out;
    std::vector<std::string> schemas;
    for (StorageModel model : kModels) {
      Table* t = db.catalog()
                     .GetTable(std::string("t_") + StorageModelName(model))
                     .ValueOrDie();
      schemas.push_back(t->schema().ToString());
      std::vector<Row> rows;
      for (size_t r = 0; r < t->num_rows(); ++r) {
        rows.push_back(t->GetRowAt(r).ValueOrDie());
      }
      out.push_back(std::move(rows));
    }
    return std::make_pair(schemas, out);
  };

  Database scratch;
  drive(scratch);
  auto reference = capture(scratch);

  for (size_t cap : {size_t{0}, size_t{64}, size_t{4}}) {
    std::string base = ::testing::TempDir() + "ds_prop_reopen_" +
                       std::to_string(GetParam()) + "_" + std::to_string(cap);
    std::remove((base + ".wal").c_str());
    std::remove((base + ".pages").c_str());
    DatabaseOptions options;
    options.pager.max_resident_pages = cap;
    {
      auto db = Database::Open(base, options);
      drive(*db);
      auto before = capture(*db);
      ASSERT_EQ(before.first, reference.first) << "pool " << cap;
    }  // clean close
    auto db = Database::Open(base, options);
    auto got = capture(*db);
    ASSERT_EQ(got.first, reference.first) << "pool " << cap;
    for (size_t m = 0; m < got.second.size(); ++m) {
      ASSERT_EQ(got.second[m].size(), reference.second[m].size())
          << "pool " << cap << " model " << m;
      for (size_t r = 0; r < got.second[m].size(); ++r) {
        for (size_t c = 0; c < got.second[m][r].size(); ++c) {
          ASSERT_EQ(got.second[m][r][c], reference.second[m][r][c])
              << "pool " << cap << " model " << m << " row " << r << " col "
              << c;
          ASSERT_EQ(got.second[m][r][c].type(),
                    reference.second[m][r][c].type())
              << "pool " << cap << " model " << m << " row " << r << " col "
              << c;
        }
      }
    }
    std::remove((base + ".wal").c_str());
    std::remove((base + ".pages").c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReopenTransparencyTest,
                         ::testing::Values(13u, 137u, 13717u));

// ---------------------------------------------------------------------------
// Invariant 9: the batch size is invisible. Every query run at the default
// batch size and at degenerate (1), misaligned (3), and larger-than-input
// (512) batch sizes must produce byte-identical ResultSets, for every
// storage model and pool size. The query tape touches every operator: table
// scan (with and without window pushdown), rows scan, filter, project,
// hash/nested-loop/natural/left joins, aggregation with HAVING, sort,
// distinct, limit/offset. Two oracles cover what every batch size shares,
// the plan: join queries whose WHERE the planner splits below the joins
// (column against literal or against a typed column) must match the same
// conjuncts spelled `(c) = TRUE`, which it leaves above them; and every
// ORDER BY ... LIMIT n OFFSET m (a top-K sort) must return rows [m, m + n)
// of the same query without the window.
// ---------------------------------------------------------------------------

/// One display-order edit of the 150-row `t` tables of invariants 9 and 10:
/// an insert of `row` or a delete, at `pos` modulo the table size.
struct TableEdit {
  bool insert;
  size_t pos;
  Row row;
};

/// Twenty mid-table inserts (ids 150..) and ten deletes; `make_row(id)`
/// draws an inserted row.
template <typename MakeRow>
std::vector<TableEdit> MakeTableEdits(std::mt19937* rng, MakeRow make_row) {
  std::vector<TableEdit> edits;
  for (int64_t k = 0; k < 30; ++k) {
    size_t pos = (*rng)() % 1000;
    if (k % 3 == 2) {
      edits.push_back({false, pos, {}});
    } else {
      edits.push_back({true, pos, make_row(150 + k)});
    }
  }
  return edits;
}

void ApplyTableEdits(Table* t, const std::vector<TableEdit>& edits) {
  for (const TableEdit& e : edits) {
    if (e.insert) {
      ASSERT_TRUE(t->InsertRowAt(e.pos % (t->num_rows() + 1), e.row).ok());
    } else {
      ASSERT_TRUE(t->DeleteRowAt(e.pos % t->num_rows()).ok());
    }
  }
}

class BatchTransparencyTest : public ::testing::TestWithParam<uint32_t> {};

/// The serial pipeline at `batch_size` tuples per batch (0 = the default).
ExecOptions Batches(size_t batch_size) {
  ExecOptions exec;
  exec.batch_size = batch_size;
  return exec;
}

/// Asserts two results are byte-identical: columns, row count, and every
/// value with its type. `have` may be a slice [first, first + n) of a longer
/// `want` (the LIMIT/OFFSET oracle).
void ExpectSameRows(const ResultSet& want, const ResultSet& have,
                    const std::string& context, size_t first = 0,
                    size_t n = SIZE_MAX) {
  ASSERT_EQ(have.columns, want.columns) << context;
  size_t begin = std::min(first, want.rows.size());
  size_t count = std::min(n, want.rows.size() - begin);
  ASSERT_EQ(have.num_rows(), count) << context;
  for (size_t r = 0; r < count; ++r) {
    const Row& w = want.rows[begin + r];
    const Row& h = have.rows[r];
    ASSERT_EQ(h.size(), w.size()) << context << " row " << r;
    for (size_t c = 0; c < w.size(); ++c) {
      ASSERT_EQ(h[c], w[c]) << context << " row " << r << " col " << c;
      ASSERT_EQ(h[c].type(), w[c].type())
          << context << " row " << r << " col " << c;
    }
  }
}

/// A join query whose WHERE is the AND of `conjuncts`: once as written,
/// which the planner splits below the joins (DESIGN.md §6a), and once with
/// every conjunct `c` spelled `(c) = TRUE`, which it leaves above them.
struct PushdownQuery {
  const char* from;
  std::vector<const char*> conjuncts;
  const char* tail;

  std::string Spell(bool pushable) const {
    std::string where;
    for (const char* c : conjuncts) {
      if (!where.empty()) where += " AND ";
      where += pushable ? std::string(c) : "(" + std::string(c) + ") = TRUE";
    }
    return std::string(from) + " WHERE " + where + " " + tail;
  }
};

/// An ORDER BY query and a LIMIT n OFFSET m to put on it: the limited query
/// must return rows [m, m + n) of the unlimited one (the top-K oracle).
struct WindowQuery {
  const char* ordered;
  int64_t limit, offset;
};

TEST_P(BatchTransparencyTest, EveryBatchSizeProducesIdenticalResults) {
  constexpr StorageModel kModels[] = {StorageModel::kRow,
                                      StorageModel::kColumn,
                                      StorageModel::kRcv,
                                      StorageModel::kHybrid};
  constexpr size_t kPools[] = {0, 64, 4};  // unbounded, roomy, tiny
  std::mt19937 rng(GetParam());

  // One random dataset, loaded identically into every configuration.
  Schema t_schema({ColumnDef{"id", DataType::kInt, true},
                   ColumnDef{"grp", DataType::kText, false},
                   ColumnDef{"x", DataType::kReal, false}});
  Schema u_schema({ColumnDef{"grp", DataType::kText, false},
                   ColumnDef{"tag", DataType::kInt, false}});
  std::vector<Row> t_rows, u_rows;
  for (int64_t id = 0; id < 150; ++id) {
    t_rows.push_back({Value::Int(id),
                      Value::Text("g" + std::to_string(rng() % 6)),
                      (rng() % 7 == 0)
                          ? Value::Null()
                          : Value::Real(static_cast<double>(rng() % 1000))});
  }
  for (int64_t tag = 0; tag < 20; ++tag) {
    u_rows.push_back({(rng() % 5 == 0)
                          ? Value::Null()  // NULL keys never join
                          : Value::Text("g" + std::to_string(rng() % 8)),
                      Value::Int(tag)});
  }
  // Fragmented display order: mid-table inserts and deletes replayed
  // identically on every configuration, so display order no longer follows
  // storage order and scans gather from scattered slots.
  std::vector<TableEdit> edits = MakeTableEdits(&rng, [&rng](int64_t id) {
    return Row{Value::Int(id), Value::Text("g" + std::to_string(rng() % 6)),
               Value::Real(static_cast<double>(rng() % 1000))};
  });

  const char* queries[] = {
      "SELECT * FROM t ORDER BY id",
      "SELECT id, x * 2 + 1 FROM t WHERE x IS NOT NULL AND id % 3 <> 0 "
      "ORDER BY id",
      "SELECT grp, COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x) FROM t "
      "GROUP BY grp HAVING COUNT(*) > 2 ORDER BY grp",
      "SELECT COUNT(*), SUM(x) FROM t",
      "SELECT t.id, u.tag FROM t JOIN u ON t.grp = u.grp "
      "ORDER BY t.id, u.tag",
      "SELECT t.id, u.tag FROM t LEFT JOIN u ON t.grp = u.grp "
      "ORDER BY t.id, u.tag",
      "SELECT t.id, u.tag FROM t JOIN u ON t.x > u.tag * 40 "
      "ORDER BY t.id, u.tag",
      "SELECT * FROM t NATURAL JOIN u ORDER BY id, tag",
      "SELECT DISTINCT grp FROM t ORDER BY grp",
      "SELECT id FROM t LIMIT 7 OFFSET 3",                    // pushdown
      "SELECT id FROM t WHERE id >= 0 ORDER BY id LIMIT 7 OFFSET 3",
      "SELECT id FROM t LIMIT 5 OFFSET 158",                  // clipped window
      // Key-direct leaf: hit, hit with the literal first, REAL literal on
      // the INTEGER key, aggregate over the leaf, miss.
      "SELECT * FROM t WHERE id = 42",
      "SELECT grp, x FROM t WHERE 7 = id",
      "SELECT id, x FROM t WHERE id = 3.0",
      "SELECT COUNT(*), SUM(x) FROM t WHERE id = 149",
      "SELECT id FROM t WHERE id = 1000",
      // Column pruning: WHERE, GROUP BY, HAVING, and ORDER BY name columns
      // the select list does not; global aggregates over an empty filter;
      // COUNT(*) alone (reads no column).
      "SELECT id FROM t WHERE x > 500 ORDER BY grp, id",
      "SELECT x FROM t ORDER BY id DESC LIMIT 6",
      "SELECT COUNT(*) FROM t GROUP BY grp HAVING SUM(x) > 3000 ORDER BY 1",
      "SELECT MAX(id) FROM t WHERE grp = 'g1' AND x IS NULL",
      "SELECT grp FROM t WHERE x IS NULL",
      "SELECT COUNT(*), SUM(x), MIN(grp), AVG(id) FROM t WHERE id < 0",
      "SELECT COUNT(*) FROM t",
  };
  // WHERE conjuncts that cannot raise: on the left table, on the middle
  // table of a 3-way join, and on a LEFT JOIN's right side.
  const PushdownQuery pushdown_queries[] = {
      {"SELECT t.id, u.tag FROM t JOIN u ON t.grp = u.grp",
       {"t.x > 500", "t.id < 120"},
       "ORDER BY t.id, u.tag"},
      {"SELECT t.id, u.tag, t2.x FROM t JOIN u ON t.grp = u.grp "
       "JOIN t t2 ON u.tag = t2.id",
       {"u.tag >= 5", "t.x <= 700", "t2.x IS NOT NULL", "u.grp <> 'g3'"},
       "ORDER BY t.id, u.tag"},
      {"SELECT t.id, u.tag FROM t LEFT JOIN u ON t.grp = u.grp",
       {"u.tag IS NULL", "t.id > 20"},
       "ORDER BY t.id"},
      {"SELECT t.id, u.tag FROM t LEFT JOIN u ON t.grp = u.grp",
       {"u.tag > 3", "t.grp <> 'g2'", "t.x IS NULL"},
       ""},
      {"SELECT * FROM t NATURAL JOIN u", {"tag < 15", "x >= 100"}, ""},
      {"SELECT t.id, u.tag FROM t CROSS JOIN u", {"t.id < 10", "u.tag > 15"},
       ""},
      {"SELECT t.grp, COUNT(*) FROM t JOIN u ON t.grp = u.grp",
       {"t.x > 300", "u.tag <> 7"},
       "GROUP BY t.grp ORDER BY t.grp"},
      // Typed column against column: INTEGER, REAL and TEXT pairs, within
      // one source and across sources, below and above a LEFT JOIN.
      {"SELECT t.id, u.tag, t2.x FROM t JOIN u ON t.grp = u.grp "
       "JOIN t t2 ON u.tag = t2.id",
       {"t.id > u.tag", "t2.x <= t.x", "t.grp >= u.grp", "t.x > t.id"},
       "ORDER BY t.id, u.tag"},
      {"SELECT t.id, u.tag FROM t LEFT JOIN u ON t.grp = u.grp",
       {"u.tag < t.id", "t.x > t.id"},
       "ORDER BY t.id, u.tag"},
  };
  // Heavy ties (ORDER BY grp), DESC keys, NULL keys, LIMIT 0, an OFFSET
  // past the end, a join, and an aggregate-output sort.
  const WindowQuery window_queries[] = {
      {"SELECT id, grp FROM t ORDER BY grp", 10, 0},
      {"SELECT id, grp FROM t ORDER BY grp", 7, 25},
      {"SELECT id, grp FROM t ORDER BY grp", 40, 3},
      {"SELECT id, x FROM t ORDER BY x DESC", 5, 0},
      {"SELECT id, x FROM t ORDER BY x DESC", 8, 150},
      {"SELECT id, x FROM t ORDER BY x, grp DESC", 12, 0},
      {"SELECT id FROM t ORDER BY grp", 0, 5},
      {"SELECT id FROM t ORDER BY grp", 5, 1000},
      {"SELECT t.id, u.tag FROM t JOIN u ON t.grp = u.grp "
       "WHERE t.x > 200 ORDER BY u.tag DESC",
       9, 4},
      {"SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY 2 DESC", 3, 1},
  };

  for (size_t cap : kPools) {
    for (StorageModel model : kModels) {
      DatabaseOptions options;
      options.pager.max_resident_pages = cap;
      Database db(options);
      Table* t = db.CreateTable("t", t_schema, model).ValueOrDie();
      Table* u = db.CreateTable("u", u_schema, model).ValueOrDie();
      for (const Row& r : t_rows) ASSERT_TRUE(t->AppendRow(r).ok());
      for (const Row& r : u_rows) ASSERT_TRUE(u->AppendRow(r).ok());
      ApplyTableEdits(t, edits);

      // modes[0], the default batch size, is the reference.
      const ExecOptions modes[] = {Batches(0), Batches(1), Batches(3),
                                   Batches(512)};
      auto run = [&](const std::string& q, const ExecOptions& mode) {
        db.set_exec_options(mode);
        auto rs = db.Execute(q);
        EXPECT_TRUE(rs.ok()) << q << " -> " << rs.status().ToString();
        return rs.ok() ? std::move(rs).value() : ResultSet{};
      };
      auto context = [&](const std::string& q, const ExecOptions& mode) {
        return q + " pool " + std::to_string(cap) + " model " +
               StorageModelName(model) + " batch " +
               std::to_string(mode.batch_size);
      };

      for (const char* q : queries) {
        ResultSet reference = run(q, modes[0]);
        for (const ExecOptions& mode : modes) {
          ExpectSameRows(reference, run(q, mode), context(q, mode));
        }
      }
      // WHERE placement oracle: at every batch size, the split WHERE returns
      // what the same conjuncts return above the joins.
      for (const PushdownQuery& pq : pushdown_queries) {
        ResultSet reference = run(pq.Spell(false), modes[0]);
        for (const ExecOptions& mode : modes) {
          ExpectSameRows(reference, run(pq.Spell(true), mode),
                         context(pq.Spell(true), mode));
          ExpectSameRows(reference, run(pq.Spell(false), mode),
                         context(pq.Spell(false), mode));
        }
      }
      // Top-K oracle: ORDER BY ... LIMIT n OFFSET m returns rows [m, m + n)
      // of the unlimited query, at every batch size.
      for (const WindowQuery& wq : window_queries) {
        ResultSet all = run(wq.ordered, modes[0]);
        std::string limited = std::string(wq.ordered) + " LIMIT " +
                              std::to_string(wq.limit) + " OFFSET " +
                              std::to_string(wq.offset);
        for (const ExecOptions& mode : modes) {
          ExpectSameRows(all, run(limited, mode), context(limited, mode),
                         static_cast<size_t>(wq.offset),
                         static_cast<size_t>(wq.limit));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchTransparencyTest,
                         ::testing::Values(11u, 211u, 3111u));

// ---------------------------------------------------------------------------
// Invariant 10: the morsel-parallel leaf is invisible (DESIGN.md §6b).
// Every eligible query run serially and at 1/2/4 worker threads must agree
// for every storage model and pool size: byte-identical for aggregates,
// ORDER BY, and positional windows (group first-seen order, MIN/MAX tie
// winners, and row order all reproduce), set-identical for unordered scans
// (the documented contract — the implementation happens to deliver morsel-
// order determinism, which the byte-level cases pin). REAL inputs are
// multiples of 0.25 so parallel SUM/AVG merges are fp-exact; ineligible
// shapes (joins) must fall back to the serial plan unchanged.
// ---------------------------------------------------------------------------

class ParallelTransparencyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ParallelTransparencyTest, SerialAndParallelPipelinesAgree) {
  constexpr StorageModel kModels[] = {StorageModel::kRow,
                                      StorageModel::kColumn,
                                      StorageModel::kRcv,
                                      StorageModel::kHybrid};
  constexpr size_t kPools[] = {0, 64, 4};  // unbounded, roomy, tiny
  std::mt19937 rng(GetParam());

  Schema t_schema({ColumnDef{"id", DataType::kInt, true},
                   ColumnDef{"grp", DataType::kText, false},
                   ColumnDef{"x", DataType::kReal, false}});
  Schema u_schema({ColumnDef{"grp", DataType::kText, false},
                   ColumnDef{"tag", DataType::kInt, false}});
  std::vector<Row> t_rows, u_rows;
  for (int64_t id = 0; id < 150; ++id) {
    t_rows.push_back(
        {Value::Int(id), Value::Text("g" + std::to_string(rng() % 6)),
         (rng() % 7 == 0)
             ? Value::Null()
             : Value::Real(static_cast<double>(rng() % 4000) / 4.0)});
  }
  for (int64_t tag = 0; tag < 20; ++tag) {
    u_rows.push_back({(rng() % 5 == 0)
                          ? Value::Null()
                          : Value::Text("g" + std::to_string(rng() % 8)),
                      Value::Int(tag)});
  }
  std::vector<TableEdit> edits = MakeTableEdits(&rng, [&rng](int64_t id) {
    return Row{Value::Int(id), Value::Text("g" + std::to_string(rng() % 6)),
               Value::Real(static_cast<double>(rng() % 4000) / 4.0)};
  });

  struct Q {
    const char* sql;
    bool ordered;  // false: compare as multisets (unordered-scan contract)
  };
  const Q queries[] = {
      {"SELECT grp, COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x) "
       "FROM t GROUP BY grp",
       true},
      {"SELECT COUNT(*), SUM(x), MIN(x), MAX(id) FROM t WHERE id % 3 <> 0",
       true},
      {"SELECT grp, SUM(x) FROM t GROUP BY grp HAVING COUNT(*) > 2 "
       "ORDER BY grp",
       true},
      {"SELECT id, x * 2 FROM t WHERE x IS NOT NULL ORDER BY id", true},
      {"SELECT id FROM t ORDER BY x DESC, id LIMIT 9", true},
      {"SELECT DISTINCT grp FROM t ORDER BY grp", true},
      {"SELECT id FROM t LIMIT 7 OFFSET 3", true},  // positional window
      {"SELECT id FROM t WHERE id % 4 = 1 LIMIT 11", true},  // early stop
      {"SELECT * FROM t", false},
      {"SELECT id, grp FROM t WHERE id % 4 = 1", false},
      // The key-direct leaf takes precedence over the morsel leaf.
      {"SELECT * FROM t WHERE id = 42", true},
      {"SELECT COUNT(*), SUM(x) FROM t WHERE id = 149", true},
      {"SELECT id FROM t WHERE id = 1000", true},
      // Column pruning in the workers' scans: filter, grouping, HAVING,
      // and ordering on columns outside the select list; global aggregates
      // over an empty filter; COUNT(*) alone.
      {"SELECT id FROM t WHERE x > 500 ORDER BY grp, id", true},
      {"SELECT COUNT(*) FROM t GROUP BY grp HAVING SUM(x) > 3000", true},
      {"SELECT COUNT(*), SUM(x), MIN(grp), AVG(id) FROM t WHERE id < 0", true},
      {"SELECT COUNT(*) FROM t", true},
      {"SELECT x FROM t WHERE grp = 'g2'", false},
      // Joins are not morsel-eligible: the fallback must stay transparent.
      {"SELECT t.id, u.tag FROM t JOIN u ON t.grp = u.grp "
       "ORDER BY t.id, u.tag",
       true},
  };

  // Type-tagged serialization: set-identity must not conflate 1 and 1.0.
  auto row_key = [](const Row& r) {
    std::string key;
    for (const Value& v : r) {
      key += std::to_string(static_cast<int>(v.type())) + ":" +
             v.ToDisplayString() + "|";
    }
    return key;
  };

  for (size_t cap : kPools) {
    for (StorageModel model : kModels) {
      DatabaseOptions options;
      options.pager.max_resident_pages = cap;
      Database db(options);
      Table* t = db.CreateTable("t", t_schema, model).ValueOrDie();
      Table* u = db.CreateTable("u", u_schema, model).ValueOrDie();
      for (const Row& r : t_rows) ASSERT_TRUE(t->AppendRow(r).ok());
      for (const Row& r : u_rows) ASSERT_TRUE(u->AppendRow(r).ok());
      ApplyTableEdits(t, edits);

      for (const Q& q : queries) {
        db.set_exec_options(Batches(16));
        auto reference = db.Execute(q.sql);
        ASSERT_TRUE(reference.ok()) << q.sql;
        for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
          ExecOptions parallel = Batches(16);
          parallel.num_threads = threads;
          parallel.morsel_size = 32;
          db.set_exec_options(parallel);
          auto got = db.Execute(q.sql);
          ASSERT_TRUE(got.ok()) << q.sql << " threads " << threads;
          ASSERT_EQ(got.value().columns, reference.value().columns) << q.sql;
          ASSERT_EQ(got.value().num_rows(), reference.value().num_rows())
              << q.sql << " pool " << cap << " model "
              << StorageModelName(model) << " threads " << threads;
          std::vector<Row> want = reference.value().rows;
          std::vector<Row> have = got.value().rows;
          if (!q.ordered) {
            auto by_key = [&](const Row& a, const Row& b) {
              return row_key(a) < row_key(b);
            };
            std::sort(want.begin(), want.end(), by_key);
            std::sort(have.begin(), have.end(), by_key);
          }
          for (size_t r = 0; r < want.size(); ++r) {
            ASSERT_EQ(have[r].size(), want[r].size()) << q.sql << " row " << r;
            for (size_t c = 0; c < want[r].size(); ++c) {
              ASSERT_EQ(have[r][c], want[r][c])
                  << q.sql << " pool " << cap << " model "
                  << StorageModelName(model) << " threads " << threads
                  << " row " << r << " col " << c;
              ASSERT_EQ(have[r][c].type(), want[r][c].type())
                  << q.sql << " row " << r << " col " << c;
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Invariant 11: transaction boundaries are invisible (DESIGN.md §7). The
// same surviving DML lands in the same end state whether each statement
// autocommits, statements are grouped into BEGIN..COMMIT transactions, or
// everything rides one big committed transaction — across every storage
// model and pool size. And a rolled-back transaction is a perfect no-op:
// the end state is byte-identical (values *and* types, in display order) to
// a shadow database that never executed those operations at all.
// ---------------------------------------------------------------------------

class TxnTransparencyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TxnTransparencyTest, TransactionGroupingIsInvisibleAndRollbacksVanish) {
  constexpr StorageModel kModels[] = {StorageModel::kRow,
                                      StorageModel::kColumn,
                                      StorageModel::kRcv,
                                      StorageModel::kHybrid};
  struct Op {
    int kind;  // 0 append, 1 insert-at, 2 delete-at, 3 update
    uint32_t table, a, b, c;
  };
  // The tape is partitioned into consecutive groups; each group is either
  // kept (mode 0: autocommit per op, mode 1: one BEGIN..COMMIT) or doomed
  // (mode 2: BEGIN..ROLLBACK — the shadow never applies it).
  struct Group {
    std::vector<Op> ops;
    int mode;
  };
  std::vector<Group> groups;
  std::mt19937 rng(GetParam());
  {
    int remaining = 240;
    while (remaining > 0) {
      Group g;
      int len = 1 + static_cast<int>(rng() % 8);
      for (int i = 0; i < len && remaining > 0; ++i, --remaining) {
        uint32_t k = rng() % 10;
        int kind = k < 4 ? 0 : (k < 6 ? 1 : (k < 8 ? 2 : 3));
        uint32_t table = static_cast<uint32_t>(rng());
        uint32_t a = static_cast<uint32_t>(rng());
        uint32_t b = static_cast<uint32_t>(rng());
        uint32_t c = static_cast<uint32_t>(rng());
        g.ops.push_back(Op{kind, table, a, b, c});
      }
      uint32_t m = rng() % 4;
      g.mode = m < 2 ? 0 : (m < 3 ? 1 : 2);
      groups.push_back(std::move(g));
    }
  }

  auto table_name = [&](uint32_t i) {
    return std::string("t_") + StorageModelName(kModels[i % 4]);
  };
  auto create_tables = [&](Database& db) {
    for (StorageModel model : kModels) {
      ASSERT_TRUE(db.catalog()
                      .CreateTable(std::string("t_") + StorageModelName(model),
                                   Schema({ColumnDef{"id", DataType::kInt,
                                                     false},
                                           ColumnDef{"s", DataType::kText,
                                                     false}}),
                                   model)
                      .ok());
    }
  };
  auto apply_op = [&](Database& db, const Op& op) {
    Table* t = db.catalog().GetTable(table_name(op.table)).ValueOrDie();
    size_t n = t->num_rows();
    Row row{Value::Int(static_cast<int64_t>(op.a % 1000)),
            Value::Text("s" + std::to_string(op.b % 97))};
    switch (op.kind) {
      case 0:
        ASSERT_TRUE(t->AppendRow(std::move(row)).ok());
        break;
      case 1:
        ASSERT_TRUE(t->InsertRowAt(op.c % (n + 1), std::move(row)).ok());
        break;
      case 2:
        if (n > 0) {
          ASSERT_TRUE(t->DeleteRowAt(op.c % n).ok());
        }
        break;
      default:
        if (n > 0) {
          size_t col = op.a % 2;
          Value v = (op.b % 7 == 0)
                        ? Value::Null()
                        : (col == 0
                               ? Value::Int(static_cast<int64_t>(op.b % 1000))
                               : Value::Text("u" + std::to_string(op.b % 97)));
          ASSERT_TRUE(t->UpdateAt(op.c % n, col, std::move(v)).ok());
        }
    }
  };
  // Direct Table-API writes inside a transaction are journaled only for
  // write-latched tables: LOCK TABLE after every BEGIN (the undo journal
  // installs with the latch, not at BEGIN).
  auto lock_all = [&](Database& db) {
    for (StorageModel model : kModels) {
      ASSERT_TRUE(db.Execute(std::string("LOCK TABLE t_") +
                             StorageModelName(model))
                      .ok());
    }
  };
  // variant 0: groups as tagged (autocommit / txn / rolled back).
  // variant 1: every surviving op inside ONE committed transaction, doomed
  //            groups skipped entirely — the shadow's view of the tape.
  auto drive = [&](Database& db, int variant) {
    create_tables(db);
    if (variant == 1) {
      ASSERT_TRUE(db.Execute("BEGIN").ok());
      lock_all(db);
    }
    for (const Group& g : groups) {
      if (variant == 1) {
        if (g.mode != 2) {
          for (const Op& op : g.ops) apply_op(db, op);
        }
        continue;
      }
      if (g.mode == 0) {
        for (const Op& op : g.ops) apply_op(db, op);
      } else {
        ASSERT_TRUE(db.Execute("BEGIN").ok());
        lock_all(db);
        for (const Op& op : g.ops) apply_op(db, op);
        ASSERT_TRUE(db.Execute(g.mode == 2 ? "ROLLBACK" : "COMMIT").ok());
      }
    }
    if (variant == 1) {
      ASSERT_TRUE(db.Execute("COMMIT").ok());
    }
  };
  auto capture = [&](Database& db) {
    std::vector<std::vector<Row>> out;
    for (uint32_t m = 0; m < 4; ++m) {
      Table* t = db.catalog().GetTable(table_name(m)).ValueOrDie();
      std::vector<Row> rows;
      for (size_t r = 0; r < t->num_rows(); ++r) {
        rows.push_back(t->GetRowAt(r).ValueOrDie());
      }
      out.push_back(std::move(rows));
    }
    return out;
  };
  auto expect_equal = [&](const std::vector<std::vector<Row>>& got,
                          const std::vector<std::vector<Row>>& want,
                          const std::string& what) {
    for (size_t m = 0; m < 4; ++m) {
      ASSERT_EQ(got[m].size(), want[m].size()) << what << " model " << m;
      for (size_t r = 0; r < got[m].size(); ++r) {
        for (size_t c = 0; c < got[m][r].size(); ++c) {
          ASSERT_EQ(got[m][r][c], want[m][r][c])
              << what << " model " << m << " row " << r << " col " << c;
          ASSERT_EQ(got[m][r][c].type(), want[m][r][c].type())
              << what << " model " << m << " row " << r << " col " << c;
        }
      }
    }
  };

  // The shadow: scratch database, surviving ops only, no transactions ever.
  Database shadow;
  create_tables(shadow);
  for (const Group& g : groups) {
    if (g.mode == 2) continue;
    for (const Op& op : g.ops) apply_op(shadow, op);
  }
  auto reference = capture(shadow);

  for (size_t cap : {size_t{0}, size_t{64}, size_t{4}}) {
    for (int variant : {0, 1}) {
      std::string base = ::testing::TempDir() + "ds_prop_txn_" +
                         std::to_string(GetParam()) + "_" +
                         std::to_string(cap) + "_" + std::to_string(variant);
      std::remove((base + ".wal").c_str());
      std::remove((base + ".pages").c_str());
      DatabaseOptions options;
      options.pager.max_resident_pages = cap;
      std::string what = "pool " + std::to_string(cap) + " variant " +
                         std::to_string(variant);
      {
        auto db = Database::Open(base, options);
        drive(*db, variant);
        expect_equal(capture(*db), reference, what);
      }  // clean close
      auto db = Database::Open(base, options);
      expect_equal(capture(*db), reference, what + " reopened");
      std::remove((base + ".wal").c_str());
      std::remove((base + ".pages").c_str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxnTransparencyTest,
                         ::testing::Values(23u, 2317u, 231717u));

// ---------------------------------------------------------------------------
// Invariant 12: concurrency is invisible (DESIGN.md §7). N writer threads,
// each running its own random transaction tape on its own table through its
// own Session, must land in exactly the state of replaying the same tapes
// serially on one session — identical values and types, in display order —
// across every storage model and pool size. Disjoint tables mean the
// partitioned write latches never serialize the threads against each other
// (no wait-die victim can arise), and their txn-id-tagged brackets
// interleave freely in the shared WAL.
// ---------------------------------------------------------------------------

class ConcurrentTxnEquivalenceTest
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ConcurrentTxnEquivalenceTest, DisjointWriterTapesMatchSerialReplay) {
  constexpr StorageModel kModels[] = {StorageModel::kRow,
                                      StorageModel::kColumn,
                                      StorageModel::kRcv,
                                      StorageModel::kHybrid};
  struct Txn {
    std::vector<std::string> stmts;
    bool rollback;
  };
  // One SQL tape per thread, each bound to its own table (one per storage
  // model). Generation tracks the live id set — rolled-back transactions
  // restore it — so UPDATE/DELETE always target an existing row: a failing
  // statement would poison its transaction and change the tape's meaning.
  std::vector<std::vector<Txn>> tapes(4);
  std::mt19937 rng(GetParam());
  for (int t = 0; t < 4; ++t) {
    std::string name = std::string("t_") + StorageModelName(kModels[t]);
    std::vector<int> live = {0, 1, 2, 3};  // seeded before the threads start
    int next_id = 4;
    for (int x = 0; x < 8; ++x) {
      Txn txn;
      txn.rollback = rng() % 4 == 0;
      std::vector<int> snapshot = live;
      int stmts = 1 + static_cast<int>(rng() % 4);
      for (int s = 0; s < stmts; ++s) {
        uint32_t k = rng() % 4;
        if (k == 0 || live.empty()) {
          int id = next_id++;
          txn.stmts.push_back("INSERT INTO " + name + " VALUES (" +
                              std::to_string(id) + ", 'i" +
                              std::to_string(rng() % 97) + "')");
          live.push_back(id);
        } else if (k < 3) {
          txn.stmts.push_back(
              "UPDATE " + name + " SET s = 'u" + std::to_string(rng() % 97) +
              "' WHERE id = " + std::to_string(live[rng() % live.size()]));
        } else {
          size_t pos = rng() % live.size();
          txn.stmts.push_back("DELETE FROM " + name +
                              " WHERE id = " + std::to_string(live[pos]));
          live.erase(live.begin() + pos);
        }
      }
      if (txn.rollback) live = std::move(snapshot);
      tapes[t].push_back(std::move(txn));
    }
  }

  auto create_and_seed = [&](Database& db) {
    for (int t = 0; t < 4; ++t) {
      std::string name = std::string("t_") + StorageModelName(kModels[t]);
      ASSERT_TRUE(
          db.catalog()
              .CreateTable(name,
                           Schema({ColumnDef{"id", DataType::kInt, false},
                                   ColumnDef{"s", DataType::kText, false}}),
                           kModels[t])
              .ok());
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(db.Execute("INSERT INTO " + name + " VALUES (" +
                               std::to_string(i) + ", 'seed')")
                        .ok());
      }
    }
  };
  auto replay_txn = [](Session* s, const Txn& txn) {
    auto exec = [&](const std::string& sql) {
      auto r = s->Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    };
    exec("BEGIN");
    for (const std::string& sql : txn.stmts) exec(sql);
    exec(txn.rollback ? "ROLLBACK" : "COMMIT");
  };
  auto capture = [&](Database& db) {
    std::vector<std::vector<Row>> out;
    for (int t = 0; t < 4; ++t) {
      Table* table = db.catalog()
                         .GetTable(std::string("t_") +
                                   StorageModelName(kModels[t]))
                         .ValueOrDie();
      std::vector<Row> rows;
      for (size_t r = 0; r < table->num_rows(); ++r) {
        rows.push_back(table->GetRowAt(r).ValueOrDie());
      }
      out.push_back(std::move(rows));
    }
    return out;
  };
  auto expect_equal = [&](const std::vector<std::vector<Row>>& got,
                          const std::vector<std::vector<Row>>& want,
                          const std::string& what) {
    for (size_t m = 0; m < 4; ++m) {
      ASSERT_EQ(got[m].size(), want[m].size()) << what << " model " << m;
      for (size_t r = 0; r < got[m].size(); ++r) {
        for (size_t c = 0; c < got[m][r].size(); ++c) {
          ASSERT_EQ(got[m][r][c], want[m][r][c])
              << what << " model " << m << " row " << r << " col " << c;
          ASSERT_EQ(got[m][r][c].type(), want[m][r][c].type())
              << what << " model " << m << " row " << r << " col " << c;
        }
      }
    }
  };

  // The reference: the same tapes, one after another, on a single session.
  std::vector<std::vector<Row>> reference;
  {
    Database serial;
    create_and_seed(serial);
    auto session = serial.CreateSession();
    for (int t = 0; t < 4; ++t) {
      for (const Txn& txn : tapes[t]) replay_txn(session.get(), txn);
    }
    reference = capture(serial);
  }

  for (size_t cap : {size_t{0}, size_t{64}, size_t{4}}) {
    std::string base = ::testing::TempDir() + "ds_prop_mw_" +
                       std::to_string(GetParam()) + "_" + std::to_string(cap);
    std::remove((base + ".wal").c_str());
    std::remove((base + ".pages").c_str());
    DatabaseOptions options;
    options.pager.max_resident_pages = cap;
    std::string what = "pool " + std::to_string(cap);
    {
      auto db = Database::Open(base, options);
      create_and_seed(*db);
      std::vector<std::unique_ptr<Session>> sessions;
      for (int t = 0; t < 4; ++t) sessions.push_back(db->CreateSession());
      std::vector<std::thread> threads;
      for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
          for (const Txn& txn : tapes[t]) replay_txn(sessions[t].get(), txn);
        });
      }
      for (std::thread& th : threads) th.join();
      ASSERT_FALSE(::testing::Test::HasFailure()) << what;
      expect_equal(capture(*db), reference, what);
    }  // clean close
    auto db = Database::Open(base, options);
    expect_equal(capture(*db), reference, what + " reopened");
    std::remove((base + ".wal").c_str());
    std::remove((base + ".pages").c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentTxnEquivalenceTest,
                         ::testing::Values(12u, 1212u, 121212u));

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelTransparencyTest,
                         ::testing::Values(11u, 211u, 3111u));

// ---------------------------------------------------------------------------
// Invariant 13: the key-direct access path is invisible (DESIGN.md §6a). One
// random tape of point SELECT / UPDATE / DELETE statements (plus INSERTs that
// refill the table) runs against two databases: one as written,
// `WHERE id = <literal>`, which the key-direct matcher may serve from the
// primary-key index, and a twin that gets every predicate as
// `id + 0 = <literal>`, which the matcher never takes. Literals hit, miss,
// are NULL, INTEGER, REAL, and TEXT, and sit around ±2^53 where INTEGER and
// REAL compare equal but hash apart. ResultSets, affected_rows, status codes
// and the final table contents must match exactly (values and types, in
// display order), for every storage model and pool size, on an INTEGER key
// and on a REAL key.
// ---------------------------------------------------------------------------

class KeyPathTransparencyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(KeyPathTransparencyTest, KeyedAndScannedStatementsAgree) {
  constexpr StorageModel kModels[] = {StorageModel::kRow,
                                      StorageModel::kColumn,
                                      StorageModel::kRcv,
                                      StorageModel::kHybrid};
  constexpr size_t kPools[] = {0, 64, 4};  // unbounded, roomy, tiny
  // Keys around 2^53 = 9007199254740992, spelled as INTEGER and as REAL.
  const std::vector<std::string> kEdgeLiterals = {
      "9007199254740991",     "9007199254740992",     "9007199254740993",
      "-9007199254740993",    "9007199254740991.0",   "9007199254740992.0",
      "9007199254740994.0",   "-9007199254740992.0",  "'9007199254740993'",
  };
  // Both tables are seeded with small keys plus keys on both sides of 2^53.
  const std::vector<std::string> kSeedKeys = {
      "9007199254740991", "9007199254740992", "9007199254740993",
      "-9007199254740993"};

  std::mt19937 rng(GetParam());
  auto literal = [&]() -> std::string {
    int64_t k = static_cast<int64_t>(rng() % 40);
    switch (rng() % 10) {
      case 0: case 1: case 2:
        return std::to_string(k);                        // INTEGER
      case 3:
        return std::to_string(k) + ".0";                 // integral REAL
      case 4:
        return std::to_string(k) + ".5";                 // fractional REAL
      case 5:
        return "NULL";
      case 6:
        return "'" + std::to_string(k) + "'";            // TEXT
      case 7:
        return "-" + std::to_string(k);                  // folds to a literal
      default:
        return kEdgeLiterals[rng() % kEdgeLiterals.size()];
    }
  };
  // One tape; `{K}` marks the key column reference in each predicate.
  std::vector<std::string> tape;
  for (int i = 0; i < 160; ++i) {
    std::string table = rng() % 3 == 0 ? "r" : "t";
    std::string lit = literal();
    switch (rng() % 8) {
      case 0:
        tape.push_back("SELECT * FROM " + table + " WHERE {K} = " + lit);
        break;
      case 1:
        tape.push_back("SELECT v, id FROM " + table + " WHERE " + lit +
                       " = {K}");
        break;
      case 2:
        tape.push_back("SELECT COUNT(*), SUM(v) FROM " + table +
                       " WHERE {K} = " + lit);
        break;
      case 3:
        tape.push_back("UPDATE " + table + " SET v = v + 1 WHERE {K} = " + lit);
        break;
      case 4:  // moves the key, possibly onto another row's (an error)
        tape.push_back("UPDATE " + table + " SET v = 0, id = " + literal() +
                       " WHERE {K} = " + lit);
        break;
      case 5:
        tape.push_back("DELETE FROM " + table + " WHERE {K} = " + lit);
        break;
      default:
        tape.push_back("INSERT INTO " + table + " VALUES (" + literal() +
                       ", " + std::to_string(rng() % 100) + ")");
    }
  }
  auto spell = [](std::string sql, const std::string& key) {
    size_t at = sql.find("{K}");
    if (at != std::string::npos) sql.replace(at, 3, key);
    return sql;
  };
  auto contents = [](Database& db, const std::string& name) {
    Table* table = db.catalog().GetTable(name).ValueOrDie();
    std::vector<Row> rows;
    for (size_t r = 0; r < table->num_rows(); ++r) {
      rows.push_back(table->GetRowAt(r).ValueOrDie());
    }
    return rows;
  };
  auto expect_same_rows = [](const std::vector<Row>& have,
                             const std::vector<Row>& want,
                             const std::string& what) {
    ASSERT_EQ(have.size(), want.size()) << what;
    for (size_t r = 0; r < want.size(); ++r) {
      ASSERT_EQ(have[r].size(), want[r].size()) << what << " row " << r;
      for (size_t c = 0; c < want[r].size(); ++c) {
        ASSERT_EQ(have[r][c], want[r][c]) << what << " row " << r << " col " << c;
        ASSERT_EQ(have[r][c].type(), want[r][c].type())
            << what << " row " << r << " col " << c;
      }
    }
  };

  for (size_t cap : kPools) {
    for (StorageModel model : kModels) {
      const std::string config = std::string(" model ") +
                                 StorageModelName(model) + " pool " +
                                 std::to_string(cap);
      DatabaseOptions options;
      options.pager.max_resident_pages = cap;
      Database keyed(options), scanned(options);
      for (Database* db : {&keyed, &scanned}) {
        ASSERT_TRUE(db->CreateTable("t",
                                    Schema({ColumnDef{"id", DataType::kInt,
                                                      true},
                                            ColumnDef{"v", DataType::kInt,
                                                      false}}),
                                    model)
                        .ok());
        ASSERT_TRUE(db->CreateTable("r",
                                    Schema({ColumnDef{"id", DataType::kReal,
                                                      true},
                                            ColumnDef{"v", DataType::kInt,
                                                      false}}),
                                    model)
                        .ok());
        for (const char* table : {"t", "r"}) {
          for (int k = 0; k < 30; ++k) {
            ASSERT_TRUE(db->Execute(std::string("INSERT INTO ") + table +
                                    " VALUES (" + std::to_string(k) + ", " +
                                    std::to_string(k * 10) + ")")
                            .ok());
          }
          for (const std::string& key : kSeedKeys) {
            // On the REAL key, 2^53 and 2^53 + 1 collide; the second fails
            // identically on both sides.
            (void)db->Execute(std::string("INSERT INTO ") + table +
                              " VALUES (" + key + ", 1)");
          }
        }
      }
      size_t hits = 0, errors = 0;  // the tape must exercise both outcomes
      for (const std::string& stmt : tape) {
        const std::string sql = spell(stmt, "id");
        auto have = keyed.Execute(sql);
        auto want = scanned.Execute(spell(stmt, "id + 0"));
        ASSERT_EQ(have.status().code(), want.status().code())
            << sql << config << ": " << have.status().ToString() << " vs "
            << want.status().ToString();
        if (!want.ok()) {
          ++errors;
          continue;
        }
        if (want.value().affected_rows > 0 || want.value().num_rows() > 0) {
          ++hits;
        }
        ASSERT_EQ(have.value().columns, want.value().columns) << sql;
        ASSERT_EQ(have.value().affected_rows, want.value().affected_rows)
            << sql << config;
        expect_same_rows(have.value().rows, want.value().rows, sql + config);
      }
      EXPECT_GT(hits, tape.size() / 4) << config;
      EXPECT_GT(errors, 0u) << config;
      for (const char* table : {"t", "r"}) {
        expect_same_rows(contents(keyed, table), contents(scanned, table),
                         std::string("final ") + table + config);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyPathTransparencyTest,
                         ::testing::Values(13u, 1313u, 131313u));

// ---------------------------------------------------------------------------
// Invariant 14: maintenance is invisible (DESIGN.md §6c). DBSQL aggregate
// cells over one table — SUM, COUNT, AVG, MIN, MAX; GROUP BY with ORDER BY
// ascending and descending; NULL group keys; a WHERE with RANGEVALUE — plus
// one unordered GROUP BY that is never maintained, watch a random tape of
// table-API edits (UpdateAt, UpdateByKey, InsertRowAt, DeleteRowAt), SQL
// UPDATE/DELETE/INSERT (some failing midway, so their compensations run),
// transactions that commit or roll back, a second session, ALTER TABLE ADD
// COLUMN, and DROP plus re-CREATE. Several changes land between pumps.
// After every step each cell's spill must be identical, value and type, to
// a fresh Execute of its SQL, on every storage model. Both the maintained
// path and the fallback path must have been taken.
// ---------------------------------------------------------------------------

class MaintenanceTransparencyTest : public ::testing::TestWithParam<uint32_t> {
};

TEST_P(MaintenanceTransparencyTest, MaintainedCellsMatchFreshExecution) {
  constexpr StorageModel kModels[] = {StorageModel::kRow,
                                      StorageModel::kColumn,
                                      StorageModel::kRcv,
                                      StorageModel::kHybrid};
  struct Cell {
    int64_t row, col;
    std::string sql;
  };
  const std::vector<Cell> kCells = {
      {0, 2,
       "SELECT SUM(v), COUNT(*), COUNT(v), AVG(v), MIN(v), MAX(v) FROM t"},
      {2, 2,
       "SELECT g, COUNT(*), SUM(v), MIN(s), MAX(v) FROM t GROUP BY g "
       "ORDER BY g"},
      {2, 8,
       "SELECT g, AVG(v), COUNT(s), MIN(v) FROM t WHERE v >= RANGEVALUE(B1) "
       "GROUP BY g ORDER BY 1 DESC"},
      {0, 14, "SELECT COUNT(*), SUM(v) FROM t WHERE g IS NOT NULL AND v < 50"},
      {2, 14, "SELECT g, SUM(v) FROM t GROUP BY g"},  // never maintained
  };
  const Schema kSchema({ColumnDef{"id", DataType::kInt, true},
                        ColumnDef{"g", DataType::kInt, false},
                        ColumnDef{"v", DataType::kInt, false},
                        ColumnDef{"s", DataType::kText, false}});

  std::mt19937 rng(GetParam());
  auto pick = [&](uint32_t n) { return static_cast<int64_t>(rng() % n); };
  auto maybe_null = [&](Value v) { return pick(7) == 0 ? Value::Null() : v; };
  auto group = [&] { return maybe_null(Value::Int(pick(4))); };
  auto amount = [&] { return maybe_null(Value::Int(pick(120) - 20)); };
  auto text = [&] {
    return maybe_null(Value::Text(std::string(1, static_cast<char>('a' + pick(5)))));
  };
  auto literal = [](const Value& v) { return v.ToSqlLiteral(); };

  for (StorageModel model : kModels) {
    const std::string config =
        std::string(" model ") + StorageModelName(model) + " seed " +
        std::to_string(GetParam());
    DataSpreadOptions opts;
    opts.auto_pump = false;
    DataSpread ds(opts);
    Sheet* sheet = ds.AddSheet("S").ValueOrDie();
    auto session = ds.db().CreateSession();
    int64_t next_id = 0;
    auto row_of = [&](Table* t) {
      Row row(t->schema().num_columns(), Value::Null());
      row[0] = Value::Int(next_id++);
      row[1] = group();
      row[2] = amount();
      row[3] = text();
      return row;
    };
    auto create = [&] {
      Table* t = ds.db().CreateTable("t", kSchema, model).ValueOrDie();
      for (int i = 0; i < 12; ++i) ASSERT_TRUE(t->AppendRow(row_of(t)).ok());
    };
    create();
    ASSERT_TRUE(ds.SetCellAt(sheet, 0, 1, "40").ok());  // B1
    for (const Cell& cell : kCells) {
      ASSERT_TRUE(
          ds.SetCellAt(sheet, cell.row, cell.col, "=DBSQL(\"" + cell.sql + "\")")
              .ok());
    }
    ds.Pump();
    auto resolver = ds.interface_manager().MakeResolver(sheet);

    auto check = [&](const std::string& what) {
      for (const Cell& cell : kCells) {
        auto fresh = ds.db().Execute(cell.sql, resolver.get());
        ASSERT_TRUE(fresh.ok()) << cell.sql << what;
        const std::vector<Row>& rows = fresh.value().rows;
        const size_t width = fresh.value().columns.size();
        if (rows.empty()) {
          EXPECT_EQ(ds.GetValueAt(sheet, cell.row, cell.col),
                    Value::Text("(0 rows)")) << cell.sql << what;
        }
        for (size_t r = 0; r < rows.size(); ++r) {
          for (size_t c = 0; c < width; ++c) {
            Value have = ds.GetValueAt(sheet, cell.row + static_cast<int64_t>(r),
                                       cell.col + static_cast<int64_t>(c));
            ASSERT_EQ(have, rows[r][c])
                << cell.sql << what << " row " << r << " col " << c;
            ASSERT_EQ(have.type(), rows[r][c].type())
                << cell.sql << what << " row " << r << " col " << c;
          }
        }
        // No ghost row below the spill.
        ASSERT_TRUE(ds.GetValueAt(sheet,
                                  cell.row + static_cast<int64_t>(
                                                 std::max<size_t>(rows.size(), 1)),
                                  cell.col)
                        .is_null())
            << cell.sql << what;
      }
    };
    check(config + " at seed");

    for (int step = 0; step < 120; ++step) {
      std::string what = config + " step " + std::to_string(step);
      // One to three changes per step, so several land between pumps.
      for (int k = 0, changes = 1 + static_cast<int>(pick(3)); k < changes; ++k) {
        Table* t = ds.db().catalog().GetTable("t").ValueOrDie();
        const size_t rows = t->num_rows();
        auto position = [&] {
          return static_cast<size_t>(pick(static_cast<uint32_t>(rows)));
        };
        auto key_at = [&](size_t pos) { return t->GetAt(pos, 0).ValueOrDie(); };
        switch (rows == 0 ? 2 : pick(15)) {
          case 0:
            (void)t->UpdateAt(position(), 1 + static_cast<size_t>(pick(3)),
                              pick(2) == 0 ? group() : amount());
            what += " UpdateAt";
            break;
          case 1:
            (void)t->UpdateByKey(key_at(position()), 2, amount());
            what += " UpdateByKey";
            break;
          case 2:
          case 3:
            (void)t->InsertRowAt(static_cast<size_t>(pick(static_cast<uint32_t>(rows + 1))),
                                 row_of(t));
            what += " InsertRowAt";
            break;
          case 4:
          case 5:
            (void)t->DeleteRowAt(position());
            what += " DeleteRowAt";
            break;
          case 6:
            (void)ds.Sql("UPDATE t SET v = v + " + std::to_string(pick(9) - 4) +
                         " WHERE g = " + literal(group()));
            what += " UPDATE";
            break;
          case 7:  // moves keys onto each other: fails midway, compensates
            (void)ds.Sql("UPDATE t SET id = id + 1, g = " + literal(group()) +
                         " WHERE v > " + std::to_string(pick(60)));
            what += " UPDATE-collide";
            break;
          case 8:
            (void)ds.Sql("DELETE FROM t WHERE g = " + literal(group()) +
                         " AND v < " + std::to_string(pick(60)));
            what += " DELETE";
            break;
          case 9: {  // a duplicate key midway: the prefix is taken back
            int64_t fresh = next_id++;
            (void)ds.Sql("INSERT INTO t (id, g, v) VALUES (" +
                         std::to_string(fresh) + ", 1, 5), (" +
                         literal(key_at(position())) + ", 2, 6)");
            what += " INSERT-dup";
            break;
          }
          case 10: {
            bool commit = pick(2) == 0;
            ASSERT_TRUE(ds.Sql("BEGIN").ok());
            (void)ds.Sql("UPDATE t SET v = " + literal(amount()) +
                         " WHERE id = " + literal(key_at(position())));
            (void)ds.Sql("DELETE FROM t WHERE id = " +
                         literal(key_at(position())));
            ASSERT_TRUE(ds.Sql(commit ? "COMMIT" : "ROLLBACK").ok());
            what += commit ? " txn-commit" : " txn-rollback";
            break;
          }
          case 11:
            if (pick(2) == 0) {
              (void)session->Execute("UPDATE t SET g = " + literal(group()) +
                                     " WHERE id = " +
                                     literal(key_at(position())));
              what += " session-UPDATE";
            } else {
              ASSERT_TRUE(session->Execute("BEGIN").ok());
              (void)session->Execute("INSERT INTO t (id, g, v, s) VALUES (" +
                                     std::to_string(next_id++) + ", " +
                                     literal(group()) + ", " +
                                     literal(amount()) + ", 'z')");
              ASSERT_TRUE(
                  session->Execute(pick(2) == 0 ? "COMMIT" : "ROLLBACK").ok());
              what += " session-txn";
            }
            break;
          case 12:
            ASSERT_TRUE(ds.SetCellAt(sheet, 0, 1, std::to_string(pick(60))).ok());
            what += " param";
            break;
          case 13:
            (void)ds.Sql("ALTER TABLE t ADD COLUMN x" + std::to_string(step) +
                         " INT DEFAULT 3");
            what += " ALTER";
            break;
          default: {  // DROP and re-CREATE, then edits before any pump
            ASSERT_TRUE(ds.Sql("DROP TABLE t").ok());
            create();
            t = ds.db().catalog().GetTable("t").ValueOrDie();
            ASSERT_TRUE(t->InsertRowAt(0, row_of(t)).ok());
            (void)t->UpdateAt(1, 2, amount());
            what += " DROP+CREATE";
            break;
          }
        }
      }
      ds.Pump();
      check(what);
      if (::testing::Test::HasFatalFailure()) return;
    }
    InterfaceManager& im = ds.interface_manager();
    EXPECT_GT(im.dbsql_maintained(), 0u) << config;
    EXPECT_GT(im.dbsql_fallbacks(), 0u) << config;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintenanceTransparencyTest,
                         ::testing::Values(14u, 1414u, 141414u));

// ---------------------------------------------------------------------------
// Invariant 15: build reuse is invisible (DESIGN.md §6a "Build reuse"). Join
// queries — NATURAL, ON, LEFT, 3-way, multi-key, a column-against-column
// WHERE split below the joins, an aggregate over a join, and ORDER BY ...
// LIMIT over heavy ties — re-run after every step of a random tape:
// table-API edits (UpdateAt, InsertRowAt, DeleteRowAt), SQL UPDATE/DELETE/
// INSERT (some failing midway, so their compensations run), transactions
// that commit or roll back (queried inside too), a second session's writes,
// ALTER TABLE ADD COLUMN, and DROP plus re-CREATE. The database, which
// reuses retained hash-join builds, must return exactly what RunSelect
// returns with no build cache, which builds every join afresh — on every
// storage model. Both fresh builds and reuses must have happened.
// ---------------------------------------------------------------------------

class BuildReuseTransparencyTest : public ::testing::TestWithParam<uint32_t> {
};

TEST_P(BuildReuseTransparencyTest, ReusedBuildsMatchFreshBuilds) {
  constexpr StorageModel kModels[] = {StorageModel::kRow,
                                      StorageModel::kColumn,
                                      StorageModel::kRcv,
                                      StorageModel::kHybrid};
  const Schema kT({ColumnDef{"id", DataType::kInt, true},
                   ColumnDef{"grp", DataType::kText, false},
                   ColumnDef{"x", DataType::kInt, false}});
  const Schema kU({ColumnDef{"grp", DataType::kText, false},
                   ColumnDef{"tag", DataType::kInt, false},
                   ColumnDef{"k", DataType::kInt, false}});
  const Schema kW({ColumnDef{"tag", DataType::kInt, false},
                   ColumnDef{"k", DataType::kInt, false},
                   ColumnDef{"label", DataType::kText, false}});
  const char* const kQueries[] = {
      "SELECT t.id, u.tag FROM t JOIN u ON t.grp = u.grp ORDER BY t.id, u.tag",
      "SELECT * FROM t NATURAL JOIN u ORDER BY id, tag, k",
      "SELECT t.id, u.tag, w.label FROM t JOIN u ON t.grp = u.grp "
      "JOIN w ON u.tag = w.tag AND u.k = w.k ORDER BY 1, 2, 3",
      "SELECT t.id, w.label FROM t LEFT JOIN w ON t.x = w.tag "
      "ORDER BY t.id, w.label",
      "SELECT t.id, w.label FROM t JOIN u ON t.grp = u.grp "
      "JOIN w ON u.k = w.k WHERE t.x > 3 AND w.tag >= u.tag "
      "ORDER BY t.id, w.label LIMIT 12",
      "SELECT u.tag, COUNT(*), SUM(t.x) FROM t NATURAL JOIN u GROUP BY u.tag "
      "ORDER BY 1",
      // Heavy ties: four groups, so the window cuts through runs of equals.
      "SELECT t.grp, u.tag, t.id FROM u JOIN t ON u.grp = t.grp "
      "ORDER BY t.grp LIMIT 9 OFFSET 4",
  };

  std::mt19937 rng(GetParam());
  auto pick = [&](uint32_t n) { return static_cast<int64_t>(rng() % n); };
  auto value_of = [&](DataType type) {
    if (pick(9) == 0) return Value::Null();
    if (type == DataType::kText) return Value::Text("g" + std::to_string(pick(4)));
    return Value::Int(pick(8));
  };

  for (StorageModel model : kModels) {
    const std::string config = std::string(" model ") +
                               StorageModelName(model) + " seed " +
                               std::to_string(GetParam());
    Database db;
    auto session = db.CreateSession();
    int64_t next_id = 0;
    auto row_of = [&](const Table* table) {
      Row row;
      for (const ColumnDef& c : table->schema().columns()) {
        row.push_back(c.primary_key ? Value::Int(next_id++) : value_of(c.type));
      }
      return row;
    };
    auto create = [&](const std::string& name, const Schema& schema,
                      int rows) {
      Table* table = db.CreateTable(name, schema, model).ValueOrDie();
      for (int i = 0; i < rows; ++i) {
        ASSERT_TRUE(table->AppendRow(row_of(table)).ok());
      }
    };
    create("t", kT, 30);
    create("u", kU, 12);
    create("w", kW, 12);
    auto table = [&](const char* name) {
      return db.catalog().GetTable(name).ValueOrDie();
    };
    auto literal = [](const Value& v) { return v.ToSqlLiteral(); };

    // Every query through `on` (a session, or null for the default one, so
    // a transaction's own writes are visible), which may reuse builds, and
    // through RunSelect with no build cache, which never does.
    auto check = [&](Session* on, const std::string& what) {
      for (const char* q : kQueries) {
        auto got = on != nullptr ? on->Execute(q) : db.Execute(q);
        ASSERT_TRUE(got.ok()) << q << what << ": " << got.status().ToString();
        auto parsed = sql::Parse(q);
        ASSERT_TRUE(parsed.ok()) << q;
        auto fresh = RunSelect(&std::get<sql::SelectStmt>(parsed.value()),
                               db.catalog(), nullptr, ExecOptions{}, nullptr,
                               /*join_builds=*/nullptr);
        ASSERT_TRUE(fresh.ok()) << q << what << ": "
                                << fresh.status().ToString();
        ExpectSameRows(fresh.value(), got.value(), q + what);
      }
    };
    check(nullptr, config + " at seed");

    for (int step = 0; step < 60; ++step) {
      std::string what = config + " step " + std::to_string(step);
      const char* names[] = {"t", "u", "w"};
      const char* name = names[pick(3)];
      Table* target = table(name);
      const size_t rows = target->num_rows();
      auto position = [&] {
        return static_cast<size_t>(pick(static_cast<uint32_t>(rows)));
      };
      switch (rows == 0 ? 1 : pick(12)) {
        case 0: {
          size_t col = 1 + static_cast<size_t>(pick(2));
          (void)target->UpdateAt(position(), col,
                                 value_of(target->schema().column(col).type));
          what += std::string(" UpdateAt ") + name;
          break;
        }
        case 1:
          (void)target->InsertRowAt(
              static_cast<size_t>(pick(static_cast<uint32_t>(rows + 1))),
              row_of(target));
          what += std::string(" InsertRowAt ") + name;
          break;
        case 2:
          (void)target->DeleteRowAt(position());
          what += std::string(" DeleteRowAt ") + name;
          break;
        case 3:
          (void)db.Execute("UPDATE u SET tag = tag + 1 WHERE grp = " +
                           literal(value_of(DataType::kText)));
          what += " UPDATE u";
          break;
        case 4:  // moves keys onto each other: fails midway, compensates
          (void)db.Execute("UPDATE t SET id = id + 1, grp = " +
                           literal(value_of(DataType::kText)) +
                           " WHERE x > " + std::to_string(pick(6)));
          what += " UPDATE-collide t";
          break;
        case 5:
          (void)db.Execute("DELETE FROM w WHERE k = " + std::to_string(pick(8)));
          what += " DELETE w";
          break;
        case 6: {  // a duplicate key midway: the prefix is taken back
          Table* t = table("t");
          if (t->num_rows() == 0) break;
          (void)db.Execute(
              "INSERT INTO t (id, grp, x) VALUES (" +
              std::to_string(next_id++) +
              ", 'g1', 2), (" +
              literal(t->GetAt(static_cast<size_t>(pick(static_cast<uint32_t>(
                                   t->num_rows()))),
                               0)
                          .ValueOrDie()) +
              ", 'g2', 3)");
          what += " INSERT-dup t";
          break;
        }
        case 7: {
          bool commit = pick(2) == 0;
          ASSERT_TRUE(db.Execute("BEGIN").ok());
          (void)db.Execute("UPDATE w SET tag = " + std::to_string(pick(8)) +
                           " WHERE k = " + std::to_string(pick(8)));
          (void)db.Execute("INSERT INTO u (grp, tag, k) VALUES ('g" +
                           std::to_string(pick(4)) + "', 1, 2)");
          check(nullptr, what + " inside txn");
          ASSERT_TRUE(db.Execute(commit ? "COMMIT" : "ROLLBACK").ok());
          what += commit ? " txn-commit" : " txn-rollback";
          break;
        }
        case 8:
          if (pick(2) == 0) {
            (void)session->Execute("UPDATE w SET label = 'z' WHERE tag = " +
                                   std::to_string(pick(8)));
            what += " session-UPDATE w";
          } else {
            ASSERT_TRUE(session->Execute("BEGIN").ok());
            (void)session->Execute("INSERT INTO u (grp, tag, k) VALUES ('g2', " +
                                   std::to_string(pick(8)) + ", " +
                                   std::to_string(pick(8)) + ")");
            check(session.get(), what + " inside session txn");
            ASSERT_TRUE(
                session->Execute(pick(2) == 0 ? "COMMIT" : "ROLLBACK").ok());
            what += " session-txn";
          }
          break;
        case 9:
          ASSERT_TRUE(db.Execute(std::string("ALTER TABLE ") + name +
                                 " ADD COLUMN c" + std::to_string(step) +
                                 " INT DEFAULT 3")
                          .ok());
          what += std::string(" ALTER ") + name;
          break;
        case 10: {
          const Schema& schema = name[0] == 't' ? kT : name[0] == 'u' ? kU : kW;
          ASSERT_TRUE(db.Execute(std::string("DROP TABLE ") + name).ok());
          create(name, schema, 4 + static_cast<int>(pick(10)));
          what += std::string(" DROP+CREATE ") + name;
          break;
        }
        default:
          what += " (no change)";
          break;
      }
      check(nullptr, what);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(db.join_builds(), 0u) << config;
    EXPECT_GT(db.join_build_reuses(), 0u) << config;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuildReuseTransparencyTest,
                         ::testing::Values(15u, 1515u, 151515u));


// ---------------------------------------------------------------------------
// Invariant 16: the batch layout is invisible (DESIGN.md §6b "Batch
// layout"). Random single-table and join SELECTs over tables a and c run at
// the default batch size and in batches of 1, 3, 512 and 1024 rows, over all
// four storage models, and must return what the same query returns over
// RANGETABLE twins of a and c holding the same rows — or fail with the same
// status code. Scans of a and c fill typed int64/REAL/BOOL/arena-TEXT
// columns; the twins' scans fill kValue columns, so the reference runs the
// Value evaluator, Value- and Row-keyed join chains and Value aggregate
// folds. The twins' columns are untyped, which changes one planner choice:
// a join query's WHERE is never split below the joins, so the split is
// covered by the batch sizes agreeing (and by invariant 9). The predicates
// mix shapes with typed kernels (same-type operands — columns, arithmetic
// that cannot raise, literals — compared; IS NULL; AND/OR/NOT of those)
// with shapes that fall back to the Value evaluator (INT against REAL,
// division, other expressions, ones that raise). The data holds NULLs in
// filter, join and GROUP BY keys, integral REALs equal to INT keys, empty
// TEXT and TEXT longer than 15 bytes; RANGETABLE inputs carry mixed types
// and ERROR values; LEFT JOINs NULL-extend; and the 1,200-row table's
// top-K winners by id all arrive in its first batch.
// ---------------------------------------------------------------------------

class TypedBatchDifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TypedBatchDifferentialTest, TypedTablesMatchTheirRangeTableTwins) {
  constexpr StorageModel kModels[] = {StorageModel::kRow,
                                      StorageModel::kColumn,
                                      StorageModel::kRcv,
                                      StorageModel::kHybrid};
  std::mt19937 rng(GetParam());
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  const std::string kLong = "a-string-longer-than-fifteen-bytes-";
  auto text = [&]() -> Value {
    switch (pick(5)) {
      case 0: return Value::Null();
      case 1: return Value::Text("");
      case 2: return Value::Text("short" + std::to_string(pick(4)));
      default: return Value::Text(kLong + std::to_string(pick(6)));
    }
  };
  auto maybe_null = [&](Value v) { return pick(8) == 0 ? Value::Null() : v; };

  Schema a_schema({ColumnDef{"id", DataType::kInt, true},
                   ColumnDef{"k", DataType::kInt, false},
                   ColumnDef{"r", DataType::kReal, false},
                   ColumnDef{"s", DataType::kText, false},
                   ColumnDef{"b", DataType::kBool, false}});
  Schema c_schema({ColumnDef{"k", DataType::kInt, false},
                   ColumnDef{"r", DataType::kReal, false},
                   ColumnDef{"s", DataType::kText, false}});
  std::vector<Row> a_rows, c_rows;
  for (int64_t id = 0; id < 1200; ++id) {
    a_rows.push_back(
        {Value::Int(id), maybe_null(Value::Int(static_cast<int64_t>(pick(50)))),
         maybe_null(Value::Real(static_cast<double>(pick(50)) / 2.0)), text(),
         maybe_null(Value::Bool(pick(2) == 0))});
  }
  for (int64_t i = 0; i < 80; ++i) {
    c_rows.push_back(
        {maybe_null(Value::Int(static_cast<int64_t>(pick(60)))),
         maybe_null(Value::Real(static_cast<double>(pick(30)))), text()});
  }
  // Serves 'twin_a' and 'twin_c' as the rows of a and c; every other range
  // is a small table of mixed types and ERROR values.
  class Ranges : public ExternalResolver {
   public:
    RangeTableData twin_a, twin_c;
    Result<Value> ResolveRangeValue(const std::string&) override {
      return Value::Int(5);
    }
    Result<RangeTableData> ResolveRangeTable(
        const std::string& range) override {
      if (range == "twin_a") return twin_a;
      if (range == "twin_c") return twin_c;
      return RangeTableData{
          {"k", "s", "e"},
          {{Value::Int(3), Value::Text("x"), Value::Int(1)},
           {Value::Real(3.0), Value::Text(""), Value::Error("#DIV/0!")},
           {Value::Null(), Value::Text("a-string-longer-than-fifteen-bytes"),
            Value::Real(2.5)},
           {Value::Int(7), Value::Null(), Value::Text("t")},
           {Value::Real(12.5), Value::Text("y"), Value::Bool(true)},
           {Value::Int(12), Value::Text("short1"), Value::Error("#REF!")}}};
    }
  } ranges;
  ranges.twin_a = RangeTableData{{"id", "k", "r", "s", "b"}, a_rows};
  ranges.twin_c = RangeTableData{{"k", "r", "s"}, c_rows};

  // Predicate leaves; `$` stands for the qualifier of table a. The first
  // group has typed kernels, the second falls back, the third can raise.
  const std::vector<std::string> kernel_leaves = {
      "$k >= 20", "$k < 7", "13 = $k", "$k <> 40", "$r > 10.5", "$r <= 3.0",
      "12.0 = $r", "$s = ''", "$s > 'm'", "$s < '" + kLong + "3'",
      "$s <> 'short1'", "$b = TRUE", "FALSE <> $b", "$k IS NULL",
      "$r IS NOT NULL", "$s IS NULL", "$b IS NOT NULL", "$k < $id",
      "$s >= $s", "$r = $r", "$k = NULL", "NULL < $s", "$k % 5 = 1",
      "$k % -1 = 0", "$k + 1 > $id", "2 * $k = $id", "$k - $id < 0",
      "$r * 2.0 > 30.5", "$r / 4.0 <= 2.0", "$k * 4611686018427387904 > 0",
      "20 <= $k", "'m' < $s", "10.5 > $r", "TRUE > $b"};
  const std::vector<std::string> fallback_leaves = {
      "$r > 12",    "$k = 12.0",  "$k < $r",         "$r >= $k",
      "$k / 2 > 3", "1 - $k < 0", "LENGTH($s) > 15", "$s LIKE '%ong%'",
      "$b"};
  const std::vector<std::string> raising_leaves = {
      "$s > 5", "$k / ($k - $k) > 1", "$k = 'x'", "$r / 0.0 > 1",
      "$k % 0 = 1"};
  std::function<std::string(const std::string&, int, bool)> pred =
      [&](const std::string& q, int depth, bool raising) -> std::string {
    size_t shape = depth == 0 ? 3 : pick(6);
    if (shape == 0) {
      return "(" + pred(q, depth - 1, raising) + " AND " +
             pred(q, depth - 1, raising) + ")";
    }
    if (shape == 1) {
      return "(" + pred(q, depth - 1, raising) + " OR " +
             pred(q, depth - 1, raising) + ")";
    }
    if (shape == 2) return "NOT (" + pred(q, depth - 1, raising) + ")";
    size_t group = pick(raising ? 3 : 5);  // kernels weighted 3:1:(1)
    const std::vector<std::string>& leaves =
        group == 2 && raising ? raising_leaves
        : group == 1          ? fallback_leaves
                              : kernel_leaves;
    std::string leaf = leaves[pick(leaves.size())];
    for (size_t at; (at = leaf.find('$')) != std::string::npos;) {
      leaf.replace(at, 1, q);
    }
    return leaf;
  };

  // Query templates: `{a}` and `{c}` name the tables (or their twins),
  // `{a2}` is table a under the alias a2.
  std::vector<std::string> queries;
  const char* const kGroupKeys[] = {"k", "r", "s", "b"};
  const char* const kJoinKeys[][2] = {{"k", "k"}, {"s", "s"}, {"k", "r"},
                                      {"r", "k"}, {"r", "r"}};
  for (int i = 0; i < 12; ++i) {
    bool raising = pick(3) == 0;
    queries.push_back("SELECT id, k, r, s, b FROM {a} WHERE " +
                      pred("", 2, raising) + " ORDER BY id");
    queries.push_back("SELECT id, s FROM {a} WHERE " + pred("", 2, false) +
                      " LIMIT 9 OFFSET 2");
    std::string g = kGroupKeys[pick(4)];
    queries.push_back("SELECT " + g +
                      ", COUNT(*), COUNT(s), SUM(k), SUM(r), MIN(s), MAX(s), "
                      "AVG(r), MIN(k), MAX(b) FROM {a} WHERE " +
                      pred("", 1, raising) + " GROUP BY " + g + " ORDER BY 1");
    queries.push_back(
        "SELECT COUNT(*), SUM(k), MAX(r), MIN(s) FROM {a} WHERE " +
        pred("", 2, raising));
    const char* const* keys = kJoinKeys[pick(5)];
    std::string join = pick(2) == 0 ? " JOIN " : " LEFT JOIN ";
    queries.push_back("SELECT a.id, c.k, c.r, c.s FROM {a}" + join +
                      "{c} ON a." + keys[0] + " = c." + keys[1] + " WHERE " +
                      pred("a.", 1, raising) + " ORDER BY a.id, c.k, c.r, c.s");
    queries.push_back("SELECT a.s, c.s FROM {a} JOIN {c} ON a.k = c.k JOIN "
                      "{a2} ON c.k = a2.id WHERE " +
                      pred("a.", 1, false) + " ORDER BY a.s, c.s LIMIT 8");
    queries.push_back("SELECT id, s FROM {a} WHERE " + pred("", 1, raising) +
                      (pick(2) == 0 ? " ORDER BY s DESC, id LIMIT 5"
                                    : " ORDER BY k, r DESC LIMIT 10 OFFSET 3"));
  }
  // Top-K whose winners all arrive in the first batch; RANGETABLE inputs
  // with mixed types and ERROR values, on either side of a join.
  const std::vector<std::string> fixed = {
      "SELECT id, s FROM {a} ORDER BY id LIMIT 4",
      "SELECT id FROM {a} WHERE k IS NOT NULL ORDER BY id DESC LIMIT 3",
      "SELECT * FROM RANGETABLE(A1:C7) x WHERE x.k > 2",
      "SELECT x.k, COUNT(*) FROM RANGETABLE(A1:C7) x GROUP BY x.k ORDER BY 1",
      "SELECT a.id, x.e FROM {a} JOIN RANGETABLE(A1:C7) x ON a.k = x.k "
      "ORDER BY a.id",
      "SELECT x.s, a.id FROM RANGETABLE(A1:C7) x LEFT JOIN {a} ON x.k = a.k "
      "WHERE a.id IS NULL OR a.id < 300",
      "SELECT x.e, a.r FROM RANGETABLE(A1:C7) x JOIN {a} ON x.k = a.r "
      "ORDER BY a.id",
      "SELECT SUM(x.e) FROM RANGETABLE(A1:C7) x",
      "SELECT MAX(x.e), MIN(x.k) FROM RANGETABLE(A1:C7) x",
      "SELECT id FROM {a} WHERE k = RANGEVALUE(B1) ORDER BY id",
  };
  queries.insert(queries.end(), fixed.begin(), fixed.end());
  auto spell = [](std::string q, bool twins) {
    const std::pair<const char*, const char*> names[] = {
        {"{a}", twins ? "RANGETABLE('twin_a') a" : "a"},
        {"{c}", twins ? "RANGETABLE('twin_c') c" : "c"},
        {"{a2}", twins ? "RANGETABLE('twin_a') a2" : "a a2"}};
    for (const auto& [from, to] : names) {
      for (size_t at; (at = q.find(from)) != std::string::npos;) {
        q.replace(at, std::string(from).size(), to);
      }
    }
    return q;
  };

  // The reference: each query over the twins, at the default batch size.
  std::vector<Result<ResultSet>> want;
  size_t failed = 0, nonempty = 0;  // the tape exercises both outcomes
  {
    Database db;
    for (const std::string& q : queries) {
      want.push_back(db.Execute(spell(q, true), &ranges));
      failed += !want.back().ok();
      nonempty += want.back().ok() && want.back().value().num_rows() > 0;
    }
  }
  const size_t kBatchSizes[] = {0, 1, 3, 512, 1024};  // 0: the default
  for (StorageModel model : kModels) {
    Database db;
    Table* a = db.CreateTable("a", a_schema, model).ValueOrDie();
    Table* c = db.CreateTable("c", c_schema, model).ValueOrDie();
    for (const Row& r : a_rows) ASSERT_TRUE(a->AppendRow(r).ok());
    for (const Row& r : c_rows) ASSERT_TRUE(c->AppendRow(r).ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::string q = spell(queries[i], false);
      for (size_t batch : kBatchSizes) {
        db.set_exec_options(Batches(batch));
        Result<ResultSet> have = db.Execute(q, &ranges);
        std::string context = q + " model " + StorageModelName(model) +
                              " batch " + std::to_string(batch);
        ASSERT_EQ(have.ok(), want[i].ok())
            << context << ": "
            << (have.ok() ? want[i] : have).status().ToString();
        if (!have.ok()) {
          EXPECT_EQ(have.status().code(), want[i].status().code()) << context;
          continue;
        }
        ExpectSameRows(want[i].value(), have.value(), context);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(failed, 0u);
  EXPECT_GT(nonempty, failed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TypedBatchDifferentialTest,
                         ::testing::Values(16u, 1616u, 161616u));

// ---------------------------------------------------------------------------
// Invariant 17: delta materialization is invisible (DESIGN.md §6d). A
// binding's window slides by writing only the rows that enter it and
// clearing only those that leave; a back-end UPDATE
// rewrites only its cell, read by row id; every other change rewrites the
// window; and a cell no formula reads never enters the dirty set. A small
// window (hops overlap it) watches a random tape of ±1–3-screen hops and
// jumps, back-end UPDATEs of visible and off-window rows, positional INSERTs
// and DELETEs, front-end edits of bound cells, and BEGIN … UPDATE …
// ROLLBACK, under an exact reference into the window, SUMs over the bound
// column (one small range, one large), and a DBSQL with RANGEVALUE of a
// bound cell. After every Pump: every materialized row equals the table's
// window, no bound cell exists outside the window, nothing is dirty, and
// every formula keeps its value when all of them are marked dirty and
// recomputed.
// ---------------------------------------------------------------------------

class DeltaMaterializationTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DeltaMaterializationTest, MaterializedWindowAlwaysMatchesTheTable) {
  constexpr int64_t kWidth = 3;     // bound columns A:C (id, v, s)
  constexpr int64_t kFormulaCol = 5;  // column F
  const char* const kDbsql =
      "SELECT COUNT(*), SUM(v) FROM t WHERE v >= RANGEVALUE(B4)";
  const std::vector<std::string> kFormulas = {
      "=B3*2",              // exact reference to position 1's v
      "=SUM(B2:B40)",       // small range: tile buckets
      "=SUM(B2:B3000)",     // large range: overflow list
      std::string("=DBSQL(\"") + kDbsql + "\")",
  };
  std::mt19937 rng(GetParam());
  auto pick = [&](uint32_t n) { return static_cast<int64_t>(rng() % n); };

  DataSpreadOptions opts;
  opts.auto_pump = false;
  opts.binding_window = 24;
  opts.viewport_rows = 10;
  opts.viewport_cols = 8;
  opts.prefetch_margin = 4;
  DataSpread ds(opts);
  Sheet* s = ds.AddSheet("S").ValueOrDie();
  Table* table =
      ds.db()
          .CreateTable("t", Schema({ColumnDef{"id", DataType::kInt, true},
                                    ColumnDef{"v", DataType::kInt, false},
                                    ColumnDef{"s", DataType::kText, false}}))
          .ValueOrDie();
  int64_t next_id = 0;
  auto row_of = [&] {
    int64_t id = next_id++;
    return Row{Value::Int(id), Value::Int(pick(100)),
               Value::Text("s" + std::to_string(pick(1000)))};
  };
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(table->AppendRow(row_of()).ok());
  ASSERT_TRUE(ds.ImportTable("S", "A1", "t").ok());
  for (size_t f = 0; f < kFormulas.size(); ++f) {
    ASSERT_TRUE(ds.SetCellAt(s, static_cast<int64_t>(f), kFormulaCol,
                             kFormulas[f])
                    .ok());
  }
  ds.Pump();
  TableBinding* binding = ds.interface_manager().FindBindingAt(s, 0, 0);
  ASSERT_NE(binding, nullptr);
  auto resolver = ds.interface_manager().MakeResolver(s);

  int64_t top = 0;
  auto check = [&](const std::string& what) {
    ds.Pump();
    // Every materialized row equals the table's window.
    size_t ws = binding->window_start(), wc = binding->window_count();
    std::vector<Row> window = table->GetWindow(ws, wc);
    ASSERT_EQ(window.size(), wc) << what;
    for (size_t i = 0; i < wc; ++i) {
      int64_t r = binding->data_row() + static_cast<int64_t>(ws + i);
      for (int64_t c = 0; c < kWidth; ++c) {
        Value have = s->GetValue(r, c);
        const Value& want = window[i][static_cast<size_t>(c)];
        ASSERT_TRUE(have == want && have.type() == want.type())
            << "cell (" << r << "," << c << ") is " << have.ToDisplayString()
            << ", want " << want.ToDisplayString() << what;
      }
    }
    // No bound cell exists outside the window.
    int64_t lo = binding->data_row() + static_cast<int64_t>(ws);
    int64_t hi = lo + static_cast<int64_t>(wc);
    s->VisitRange(1, 0, s->num_rows() - 1, kWidth - 1,
                  [&](int64_t r, int64_t c, const Cell&) {
                    EXPECT_TRUE(r >= lo && r < hi)
                        << "stale bound cell (" << r << "," << c << ")"
                        << what;
                  });
    EXPECT_EQ(ds.engine().dirty_count(), 0u) << what;
    // Every formula keeps its value when recomputed from scratch, and the
    // DBSQL cell equals a fresh execution of its query.
    std::vector<Value> shown;
    for (size_t f = 0; f < kFormulas.size(); ++f) {
      shown.push_back(ds.GetValueAt(s, static_cast<int64_t>(f), kFormulaCol));
      ds.engine().MarkDirty(s, static_cast<int64_t>(f), kFormulaCol);
    }
    ASSERT_TRUE(ds.RecalcNow().ok()) << what;
    for (size_t f = 0; f < kFormulas.size(); ++f) {
      EXPECT_EQ(ds.GetValueAt(s, static_cast<int64_t>(f), kFormulaCol),
                shown[f])
          << kFormulas[f] << what;
    }
    auto fresh = ds.db().Execute(kDbsql, resolver.get());
    ASSERT_TRUE(fresh.ok()) << what;
    EXPECT_EQ(ds.GetValueAt(s, 3, kFormulaCol), fresh.value().rows[0][0])
        << what;
    EXPECT_EQ(ds.GetValueAt(s, 3, kFormulaCol + 1), fresh.value().rows[0][1])
        << what;
  };
  auto id_at = [&](size_t pos) {
    return table->GetAt(pos, 0).ValueOrDie().ToSqlLiteral();
  };
  auto update = [&](size_t pos) {
    bool text = pick(3) == 0;
    std::string set = text ? "s = 'u" + std::to_string(pick(1000)) + "'"
                           : "v = " + std::to_string(pick(100));
    return "UPDATE t SET " + set + " WHERE id = " + id_at(pos);
  };
  // A position the window materializes, else any position.
  auto visible_pos = [&] {
    size_t wc = binding->window_count();
    if (wc == 0) return static_cast<size_t>(pick(
        static_cast<uint32_t>(table->num_rows())));
    return binding->window_start() + static_cast<size_t>(pick(
        static_cast<uint32_t>(wc)));
  };

  check(" after setup");
  for (int step = 0; step < 150; ++step) {
    const std::string what = " at step " + std::to_string(step) + " seed " +
                             std::to_string(GetParam());
    const int64_t n = static_cast<int64_t>(table->num_rows());
    switch (pick(8)) {
      case 0: {  // hop of 1–3 screens either way
        int64_t step_rows = (1 + pick(3)) * opts.viewport_rows;
        top = std::clamp<int64_t>(top + (pick(2) == 0 ? step_rows : -step_rows),
                                  0, n);
        ASSERT_TRUE(ds.ScrollTo("S", top, 0).ok());
        break;
      }
      case 1:  // jump
        top = pick(static_cast<uint32_t>(n + 1));
        ASSERT_TRUE(ds.ScrollTo("S", top, 0).ok());
        break;
      case 2:  // back-end UPDATE of a visible row
        if (n > 0) ASSERT_TRUE(ds.Sql(update(visible_pos())).ok()) << what;
        break;
      case 3:  // back-end UPDATE of any row (mostly off-window)
        if (n > 0) {
          ASSERT_TRUE(ds.Sql(update(static_cast<size_t>(
                                 pick(static_cast<uint32_t>(n)))))
                          .ok())
              << what;
        }
        break;
      case 4:  // INSERT at a random position
        ASSERT_TRUE(table
                        ->InsertRowAt(static_cast<size_t>(pick(
                                          static_cast<uint32_t>(n + 1))),
                                      row_of())
                        .ok())
            << what;
        break;
      case 5:  // DELETE at a random position
        if (n > 1) {
          ASSERT_TRUE(
              table->DeleteRowAt(static_cast<size_t>(
                                     pick(static_cast<uint32_t>(n))))
                  .ok())
              << what;
        }
        break;
      case 6: {  // front-end edit of a bound cell
        if (n == 0) break;
        int64_t row = binding->data_row() +
                      static_cast<int64_t>(visible_pos());
        std::string input = pick(2) == 0
                                ? std::to_string(pick(100))
                                : "e" + std::to_string(pick(1000));
        ASSERT_TRUE(ds.SetCellAt(s, row, input[0] == 'e' ? 2 : 1, input).ok())
            << what;
        break;
      }
      default:  // BEGIN … UPDATE … ROLLBACK, checked mid-transaction
        if (n == 0) break;
        ASSERT_TRUE(ds.Sql("BEGIN").ok()) << what;
        ASSERT_TRUE(ds.Sql(update(visible_pos())).ok()) << what;
        check(" inside a transaction" + what);
        ASSERT_TRUE(ds.Sql("ROLLBACK").ok()) << what;
        break;
    }
    // Several changes sometimes land between pumps.
    if (pick(3) != 0) check(what);
  }
  check(" at the end");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaMaterializationTest,
                         ::testing::Values(17u, 1717u, 171717u, 17171717u));

}  // namespace
}  // namespace dataspread
