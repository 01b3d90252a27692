#include <gtest/gtest.h>

#include <random>
#include <thread>

#include "core/dataspread.h"
#include "io/csv.h"
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
// Invariant 9: the execution mode is invisible. Every query run through the
// row-at-a-time Volcano pipeline and through the vectorized batch pipeline —
// at degenerate (1), misaligned (3), and larger-than-input (512) batch sizes
// — must produce byte-identical ResultSets, for every storage model and pool
// size. The query tape touches every operator: table scan (with and without
// window pushdown), rows scan, filter, project, hash/nested-loop/natural/
// left joins, aggregation with HAVING, sort, distinct, limit/offset.
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

TEST_P(BatchTransparencyTest, RowAndBatchPipelinesProduceIdenticalResults) {
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

      for (const char* q : queries) {
        db.set_exec_options(ExecOptions{0, /*row_at_a_time=*/true});
        auto reference = db.Execute(q);
        ASSERT_TRUE(reference.ok()) << q;
        for (size_t batch : {size_t{1}, size_t{3}, size_t{512}}) {
          db.set_exec_options(ExecOptions{batch, false});
          auto got = db.Execute(q);
          ASSERT_TRUE(got.ok()) << q << " batch " << batch;
          ASSERT_EQ(got.value().columns, reference.value().columns) << q;
          ASSERT_EQ(got.value().num_rows(), reference.value().num_rows())
              << q << " pool " << cap << " model " << StorageModelName(model)
              << " batch " << batch;
          for (size_t r = 0; r < reference.value().rows.size(); ++r) {
            const Row& want = reference.value().rows[r];
            const Row& have = got.value().rows[r];
            ASSERT_EQ(have.size(), want.size()) << q << " row " << r;
            for (size_t c = 0; c < want.size(); ++c) {
              ASSERT_EQ(have[c], want[c])
                  << q << " pool " << cap << " model "
                  << StorageModelName(model) << " batch " << batch << " row "
                  << r << " col " << c;
              ASSERT_EQ(have[c].type(), want[c].type())
                  << q << " row " << r << " col " << c;
            }
          }
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
        db.set_exec_options(ExecOptions{16, false});
        auto reference = db.Execute(q.sql);
        ASSERT_TRUE(reference.ok()) << q.sql;
        for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
          db.set_exec_options(ExecOptions{16, false, threads, 32});
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

}  // namespace
}  // namespace dataspread
