#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <tuple>

#include "catalog/catalog.h"

namespace dataspread {
namespace {

Schema MovieSchema() {
  return Schema({ColumnDef{"movieid", DataType::kInt, true},
                 ColumnDef{"title", DataType::kText, false},
                 ColumnDef{"year", DataType::kInt, false}});
}

TEST(SchemaTest, ValidateRejectsDuplicatesAndDoublePk) {
  Schema dup({ColumnDef{"a", DataType::kInt, false},
              ColumnDef{"A", DataType::kText, false}});
  EXPECT_FALSE(dup.Validate().ok());
  Schema two_pk({ColumnDef{"a", DataType::kInt, true},
                 ColumnDef{"b", DataType::kInt, true}});
  EXPECT_FALSE(two_pk.Validate().ok());
  EXPECT_TRUE(MovieSchema().Validate().ok());
}

TEST(SchemaTest, FindColumnCaseInsensitive) {
  Schema s = MovieSchema();
  EXPECT_EQ(s.FindColumn("TITLE").value_or(99), 1u);
  EXPECT_FALSE(s.FindColumn("nope").has_value());
  EXPECT_EQ(s.primary_key_index().value_or(99), 0u);
}

TEST(SchemaTest, MutationGuards) {
  Schema s = MovieSchema();
  EXPECT_FALSE(s.AddColumn(ColumnDef{"title", DataType::kInt, false}).ok());
  EXPECT_FALSE(s.AddColumn(ColumnDef{"id2", DataType::kInt, true}).ok());
  EXPECT_TRUE(s.AddColumn(ColumnDef{"genre", DataType::kText, false}).ok());
  EXPECT_FALSE(s.RenameColumn(1, "YEAR").ok());  // collision
  EXPECT_TRUE(s.RenameColumn(1, "name").ok());
  EXPECT_EQ(s.FindColumn("name").value_or(99), 1u);
}

TEST(TableTest, InsertAndOrderedAccess) {
  auto table = Table::Create("movies", MovieSchema()).ValueOrDie();
  ASSERT_TRUE(
      table->AppendRow({Value::Int(1), Value::Text("Alien"), Value::Int(1979)})
          .ok());
  ASSERT_TRUE(
      table->AppendRow({Value::Int(2), Value::Text("Brazil"), Value::Int(1985)})
          .ok());
  ASSERT_TRUE(table
                  ->InsertRowAt(1, {Value::Int(3), Value::Text("Clue"),
                                    Value::Int(1985)})
                  .ok());
  EXPECT_EQ(table->num_rows(), 3u);
  EXPECT_EQ(table->GetAt(0, 1).value(), Value::Text("Alien"));
  EXPECT_EQ(table->GetAt(1, 1).value(), Value::Text("Clue"));
  EXPECT_EQ(table->GetAt(2, 1).value(), Value::Text("Brazil"));
}

TEST(TableTest, TypeCoercionOnInsert) {
  auto table = Table::Create("movies", MovieSchema()).ValueOrDie();
  // year arrives as text but coerces to INT.
  ASSERT_TRUE(
      table->AppendRow({Value::Int(1), Value::Text("x"), Value::Text("1999")})
          .ok());
  EXPECT_EQ(table->GetAt(0, 2).value(), Value::Int(1999));
  // Uncoercible text fails.
  EXPECT_FALSE(
      table->AppendRow({Value::Int(2), Value::Text("y"), Value::Text("abc")})
          .ok());
}

TEST(TableTest, PrimaryKeyEnforced) {
  auto table = Table::Create("movies", MovieSchema()).ValueOrDie();
  ASSERT_TRUE(
      table->AppendRow({Value::Int(1), Value::Text("a"), Value::Int(2000)}).ok());
  // Duplicate key.
  EXPECT_FALSE(
      table->AppendRow({Value::Int(1), Value::Text("b"), Value::Int(2001)}).ok());
  // NULL key.
  EXPECT_FALSE(
      table->AppendRow({Value::Null(), Value::Text("c"), Value::Int(2002)}).ok());
  // Update to a clashing key fails; to a fresh key succeeds.
  ASSERT_TRUE(
      table->AppendRow({Value::Int(2), Value::Text("b"), Value::Int(2001)}).ok());
  EXPECT_FALSE(table->UpdateAt(1, 0, Value::Int(1)).ok());
  EXPECT_TRUE(table->UpdateAt(1, 0, Value::Int(9)).ok());
  EXPECT_EQ(table->FindByKey(Value::Int(9)).value(), 1u);
}

TEST(TableTest, FindByKeyAfterDeleteAndReorder) {
  auto table = Table::Create("movies", MovieSchema()).ValueOrDie();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table
                    ->AppendRow({Value::Int(i), Value::Text("t"),
                                 Value::Int(1990 + i)})
                    .ok());
  }
  ASSERT_TRUE(table->DeleteRowAt(0).ok());
  EXPECT_FALSE(table->FindByKey(Value::Int(0)).ok());
  EXPECT_EQ(table->FindByKey(Value::Int(5)).value(), 4u);
  EXPECT_EQ(table->GetAt(4, 0).value(), Value::Int(5));
}

TEST(TableTest, GetWindowClipsAndOrders) {
  auto table = Table::Create("movies", MovieSchema()).ValueOrDie();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(table
                    ->AppendRow({Value::Int(i), Value::Text("t"),
                                 Value::Int(1900 + i)})
                    .ok());
  }
  auto window = table->GetWindow(90, 20);
  ASSERT_EQ(window.size(), 10u);
  EXPECT_EQ(window[0][0], Value::Int(90));
  EXPECT_EQ(window[9][0], Value::Int(99));
}

// GatherWindow reads display order, whatever the storage slots: after
// mid-table inserts and deletes (which scatter display positions across
// slots) every model gathers the listed columns of a clipped window exactly
// as GetRowAt reads them.
TEST(TableTest, GatherWindowFollowsFragmentedDisplayOrder) {
  for (StorageModel model : {StorageModel::kRow, StorageModel::kColumn,
                             StorageModel::kRcv, StorageModel::kHybrid}) {
    auto table = Table::Create("movies", MovieSchema(), model).ValueOrDie();
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(table
                      ->AppendRow({Value::Int(i), Value::Text("m" +
                                                              std::to_string(i)),
                                   Value::Int(1900 + i % 50)})
                      .ok());
    }
    for (int k = 0; k < 40; ++k) {
      ASSERT_TRUE(table->DeleteRowAt((k * 37) % table->num_rows()).ok());
      ASSERT_TRUE(table
                      ->InsertRowAt((k * 53) % table->num_rows(),
                                    {Value::Int(1000 + k), Value::Text("x"),
                                     Value::Int(k)})
                      .ok());
    }
    const std::vector<size_t> columns = {2, 0};
    ColumnVector years(ColumnKind::kInt), ids(ColumnKind::kInt);
    ColumnVector* out[] = {&years, &ids};
    ASSERT_TRUE(table->GatherWindow(250, 100, columns, out).ok());
    ASSERT_EQ(ids.size(), 50u) << StorageModelName(model);  // clipped
    ASSERT_EQ(years.size(), 50u);
    for (size_t i = 0; i < ids.size(); ++i) {
      Row row = table->GetRowAt(250 + i).ValueOrDie();
      EXPECT_EQ(ids.GetValue(i), row[0])
          << StorageModelName(model) << " pos " << i;
      EXPECT_EQ(years.GetValue(i), row[2])
          << StorageModelName(model) << " pos " << i;
    }
  }
}

TEST(TableTest, SchemaChangesPreserveData) {
  auto table = Table::Create("movies", MovieSchema()).ValueOrDie();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(table
                    ->AppendRow({Value::Int(i), Value::Text("m"),
                                 Value::Int(2000)})
                    .ok());
  }
  ASSERT_TRUE(
      table->AddColumn(ColumnDef{"rating", DataType::kReal, false},
                       Value::Real(7.5))
          .ok());
  EXPECT_EQ(table->schema().num_columns(), 4u);
  EXPECT_EQ(table->GetAt(10, 3).value(), Value::Real(7.5));
  ASSERT_TRUE(table->DropColumn("year").ok());
  EXPECT_EQ(table->GetAt(10, 2).value(), Value::Real(7.5));
  ASSERT_TRUE(table->RenameColumn("rating", "score").ok());
  EXPECT_TRUE(table->schema().FindColumn("score").has_value());
  EXPECT_FALSE(table->DropColumn("ghost").ok());
}

TEST(TableTest, AddPkColumnOnlyWhenEmpty) {
  auto table =
      Table::Create("t", Schema({ColumnDef{"a", DataType::kInt, false}}))
          .ValueOrDie();
  ASSERT_TRUE(table->AppendRow({Value::Int(1)}).ok());
  EXPECT_FALSE(
      table->AddColumn(ColumnDef{"id", DataType::kInt, true}, Value::Null())
          .ok());
}

TEST(TableTest, ListenersFireWithPositions) {
  auto table = Table::Create("movies", MovieSchema()).ValueOrDie();
  std::vector<TableChange> changes;
  int token = table->AddListener(
      [&](const Table&, const TableChange& c) { changes.push_back(c); });
  ASSERT_TRUE(
      table->AppendRow({Value::Int(1), Value::Text("a"), Value::Int(1)}).ok());
  ASSERT_TRUE(table->UpdateAt(0, 1, Value::Text("b")).ok());
  ASSERT_TRUE(table->DeleteRowAt(0).ok());
  ASSERT_EQ(changes.size(), 3u);
  EXPECT_EQ(changes[0].kind, TableChange::Kind::kInsert);
  EXPECT_EQ(changes[1].kind, TableChange::Kind::kUpdate);
  EXPECT_EQ(changes[1].column, 1u);
  EXPECT_EQ(changes[2].kind, TableChange::Kind::kDelete);
  uint64_t version = table->version();
  table->RemoveListener(token);
  ASSERT_TRUE(
      table->AppendRow({Value::Int(2), Value::Text("c"), Value::Int(2)}).ok());
  EXPECT_EQ(changes.size(), 3u);          // detached
  EXPECT_GT(table->version(), version);  // version still advances
}

TEST(TableTest, ChangesCarryTheirRowDelta) {
  auto table = Table::Create("movies", MovieSchema()).ValueOrDie();
  // Copies of the delta, taken while the notification is live.
  struct Seen {
    TableChange::Kind kind;
    size_t position;
    uint64_t rid, prior_version, version;
    Row row;
    Value old_value, new_value;
  };
  std::vector<Seen> seen;
  table->AddListener([&](const Table& t, const TableChange& c) {
    EXPECT_EQ(c.table, &t);
    EXPECT_EQ(c.version, t.version());
    seen.push_back({c.kind, c.position, c.rid, c.prior_version, c.version,
                    c.row != nullptr ? *c.row : Row{},
                    c.old_value != nullptr ? *c.old_value : Value::Null(),
                    c.new_value != nullptr ? *c.new_value : Value::Null()});
  });
  const Row row = {Value::Int(7), Value::Text("a"), Value::Int(1999)};
  ASSERT_TRUE(table->AppendRow(row).ok());
  ASSERT_TRUE(table->UpdateByKey(Value::Int(7), 2, Value::Int(2001)).ok());
  ASSERT_TRUE(table->DeleteRowAt(0).ok());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].kind, TableChange::Kind::kInsert);
  EXPECT_EQ(seen[0].row, row);
  // A keyed update is a single-cell kUpdate carrying both images.
  EXPECT_EQ(seen[1].kind, TableChange::Kind::kUpdate);
  EXPECT_EQ(seen[1].position, TableChange::kNoPosition);
  EXPECT_EQ(seen[1].rid, seen[0].rid);
  EXPECT_EQ(seen[1].old_value, Value::Int(1999));
  EXPECT_EQ(seen[1].new_value, Value::Int(2001));
  EXPECT_EQ(seen[2].kind, TableChange::Kind::kDelete);
  EXPECT_EQ(seen[2].row,
            (Row{Value::Int(7), Value::Text("a"), Value::Int(2001)}));
  // Each change steps the version on from where the previous one left it.
  EXPECT_EQ(seen[1].prior_version, seen[0].version);
  EXPECT_EQ(seen[2].prior_version, seen[1].version);
  // Versions never repeat, even for a fresh table of the same name.
  auto twin = Table::Create("movies", MovieSchema()).ValueOrDie();
  EXPECT_GT(twin->version(), seen[2].version);
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("Movies", MovieSchema()).ok());
  EXPECT_TRUE(catalog.HasTable("MOVIES"));
  EXPECT_TRUE(catalog.GetTable("movies").ok());
  EXPECT_FALSE(catalog.CreateTable("MOVIES", MovieSchema()).ok());
  EXPECT_EQ(catalog.TableNames(), std::vector<std::string>{"Movies"});
  ASSERT_TRUE(catalog.DropTable("movies").ok());
  EXPECT_FALSE(catalog.GetTable("movies").ok());
  EXPECT_FALSE(catalog.DropTable("movies").ok());
}

TEST(TableTest, ScanEarlyStop) {
  auto table = Table::Create("movies", MovieSchema()).ValueOrDie();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        table->AppendRow({Value::Int(i), Value::Text("t"), Value::Int(i)}).ok());
  }
  int visited = 0;
  table->Scan([&](size_t, const Row&) {
    ++visited;
    return visited < 3;
  });
  EXPECT_EQ(visited, 3);
}

// The checkpoint blob stores a display order as runs of consecutive row ids:
// an append-only table costs one run whatever its size, a fragmented order
// one run per fragment, and both decode back to the same order.
TEST(CatalogCodecTest, OrdersRoundTripAsRuns) {
  TableDescriptor desc;
  desc.name = "t";
  desc.schema = MovieSchema();
  desc.manifest.model = StorageModel::kColumn;
  desc.manifest.num_columns = 3;
  desc.manifest.files = {1, 2, 3};
  desc.rid_file = 4;
  desc.next_rid = 100000;
  std::string descriptor_only;
  EncodeTableDescriptor(desc, &descriptor_only);
  std::vector<uint64_t> appended(100000);
  for (size_t i = 0; i < appended.size(); ++i) appended[i] = i;
  std::vector<uint64_t> fragmented = {7, 8, 9, 0, 1, 2, 3, 99999, 4};
  for (const std::vector<uint64_t>& order : {appended, fragmented}) {
    PositionalIndex index;
    index.Build(order);
    std::string blob;
    BeginCatalogBlob(1, &blob);
    EncodeSnapshotTable(desc, index, &blob);
    size_t runs = order == appended ? 1 : 4;
    EXPECT_EQ(blob.size(), 8 + descriptor_only.size() + 8 + 16 * runs);
    auto tables = ReplayCatalogState(blob, {});
    ASSERT_TRUE(tables.ok()) << tables.status().ToString();
    ASSERT_EQ(tables.value().size(), 1u);
    EXPECT_EQ(tables.value()[0].order, order);
  }
  // A version-1 blob (order side files) is refused, not misread.
  std::string old_blob("\x01\x00\x00\x00\x00\x00\x00\x00", 8);
  auto old = ReplayCatalogState(old_blob, {});
  ASSERT_FALSE(old.ok());
  EXPECT_EQ(old.status().code(), StatusCode::kCorruption);
}

// A positional edit on a durable table logs one display-order record, not
// the shifted tail of the order: the WAL it writes and the slots it touches
// do not depend on the table size or the edit position.
TEST(TableTest, DurableMidTableEditsLogConstantWal) {
  std::string base = ::testing::TempDir() + "ds_catalog_flat_wal";
  storage::PagerConfig config;
  config.spill_path = base + ".pages";
  config.wal_path = base + ".wal";
  config.durable_spill = true;  // auto-checkpoint off: no FPI mid-test
  std::remove(config.spill_path.c_str());
  std::remove(config.wal_path.c_str());
  {
    storage::Pager pager(config);
    auto table = Table::Create("movies", MovieSchema(), StorageModel::kHybrid,
                               &pager)
                     .ValueOrDie();
    constexpr int kRows = 20000;
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(
          table->AppendRow({Value::Int(i), Value::Text("t"), Value::Int(i)})
              .ok());
    }
    auto cost = [&](const std::function<Status()>& edit) {
      storage::PagerStats before = pager.stats();
      EXPECT_TRUE(edit().ok());
      storage::PagerStats after = pager.stats();
      return std::make_tuple(after.wal_bytes - before.wal_bytes,
                             after.slot_writes - before.slot_writes,
                             after.wal_records - before.wal_records);
    };
    auto insert = cost([&] {
      return table->InsertRowAt(
          kRows / 2, {Value::Int(-1), Value::Text("mid"), Value::Int(0)});
    });
    EXPECT_LT(std::get<0>(insert), 1024u);
    EXPECT_LT(std::get<1>(insert), 16u);
    auto erase = cost([&] { return table->DeleteRowAt(kRows / 4); });
    EXPECT_LT(std::get<0>(erase), 1024u);
    EXPECT_LT(std::get<1>(erase), 16u);
    // A mid-table delete moves the last tuple into the hole: one record per
    // moved column and one for its row id on top of what deleting the last
    // tuple itself logs, and none for clearing the moved-from slots, which
    // the truncation does.
    auto erase_last =
        cost([&] { return table->DeleteRowAt(table->num_rows() - 1); });
    EXPECT_EQ(std::get<2>(erase),
              std::get<2>(erase_last) + MovieSchema().num_columns() + 1);
    ASSERT_TRUE(table
                    ->AppendRow({Value::Int(kRows), Value::Text("t"),
                                 Value::Int(kRows)})
                    .ok());
    EXPECT_EQ(table->num_rows(), static_cast<size_t>(kRows));
    EXPECT_EQ(table->GetAt(kRows / 2 - 1, 0).value(), Value::Int(-1));
    EXPECT_EQ(table->GetAt(kRows / 2, 0).value(), Value::Int(kRows / 2));
  }
  std::remove(config.spill_path.c_str());
  std::remove(config.wal_path.c_str());
}

}  // namespace
}  // namespace dataspread
