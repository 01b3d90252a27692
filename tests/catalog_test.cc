#include <gtest/gtest.h>

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
    std::vector<Value> years, ids;
    std::vector<Value>* out[] = {&years, &ids};
    ASSERT_TRUE(table->GatherWindow(250, 100, columns, out).ok());
    ASSERT_EQ(ids.size(), 50u) << StorageModelName(model);  // clipped
    ASSERT_EQ(years.size(), 50u);
    for (size_t i = 0; i < ids.size(); ++i) {
      Row row = table->GetRowAt(250 + i).ValueOrDie();
      EXPECT_EQ(ids[i], row[0]) << StorageModelName(model) << " pos " << i;
      EXPECT_EQ(years[i], row[2]) << StorageModelName(model) << " pos " << i;
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

}  // namespace
}  // namespace dataspread
