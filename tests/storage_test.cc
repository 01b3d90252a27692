#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>

#include "storage/hybrid_store.h"
#include "storage/rcv_store.h"
#include "storage/table_storage.h"

namespace dataspread {
namespace {

Row MakeRow(int64_t a, const std::string& b, double c) {
  return Row{Value::Int(a), Value::Text(b), Value::Real(c)};
}

/// Parameterized over all four storage models: behavioural equivalence.
class StorageModelTest : public ::testing::TestWithParam<StorageModel> {
 protected:
  std::unique_ptr<TableStorage> Make(size_t cols) {
    return CreateStorage(GetParam(), cols);
  }
};

TEST_P(StorageModelTest, StartsEmpty) {
  auto s = Make(3);
  EXPECT_EQ(s->num_rows(), 0u);
  EXPECT_EQ(s->num_columns(), 3u);
  EXPECT_FALSE(s->Get(0, 0).ok());
}

TEST_P(StorageModelTest, AppendAndGet) {
  auto s = Make(3);
  ASSERT_TRUE(s->AppendRow(MakeRow(1, "a", 0.5)).ok());
  ASSERT_TRUE(s->AppendRow(MakeRow(2, "b", 1.5)).ok());
  EXPECT_EQ(s->num_rows(), 2u);
  EXPECT_EQ(s->Get(0, 0).value(), Value::Int(1));
  EXPECT_EQ(s->Get(1, 1).value(), Value::Text("b"));
  EXPECT_EQ(s->Get(1, 2).value(), Value::Real(1.5));
  Row row = s->GetRow(0).value();
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[1], Value::Text("a"));
}

TEST_P(StorageModelTest, ArityMismatchRejected) {
  auto s = Make(3);
  EXPECT_FALSE(s->AppendRow(Row{Value::Int(1)}).ok());
}

TEST_P(StorageModelTest, ErrorValuesRejected) {
  auto s = Make(1);
  EXPECT_FALSE(s->AppendRow(Row{Value::Error("#REF!")}).ok());
  ASSERT_TRUE(s->AppendRow(Row{Value::Int(1)}).ok());
  EXPECT_FALSE(s->Set(0, 0, Value::Error("#DIV/0!")).ok());
}

TEST_P(StorageModelTest, SetUpdatesCell) {
  auto s = Make(2);
  ASSERT_TRUE(s->AppendRow(Row{Value::Int(1), Value::Int(2)}).ok());
  ASSERT_TRUE(s->Set(0, 1, Value::Text("new")).ok());
  EXPECT_EQ(s->Get(0, 1).value(), Value::Text("new"));
  EXPECT_FALSE(s->Set(5, 0, Value::Int(0)).ok());
}

TEST_P(StorageModelTest, NullsRoundTrip) {
  auto s = Make(2);
  ASSERT_TRUE(s->AppendRow(Row{Value::Null(), Value::Int(1)}).ok());
  EXPECT_TRUE(s->Get(0, 0).value().is_null());
  ASSERT_TRUE(s->Set(0, 1, Value::Null()).ok());
  EXPECT_TRUE(s->Get(0, 1).value().is_null());
}

TEST_P(StorageModelTest, DeleteSwapsWithLast) {
  auto s = Make(1);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(s->AppendRow(Row{Value::Int(i)}).ok());
  }
  // Delete slot 1; slot 4 (value 4) moves into it.
  auto moved = s->DeleteRow(1);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), 4u);
  EXPECT_EQ(s->num_rows(), 4u);
  EXPECT_EQ(s->Get(1, 0).value(), Value::Int(4));
  // Deleting the last slot moves nothing.
  moved = s->DeleteRow(3);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), 3u);
}

TEST_P(StorageModelTest, AddColumnWithDefault) {
  auto s = Make(2);
  ASSERT_TRUE(s->AppendRow(Row{Value::Int(1), Value::Int(2)}).ok());
  ASSERT_TRUE(s->AddColumn(Value::Text("d")).ok());
  EXPECT_EQ(s->num_columns(), 3u);
  EXPECT_EQ(s->Get(0, 2).value(), Value::Text("d"));
  ASSERT_TRUE(s->AppendRow(Row{Value::Int(3), Value::Int(4), Value::Int(5)}).ok());
  EXPECT_EQ(s->Get(1, 2).value(), Value::Int(5));
}

TEST_P(StorageModelTest, DropColumnShiftsLeft) {
  auto s = Make(3);
  ASSERT_TRUE(s->AppendRow(MakeRow(1, "a", 0.5)).ok());
  ASSERT_TRUE(s->DropColumn(1).ok());
  EXPECT_EQ(s->num_columns(), 2u);
  EXPECT_EQ(s->Get(0, 0).value(), Value::Int(1));
  EXPECT_EQ(s->Get(0, 1).value(), Value::Real(0.5));
  EXPECT_FALSE(s->DropColumn(7).ok());
}

TEST_P(StorageModelTest, SchemaChangeAfterDataMatrix) {
  // add column -> update -> drop another column -> contents consistent.
  auto s = Make(2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        s->AppendRow(Row{Value::Int(i), Value::Text("r" + std::to_string(i))})
            .ok());
  }
  ASSERT_TRUE(s->AddColumn(Value::Int(0)).ok());
  ASSERT_TRUE(s->Set(3, 2, Value::Int(99)).ok());
  ASSERT_TRUE(s->DropColumn(0).ok());
  EXPECT_EQ(s->num_columns(), 2u);
  EXPECT_EQ(s->Get(3, 0).value(), Value::Text("r3"));
  EXPECT_EQ(s->Get(3, 1).value(), Value::Int(99));
  EXPECT_EQ(s->Get(4, 1).value(), Value::Int(0));
}

TEST_P(StorageModelTest, RandomizedParityWithReferenceModel) {
  // Property test: the store behaves like a simple vector-of-rows model
  // under a random workload of appends, updates, and deletes.
  auto s = Make(2);
  std::vector<Row> reference;
  std::mt19937 rng(42);
  for (int step = 0; step < 500; ++step) {
    int action = static_cast<int>(rng() % 3);
    if (action == 0 || reference.empty()) {
      Row r{Value::Int(static_cast<int64_t>(rng() % 100)),
            Value::Text("s" + std::to_string(rng() % 10))};
      ASSERT_TRUE(s->AppendRow(r).ok());
      reference.push_back(r);
    } else if (action == 1) {
      size_t row = rng() % reference.size();
      Value v = Value::Int(static_cast<int64_t>(rng() % 1000));
      ASSERT_TRUE(s->Set(row, 0, v).ok());
      reference[row][0] = v;
    } else {
      size_t row = rng() % reference.size();
      ASSERT_TRUE(s->DeleteRow(row).ok());
      reference[row] = reference.back();
      reference.pop_back();
    }
  }
  ASSERT_EQ(s->num_rows(), reference.size());
  for (size_t r = 0; r < reference.size(); ++r) {
    EXPECT_EQ(s->GetRow(r).value(), reference[r]) << "row " << r;
  }
}

// A reopen rebinds a table's files only if each holds exactly what the row
// count implies (AttachStorage refuses anything else). After deletes and
// schema changes on a durable pager, every model's files must rebind as
// they stand, to the same rows.
TEST_P(StorageModelTest, FilesRebindAtTheRowCountAfterDeletesAndSchemaChanges) {
  const std::string base = ::testing::TempDir() + "ds_storage_rebind_" +
                           StorageModelName(GetParam());
  storage::PagerConfig config;
  config.wal_path = base + ".wal";
  config.spill_path = base + ".pages";
  config.durable_spill = true;
  std::remove(config.wal_path.c_str());
  std::remove(config.spill_path.c_str());
  {
    storage::Pager pager(config);
    auto s = CreateStorage(GetParam(), 3, &pager);
    for (int i = 0; i < 600; ++i) {
      ASSERT_TRUE(s->AppendRow(MakeRow(i, "r" + std::to_string(i), i)).ok());
    }
    for (size_t i = 0; i < 250; ++i) {
      ASSERT_TRUE(s->DeleteRow((i * 7) % s->num_rows()).ok());
    }
    ASSERT_TRUE(s->AddColumn(Value::Int(9)).ok());
    ASSERT_TRUE(s->DropColumn(1).ok());
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(s->DeleteRow(0).ok());
    auto attached = AttachStorage(s->Manifest(), s->num_rows(), &pager);
    ASSERT_TRUE(attached.ok()) << attached.status().ToString();
    ASSERT_EQ(attached.value()->num_rows(), 330u);
    for (size_t r = 0; r < s->num_rows(); ++r) {
      EXPECT_EQ(attached.value()->GetRow(r).value(), s->GetRow(r).value());
    }
  }
  std::remove(config.wal_path.c_str());
  std::remove(config.spill_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllModels, StorageModelTest,
                         ::testing::Values(StorageModel::kRow,
                                           StorageModel::kColumn,
                                           StorageModel::kRcv,
                                           StorageModel::kHybrid),
                         [](const auto& info) {
                           return StorageModelName(info.param);
                         });

// ---------------------------------------------------------------------------
// The paper's block-level claims (Relational Storage Manager, §3)
// ---------------------------------------------------------------------------

size_t PagesDirtiedByAddColumn(StorageModel model, size_t rows) {
  auto s = CreateStorage(model, 4);
  s->pager().set_accounting_enabled(false);
  for (size_t i = 0; i < rows; ++i) {
    Row r{Value::Int(static_cast<int64_t>(i)), Value::Int(1), Value::Int(2),
          Value::Int(3)};
    EXPECT_TRUE(s->AppendRow(r).ok());
  }
  s->pager().set_accounting_enabled(true);
  s->pager().BeginEpoch();
  EXPECT_TRUE(s->AddColumn(Value::Int(0)).ok());
  return s->pager().EpochPagesWritten();
}

TEST(PageAccountingTest, HybridAddColumnTouchesFarFewerBlocksThanRowStore) {
  constexpr size_t kRows = 20000;
  size_t row_pages = PagesDirtiedByAddColumn(StorageModel::kRow, kRows);
  size_t hybrid_pages = PagesDirtiedByAddColumn(StorageModel::kHybrid, kRows);
  // Row store rewrites every tuple (5 slots/row now); hybrid writes only the
  // fresh single-attribute group (1 slot/row).
  EXPECT_GE(row_pages, hybrid_pages * 4);
}

TEST(PageAccountingTest, HybridDropOfAddedColumnIsMetadataOnly) {
  auto s = CreateStorage(StorageModel::kHybrid, 2);
  for (size_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(s->AppendRow(Row{Value::Int(1), Value::Int(2)}).ok());
  }
  ASSERT_TRUE(s->AddColumn(Value::Int(0)).ok());
  s->pager().BeginEpoch();
  ASSERT_TRUE(s->DropColumn(2).ok());  // its own group: zero page writes
  EXPECT_EQ(s->pager().EpochPagesWritten(), 0u);
}

TEST(PageAccountingTest, RcvNullDefaultAddColumnIsFree) {
  auto s = CreateStorage(StorageModel::kRcv, 2);
  for (size_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(s->AppendRow(Row{Value::Int(1), Value::Int(2)}).ok());
  }
  s->pager().BeginEpoch();
  ASSERT_TRUE(s->AddColumn(Value::Null()).ok());
  EXPECT_EQ(s->pager().EpochPagesWritten(), 0u);
}

TEST(HybridStoreTest, GroupLifecycle) {
  HybridStore s(StorageModel::kHybrid, 3, nullptr);
  EXPECT_EQ(s.num_groups(), 1u);
  ASSERT_TRUE(s.AddColumn(Value::Int(0)).ok());
  ASSERT_TRUE(s.AddColumn(Value::Int(0)).ok());
  EXPECT_EQ(s.num_groups(), 3u);
  ASSERT_TRUE(s.DropColumn(3).ok());  // drops a whole single-column group
  EXPECT_EQ(s.num_groups(), 2u);
  ASSERT_TRUE(s.DropColumn(1).ok());  // compacts inside the wide group
  EXPECT_EQ(s.num_groups(), 2u);
  EXPECT_EQ(s.num_columns(), 3u);
}

TEST(HybridStoreTest, ReorganizeMergesGroupsAndPreservesData) {
  HybridStore s(StorageModel::kHybrid, 2, nullptr);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        s.AppendRow(Row{Value::Int(i), Value::Text("x" + std::to_string(i))})
            .ok());
  }
  ASSERT_TRUE(s.AddColumn(Value::Real(0.5)).ok());
  ASSERT_TRUE(s.AddColumn(Value::Int(7)).ok());
  EXPECT_EQ(s.num_groups(), 3u);
  ASSERT_TRUE(s.Reorganize().ok());
  EXPECT_EQ(s.num_groups(), 1u);
  EXPECT_EQ(s.Get(42, 0).value(), Value::Int(42));
  EXPECT_EQ(s.Get(42, 1).value(), Value::Text("x42"));
  EXPECT_EQ(s.Get(42, 2).value(), Value::Real(0.5));
  EXPECT_EQ(s.Get(42, 3).value(), Value::Int(7));
}

TEST(RcvStoreTest, SparsityOnlyMaterializesNonNulls) {
  auto s = CreateStorage(StorageModel::kRcv, 10);
  auto* rcv = dynamic_cast<RcvStore*>(s.get());
  ASSERT_NE(rcv, nullptr);
  Row sparse(10, Value::Null());
  sparse[3] = Value::Int(1);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(s->AppendRow(sparse).ok());
  }
  EXPECT_EQ(rcv->num_triples(), 100u);  // 1 of 10 attributes materialized
}

}  // namespace
}  // namespace dataspread
