// Catalog persistence & schema recovery (DESIGN.md §6 "Catalog recovery").
//
// What PR 4 proved for page *data*, this suite proves for the *catalog*: a
// durable Database can be closed — or SIGKILLed — and reopened by path
// alone, with every table, column, type, attribute group, display order,
// and row byte-identical. Layers under test:
//   - clean close → reopen for all four storage models, including schema
//     churn (add/drop/rename columns, hybrid Reorganize) and positional
//     DML (middle inserts, deletes) that exercises the order/rid side files,
//   - Database::Open(path) — reopen with zero application-side rebuild,
//   - DROP TABLE durability and the orphan-file sweep,
//   - the crash → recover → continue → crash shadow property at the DDL
//     level (mirroring wal_test's WalShadowTest one layer up),
//   - torn-tail consistency: truncating the log at arbitrary byte offsets
//     must always recover a *structurally consistent* catalog, and — since
//     WAL statement brackets (DESIGN.md §7) — exactly a committed-statement
//     prefix on every model (CommittedPrefixTest),
//   - Close() semantics and the deferred-free regression (structural ops no
//     longer fsync per spilled-slot free).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "storage/hybrid_store.h"
#include "storage/spill_file.h"
#include "storage/wal.h"

namespace dataspread {
namespace {

using storage::FileId;
using storage::Pager;
using storage::PagerConfig;
using storage::Wal;

/// The wal/spill pair of one durable database, removed on scope exit.
struct DurablePair {
  explicit DurablePair(const std::string& tag) {
    base = ::testing::TempDir() + "ds_catalog_" + tag;
    wal = base + ".wal";
    spill = base + ".pages";
    std::remove(wal.c_str());
    std::remove(spill.c_str());
  }
  ~DurablePair() {
    std::remove(wal.c_str());
    std::remove(spill.c_str());
  }
  DatabaseOptions Options(size_t cap = 0) const {
    DatabaseOptions options;
    options.pager.max_resident_pages = cap;
    options.pager.spill_path = spill;
    options.pager.wal_path = wal;
    options.pager.durable_spill = true;
    return options;
  }
  std::string base, wal, spill;
};

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// Like ReadFileBytes, but an absent file (a pool that never spilled) reads
/// as empty instead of failing.
std::string ReadFileBytesIfAny(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::string();
  std::fclose(f);
  return ReadFileBytes(path);
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Everything a reopen must preserve, in comparable form.
struct TableSnapshot {
  std::string name;
  std::string schema;
  StorageModel model = StorageModel::kHybrid;
  size_t num_groups = 0;  // hybrid only
  std::vector<Row> rows;  // display order

  bool operator==(const TableSnapshot& o) const {
    if (name != o.name || schema != o.schema || model != o.model ||
        num_groups != o.num_groups || rows.size() != o.rows.size()) {
      return false;
    }
    for (size_t r = 0; r < rows.size(); ++r) {
      if (rows[r].size() != o.rows[r].size()) return false;
      for (size_t c = 0; c < rows[r].size(); ++c) {
        if (!(rows[r][c] == o.rows[r][c]) ||
            rows[r][c].type() != o.rows[r][c].type()) {
          return false;
        }
      }
    }
    return true;
  }
};

std::vector<TableSnapshot> Snapshot(Database& db) {
  std::vector<TableSnapshot> out;
  for (const std::string& name : db.catalog().TableNames()) {
    Table* t = db.catalog().GetTable(name).ValueOrDie();
    TableSnapshot snap;
    snap.name = t->name();
    snap.schema = t->schema().ToString();
    snap.model = t->storage().model();
    if (snap.model == StorageModel::kHybrid) {
      snap.num_groups =
          static_cast<HybridStore&>(t->storage()).num_groups();
    }
    snap.rows.reserve(t->num_rows());
    for (size_t r = 0; r < t->num_rows(); ++r) {
      snap.rows.push_back(t->GetRowAt(r).ValueOrDie());
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void ExpectSnapshotsEqual(const std::vector<TableSnapshot>& got,
                          const std::vector<TableSnapshot>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i])
        << context << ": table '" << want[i].name << "' diverged (schema "
        << got[i].schema << " vs " << want[i].schema << ", " << got[i].rows.size()
        << " vs " << want[i].rows.size() << " rows)";
  }
}

constexpr StorageModel kAllModels[] = {StorageModel::kRow,
                                       StorageModel::kColumn,
                                       StorageModel::kRcv,
                                       StorageModel::kHybrid};

/// A workload touching every catalog-persistence surface: appends with
/// NULLs and TEXT, middle inserts, point updates, deletes, and schema
/// churn — the display order ends up nothing like storage order.
void DriveTable(Table* t, uint32_t seed) {
  std::mt19937 rng(seed);
  for (int i = 0; i < 120; ++i) {
    Row row{Value::Int(i),
            (i % 7 == 0) ? Value::Null()
                         : Value::Text("v" + std::to_string(rng() % 64)),
            Value::Real(i / 3.0)};
    ASSERT_TRUE(t->AppendRow(std::move(row)).ok());
  }
  for (int i = 0; i < 25; ++i) {
    size_t pos = rng() % (t->num_rows() + 1);
    ASSERT_TRUE(t->InsertRowAt(pos, Row{Value::Int(1000 + i),
                                        Value::Text("mid"),
                                        Value::Null()})
                    .ok());
  }
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(t->DeleteRowAt(rng() % t->num_rows()).ok());
  }
  for (int i = 0; i < 40; ++i) {
    size_t pos = rng() % t->num_rows();
    size_t col = rng() % t->schema().num_columns();
    Value v = (rng() % 3 == 0) ? Value::Null()
                               : Value::Int(static_cast<int64_t>(rng() % 999));
    ASSERT_TRUE(t->UpdateAt(pos, col, std::move(v)).ok());
  }
  ASSERT_TRUE(
      t->AddColumn(ColumnDef{"extra", DataType::kText, false},
                   Value::Text("dflt"))
          .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t->UpdateAt(rng() % t->num_rows(),
                            t->schema().num_columns() - 1,
                            Value::Text("set" + std::to_string(i)))
                    .ok());
  }
  ASSERT_TRUE(t->RenameColumn("txt", "label").ok());
  ASSERT_TRUE(t->DropColumn("real").ok());
}

Schema ThreeColumnSchema() {
  return Schema({ColumnDef{"id", DataType::kInt, false},
                 ColumnDef{"txt", DataType::kText, false},
                 ColumnDef{"real", DataType::kReal, false}});
}

// ---------------------------------------------------------------------------
// Durable-format guard: the row and column layouts' manifests keep their
// files form, byte for byte, so databases written by earlier builds reopen.
// ---------------------------------------------------------------------------

std::string HexOf(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

TEST(DurableFormatTest, RowAndColumnDescriptorsKeepTheirFilesForm) {
  // EncodeTableDescriptor of table "t" (id INT, real REAL, extra INT) after
  // three appends, ADD COLUMN extra and DROP COLUMN txt on a durable pager,
  // as the earlier dedicated row- and column-store classes wrote it: model
  // byte, the files list, zero groups, rid file and next rid.
  const std::pair<StorageModel, const char*> kCases[] = {
      {StorageModel::kRow,
       "0100000074030000000200000069640200040000007265616c03000500000065"
       "7874726102000001000000040000000000000000000000020000000000000003"
       "00000000000000"},
      {StorageModel::kColumn,
       "0100000074030000000200000069640200040000007265616c03000500000065"
       "7874726102000103000000010000000000000003000000000000000500000000"
       "0000000000000004000000000000000300000000000000"},
  };
  for (const auto& [model, want_hex] : kCases) {
    SCOPED_TRACE(StorageModelName(model));
    DurablePair pair(std::string("format_guard_") + StorageModelName(model));
    std::string encoded;
    {
      Database db(pair.Options());
      Table* t = db.catalog()
                     .CreateTable("t", ThreeColumnSchema(), model)
                     .ValueOrDie();
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(
            t->AppendRow(Row{Value::Int(i), Value::Text("r"), Value::Real(i)})
                .ok());
      }
      ASSERT_TRUE(
          t->AddColumn(ColumnDef{"extra", DataType::kInt, false}, Value::Int(5))
              .ok());
      ASSERT_TRUE(t->DropColumn("txt").ok());
      StorageManifest m = t->storage().Manifest();
      EXPECT_EQ(m.model, model);
      EXPECT_EQ(m.num_columns, 3u);
      EXPECT_EQ(m.files.size(), model == StorageModel::kRow ? 1u : 3u);
      EXPECT_TRUE(m.groups.empty());
      EncodeTableDescriptor(t->Describe(), &encoded);
      EXPECT_EQ(HexOf(encoded), want_hex);
    }
    // The same bytes come back through a close and reopen.
    Database db(pair.Options());
    Table* t = db.catalog().GetTable("t").ValueOrDie();
    std::string reopened;
    EncodeTableDescriptor(t->Describe(), &reopened);
    EXPECT_EQ(HexOf(reopened), HexOf(encoded));
    EXPECT_EQ(t->GetRowAt(2).ValueOrDie(),
              (Row{Value::Int(2), Value::Real(2), Value::Int(5)}));
  }
}

// ---------------------------------------------------------------------------
// Clean close → reopen, all four models, schema churn included
// ---------------------------------------------------------------------------

class CloseReopenTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CloseReopenTest, AllModelsSurviveCloseAndReopenByteIdentically) {
  size_t cap = GetParam();
  DurablePair pair("close_reopen_" + std::to_string(cap));
  std::vector<TableSnapshot> want;
  {
    Database db(pair.Options(cap));
    for (StorageModel model : kAllModels) {
      Table* t = db.catalog()
                     .CreateTable(std::string("t_") + StorageModelName(model),
                                  ThreeColumnSchema(), model)
                     .ValueOrDie();
      DriveTable(t, 42);
    }
    // Hybrid-specific: merge groups through the logged path, then keep
    // mutating so the rebound group structure carries post-reorganize state.
    Table* hybrid = db.catalog().GetTable("t_hybrid").ValueOrDie();
    ASSERT_TRUE(hybrid->Reorganize().ok());
    ASSERT_TRUE(hybrid->AddColumn(ColumnDef{"post", DataType::kInt, false},
                                  Value::Int(9))
                    .ok());
    ASSERT_TRUE(hybrid->UpdateAt(0, hybrid->schema().num_columns() - 1,
                                 Value::Int(-9))
                    .ok());
    want = Snapshot(db);
  }  // clean close: destructor checkpoints with the catalog embedded

  Database reopened(pair.Options(cap));
  ExpectSnapshotsEqual(Snapshot(reopened), want, "clean reopen");
  // The reopened catalog is live, not a read-only husk: keep mutating.
  Table* t = reopened.catalog().GetTable("t_row").ValueOrDie();
  size_t rows = t->num_rows();
  ASSERT_TRUE(
      t->AppendRow(Row{Value::Int(-1), Value::Text("after"), Value::Null()})
          .ok());
  EXPECT_EQ(t->num_rows(), rows + 1);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, CloseReopenTest,
                         ::testing::Values(size_t{0}, size_t{64}, size_t{4}));

// ---------------------------------------------------------------------------
// Open-by-path: zero application-side rebuild
// ---------------------------------------------------------------------------

TEST(OpenByPathTest, SqlDatabaseReopensWithNoApplicationState) {
  DurablePair pair("open_by_path");
  {
    auto db = Database::Open(pair.base);
    ASSERT_TRUE(
        db->Execute("CREATE TABLE movies (id INT PRIMARY KEY, title TEXT)")
            .ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db->Execute("INSERT INTO movies VALUES (" +
                              std::to_string(i) + ", 'm" +
                              std::to_string(i * 31) + "')")
                      .ok());
    }
    ASSERT_TRUE(
        db->Execute("ALTER TABLE movies ADD COLUMN year INT DEFAULT 1999")
            .ok());
    ASSERT_TRUE(
        db->Execute("UPDATE movies SET year = 2024 WHERE id = 7").ok());
    ASSERT_TRUE(db->Execute("DELETE FROM movies WHERE id = 13").ok());
  }
  auto db = Database::Open(pair.base);
  auto rs = db->Execute("SELECT COUNT(*) FROM movies");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().rows[0][0], Value::Int(49));
  rs = db->Execute("SELECT title, year FROM movies WHERE id = 7");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0], Value::Text("m217"));
  EXPECT_EQ(rs.value().rows[0][1], Value::Int(2024));
  // The PK index was rebuilt from data: key-direct updates work.
  ASSERT_TRUE(db->Execute("UPDATE movies SET title = 'x' WHERE id = 3").ok());
}

// ---------------------------------------------------------------------------
// DROP TABLE durability + the orphan-file sweep
// ---------------------------------------------------------------------------

TEST(DropTableTest, DropSurvivesCrashAndOrphansAreSwept) {
  DurablePair pair("drop_orphan");
  {
    Database db(pair.Options(/*cap=*/8));
    for (const char* name : {"keep", "victim"}) {
      Table* t =
          db.catalog().CreateTable(name, ThreeColumnSchema()).ValueOrDie();
      for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(t->AppendRow(Row{Value::Int(i), Value::Text("t"),
                                     Value::Real(1.5)})
                        .ok());
      }
    }
    ASSERT_TRUE(db.catalog().DropTable("victim").ok());
    // An orphan: a file created behind the catalog's back, as a DDL torn
    // before its record became durable would leave it.
    FileId orphan = db.pager().CreateFile();
    db.pager().Write(orphan, 0, Value::Int(77));
    db.pager().CrashForTesting();
  }
  Database reopened(pair.Options(/*cap=*/8));
  EXPECT_TRUE(reopened.catalog().HasTable("keep"));
  EXPECT_FALSE(reopened.catalog().HasTable("victim"));
  Table* keep = reopened.catalog().GetTable("keep").ValueOrDie();
  EXPECT_EQ(keep->num_rows(), 300u);
  // Sweep check: every live pager file is accounted to the surviving table.
  TableDescriptor desc = keep->Describe();
  std::vector<FileId> expected_files = {desc.rid_file};
  for (uint64_t f : desc.manifest.files) expected_files.push_back(f);
  for (const StorageManifest::Group& g : desc.manifest.groups) {
    expected_files.push_back(g.file);
  }
  std::sort(expected_files.begin(), expected_files.end());
  EXPECT_EQ(reopened.pager().FileIds(), expected_files);
}

// ---------------------------------------------------------------------------
// A catalog that fails recovery is a Status from TryOpen, never a repair
// ---------------------------------------------------------------------------

/// Builds a 3-row table in `model`, then commits `forge` — a statement
/// logging records the engine itself would never write (each behind a valid
/// CRC) — and crashes. TryOpen must fail with Corruption, twice: a failed
/// open's closing checkpoint carries the recovered state forward verbatim,
/// so a repair would have let the second open succeed. Every file listed
/// in `*forged` (filled by `forge`) must still hold the size the forge left.
using ForgedSizes = std::vector<std::pair<FileId, uint64_t>>;
void ExpectCorruptionAfter(const std::string& tag,
                           const std::function<void(Database&, Table*)>& forge,
                           const std::string& message_part,
                           StorageModel model = StorageModel::kHybrid,
                           const ForgedSizes* forged = nullptr) {
  DurablePair pair(tag);
  {
    Database db(pair.Options());
    Table* t = db.catalog()
                   .CreateTable("t", ThreeColumnSchema(), model)
                   .ValueOrDie();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          t->AppendRow(Row{Value::Int(i), Value::Text("r"), Value::Real(i)})
              .ok());
    }
    {
      storage::StatementScope stmt(db.pager());
      forge(db, t);
      stmt.Commit();
    }
    db.pager().SyncWal();
    db.pager().CrashForTesting();
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto db = Database::TryOpen(pair.base);
    ASSERT_FALSE(db.ok()) << "attempt " << attempt;
    EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
    EXPECT_NE(db.status().message().find(message_part), std::string::npos)
        << db.status().ToString();
  }
  if (forged != nullptr) {
    storage::Pager pager(pair.Options().pager);
    for (const auto& [file, size] : *forged) {
      EXPECT_EQ(pager.FileSize(file), size) << "file " << file;
    }
  }
}

TEST(CatalogCorruptionTest, OutOfRangeOrderRecordFailsTryOpen) {
  ExpectCorruptionAfter(
      "bad_order_pos",
      [](Database& db, Table* t) {
        std::string payload;
        EncodeOrderOp(OrderOp{true, t->Describe().rid_file, 9, 3}, &payload);
        db.pager().LogOrderRecord(storage::WalRecordType::kOrderInsert,
                                  payload);
      },
      "insert position 9 > 3");
}

TEST(CatalogCorruptionTest, RidFileDisagreeingWithTheOrderFailsTryOpen) {
  ExpectCorruptionAfter(
      "bad_rid_file",
      [](Database& db, Table* t) {
        db.pager().Write(t->Describe().rid_file, 1, Value::Int(42));
      },
      "disagree");
  ExpectCorruptionAfter(
      "long_rid_file",
      [](Database& db, Table* t) {
        db.pager().Write(t->Describe().rid_file, 3, Value::Int(3));
      },
      "rid file 4");
}

// A heap slot past the catalog's row count is never trimmed on open: each
// model's Attach reports it (3 rows of 3 columns, one forged slot more).
TEST(CatalogCorruptionTest, ExtraHeapSlotFailsTryOpenInEveryModel) {
  ForgedSizes forged;
  // Writes one slot past the end of each listed file of the manifest.
  auto forge = [&forged](auto files_of, std::vector<Value> values) {
    return [&forged, files_of, values](Database& db, Table* t) {
      forged.clear();
      std::vector<FileId> files = files_of(t->Describe().manifest);
      for (size_t i = 0; i < files.size(); ++i) {
        uint64_t size = db.pager().FileSize(files[i]);
        db.pager().Write(files[i], size, values[i]);
        forged.emplace_back(files[i], size + 1);
      }
    };
  };
  auto first = [](const StorageManifest& m) {
    return std::vector<FileId>{m.files[0]};
  };
  ExpectCorruptionAfter("extra_row_slot", forge(first, {Value::Int(9)}),
                        "row heap holds 10 slots", StorageModel::kRow, &forged);
  ExpectCorruptionAfter("extra_column_slot", forge(first, {Value::Int(9)}),
                        "column heap holds 4 slots", StorageModel::kColumn,
                        &forged);
  auto group = [](const StorageManifest& m) {
    return std::vector<FileId>{m.groups[0].file};
  };
  ExpectCorruptionAfter("extra_group_slot", forge(group, {Value::Int(9)}),
                        "attribute group holds 10 slots",
                        StorageModel::kHybrid, &forged);
  // RCV: a value without a back-pointer, a phantom row, a duplicate row.
  ExpectCorruptionAfter("extra_rcv_value", forge(first, {Value::Int(9)}),
                        "4 values but 3 back-pointers", StorageModel::kRcv,
                        &forged);
  auto pair = [](const StorageManifest& m) {
    return std::vector<FileId>{m.files[0], m.files[1]};
  };
  ExpectCorruptionAfter("phantom_rcv_triple",
                        forge(pair, {Value::Int(9), Value::Int(7)}),
                        "back-pointer 7 is not a row below 3",
                        StorageModel::kRcv, &forged);
  ExpectCorruptionAfter("duplicate_rcv_triple",
                        forge(pair, {Value::Int(9), Value::Int(1)}),
                        "two triples for row 1", StorageModel::kRcv, &forged);
}

// A refused open writes nothing: the pager recovers before the catalog is
// checked, and the refusal leaves both files as they were (no recovery or
// closing checkpoint), so every later open meets the same failure.
TEST(CatalogCorruptionTest, RefusedTryOpenLeavesBothFilesByteIdentical) {
  DurablePair pair("refused_open_bytes");
  {
    Database db(pair.Options());
    Table* t = db.catalog()
                   .CreateTable("t", ThreeColumnSchema(), StorageModel::kRow)
                   .ValueOrDie();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          t->AppendRow(Row{Value::Int(i), Value::Text("r"), Value::Real(i)})
              .ok());
    }
    storage::StatementScope stmt(db.pager());
    db.pager().Write(t->Describe().rid_file, 3, Value::Int(3));
    stmt.Commit();
  }  // clean close: the forged rid slot is checkpointed
  const std::string wal_bytes = ReadFileBytes(pair.wal);
  const std::string spill_bytes = ReadFileBytesIfAny(pair.spill);
  std::vector<Status> refusals;
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto db = Database::TryOpen(pair.base);
    ASSERT_FALSE(db.ok()) << "attempt " << attempt;
    EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
    refusals.push_back(db.status());
    EXPECT_TRUE(ReadFileBytes(pair.wal) == wal_bytes) << "attempt " << attempt;
    EXPECT_TRUE(ReadFileBytesIfAny(pair.spill) == spill_bytes)
        << "attempt " << attempt;
  }
  EXPECT_EQ(refusals[0].ToString(), refusals[1].ToString());
  EXPECT_NE(refusals[0].message().find("rid file 4"), std::string::npos)
      << refusals[0].ToString();
}

// Order records name a table incarnation (its rid file), not its name: a
// DROP + re-CREATE under one name between checkpoints must replay each
// incarnation's records into its own order only.
TEST(OrderRecordTest, DropAndRecreateReplayIntoTheirOwnOrders) {
  DurablePair pair("order_recreate");
  std::vector<int64_t> want;
  {
    Database db(pair.Options());
    for (int incarnation = 0; incarnation < 2; ++incarnation) {
      if (incarnation == 1) ASSERT_TRUE(db.catalog().DropTable("t").ok());
      Table* t =
          db.catalog().CreateTable("t", ThreeColumnSchema()).ValueOrDie();
      want.clear();
      for (int i = 0; i < 6; ++i) {
        int64_t id = 10 * incarnation + i;
        size_t pos = static_cast<size_t>(i) / 2;  // middle inserts
        ASSERT_TRUE(t->InsertRowAt(pos, Row{Value::Int(id), Value::Text("x"),
                                            Value::Real(0)})
                        .ok());
        want.insert(want.begin() + static_cast<ptrdiff_t>(pos), id);
      }
      ASSERT_TRUE(t->DeleteRowAt(1).ok());
      want.erase(want.begin() + 1);
    }
    db.pager().SyncWal();
    db.pager().CrashForTesting();
  }
  Database reopened(pair.Options());
  Table* t = reopened.catalog().GetTable("t").ValueOrDie();
  std::vector<int64_t> got;
  for (size_t r = 0; r < t->num_rows(); ++r) {
    got.push_back(t->GetAt(r, 0).ValueOrDie().int_value());
  }
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// The key index after a crash: Attach rebuilds it from data, and point
// SELECTs (the key-direct path, DESIGN.md §6a) must agree with scans
// (`id + 0 = k`, never key-direct) on every row, and on misses.
// ---------------------------------------------------------------------------

TEST(KeyIndexRecoveryTest, PointSelectsAgreeWithScansAfterCrash) {
  for (StorageModel model : kAllModels) {
    DurablePair pair(std::string("key_index_") + StorageModelName(model));
    {
      Database db(pair.Options(/*cap=*/8));
      ASSERT_TRUE(db.CreateTable("t",
                                 Schema({ColumnDef{"id", DataType::kInt, true},
                                         ColumnDef{"v", DataType::kText,
                                                   false}}),
                                 model)
                      .ok());
      for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                               ", 'v" + std::to_string(i) + "')")
                        .ok());
      }
      for (int i = 0; i < 200; i += 7) {
        ASSERT_TRUE(
            db.Execute("DELETE FROM t WHERE id = " + std::to_string(i)).ok());
      }
      for (int i = 3; i < 200; i += 11) {
        ASSERT_TRUE(db.Execute("UPDATE t SET id = " + std::to_string(i + 1000) +
                               " WHERE id = " + std::to_string(i))
                        .ok());
      }
      ASSERT_TRUE(db.Execute("BEGIN").ok());
      ASSERT_TRUE(db.Execute("UPDATE t SET v = 'txn' WHERE id = 1").ok());
      ASSERT_TRUE(db.Execute("DELETE FROM t WHERE id = 2").ok());
      ASSERT_TRUE(db.Execute("COMMIT").ok());
      ASSERT_TRUE(db.Execute("BEGIN").ok());
      ASSERT_TRUE(db.Execute("DELETE FROM t WHERE id = 5").ok());
      db.pager().SyncWal();
      db.pager().CrashForTesting();  // the open transaction never commits
    }
    Database db(pair.Options(/*cap=*/8));
    ResultSet ids = db.Execute("SELECT id FROM t").ValueOrDie();
    ASSERT_EQ(ids.num_rows(), 200u - 29u - 1u) << StorageModelName(model);
    std::vector<std::string> probes = {"2", "3", "5", "1003", "99999"};
    for (const Row& row : ids.rows) probes.push_back(row[0].ToDisplayString());
    for (const std::string& k : probes) {
      ResultSet keyed =
          db.Execute("SELECT * FROM t WHERE id = " + k).ValueOrDie();
      ResultSet scanned =
          db.Execute("SELECT * FROM t WHERE id + 0 = " + k).ValueOrDie();
      ASSERT_EQ(keyed.num_rows(), scanned.num_rows())
          << StorageModelName(model) << " id " << k;
      for (size_t r = 0; r < keyed.num_rows(); ++r) {
        EXPECT_EQ(keyed.rows[r], scanned.rows[r])
            << StorageModelName(model) << " id " << k;
      }
    }
    EXPECT_EQ(db.Execute("SELECT v FROM t WHERE id = 1").ValueOrDie().rows,
              (std::vector<Row>{{Value::Text("txn")}}));
    EXPECT_EQ(db.Execute("SELECT v FROM t WHERE id = 5").ValueOrDie().num_rows(),
              1u);
  }
}

// ---------------------------------------------------------------------------
// Close() seals the database
// ---------------------------------------------------------------------------

TEST(CloseTest, CloseCheckpointsAndRejectsFurtherMutations) {
  DurablePair pair("close_seals");
  Database db(pair.Options());
  Table* t = db.catalog().CreateTable("t", ThreeColumnSchema()).ValueOrDie();
  ASSERT_TRUE(
      t->AppendRow(Row{Value::Int(1), Value::Text("a"), Value::Null()}).ok());
  db.Close();
  EXPECT_TRUE(db.closed());
  EXPECT_FALSE(db.Execute("INSERT INTO t VALUES (2, 'b', 0.5)").ok());
  EXPECT_FALSE(db.CreateTable("u", ThreeColumnSchema()).ok());
  // Reads still serve (the paper's pane path bypasses Execute).
  EXPECT_EQ(t->GetRowAt(0).ValueOrDie()[0], Value::Int(1));
  // Close is a checkpoint: the log holds nothing but the snapshot records.
  EXPECT_EQ(db.pager().wal()->bytes_since_checkpoint(), 0u);
}

// ---------------------------------------------------------------------------
// Crash → recover → continue → crash: the DDL-level shadow property
// ---------------------------------------------------------------------------

class CatalogShadowTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CatalogShadowTest, RandomDdlAndDmlSurviveRepeatedCrashes) {
  std::mt19937 rng(GetParam());
  DurablePair pair("shadow_" + std::to_string(GetParam()));
  // The shadow: an identical scratch database receiving the same op tape.
  Database shadow;
  auto durable = std::make_unique<Database>(pair.Options(/*cap=*/6));

  int table_counter = 0;
  auto create_pair = [&](StorageModel model) {
    std::string name = "t" + std::to_string(table_counter++);
    Schema schema({ColumnDef{"a", DataType::kInt, false},
                   ColumnDef{"b", DataType::kText, false}});
    ASSERT_TRUE(durable->catalog().CreateTable(name, schema, model).ok());
    ASSERT_TRUE(shadow.catalog().CreateTable(name, schema, model).ok());
  };
  for (StorageModel model : kAllModels) create_pair(model);

  auto random_table = [&]() -> std::string {
    std::vector<std::string> names = shadow.catalog().TableNames();
    return names[rng() % names.size()];
  };
  auto on_both = [&](const std::function<Status(Table*)>& op,
                     const std::string& name) {
    Table* a = durable->catalog().GetTable(name).ValueOrDie();
    Table* b = shadow.catalog().GetTable(name).ValueOrDie();
    Status sa = op(a);
    Status sb = op(b);
    ASSERT_EQ(sa.ok(), sb.ok()) << sa.message() << " / " << sb.message();
  };

  int column_counter = 0;
  for (int round = 0; round < 4; ++round) {
    for (int step = 0; step < 220; ++step) {
      uint32_t pick = rng() % 100;
      std::string name = random_table();
      uint32_t arg = rng();
      if (pick < 55) {
        on_both(
            [&](Table* t) {
              size_t pos = t->num_rows() == 0 ? 0 : arg % (t->num_rows() + 1);
              Row row;
              for (size_t c = 0; c < t->schema().num_columns(); ++c) {
                row.push_back(c % 2 == 0
                                  ? Value::Int(static_cast<int64_t>(arg % 500))
                                  : Value::Text("s" + std::to_string(arg % 90)));
              }
              return t->InsertRowAt(pos, std::move(row));
            },
            name);
      } else if (pick < 70) {
        on_both(
            [&](Table* t) {
              if (t->num_rows() == 0) return Status::OK();
              return t->DeleteRowAt(arg % t->num_rows());
            },
            name);
      } else if (pick < 85) {
        on_both(
            [&](Table* t) {
              if (t->num_rows() == 0) return Status::OK();
              return t->UpdateAt(arg % t->num_rows(),
                                 arg % t->schema().num_columns(),
                                 (arg % 5 == 0)
                                     ? Value::Null()
                                     : Value::Int(static_cast<int64_t>(arg)));
            },
            name);
      } else if (pick < 91) {
        std::string col = "c" + std::to_string(column_counter++);
        on_both(
            [&](Table* t) {
              return t->AddColumn(ColumnDef{col, DataType::kInt, false},
                                  Value::Int(-7));
            },
            name);
      } else if (pick < 95) {
        on_both(
            [&](Table* t) {
              if (t->schema().num_columns() <= 1) return Status::OK();
              size_t col = 1 + arg % (t->schema().num_columns() - 1);
              return t->DropColumn(t->schema().column(col).name);
            },
            name);
      } else if (pick < 97) {
        on_both([&](Table* t) { return t->Reorganize(); }, name);
      } else if (pick < 99 && shadow.catalog().size() > 2) {
        ASSERT_TRUE(durable->catalog().DropTable(name).ok());
        ASSERT_TRUE(shadow.catalog().DropTable(name).ok());
      } else {
        create_pair(kAllModels[arg % 4]);
      }
      if (rng() % 50 == 0) (void)durable->Checkpoint();
    }
    // Crash mid-life (statement boundary; the torn-tail fuzz below covers
    // intra-statement cuts), recover, verify, continue on the same handle.
    durable->pager().CrashForTesting();
    durable.reset();  // the crash "kills the process": the pair lock drops
    durable = std::make_unique<Database>(pair.Options(/*cap=*/6));
    ExpectSnapshotsEqual(Snapshot(*durable), Snapshot(shadow),
                         "round " + std::to_string(round));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CatalogShadowTest,
                         ::testing::Values(11u, 131u, 1313u));

// ---------------------------------------------------------------------------
// Torn-tail consistency: arbitrary byte cuts recover a consistent catalog
// ---------------------------------------------------------------------------

TEST(CatalogTornTailTest, ArbitraryLogCutsRecoverAConsistentCatalog) {
  DurablePair pair("torn");
  DurablePair scratch("torn_scratch");
  {
    Database db(pair.Options(/*cap=*/4));
    for (StorageModel model : kAllModels) {
      Table* t = db.catalog()
                     .CreateTable(std::string("t_") + StorageModelName(model),
                                  ThreeColumnSchema(), model)
                     .ValueOrDie();
      std::mt19937 rng(5);
      for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(t->AppendRow(Row{Value::Int(i), Value::Text("x"),
                                     Value::Real(i / 2.0)})
                        .ok());
      }
      for (int i = 0; i < 12; ++i) {
        ASSERT_TRUE(t->InsertRowAt(rng() % (t->num_rows() + 1),
                                   Row{Value::Int(900 + i), Value::Null(),
                                       Value::Real(0.25)})
                        .ok());
        ASSERT_TRUE(t->DeleteRowAt(rng() % t->num_rows()).ok());
      }
      ASSERT_TRUE(t->AddColumn(ColumnDef{"d", DataType::kInt, false},
                               Value::Int(3))
                      .ok());
    }
    db.pager().CrashForTesting();
  }
  std::string wal_bytes = ReadFileBytes(pair.wal);
  std::string spill_bytes = ReadFileBytes(pair.spill);
  ASSERT_GT(wal_bytes.size(), Wal::kFileHeaderBytes);
  // Skip the rename-atomic checkpoint head (same reasoning as wal_test's
  // byte fuzz); then cut at a stride of offsets — every record boundary in
  // expectation, plus mid-record cuts the torn-tail scan must discard.
  size_t safe_start = Wal::kFileHeaderBytes;
  for (int i = 0; i < 2; ++i) {
    uint32_t body_len;
    std::memcpy(&body_len, wal_bytes.data() + safe_start, sizeof body_len);
    safe_start += Wal::kRecordHeaderBytes + body_len;
  }
  size_t cuts = 0;
  for (size_t len = safe_start; len <= wal_bytes.size();
       len += 1 + (len * 7) % 53) {
    WriteFileBytes(scratch.wal, wal_bytes.substr(0, len));
    WriteFileBytes(scratch.spill, spill_bytes);
    cuts += 1;
    Database recovered(scratch.Options(/*cap=*/4));
    // Structural consistency: every surviving table scans end to end with
    // schema-arity rows; the catalog references only live files.
    for (const std::string& name : recovered.catalog().TableNames()) {
      Table* t = recovered.catalog().GetTable(name).ValueOrDie();
      size_t arity = t->schema().num_columns();
      for (size_t r = 0; r < t->num_rows(); ++r) {
        auto row = t->GetRowAt(r);
        ASSERT_TRUE(row.ok())
            << "cut at byte " << len << ": table " << name << " row " << r;
        ASSERT_EQ(row.ValueOrDie().size(), arity)
            << "cut at byte " << len << ": table " << name;
      }
      // The recovered table stays writable — the reconciliation left
      // self-consistent maps behind.
      ASSERT_TRUE(t->AppendRow(std::vector<Value>(arity, Value::Null())).ok())
          << "cut at byte " << len << ": table " << name;
      ASSERT_TRUE(t->DeleteRowAt(t->num_rows() - 1).ok());
    }
  }
  ASSERT_GT(cuts, 100u);  // the stride actually swept the log
}

// ---------------------------------------------------------------------------
// Torn single statements recover all-or-nothing (content-exact)
// ---------------------------------------------------------------------------

/// The fuzz above proves *structural* consistency; this locks *content*:
/// cutting the log anywhere inside one positional DELETE or middle INSERT
/// must recover exactly the pre- or post-statement table — the stores'
/// copy-all-then-truncate-all delete phases and Attach's redo/undo repairs
/// make the statement atomic for the dense models (RCV may partially apply
/// within the documented one-row window). A second clean close→reopen per
/// cut proves the repair itself was persisted, not just held in memory.
class TornStatementTest
    : public ::testing::TestWithParam<std::tuple<StorageModel, bool>> {};

TEST_P(TornStatementTest, CutsInsideOneStatementRecoverAllOrNothing) {
  auto [model, is_delete] = GetParam();
  std::string tag = std::string("torn_stmt_") + StorageModelName(model) +
                    (is_delete ? "_del" : "_ins");
  DurablePair pair(tag);
  DurablePair scratch(tag + "_scratch");
  constexpr size_t kRows = 30;
  auto rows_of = [](Table* t) {
    std::vector<Row> rows;
    for (size_t r = 0; r < t->num_rows(); ++r) {
      rows.push_back(t->GetRowAt(r).ValueOrDie());
    }
    return rows;
  };
  std::vector<Row> pre, post;
  size_t barrier_bytes = 0;
  {
    // cap=2: even a three-file row store spills, so the cuts also exercise
    // recovery over real write-backs.
    Database db(pair.Options(/*cap=*/2));
    Table* t = db.catalog().CreateTable("t", ThreeColumnSchema(), model)
                   .ValueOrDie();
    for (size_t i = 0; i < kRows; ++i) {
      ASSERT_TRUE(t->AppendRow(Row{Value::Int(static_cast<int64_t>(i)),
                                   (i % 5 == 0) ? Value::Null()
                                                : Value::Text("v" +
                                                              std::to_string(i)),
                                   Value::Real(i / 4.0)})
                      .ok());
    }
    // Committed middle inserts + a delete: the display order must differ
    // from storage order, so a repair that silently degrades to storage
    // order cannot masquerade as the pre-statement state.
    ASSERT_TRUE(t->InsertRowAt(0, Row{Value::Int(100), Value::Text("head"),
                                      Value::Real(0.5)})
                    .ok());
    ASSERT_TRUE(t->InsertRowAt(11, Row{Value::Int(101), Value::Text("mid"),
                                       Value::Null()})
                    .ok());
    ASSERT_TRUE(t->DeleteRowAt(20).ok());
    // The last *storage* row gets a NULL cell so a torn RCV delete
    // exercises the moved-row-NULL pre-step (display 0 is storage-last
    // here: the inserts appended to storage, the delete above consumed
    // the later one).
    ASSERT_TRUE(t->UpdateAt(0, 2, Value::Null()).ok());
    pre = rows_of(t);
    db.pager().SyncWal();  // the durability barrier: `pre` is committed
    barrier_bytes = ReadFileBytes(pair.wal).size();
    if (is_delete) {
      ASSERT_TRUE(t->DeleteRowAt(7).ok());
    } else {
      ASSERT_TRUE(t->InsertRowAt(5, Row{Value::Int(-5), Value::Text("mid"),
                                        Value::Null()})
                      .ok());
    }
    post = rows_of(t);
    db.pager().CrashForTesting();
  }
  std::string wal_bytes = ReadFileBytes(pair.wal);
  std::string spill_bytes = ReadFileBytesIfAny(pair.spill);
  ASSERT_GT(wal_bytes.size(), barrier_bytes);

  auto match = [](const std::vector<Row>& got, const std::vector<Row>& want) {
    if (got.size() != want.size()) return false;
    for (size_t r = 0; r < got.size(); ++r) {
      if (got[r].size() != want[r].size()) return false;
      for (size_t c = 0; c < got[r].size(); ++c) {
        if (!(got[r][c] == want[r][c])) return false;
      }
    }
    return true;
  };
  // Rows differing from `want` — RCV's documented partial window is at most
  // the one row the statement touched.
  auto mismatches = [](const std::vector<Row>& got,
                       const std::vector<Row>& want) {
    size_t n = 0;
    for (size_t r = 0; r < std::min(got.size(), want.size()); ++r) {
      for (size_t c = 0; c < got[r].size(); ++c) {
        if (!(got[r][c] == want[r][c])) {
          n += 1;
          break;
        }
      }
    }
    return n;
  };

  for (size_t len = barrier_bytes; len <= wal_bytes.size(); ++len) {
    WriteFileBytes(scratch.wal, wal_bytes.substr(0, len));
    WriteFileBytes(scratch.spill, spill_bytes);
    std::vector<Row> got;
    {
      Database db(scratch.Options(/*cap=*/4));
      Table* t = db.catalog().GetTable("t").ValueOrDie();
      got = rows_of(t);
      if (model == StorageModel::kRcv && is_delete) {
        // RCV delete: exactly post, or pre with at most the vacated row's
        // cells nulled (the pre-order pre-step window,
        // docs/DURABILITY.md). The *surviving* rows must never diverge.
        ASSERT_TRUE(match(got, post) ||
                    (got.size() == pre.size() && mismatches(got, pre) <= 1))
            << "cut at byte " << len << ": " << got.size() << " rows";
      } else if (model == StorageModel::kRcv) {
        // RCV insert: pre, or post with at most the inserted row itself
        // partially materialized.
        ASSERT_TRUE(match(got, pre) || mismatches(got, post) <= 1)
            << "cut at byte " << len << ": " << got.size() << " rows";
      } else {
        ASSERT_TRUE(match(got, pre) || match(got, post))
            << "cut at byte " << len << ": neither pre- nor post-statement "
            << "state (" << got.size() << " rows) — torn "
            << (is_delete ? "delete" : "insert") << " repair leak";
      }
    }  // clean close: the repair must have been persisted, not just held
    Database again(scratch.Options(/*cap=*/4));
    Table* t = again.catalog().GetTable("t").ValueOrDie();
    ASSERT_TRUE(match(rows_of(t), got))
        << "cut at byte " << len
        << ": state changed across a clean close/reopen — repair not durable";
    again.pager().CrashForTesting();  // leave scratch files for the next cut
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsBothOps, TornStatementTest,
    ::testing::Combine(::testing::Values(StorageModel::kRow,
                                         StorageModel::kColumn,
                                         StorageModel::kRcv,
                                         StorageModel::kHybrid),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(StorageModelName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_delete" : "_insert");
    });

// ---------------------------------------------------------------------------
// Statement brackets: cuts recover exactly the committed-statement prefix
// ---------------------------------------------------------------------------

/// TornStatementTest above still tolerates RCV's historical one-row partial
/// window; with WAL statement brackets that window is gone — recovery
/// discards a torn bracket wholesale, so *every* model recovers exactly a
/// committed-statement prefix, content-exact, with no reliance on Attach's
/// file-signature reconciliation (DESIGN.md §7). Three DML statements follow
/// a durability barrier; every byte cut must land on exactly one of the four
/// statement-boundary states, monotone in the cut point.
class CommittedPrefixTest : public ::testing::TestWithParam<StorageModel> {};

TEST_P(CommittedPrefixTest, CutsRecoverExactlyACommittedStatementPrefix) {
  StorageModel model = GetParam();
  std::string tag = std::string("committed_prefix_") + StorageModelName(model);
  DurablePair pair(tag);
  DurablePair scratch(tag + "_scratch");
  auto rows_of = [](Table* t) {
    std::vector<Row> rows;
    for (size_t r = 0; r < t->num_rows(); ++r) {
      rows.push_back(t->GetRowAt(r).ValueOrDie());
    }
    return rows;
  };
  auto match = [](const std::vector<Row>& got, const std::vector<Row>& want) {
    if (got.size() != want.size()) return false;
    for (size_t r = 0; r < got.size(); ++r) {
      if (got[r].size() != want[r].size()) return false;
      for (size_t c = 0; c < got[r].size(); ++c) {
        if (!(got[r][c] == want[r][c])) return false;
      }
    }
    return true;
  };
  std::vector<std::vector<Row>> states;  // after the barrier + each statement
  size_t barrier_bytes = 0;
  {
    Database db(pair.Options(/*cap=*/2));
    Table* t = db.catalog().CreateTable("t", ThreeColumnSchema(), model)
                   .ValueOrDie();
    for (size_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(t->AppendRow(Row{Value::Int(static_cast<int64_t>(i)),
                                   (i % 5 == 0) ? Value::Null()
                                                : Value::Text(std::to_string(i)),
                                   Value::Real(i / 4.0)})
                      .ok());
    }
    // Middle inserts so display order differs from storage order — a repair
    // degrading to storage order cannot fake a boundary state.
    ASSERT_TRUE(t->InsertRowAt(0, Row{Value::Int(100), Value::Text("head"),
                                      Value::Real(0.5)})
                    .ok());
    ASSERT_TRUE(t->InsertRowAt(9, Row{Value::Int(101), Value::Null(),
                                      Value::Real(1.5)})
                    .ok());
    db.pager().SyncWal();  // the durability barrier
    barrier_bytes = ReadFileBytes(pair.wal).size();
    states.push_back(rows_of(t));
    ASSERT_TRUE(t->InsertRowAt(5, Row{Value::Int(-5), Value::Text("mid"),
                                      Value::Null()})
                    .ok());
    states.push_back(rows_of(t));
    ASSERT_TRUE(t->DeleteRowAt(8).ok());
    states.push_back(rows_of(t));
    ASSERT_TRUE(t->UpdateAt(2, 1, Value::Text("patched")).ok());
    states.push_back(rows_of(t));
    db.pager().CrashForTesting();
  }
  std::string wal_bytes = ReadFileBytes(pair.wal);
  std::string spill_bytes = ReadFileBytesIfAny(pair.spill);
  ASSERT_GT(wal_bytes.size(), barrier_bytes);

  size_t last_matched = 0;
  for (size_t len = barrier_bytes; len <= wal_bytes.size(); ++len) {
    WriteFileBytes(scratch.wal, wal_bytes.substr(0, len));
    WriteFileBytes(scratch.spill, spill_bytes);
    Database recovered(scratch.Options(/*cap=*/4));
    Table* t = recovered.catalog().GetTable("t").ValueOrDie();
    std::vector<Row> got = rows_of(t);
    size_t matched = states.size();
    for (size_t k = last_matched; k < states.size(); ++k) {
      if (match(got, states[k])) {
        matched = k;
        break;
      }
    }
    ASSERT_LT(matched, states.size())
        << "cut at byte " << len << " (" << StorageModelName(model)
        << "): recovered " << got.size()
        << " rows matching no committed-statement boundary";
    last_matched = matched;
    recovered.pager().CrashForTesting();  // keep scratch for the next cut
  }
  EXPECT_EQ(last_matched, states.size() - 1)
      << "the full log must recover all three statements";
}

INSTANTIATE_TEST_SUITE_P(AllModels, CommittedPrefixTest,
                         ::testing::ValuesIn(kAllModels),
                         [](const auto& info) {
                           return std::string(StorageModelName(info.param));
                         });

// ---------------------------------------------------------------------------
// Transaction brackets: cuts recover the committed-TRANSACTION prefix
// ---------------------------------------------------------------------------

/// CommittedPrefixTest generalized to SQL multi-statement transactions: the
/// tape mixes committed, rolled-back, and (at the crash) open transactions,
/// each spanning several DML statements inside one WAL bracket. Every byte
/// cut must recover exactly a committed-transaction boundary — an open
/// transaction at the cut never leaks a single statement's effects, and a
/// rolled-back transaction is invisible at every cut (its bracket replays
/// as a net no-op).
class TxnCommittedPrefixTest : public ::testing::TestWithParam<StorageModel> {};

TEST_P(TxnCommittedPrefixTest, CutsRecoverExactlyACommittedTransactionPrefix) {
  StorageModel model = GetParam();
  std::string tag = std::string("txn_prefix_") + StorageModelName(model);
  DurablePair pair(tag);
  DurablePair scratch(tag + "_scratch");
  auto rows_of = [](Table* t) {
    std::vector<Row> rows;
    for (size_t r = 0; r < t->num_rows(); ++r) {
      rows.push_back(t->GetRowAt(r).ValueOrDie());
    }
    return rows;
  };
  auto match = [](const std::vector<Row>& got, const std::vector<Row>& want) {
    if (got.size() != want.size()) return false;
    for (size_t r = 0; r < got.size(); ++r) {
      if (got[r].size() != want[r].size()) return false;
      for (size_t c = 0; c < got[r].size(); ++c) {
        if (!(got[r][c] == want[r][c])) return false;
      }
    }
    return true;
  };
  std::vector<std::vector<Row>> states;  // barrier + each committed txn
  size_t barrier_bytes = 0;
  {
    Database db(pair.Options(/*cap=*/2));
    Table* t = db.catalog().CreateTable("t", ThreeColumnSchema(), model)
                   .ValueOrDie();
    auto exec = [&](const std::string& sql) {
      auto r = db.Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    };
    for (int i = 0; i < 12; ++i) {
      exec("INSERT INTO t VALUES (" + std::to_string(i) + ", 't" +
           std::to_string(i) + "', " + std::to_string(i / 2.0) + ")");
    }
    db.pager().SyncWal();  // the durability barrier
    barrier_bytes = ReadFileBytes(pair.wal).size();
    states.push_back(rows_of(t));
    // Transaction 1, committed: three statements, one bracket.
    exec("BEGIN");
    exec("INSERT INTO t VALUES (100, 'txn1', 0.25)");
    exec("UPDATE t SET txt = 'patched' WHERE id = 3");
    exec("DELETE FROM t WHERE id = 7");
    exec("COMMIT");
    states.push_back(rows_of(t));
    // Transaction 2, rolled back: mutations + their undo compensations ride
    // one kTxnAbort bracket — invisible at every cut, so no boundary state.
    exec("BEGIN");
    exec("INSERT INTO t VALUES (200, 'txn2', 0.5)");
    exec("UPDATE t SET real = 9.75 WHERE id = 4");
    exec("DELETE FROM t WHERE id = 100");
    exec("ROLLBACK");
    ASSERT_TRUE(match(rows_of(t), states.back()));
    // Transaction 3, committed.
    exec("BEGIN");
    exec("UPDATE t SET real = 1.125 WHERE id = 0");
    exec("INSERT INTO t VALUES (300, 'txn3', 3.0)");
    exec("COMMIT");
    states.push_back(rows_of(t));
    // Transaction 4, open at the crash: its statements must never surface.
    exec("BEGIN");
    exec("INSERT INTO t VALUES (400, 'open', 4.0)");
    exec("DELETE FROM t WHERE id = 1");
    exec("UPDATE t SET txt = 'leak' WHERE id = 2");
    db.pager().CrashForTesting();
  }
  std::string wal_bytes = ReadFileBytes(pair.wal);
  std::string spill_bytes = ReadFileBytesIfAny(pair.spill);
  ASSERT_GT(wal_bytes.size(), barrier_bytes);

  size_t last_matched = 0;
  for (size_t len = barrier_bytes; len <= wal_bytes.size(); ++len) {
    WriteFileBytes(scratch.wal, wal_bytes.substr(0, len));
    WriteFileBytes(scratch.spill, spill_bytes);
    Database recovered(scratch.Options(/*cap=*/4));
    Table* t = recovered.catalog().GetTable("t").ValueOrDie();
    std::vector<Row> got = rows_of(t);
    size_t matched = states.size();
    for (size_t k = last_matched; k < states.size(); ++k) {
      if (match(got, states[k])) {
        matched = k;
        break;
      }
    }
    ASSERT_LT(matched, states.size())
        << "cut at byte " << len << " (" << StorageModelName(model)
        << "): recovered " << got.size()
        << " rows matching no committed-transaction boundary";
    last_matched = matched;
    recovered.pager().CrashForTesting();  // keep scratch for the next cut
  }
  EXPECT_EQ(last_matched, states.size() - 1)
      << "the full log must recover every committed transaction and nothing "
         "of the open one";
}

INSTANTIATE_TEST_SUITE_P(AllModels, TxnCommittedPrefixTest,
                         ::testing::ValuesIn(kAllModels),
                         [](const auto& info) {
                           return std::string(StorageModelName(info.param));
                         });

// ---------------------------------------------------------------------------
// Deferred-free regression: structural ops no longer fsync per free
// ---------------------------------------------------------------------------

TEST(DeferredFreeTest, TruncateAndDropPayNoFsyncAndSlotsRecycleAfterSync) {
  DurablePair pair("deferred_free");
  Pager pager(pair.Options(/*cap=*/4).pager);
  constexpr uint64_t kSlots = Pager::kSlotsPerPage;
  std::vector<FileId> files;
  for (int i = 0; i < 6; ++i) {
    FileId f = pager.CreateFile();
    for (uint64_t s = 0; s < 3 * kSlots; ++s) {
      pager.Write(f, s, Value::Int(static_cast<int64_t>(s)));
    }
    files.push_back(f);
  }
  (void)pager.FlushAll();  // every page has a spill slot now
  uint64_t syncs_before = pager.stats().wal_syncs;
  for (int i = 0; i < 5; ++i) pager.DropFile(files[i]);
  pager.Truncate(files[5], kSlots);
  // PR 4 paid one fsync per structural op that freed spilled slots; the
  // deferred-free list parks them instead.
  EXPECT_EQ(pager.stats().wal_syncs, syncs_before);
  // Parked slots are out of circulation until their freeing records are
  // durable...
  ASSERT_NE(pager.spill(), nullptr);
  size_t free_before = pager.spill()->ExportDirectory().free_slots.size();
  pager.SyncWal();
  // ...and return to the free list once the sync lands.
  size_t free_after = pager.spill()->ExportDirectory().free_slots.size();
  EXPECT_GT(free_after, free_before);
  EXPECT_GE(free_after, 16u);  // 5 files × 3 pages + 2 truncated pages

  // And the frees stay crash-safe: recover and verify the surviving file.
  pager.CrashForTesting();
  Pager recovered(pair.Options(/*cap=*/4).pager);
  EXPECT_TRUE(recovered.recovered());
  ASSERT_TRUE(recovered.HasFile(files[5]));
  EXPECT_EQ(recovered.FileSize(files[5]), kSlots);
  for (uint64_t s = 0; s < kSlots; ++s) {
    EXPECT_EQ(recovered.Read(files[5], s),
              Value::Int(static_cast<int64_t>(s)));
  }
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(recovered.HasFile(files[i]));
}

// ---------------------------------------------------------------------------
// Two concurrent writers, disjoint tables: cuts recover a committed prefix
// of each session independently
// ---------------------------------------------------------------------------

/// The SQL-level twin of wal_test's InterleavedTxnBracketFuzzTest: two
/// threads, each on its own Session and its own table, run transaction
/// tapes concurrently, so their id-tagged brackets interleave freely in
/// one WAL. Because the tables are disjoint, the recovered state of each
/// table must equal one of *that* session's committed-transaction
/// boundaries — independently of how far the other session's tape got —
/// and both must advance monotonically as the cut moves right.
TEST(ConcurrentTxnPrefixTest, CutsRecoverCommittedPrefixesOfBothSessions) {
  DurablePair pair("two_writer_prefix");
  DurablePair scratch("two_writer_prefix_scratch");
  auto rows_of = [](Table* t) {
    std::vector<Row> rows;
    for (size_t r = 0; r < t->num_rows(); ++r) {
      rows.push_back(t->GetRowAt(r).ValueOrDie());
    }
    return rows;
  };
  auto match = [](const std::vector<Row>& got, const std::vector<Row>& want) {
    if (got.size() != want.size()) return false;
    for (size_t r = 0; r < got.size(); ++r) {
      if (got[r].size() != want[r].size()) return false;
      for (size_t c = 0; c < got[r].size(); ++c) {
        if (!(got[r][c] == want[r][c])) return false;
      }
    }
    return true;
  };
  // Each vector is owned by its session's thread while the tape runs.
  std::vector<std::vector<Row>> states_a, states_b;
  size_t barrier_bytes = 0;
  {
    Database db(pair.Options(/*cap=*/2));
    Table* ta = db.catalog()
                    .CreateTable("ta", ThreeColumnSchema(), StorageModel::kRow)
                    .ValueOrDie();
    Table* tb =
        db.catalog()
            .CreateTable("tb", ThreeColumnSchema(), StorageModel::kHybrid)
            .ValueOrDie();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(db.Execute("INSERT INTO ta VALUES (" + std::to_string(i) +
                             ", 'a" + std::to_string(i) + "', 0.5)")
                      .ok());
      ASSERT_TRUE(db.Execute("INSERT INTO tb VALUES (" + std::to_string(i) +
                             ", 'b" + std::to_string(i) + "', 1.5)")
                      .ok());
    }
    db.pager().SyncWal();  // the durability barrier
    barrier_bytes = ReadFileBytes(pair.wal).size();
    states_a.push_back(rows_of(ta));
    states_b.push_back(rows_of(tb));
    auto sa = db.CreateSession();
    auto sb = db.CreateSession();
    auto drive = [&](Session* s, Table* t, const std::string& name, int base,
                     std::vector<std::vector<Row>>* states) {
      auto exec = [&](const std::string& sql) {
        auto r = s->Execute(sql);
        ASSERT_TRUE(r.ok()) << name << ": " << sql << " -> "
                            << r.status().ToString();
      };
      for (int txn = 0; txn < 4; ++txn) {
        int id = base + txn;
        exec("BEGIN");
        exec("INSERT INTO " + name + " VALUES (" + std::to_string(id) + ", '" +
             name + "-txn" + std::to_string(txn) + "', 2.5)");
        exec("UPDATE " + name + " SET txt = 'p" + std::to_string(id) +
             "' WHERE id = " + std::to_string(txn));
        if (txn == 2) {
          // One rolled-back tape entry: its bracket replays as a net no-op,
          // so it cuts no boundary.
          exec("ROLLBACK");
        } else {
          exec("COMMIT");
          // Every committed transaction net-adds a unique row, so the
          // boundary states are pairwise distinct and the first-match scan
          // below can only advance.
          states->push_back(rows_of(t));
        }
      }
      // Left open at the crash: must never surface at any cut.
      exec("BEGIN");
      exec("INSERT INTO " + name + " VALUES (" + std::to_string(base + 99) +
           ", 'open', 9.0)");
      exec("DELETE FROM " + name + " WHERE id = 0");
    };
    std::thread th_a([&] { drive(sa.get(), ta, "ta", 1000, &states_a); });
    std::thread th_b([&] { drive(sb.get(), tb, "tb", 2000, &states_b); });
    th_a.join();
    th_b.join();
    ASSERT_FALSE(::testing::Test::HasFailure());
    db.pager().CrashForTesting();  // both open brackets stay torn in the log
  }
  std::string wal_bytes = ReadFileBytes(pair.wal);
  std::string spill_bytes = ReadFileBytesIfAny(pair.spill);
  ASSERT_GT(wal_bytes.size(), barrier_bytes);

  size_t last_a = 0, last_b = 0;
  for (size_t len = barrier_bytes; len <= wal_bytes.size(); ++len) {
    WriteFileBytes(scratch.wal, wal_bytes.substr(0, len));
    WriteFileBytes(scratch.spill, spill_bytes);
    Database recovered(scratch.Options(/*cap=*/4));
    auto scan = [&](const char* name, std::vector<std::vector<Row>>& states,
                    size_t& last) {
      Table* t = recovered.catalog().GetTable(name).ValueOrDie();
      std::vector<Row> got = rows_of(t);
      size_t matched = states.size();
      for (size_t k = last; k < states.size(); ++k) {
        if (match(got, states[k])) {
          matched = k;
          break;
        }
      }
      ASSERT_LT(matched, states.size())
          << "cut at byte " << len << ": table " << name << " recovered "
          << got.size() << " rows matching none of its session's "
          << "committed-transaction boundaries";
      last = matched;
    };
    scan("ta", states_a, last_a);
    scan("tb", states_b, last_b);
    if (::testing::Test::HasFatalFailure()) return;
    recovered.pager().CrashForTesting();  // keep scratch for the next cut
  }
  EXPECT_EQ(last_a, states_a.size() - 1)
      << "the full log must recover every committed ta transaction";
  EXPECT_EQ(last_b, states_b.size() - 1)
      << "the full log must recover every committed tb transaction";
}

}  // namespace
}  // namespace dataspread
