#include <gtest/gtest.h>

#include <unordered_set>

#include "storage/pager.h"
#include "storage/table_storage.h"

namespace dataspread {
namespace {

using storage::FileId;
using storage::PageKey;
using storage::PageKeyHash;
using storage::Pager;
using storage::ValuePage;

// ---------------------------------------------------------------------------
// Slot access, epoch accounting, per-file isolation
// ---------------------------------------------------------------------------

TEST(PagerTest, WritesGrowFilesAndReadBack) {
  Pager pager;
  FileId f = pager.CreateFile();
  EXPECT_EQ(pager.FilePages(f), 0u);
  EXPECT_EQ(pager.FileSize(f), 0u);

  pager.Write(f, 0, Value::Int(7));
  pager.Write(f, Pager::kSlotsPerPage + 3, Value::Text("x"));
  EXPECT_EQ(pager.FilePages(f), 2u);
  EXPECT_EQ(pager.FileSize(f), Pager::kSlotsPerPage + 4);
  EXPECT_EQ(pager.Read(f, 0), Value::Int(7));
  EXPECT_EQ(pager.Read(f, Pager::kSlotsPerPage + 3), Value::Text("x"));
  // Allocated-but-never-written slots read as NULL.
  EXPECT_TRUE(pager.Read(f, 5).is_null());
}

TEST(PagerTest, EpochCountsDistinctPages) {
  Pager pager;
  FileId f = pager.CreateFile();
  pager.BeginEpoch();
  // 3 * kSlotsPerPage slots written sequentially -> exactly 3 distinct pages.
  for (uint64_t s = 0; s < 3 * Pager::kSlotsPerPage; ++s) {
    pager.Write(f, s, Value::Int(1));
  }
  EXPECT_EQ(pager.EpochPagesWritten(), 3u);
  EXPECT_EQ(pager.EpochPagesRead(), 0u);
  EXPECT_EQ(pager.stats().slot_writes, 3 * Pager::kSlotsPerPage);

  pager.BeginEpoch();
  (void)pager.Read(f, 0);
  (void)pager.Read(f, 1);  // same page: still 1 distinct
  (void)pager.Read(f, Pager::kSlotsPerPage);
  EXPECT_EQ(pager.EpochPagesRead(), 2u);
  EXPECT_EQ(pager.EpochPagesWritten(), 0u);
}

// Satellite regression: the old epoch key packed (file << 24) ^ page_index
// into one uint64, so distinct (file, page) pairs aliased once a chain
// passed 2^24 pages (or file ids grew large) — undercounting distinct pages
// exactly on the billion-cell workloads the accounting exists for. PageKey
// is a genuine two-field key: identity is equality of both fields, never a
// packing artifact.
TEST(PagerTest, EpochPageKeyNeverAliasesDistinctFilePagePairs) {
  auto old_key = [](uint64_t file, uint64_t page) {
    return (file << 24) ^ page;
  };
  // The documented collision: (file 1, page 2^25) vs (file 3, page 0).
  ASSERT_EQ(old_key(1, 2ull << 24), old_key(3, 0))
      << "collision premise of this regression no longer holds";
  PageKey a{1, 2ull << 24};
  PageKey b{3, 0};
  EXPECT_FALSE(a == b);
  std::unordered_set<PageKey, PageKeyHash> epoch;
  epoch.insert(a);
  epoch.insert(b);
  epoch.insert(a);  // dedup still works for genuinely equal keys
  EXPECT_EQ(epoch.size(), 2u);
  // A couple more formerly-aliasing families, including huge file ids that
  // the 24-bit shift used to truncate into each other.
  epoch.clear();
  for (uint64_t file : {1ull, 1ull << 41, (1ull << 41) + 1}) {
    for (uint64_t page : {0ull, 1ull << 24, 1ull << 40}) {
      epoch.insert(PageKey{file, page});
    }
  }
  EXPECT_EQ(epoch.size(), 9u);
}

TEST(PagerTest, PerFileIsolation) {
  Pager pager;
  FileId a = pager.CreateFile();
  FileId b = pager.CreateFile();
  pager.BeginEpoch();
  pager.Write(a, 0, Value::Int(1));
  pager.Write(b, 0, Value::Int(2));
  // Same slot number, different files: two distinct pages.
  EXPECT_EQ(pager.EpochPagesWritten(), 2u);
  EXPECT_EQ(pager.Read(a, 0), Value::Int(1));
  EXPECT_EQ(pager.Read(b, 0), Value::Int(2));

  // Dropping one file never touches the other's pages.
  pager.DropFile(a);
  EXPECT_FALSE(pager.HasFile(a));
  EXPECT_TRUE(pager.HasFile(b));
  EXPECT_EQ(pager.Read(b, 0), Value::Int(2));
}

TEST(PagerTest, AccountingDisabledSkipsCountersButKeepsState) {
  Pager pager;
  FileId f = pager.CreateFile();
  pager.set_accounting_enabled(false);
  pager.BeginEpoch();
  pager.Write(f, 0, Value::Int(9));
  EXPECT_EQ(pager.EpochPagesWritten(), 0u);
  EXPECT_EQ(pager.stats().slot_writes, 0u);
  // The physical write happened and the page is dirty regardless.
  EXPECT_EQ(pager.Read(f, 0), Value::Int(9));
  ValuePage* page = pager.Pin(f, 0);
  EXPECT_TRUE(page->dirty());
  pager.Unpin(page, /*dirtied=*/false);
}

TEST(PagerTest, TakeMovesValueOutAndCountsARead) {
  Pager pager;
  FileId f = pager.CreateFile();
  pager.Write(f, 0, Value::Text("payload"));
  pager.BeginEpoch();
  Value v = pager.Take(f, 0);
  EXPECT_EQ(v, Value::Text("payload"));
  EXPECT_TRUE(pager.Read(f, 0).is_null());
  EXPECT_EQ(pager.EpochPagesRead(), 1u);
}

// ---------------------------------------------------------------------------
// Pin/unpin, dirty tracking, flushing
// ---------------------------------------------------------------------------

TEST(PagerTest, PinUnpinAndDirtyLifecycle) {
  Pager pager;
  FileId f = pager.CreateFile();
  ValuePage* page = pager.Pin(f, 0);  // grows the chain
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->pin_count(), 1u);
  EXPECT_EQ(page->file(), f);
  EXPECT_EQ(pager.pinned_pages(), 1u);
  EXPECT_FALSE(page->dirty());

  page->slot(4) = Value::Int(42);
  pager.Unpin(page, /*dirtied=*/true);
  EXPECT_EQ(page->pin_count(), 0u);
  EXPECT_TRUE(page->dirty());
  EXPECT_EQ(pager.Read(f, 4), Value::Int(42));

  EXPECT_EQ(pager.FlushAll(), 1u);
  EXPECT_FALSE(page->dirty());
  EXPECT_EQ(pager.stats().pages_flushed, 1u);
}

TEST(PagerTest, SlotWritesMarkPagesDirtyAndFlushCleans) {
  Pager pager;
  FileId f = pager.CreateFile();
  for (uint64_t s = 0; s < 2 * Pager::kSlotsPerPage; ++s) {
    pager.Write(f, s, Value::Int(1));
  }
  EXPECT_EQ(pager.FlushAll(), 2u);
  EXPECT_EQ(pager.FlushAll(), 0u);  // already clean
  (void)pager.Read(f, 0);           // reads don't dirty
  EXPECT_EQ(pager.FlushAll(), 0u);
}

// ---------------------------------------------------------------------------
// Clock (second chance) victim selection
// ---------------------------------------------------------------------------

TEST(PagerTest, ClockSkipsPinnedPages) {
  Pager pager;
  FileId f = pager.CreateFile();
  ValuePage* p0 = pager.Pin(f, 0);
  EXPECT_EQ(pager.ClockVictim(), nullptr);  // only page is pinned
  pager.Unpin(p0, false);
  // First sweep clears the reference bit, second returns the page.
  EXPECT_EQ(pager.ClockVictim(), p0);
}

TEST(PagerTest, ClockGivesRecentlyReferencedPagesASecondChance) {
  Pager pager;
  FileId f = pager.CreateFile();
  pager.Write(f, 0, Value::Int(1));                      // page 0
  pager.Write(f, Pager::kSlotsPerPage, Value::Int(2));   // page 1
  ValuePage* p0 = pager.Pin(f, 0);
  pager.Unpin(p0, false);
  ValuePage* p1 = pager.Pin(f, 1);
  pager.Unpin(p1, false);

  // Both referenced; a victim exists after reference bits are swept.
  ValuePage* victim = pager.ClockVictim();
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->pin_count(), 0u);

  // Touch the other page: it is referenced again and survives the next sweep.
  ValuePage* other = victim == p0 ? p1 : p0;
  (void)pager.Read(f, other->index_in_file() * Pager::kSlotsPerPage);
  EXPECT_EQ(pager.ClockVictim(), victim);
}

TEST(PagerTest, ClockVictimNullOnEmptyPager) {
  Pager pager;
  EXPECT_EQ(pager.ClockVictim(), nullptr);
}

// Regression: an all-pinned pool must terminate with nullptr — never spin
// forever clearing reference bits, never hand out a pinned frame.
TEST(PagerTest, ClockVictimNullWhenEveryFrameIsPinned) {
  Pager pager;
  FileId f = pager.CreateFile();
  std::vector<ValuePage*> pins;
  for (uint64_t p = 0; p < 5; ++p) pins.push_back(pager.Pin(f, p));
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_EQ(pager.ClockVictim(), nullptr) << "attempt " << attempt;
  }
  // Free frames mixed in (from a dropped file) change nothing: they are
  // skipped, pinned frames are skipped, and the sweep still terminates.
  FileId g = pager.CreateFile();
  pager.Write(g, 0, Value::Int(1));
  pager.DropFile(g);
  EXPECT_EQ(pager.ClockVictim(), nullptr);
  for (ValuePage* p : pins) pager.Unpin(p, false);
}

// Regression: with pinned frames interleaved around the clock hand, a full
// sweep (plus the reference-clearing revolution) lands on the sole unpinned
// page — and keeps doing so on every subsequent call, for any hand position.
TEST(PagerTest, ClockVictimSkipsPinnedFramesAcrossFullSweeps) {
  Pager pager;
  FileId f = pager.CreateFile();
  ValuePage* p0 = pager.Pin(f, 0);
  pager.Write(f, 1 * Pager::kSlotsPerPage, Value::Int(1));  // page 1: unpinned
  ValuePage* p2 = pager.Pin(f, 2);
  for (int call = 0; call < 8; ++call) {
    ValuePage* victim = pager.ClockVictim();
    ASSERT_NE(victim, nullptr) << "call " << call;
    EXPECT_EQ(victim->index_in_file(), 1u) << "call " << call;
    EXPECT_EQ(victim->pin_count(), 0u) << "call " << call;
    // Re-reference the page so the next call must sweep past the pins again.
    (void)pager.Read(f, 1 * Pager::kSlotsPerPage);
  }
  pager.Unpin(p0, false);
  pager.Unpin(p2, false);
}

// ---------------------------------------------------------------------------
// Truncation and frame reuse
// ---------------------------------------------------------------------------

TEST(PagerTest, TruncateFreesTailPagesAndClearsSlots) {
  Pager pager;
  FileId f = pager.CreateFile();
  for (uint64_t s = 0; s < 3 * Pager::kSlotsPerPage; ++s) {
    pager.Write(f, s, Value::Text("v" + std::to_string(s)));
  }
  EXPECT_EQ(pager.resident_pages(), 3u);
  pager.Truncate(f, Pager::kSlotsPerPage / 2);
  EXPECT_EQ(pager.FilePages(f), 1u);
  EXPECT_EQ(pager.FileSize(f), Pager::kSlotsPerPage / 2);
  EXPECT_EQ(pager.resident_pages(), 1u);
  EXPECT_EQ(pager.stats().pages_freed, 2u);
  // Slots past the truncation point on the surviving page are cleared.
  EXPECT_TRUE(pager.Read(f, Pager::kSlotsPerPage / 2).is_null());
  EXPECT_EQ(pager.Read(f, 0), Value::Text("v0"));
}

TEST(PagerTest, FreedFramesAreReusedAcrossFiles) {
  Pager pager;
  FileId a = pager.CreateFile();
  for (uint64_t s = 0; s < 4 * Pager::kSlotsPerPage; ++s) {
    pager.Write(a, s, Value::Int(1));
  }
  uint64_t allocated = pager.stats().pages_allocated;
  pager.DropFile(a);
  EXPECT_EQ(pager.resident_pages(), 0u);

  FileId b = pager.CreateFile();
  for (uint64_t s = 0; s < 4 * Pager::kSlotsPerPage; ++s) {
    pager.Write(b, s, Value::Int(2));
  }
  // The new file recycled the freed frames; reuse still counts as allocation
  // but no new frames were created beyond the recycled ones.
  EXPECT_EQ(pager.stats().pages_allocated, allocated + 4);
  EXPECT_EQ(pager.resident_pages(), 4u);
  // Recycled frames carry no stale data.
  EXPECT_EQ(pager.Read(b, 0), Value::Int(2));
}

// ---------------------------------------------------------------------------
// A shared pager pools pages across storages (the Database arrangement)
// ---------------------------------------------------------------------------

TEST(PagerTest, SharedPagerPoolsAcrossStorageModels) {
  Pager pager;
  auto hybrid = CreateStorage(StorageModel::kHybrid, 2, &pager);
  auto row = CreateStorage(StorageModel::kRow, 2, &pager);
  ASSERT_TRUE(hybrid->AppendRow({Value::Int(1), Value::Int(2)}).ok());
  ASSERT_TRUE(row->AppendRow({Value::Int(3), Value::Int(4)}).ok());
  EXPECT_EQ(&hybrid->pager(), &pager);
  EXPECT_EQ(&row->pager(), &pager);
  EXPECT_EQ(pager.resident_pages(), 2u);  // one page each, no aliasing
  EXPECT_EQ(hybrid->Get(0, 0).value(), Value::Int(1));
  EXPECT_EQ(row->Get(0, 0).value(), Value::Int(3));

  // Destroying a storage returns its pages to the shared pool.
  row.reset();
  EXPECT_EQ(pager.resident_pages(), 1u);
}

// ---------------------------------------------------------------------------
// The paper's §2.2 headline claim, measured through real pages:
// hybrid ADD COLUMN dirties O(rows/256) pages, the row layout O(all).
// ---------------------------------------------------------------------------

size_t PagesDirtiedByAddColumn(TableStorage& s, size_t rows) {
  s.pager().set_accounting_enabled(false);
  for (size_t i = 0; i < rows; ++i) {
    Row r{Value::Int(static_cast<int64_t>(i)), Value::Int(1), Value::Int(2),
          Value::Int(3)};
    EXPECT_TRUE(s.AppendRow(r).ok());
  }
  s.pager().set_accounting_enabled(true);
  s.pager().BeginEpoch();
  EXPECT_TRUE(s.AddColumn(Value::Int(0)).ok());
  return s.pager().EpochPagesWritten();
}

TEST(PagerRegressionTest, HybridAddColumnDirtiesExactlyRowsOver256Pages) {
  constexpr size_t kRows = 20000;
  auto s = CreateStorage(StorageModel::kHybrid, 4);
  size_t dirtied = PagesDirtiedByAddColumn(*s, kRows);
  // The fresh single-attribute group is exactly ceil(rows / 256) pages and
  // nothing else is written.
  constexpr size_t kExpected =
      (kRows + Pager::kSlotsPerPage - 1) / Pager::kSlotsPerPage;
  EXPECT_EQ(dirtied, kExpected);
}

TEST(PagerRegressionTest, RowStoreAddColumnDirtiesTheWholeHeap) {
  constexpr size_t kRows = 20000;
  auto s = CreateStorage(StorageModel::kRow, 4);
  size_t dirtied = PagesDirtiedByAddColumn(*s, kRows);
  // The restride rewrites every tuple: all pages of the new 5-wide layout.
  constexpr size_t kWholeHeap =
      (kRows * 5 + Pager::kSlotsPerPage - 1) / Pager::kSlotsPerPage;
  EXPECT_GE(dirtied, kWholeHeap);
  // And the asymptotic gap vs hybrid is the column count (5x here).
  auto h = CreateStorage(StorageModel::kHybrid, 4);
  EXPECT_GE(dirtied, PagesDirtiedByAddColumn(*h, kRows) * 4);
}

}  // namespace
}  // namespace dataspread
