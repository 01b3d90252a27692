// PageCursor (storage/page_cursor.h): the pin-once-per-page hot path. The
// cursor must be semantically identical to the slot-granular Read/Write/Take
// — same values, same file growth, same distinct-page accounting — while
// holding at most one pin, surviving eviction boundaries under tiny pools,
// and classifying its traversals as scans. GatherRows (the one bulk read,
// which every storage model routes through cursors) is checked against the
// GetRow loop for all four models.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "storage/page_cursor.h"
#include "storage/pager.h"
#include "storage/table_storage.h"

namespace dataspread {
namespace {

using storage::FileId;
using storage::PageCursor;
using storage::Pager;
using storage::PagerConfig;

constexpr uint64_t kSlots = Pager::kSlotsPerPage;

PagerConfig Bounded(size_t cap) {
  PagerConfig config;
  config.max_resident_pages = cap;
  return config;
}

Value ProbeValue(uint64_t seed) {
  switch (seed % 5) {
    case 0:
      return Value::Int(static_cast<int64_t>(seed) * 17 - 3);
    case 1:
      return Value::Real(static_cast<double>(seed) / 7.0);
    case 2:
      return Value::Text("t" + std::to_string(seed));
    case 3:
      return Value::Bool(seed % 2 == 1);
    default:
      return Value::Null();
  }
}

// ---------------------------------------------------------------------------
// Read/Write/Take semantics match the slot APIs
// ---------------------------------------------------------------------------

TEST(PageCursorTest, WritesReadBackThroughBothPaths) {
  Pager pager;
  FileId f = pager.CreateFile();
  constexpr uint64_t kCount = 3 * kSlots + 40;
  {
    PageCursor cursor(pager, f);
    for (uint64_t s = 0; s < kCount; ++s) cursor.Write(s, ProbeValue(s));
  }
  EXPECT_EQ(pager.FileSize(f), kCount);
  EXPECT_EQ(pager.FilePages(f), 4u);
  // Cursor writes are visible to the slot API...
  for (uint64_t s = 0; s < kCount; ++s) {
    ASSERT_EQ(pager.Read(f, s), ProbeValue(s)) << "slot " << s;
  }
  // ...and slot writes are visible to a fresh cursor.
  pager.Write(f, 5, Value::Text("updated"));
  PageCursor cursor(pager, f);
  EXPECT_EQ(cursor.Read(5), Value::Text("updated"));
  EXPECT_EQ(cursor.Read(kCount - 1), ProbeValue(kCount - 1));
}

TEST(PageCursorTest, TakeMovesValueOutAndDirtiesLikeTheSlotApi) {
  Pager pager;
  FileId f = pager.CreateFile();
  pager.Write(f, kSlots + 3, Value::Text("payload"));
  // Only page 1 was written (page 0 is allocated but clean).
  ASSERT_EQ(pager.FlushAll(), 1u);
  PageCursor cursor(pager, f);
  EXPECT_EQ(cursor.Take(kSlots + 3), Value::Text("payload"));
  EXPECT_TRUE(cursor.Read(kSlots + 3).is_null());
  cursor.Release();
  // The take dirtied the page, so the checkpoint rewrites exactly it.
  EXPECT_EQ(pager.FlushAll(), 1u);
}

TEST(PageCursorTest, HoldsExactlyOnePinAndReleasesIt) {
  Pager pager;
  FileId f = pager.CreateFile();
  for (uint64_t p = 0; p < 4; ++p) pager.Write(f, p * kSlots, Value::Int(1));
  {
    PageCursor cursor(pager, f);
    EXPECT_EQ(pager.pinned_pages(), 0u);  // not started: no pin yet
    (void)cursor.Read(0);
    EXPECT_EQ(pager.pinned_pages(), 1u);
    (void)cursor.Read(2 * kSlots);  // page change: old pin released
    EXPECT_EQ(pager.pinned_pages(), 1u);
    cursor.Release();
    EXPECT_EQ(pager.pinned_pages(), 0u);
    (void)cursor.Read(3 * kSlots);  // usable after Release
    EXPECT_EQ(pager.pinned_pages(), 1u);
  }  // destructor releases the last pin
  EXPECT_EQ(pager.pinned_pages(), 0u);
}

TEST(PageCursorTest, MoveTransfersThePin) {
  Pager pager;
  FileId f = pager.CreateFile();
  pager.Write(f, 0, Value::Int(7));
  PageCursor a(pager, f);
  EXPECT_EQ(a.Read(0), Value::Int(7));
  EXPECT_EQ(pager.pinned_pages(), 1u);
  PageCursor b(std::move(a));
  EXPECT_EQ(pager.pinned_pages(), 1u);  // exactly one pin moved, not two
  EXPECT_EQ(b.Read(0), Value::Int(7));
  b.Release();
  EXPECT_EQ(pager.pinned_pages(), 0u);
}

// ---------------------------------------------------------------------------
// Accounting: distinct pages once per page, slot counters exact
// ---------------------------------------------------------------------------

TEST(PageCursorTest, EpochCountsDistinctPagesOncePerPageVisit) {
  Pager pager;
  FileId f = pager.CreateFile();
  pager.BeginEpoch();
  {
    PageCursor cursor(pager, f);
    for (uint64_t s = 0; s < 3 * kSlots; ++s) {
      cursor.Write(s, Value::Int(static_cast<int64_t>(s)));
    }
  }
  EXPECT_EQ(pager.EpochPagesWritten(), 3u);
  EXPECT_EQ(pager.EpochPagesRead(), 0u);
  EXPECT_EQ(pager.stats().slot_writes, 3 * kSlots);

  pager.BeginEpoch();
  uint64_t reads_before = pager.stats().slot_reads;
  {
    PageCursor cursor(pager, f);
    for (uint64_t s = 0; s < 2 * kSlots; ++s) (void)cursor.Read(s);
  }
  EXPECT_EQ(pager.EpochPagesRead(), 2u);
  EXPECT_EQ(pager.EpochPagesWritten(), 0u);
  EXPECT_EQ(pager.stats().slot_reads - reads_before, 2 * kSlots);
}

TEST(PageCursorTest, WriteRangeAndFillMatchSlotWritesExactly) {
  Pager pager;
  FileId f = pager.CreateFile();
  std::vector<Value> values;
  constexpr uint64_t kCount = 2 * kSlots + 17;
  values.reserve(kCount);
  for (uint64_t s = 0; s < kCount; ++s) values.push_back(ProbeValue(s + 9));

  pager.BeginEpoch();
  PageCursor cursor(pager, f);
  cursor.WriteRange(10, values.data(), kCount);
  EXPECT_EQ(pager.FileSize(f), 10 + kCount);
  EXPECT_EQ(pager.EpochPagesWritten(), 3u);  // slots 10 .. 2*256+27
  EXPECT_EQ(pager.stats().slot_writes, kCount);
  for (uint64_t s = 0; s < kCount; ++s) {
    ASSERT_EQ(pager.Read(f, 10 + s), values[s]) << "slot " << s;
  }

  cursor.Fill(10 + kCount, kSlots, Value::Text("fill"));
  EXPECT_EQ(pager.FileSize(f), 10 + kCount + kSlots);
  EXPECT_EQ(pager.Read(f, 10 + kCount + kSlots - 1), Value::Text("fill"));
  EXPECT_TRUE(pager.Read(f, 9).is_null());  // slots below the range untouched
}

TEST(PagerTest, PagerWriteRangeMatchesSlotWrites) {
  Pager pager;
  FileId f = pager.CreateFile();
  std::vector<Value> values;
  constexpr uint64_t kCount = kSlots + 31;
  for (uint64_t s = 0; s < kCount; ++s) values.push_back(ProbeValue(s));
  pager.BeginEpoch();
  pager.WriteRange(f, 0, values.data(), kCount);
  EXPECT_EQ(pager.FileSize(f), kCount);
  EXPECT_EQ(pager.EpochPagesWritten(), 2u);
  EXPECT_EQ(pager.stats().slot_writes, kCount);
  for (uint64_t s = 0; s < kCount; ++s) {
    ASSERT_EQ(pager.Read(f, s), values[s]) << "slot " << s;
  }
}

// ---------------------------------------------------------------------------
// Cursors under a bounded pool
// ---------------------------------------------------------------------------

TEST(PageCursorTest, StreamsCorrectlyThroughATinyPool) {
  Pager pager(Bounded(3));
  FileId f = pager.CreateFile();
  constexpr uint64_t kCount = 12 * kSlots;
  {
    PageCursor cursor(pager, f);
    for (uint64_t s = 0; s < kCount; ++s) cursor.Write(s, ProbeValue(s));
  }
  EXPECT_LE(pager.resident_pages(), 3u);
  EXPECT_GT(pager.stats().evictions, 0u);
  // Forward scan, then strided jumps, then backward scan — all faulting
  // through the 3-frame pool — must read exactly what was written.
  {
    PageCursor cursor(pager, f);
    for (uint64_t s = 0; s < kCount; ++s) {
      ASSERT_EQ(cursor.Read(s), ProbeValue(s)) << "slot " << s;
      ASSERT_LE(pager.resident_pages(), 3u);
    }
    for (uint64_t s = 0; s < kCount; s += 700) {
      ASSERT_EQ(cursor.Read(s), ProbeValue(s)) << "slot " << s;
    }
    for (uint64_t s = kCount; s-- > 0;) {
      ASSERT_EQ(cursor.Read(s), ProbeValue(s)) << "slot " << s;
    }
  }
  EXPECT_GT(pager.stats().faults, 0u);
}

TEST(PageCursorTest, TwoCursorRestrideSurvivesEvictionPressure) {
  // The RowStore::AddColumn pattern: a source cursor taking values while a
  // destination cursor rewrites them at a wider stride, same file, under a
  // pool smaller than the data.
  Pager pager(Bounded(4));
  FileId f = pager.CreateFile();
  constexpr uint64_t kRows = 5 * kSlots;  // 5 pages at width 1
  for (uint64_t r = 0; r < kRows; ++r) {
    pager.Write(f, r, Value::Int(static_cast<int64_t>(r)));
  }
  {
    PageCursor src(pager, f);
    PageCursor dst(pager, f);
    for (uint64_t r = kRows; r-- > 0;) {
      dst.Write(r * 2 + 1, Value::Int(-1));
      dst.Write(r * 2, src.Take(r));
    }
  }
  EXPECT_LE(pager.resident_pages(), 4u);
  for (uint64_t r = 0; r < kRows; ++r) {
    ASSERT_EQ(pager.Read(f, r * 2), Value::Int(static_cast<int64_t>(r)));
    ASSERT_EQ(pager.Read(f, r * 2 + 1), Value::Int(-1));
  }
}

// ---------------------------------------------------------------------------
// GatherRows (the one bulk read) equals the GetRow loop for every model
// ---------------------------------------------------------------------------

class GatherRowsModelTest : public ::testing::TestWithParam<StorageModel> {};

/// Gathers `columns` of `slots` and checks every value (and type) against
/// the GetRow loop.
void ExpectGatherMatchesGetRow(const TableStorage& s,
                               const std::vector<size_t>& slots,
                               const std::vector<size_t>& columns,
                               const std::string& what) {
  std::vector<std::vector<Value>> got(columns.size());
  std::vector<std::vector<Value>*> out;
  for (std::vector<Value>& g : got) out.push_back(&g);
  ASSERT_TRUE(
      s.GatherRows(slots.data(), slots.size(), columns, out.data()).ok())
      << what;
  for (size_t j = 0; j < columns.size(); ++j) {
    ASSERT_EQ(got[j].size(), slots.size()) << what << " column " << j;
  }
  for (size_t i = 0; i < slots.size(); ++i) {
    Row expect = s.GetRow(slots[i]).ValueOrDie();
    for (size_t j = 0; j < columns.size(); ++j) {
      ASSERT_EQ(got[j][i], expect[columns[j]])
          << what << " slot " << slots[i] << " column " << columns[j];
      ASSERT_EQ(got[j][i].type(), expect[columns[j]].type())
          << what << " slot " << slots[i] << " column " << columns[j];
    }
  }
}

std::vector<size_t> AllOf(size_t n) {
  std::vector<size_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

TEST_P(GatherRowsModelTest, MatchesGetRowLoopDenseAndAfterSchemaChanges) {
  for (size_t cap : {size_t{0}, size_t{4}}) {
    auto s = CreateStorage(GetParam(), 5, nullptr, Bounded(cap));
    std::mt19937 rng(31);
    constexpr size_t kRows = 700;  // ~14 pages of tuples behind 4 frames
    Row r(5);
    for (size_t i = 0; i < kRows; ++i) {
      for (size_t c = 0; c < 5; ++c) {
        r[c] = (rng() % 6 == 0) ? Value::Null()
                                : ProbeValue(rng() % 1000);
      }
      ASSERT_TRUE(s->AppendRow(r).ok());
    }
    // Schema churn so hybrid goes multi-group and rcv gets a filled column.
    ASSERT_TRUE(s->AddColumn(Value::Int(42)).ok());
    ASSERT_TRUE(s->DropColumn(1).ok());
    const std::string tag = "cap " + std::to_string(cap);
    const size_t cols = s->num_columns();

    ExpectGatherMatchesGetRow(*s, AllOf(kRows), AllOf(cols), tag + " all");
    // A mid-table window with a non-zero start.
    std::vector<size_t> window;
    for (size_t i = kRows / 3; i < kRows / 3 + 10; ++i) window.push_back(i);
    ExpectGatherMatchesGetRow(*s, window, AllOf(cols), tag + " window");
    // Column subsets in any order, including one that mixes the new
    // (added) column with original ones and a single-column read.
    ExpectGatherMatchesGetRow(*s, AllOf(kRows), {cols - 1, 0, 2},
                              tag + " subset");
    ExpectGatherMatchesGetRow(*s, AllOf(kRows), {1}, tag + " one column");
    // Slots in any order: reversed, then a shuffled sample with repeats.
    std::vector<size_t> reversed = AllOf(kRows);
    std::reverse(reversed.begin(), reversed.end());
    ExpectGatherMatchesGetRow(*s, reversed, {2, 1}, tag + " reversed");
    std::vector<size_t> sample;
    for (size_t i = 0; i < 300; ++i) sample.push_back(rng() % kRows);
    ExpectGatherMatchesGetRow(*s, sample, AllOf(cols), tag + " shuffled");

    // No columns or no slots: nothing appended, nothing fails.
    std::vector<Value> sink;
    std::vector<Value>* one = &sink;
    EXPECT_TRUE(s->GatherRows(sample.data(), sample.size(), {}, &one).ok());
    EXPECT_TRUE(s->GatherRows(nullptr, 0, {0}, &one).ok());
    EXPECT_TRUE(sink.empty());
  }
}

TEST_P(GatherRowsModelTest, FragmentedSlotsAfterMidTableDeletesAndInserts) {
  auto s = CreateStorage(GetParam(), 4, nullptr, Bounded(8));
  Row r(4);
  auto fill = [&r](size_t i) {
    for (size_t c = 0; c < 4; ++c) r[c] = ProbeValue(i * 4 + c);
  };
  for (size_t i = 0; i < 600; ++i) {
    fill(i);
    ASSERT_TRUE(s->AppendRow(r).ok());
  }
  // Mid-table deletes renumber the last slot into each hole, and later
  // appends land behind them: slot order no longer follows insert order.
  std::mt19937 rng(7);
  for (int k = 0; k < 120; ++k) {
    ASSERT_TRUE(s->DeleteRow(rng() % s->num_rows()).ok());
    if (k % 2 == 0) {
      fill(1000 + k);
      ASSERT_TRUE(s->AppendRow(r).ok());
    }
  }
  // A fragmented slot list: runs of consecutive slots broken by jumps in
  // both directions.
  std::vector<size_t> slots;
  for (size_t run = 0; run < 40; ++run) {
    size_t start = rng() % s->num_rows();
    size_t end = std::min<size_t>(start + 1 + rng() % 8, s->num_rows());
    for (size_t i = start; i < end; ++i) slots.push_back(i);
  }
  ExpectGatherMatchesGetRow(*s, slots, {3, 1, 0}, "fragmented");
  ExpectGatherMatchesGetRow(*s, slots, AllOf(4), "fragmented all");
}

TEST_P(GatherRowsModelTest, TuplesStraddlingAPage) {
  // Width 3 does not divide a page's slots: row-major tuples 85, 170, ...
  // straddle a page boundary (hybrid width 3 and the row store alike).
  auto s = CreateStorage(GetParam(), 3, nullptr, Bounded(4));
  Row r(3);
  for (size_t i = 0; i < 400; ++i) {
    for (size_t c = 0; c < 3; ++c) r[c] = ProbeValue(i * 3 + c);
    ASSERT_TRUE(s->AppendRow(r).ok());
  }
  ASSERT_NE(kSlots % 3, 0u);
  std::vector<size_t> straddlers;
  for (size_t row = 0; row < 400; ++row) {
    if ((row * 3) / kSlots != (row * 3 + 2) / kSlots) {
      straddlers.push_back(row);
      straddlers.push_back(row + 1);  // and the first tuple after it
    }
  }
  ASSERT_FALSE(straddlers.empty());
  ExpectGatherMatchesGetRow(*s, straddlers, AllOf(3), "straddle all");
  ExpectGatherMatchesGetRow(*s, straddlers, {2, 0}, "straddle ends");
  ExpectGatherMatchesGetRow(*s, straddlers, {1}, "straddle middle");
  ExpectGatherMatchesGetRow(*s, AllOf(400), {2}, "straddle scan");
}

TEST_P(GatherRowsModelTest, BadSlotOrColumnIsOutOfRangeAndAppendsNothing) {
  auto s = CreateStorage(GetParam(), 2, nullptr, Bounded(0));
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(s->AppendRow({Value::Int(i), Value::Int(-i)}).ok());
  }
  std::vector<Value> a, b;
  std::vector<Value>* out[] = {&a, &b};
  const std::vector<size_t> bad_slot = {0, 3, 10};
  Status st = s->GatherRows(bad_slot.data(), bad_slot.size(), {0, 1}, out);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange) << st.ToString();
  const std::vector<size_t> good = {9, 0};
  st = s->GatherRows(good.data(), good.size(), {1, 2}, out);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange) << st.ToString();
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(b.empty());
  ASSERT_TRUE(s->GatherRows(good.data(), good.size(), {1, 0}, out).ok());
  EXPECT_EQ(a, (std::vector<Value>{Value::Int(-9), Value::Int(0)}));
  EXPECT_EQ(b, (std::vector<Value>{Value::Int(9), Value::Int(0)}));
}

INSTANTIATE_TEST_SUITE_P(AllModels, GatherRowsModelTest,
                         ::testing::Values(StorageModel::kRow,
                                           StorageModel::kColumn,
                                           StorageModel::kRcv,
                                           StorageModel::kHybrid));

}  // namespace
}  // namespace dataspread
