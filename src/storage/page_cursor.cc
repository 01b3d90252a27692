#include "storage/page_cursor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

// Same policy as the pager's own checks: misuse aborts loudly rather than
// silently corrupting a recycled frame.
#define DS_CURSOR_CHECK(cond, msg)                                    \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "storage::PageCursor check failed: %s\n",  \
                   (msg));                                            \
      std::abort();                                                   \
    }                                                                 \
  } while (0)

namespace dataspread {
namespace storage {

PageCursor::PageCursor(Pager& pager, FileId file)
    : pager_(&pager), file_(file) {
  std::lock_guard<std::recursive_mutex> lock(pager.mu_);
  chain_ = &pager.ChainOrDie(file);
}

PageCursor::PageCursor(PageCursor&& other) noexcept
    : pager_(other.pager_),
      file_(other.file_),
      chain_(other.chain_),
      page_(other.page_),
      page_index_(other.page_index_),
      base_(other.base_),
      frame_(other.frame_),
      frame_latch_(other.frame_latch_),
      latch_(other.latch_),
      seq_(other.seq_),
      counted_read_(other.counted_read_),
      counted_write_(other.counted_write_),
      pending_reads_(other.pending_reads_),
      pending_writes_(other.pending_writes_) {
  other.page_ = nullptr;   // the pin moved with us
  other.latch_ = nullptr;  // so did the data latch
  other.pending_reads_ = 0;   // and the unflushed counts
  other.pending_writes_ = 0;
}

PageCursor& PageCursor::operator=(PageCursor&& other) noexcept {
  if (this != &other) {
    Release();
    pager_ = other.pager_;
    file_ = other.file_;
    chain_ = other.chain_;
    page_ = other.page_;
    page_index_ = other.page_index_;
    base_ = other.base_;
    frame_ = other.frame_;
    frame_latch_ = other.frame_latch_;
    latch_ = other.latch_;
    seq_ = other.seq_;
    counted_read_ = other.counted_read_;
    counted_write_ = other.counted_write_;
    pending_reads_ = other.pending_reads_;
    pending_writes_ = other.pending_writes_;
    other.page_ = nullptr;
    other.latch_ = nullptr;
    other.pending_reads_ = 0;
    other.pending_writes_ = 0;
  }
  return *this;
}

void PageCursor::LatchData() {
  if (latch_ != nullptr) return;
  // The pin (taken under the structural latch in Seek) keeps the frame from
  // being evicted or recycled, so latching it afterwards without the
  // structural latch is safe. The latch *pointer* was resolved in Seek,
  // under the structural latch — deque elements never move, but indexing
  // the deque here would race with its growth.
  latch_ = frame_latch_;
  latch_->lock_shared();
}

void PageCursor::UnlatchData() {
  if (latch_ == nullptr) return;
  latch_->unlock_shared();
  latch_ = nullptr;
}

void PageCursor::Release() {
  if (page_ == nullptr) return;
  FlushCounts();
  UnlatchData();  // latch order: data latch goes before the structural latch
  std::lock_guard<std::recursive_mutex> lock(pager_->mu_);
  page_->pin_count_ -= 1;
  page_ = nullptr;
}

void PageCursor::Seek(uint64_t page_index, bool grow) {
  FlushCounts();  // the counts of the page being left merge at drain time
  UnlatchData();  // never enter the pager holding a data latch
  Pager& p = *pager_;
  std::lock_guard<std::recursive_mutex> lock(p.mu_);
  if (page_ != nullptr) {
    page_->pin_count_ -= 1;
    page_ = nullptr;
  }
  // Cursor-local sequential detection: point lookups through the slot APIs
  // never touch this detector, so an interleaved scan keeps its
  // classification.
  p.mount_sequential_ = seq_.Note(page_index);
  if (grow) {
    p.EnsureCapacity(file_, *chain_, page_index * Pager::kSlotsPerPage);
  } else {
    DS_CURSOR_CHECK(page_index < chain_->pages.size(),
                    "cursor access past file end");
  }
  ValuePage& page = p.PageAt(file_, *chain_, page_index);
  p.MaybePromote(page);
  page.pin_count_ += 1;
  page.referenced_ = true;
  p.pins_.fetch_add(1, std::memory_order_relaxed);
  page_ = &page;
  frame_ = chain_->pages[page_index].frame;
  frame_latch_ = &p.frame_latches_[frame_];
  page_index_ = page_index;
  base_ = page_index * Pager::kSlotsPerPage;
  counted_read_ = false;
  counted_write_ = false;
}

void PageCursor::CountRead(uint64_t count) {
  Pager& p = *pager_;
  if (!p.accounting_.load(std::memory_order_relaxed)) return;
  pending_reads_ += count;  // merged into the shared atomics at drain time
  if (!counted_read_) {
    p.NoteEpochRead(file_, page_index_);
    counted_read_ = true;
  }
}

void PageCursor::CountWrite(uint64_t count) {
  Pager& p = *pager_;
  if (!p.accounting_.load(std::memory_order_relaxed)) return;
  pending_writes_ += count;
  if (!counted_write_) {
    p.NoteEpochWrite(file_, page_index_);
    counted_write_ = true;
  }
}

void PageCursor::FlushCounts() {
  Pager& p = *pager_;
  if (pending_reads_ != 0) {
    p.slot_reads_.fetch_add(pending_reads_, std::memory_order_relaxed);
    pending_reads_ = 0;
  }
  if (pending_writes_ != 0) {
    p.slot_writes_.fetch_add(pending_writes_, std::memory_order_relaxed);
    pending_writes_ = 0;
  }
}

const Value& PageCursor::Read(uint64_t slot) {
  uint64_t page_index = slot / Pager::kSlotsPerPage;
  if (page_ == nullptr || page_index != page_index_) {
    Seek(page_index, /*grow=*/false);
  }
  LatchData();
  CountRead();
  return page_->slot(slot - base_);
}

const Value* PageCursor::ReadSpan(uint64_t slot, uint64_t count,
                                  uint64_t reads) {
  uint64_t page_index = slot / Pager::kSlotsPerPage;
  DS_CURSOR_CHECK(count > 0 &&
                      (slot + count - 1) / Pager::kSlotsPerPage == page_index,
                  "ReadSpan straddles a page boundary");
  if (page_ == nullptr || page_index != page_index_) {
    Seek(page_index, /*grow=*/false);
  }
  LatchData();  // held until the cursor leaves the page: the span is stable
  CountRead(reads);
  return &page_->slot(slot - base_);
}

void PageCursor::Write(uint64_t slot, Value v) {
  uint64_t page_index = slot / Pager::kSlotsPerPage;
  if (page_ == nullptr || page_index != page_index_) {
    Seek(page_index, /*grow=*/true);
  }
  UnlatchData();
  Pager& p = *pager_;
  std::lock_guard<std::recursive_mutex> lock(p.mu_);
  // Exclusive data latch only for the mutation itself: concurrent readers
  // of *this* page wait; readers elsewhere are untouched. Safe to block
  // here while holding the structural latch — reader cursors release their
  // data latch before every structural-latch acquisition.
  std::unique_lock<std::shared_mutex> frame_latch(*frame_latch_);
  // Dirty eagerly (not at unpin) so a FlushAll() mid-cursor checkpoints
  // pending writes too.
  page_->dirty_ = true;
  if (slot >= chain_->size) chain_->size = slot + 1;
  CountWrite();
  page_->slot(slot - base_) = std::move(v);
  p.LogPageMutation(file_, *chain_, page_index_, slot - base_, 1);
}

Value PageCursor::Take(uint64_t slot) {
  uint64_t page_index = slot / Pager::kSlotsPerPage;
  if (page_ == nullptr || page_index != page_index_) {
    Seek(page_index, /*grow=*/false);
  }
  UnlatchData();
  Pager& p = *pager_;
  std::lock_guard<std::recursive_mutex> lock(p.mu_);
  std::unique_lock<std::shared_mutex> frame_latch(*frame_latch_);
  page_->dirty_ = true;  // the slot changes; same rationale as Pager::Take
  CountRead();
  Value out = std::exchange(page_->slot(slot - base_), Value::Null());
  p.LogPageMutation(file_, *chain_, page_index_, slot - base_, 1);
  return out;
}

void PageCursor::ReadRange(uint64_t start, uint64_t count, Row* out) {
  if (count == 0) return;
  out->reserve(out->size() + count);
  uint64_t s = start;
  const uint64_t end = start + count;
  while (s < end) {
    uint64_t page_index = s / Pager::kSlotsPerPage;
    if (page_ == nullptr || page_index != page_index_) {
      Seek(page_index, /*grow=*/false);
    }
    LatchData();
    uint64_t page_end = std::min(end, base_ + Pager::kSlotsPerPage);
    CountRead(page_end - s);
    for (; s < page_end; ++s) {
      out->push_back(page_->slot(s - base_));
    }
  }
  FlushCounts();  // a bulk op is a drain point: its counts land at return
}

void PageCursor::WriteRange(uint64_t start, const Value* values,
                            uint64_t count) {
  if (count == 0) return;
  uint64_t s = start;
  const uint64_t end = start + count;
  while (s < end) {
    uint64_t page_index = s / Pager::kSlotsPerPage;
    if (page_ == nullptr || page_index != page_index_) {
      Seek(page_index, /*grow=*/true);
    }
    UnlatchData();
    Pager& p = *pager_;
    std::lock_guard<std::recursive_mutex> lock(p.mu_);
    std::unique_lock<std::shared_mutex> frame_latch(*frame_latch_);
    page_->dirty_ = true;
    uint64_t page_end = std::min(end, base_ + Pager::kSlotsPerPage);
    CountWrite(page_end - s);
    uint64_t seg_start = s;
    for (; s < page_end; ++s) {
      page_->slot(s - base_) = values[s - start];
    }
    // Same per-segment size rule as Pager::WriteRange: every redo record is
    // a self-consistent prefix state.
    if (s > chain_->size) chain_->size = s;
    p.LogPageMutation(file_, *chain_, page_index_, seg_start - base_,
                      s - seg_start);
  }
  FlushCounts();
}

void PageCursor::Fill(uint64_t start, uint64_t count, const Value& v) {
  if (count == 0) return;
  uint64_t s = start;
  const uint64_t end = start + count;
  while (s < end) {
    uint64_t page_index = s / Pager::kSlotsPerPage;
    if (page_ == nullptr || page_index != page_index_) {
      Seek(page_index, /*grow=*/true);
    }
    UnlatchData();
    Pager& p = *pager_;
    std::lock_guard<std::recursive_mutex> lock(p.mu_);
    std::unique_lock<std::shared_mutex> frame_latch(*frame_latch_);
    page_->dirty_ = true;
    uint64_t page_end = std::min(end, base_ + Pager::kSlotsPerPage);
    CountWrite(page_end - s);
    uint64_t seg_start = s;
    for (; s < page_end; ++s) {
      page_->slot(s - base_) = v;
    }
    if (s > chain_->size) chain_->size = s;
    p.LogPageMutation(file_, *chain_, page_index_, seg_start - base_,
                      s - seg_start);
  }
  FlushCounts();
}

}  // namespace storage
}  // namespace dataspread
