#ifndef DATASPREAD_STORAGE_PAGE_CURSOR_H_
#define DATASPREAD_STORAGE_PAGE_CURSOR_H_

#include <cstdint>

#include "storage/pager.h"

namespace dataspread {
namespace storage {

/// The hot-loop access path over one pager file.
///
/// The slot-granular Pager::Read/Write pay an `unordered_map` chain lookup
/// plus per-slot accounting on every call. A PageCursor resolves the chain
/// exactly once at construction and then pins each page it visits exactly
/// once: while the cursor stays on a page, a slot access is index arithmetic
/// on the pinned frame — no hash lookup, no pin churn, no per-slot epoch
/// insert (distinct-page accounting happens once per page, which is what the
/// epoch sets measure anyway; `slot_reads`/`slot_writes` stay slot-exact).
///
/// The cursor is also the scan-resistance and readahead signal: it carries
/// its own sequential detector (page transitions of +1), so a cursor scan
/// keeps its streak even while point lookups hit the same file through the
/// slot APIs. Pages mounted by a sequential cursor are scan-class (routed
/// through the pager's scan ring, see DESIGN.md §5a) and fault-ins trigger
/// one page of spill readahead.
///
/// Pin discipline: the cursor holds at most one pin — the page under it —
/// released on page change, Release(), or destruction. The cursor must not
/// outlive its pager or file, and Release() must be called before
/// Truncate/DropFile could free the pinned page (the pager aborts on
/// freeing a pinned page).
///
/// Threading (DESIGN.md §7): a cursor is owned by one thread, but many
/// cursors on one pager may run concurrently — N reader cursors plus one
/// writer thread. Page *movement* (Seek: unpin, fault, pin) takes the
/// pager's structural latch; slot *reads* then proceed latch-free under a
/// shared per-frame data latch acquired lazily on first access and held
/// until the cursor leaves the page (so a ReadSpan pointer stays stable).
/// Mutating calls drop the shared latch, take the structural latch, and
/// hold the frame's latch exclusively only for the mutation itself. The
/// cursor never enters the pager while holding a data latch — the deadlock-
/// freedom argument for the structural→frame lock order.
///
/// Dirty/LSN contract: every mutating call (Write/Take/WriteRange/Fill)
/// sets the page's dirty bit *eagerly* — not at unpin — so a FlushAll()
/// mid-cursor checkpoints pending writes, and logs its redo through the
/// pager's single WAL choke point (Pager::LogPageMutation) in the same
/// call, stamping the page's page_lsn. The window in which a page is dirty
/// but its newest mutation unlogged therefore never spans a pager call, and
/// the WAL rule (no write-back before flushed-LSN >= page_lsn, DESIGN.md
/// §6) holds on every eviction/checkpoint path. Range ops advance the
/// file's logical size per page segment, so each redo record describes a
/// self-consistent prefix of the range.
class PageCursor {
 public:
  PageCursor(Pager& pager, FileId file);
  ~PageCursor() { Release(); }
  PageCursor(const PageCursor&) = delete;
  PageCursor& operator=(const PageCursor&) = delete;
  PageCursor(PageCursor&& other) noexcept;
  PageCursor& operator=(PageCursor&& other) noexcept;

  /// Reads `slot` (must be below the file's page capacity, like
  /// Pager::Read). The reference is valid until the cursor moves to another
  /// page or any pager call that can evict — callers copy.
  const Value& Read(uint64_t slot);
  /// Zero-copy read of `count` consecutive slots that share one page
  /// (checked): returns a pointer directly into the pinned frame, valid
  /// under the same rules as Read(). Accounts `reads` slot reads: the slots
  /// of the span the caller copies (a gather of a few columns of several
  /// tuples reads fewer than `count`). The fastest tuple fetch for
  /// row-major layouts whose tuples never straddle pages.
  const Value* ReadSpan(uint64_t slot, uint64_t count, uint64_t reads);
  /// Writes `slot`, growing the file as needed.
  void Write(uint64_t slot, Value v);
  /// Moves the value out of `slot` (reads + dirties, like Pager::Take).
  Value Take(uint64_t slot);
  /// Appends slots [start, start+count) to `out`.
  void ReadRange(uint64_t start, uint64_t count, Row* out);
  /// Writes slots [start, start+count) from `values`, growing as needed.
  void WriteRange(uint64_t start, const Value* values, uint64_t count);
  /// Writes `count` copies of `v` to [start, start+count).
  void Fill(uint64_t start, uint64_t count, const Value& v);

  /// Unpins the current page. The cursor stays usable — the next access
  /// re-pins — but its sequential streak is kept, so a scan interrupted by
  /// a Release() resumes as a scan.
  void Release();

  FileId file() const { return file_; }

 private:
  /// Moves the cursor onto `page_index`: releases the old data latch and
  /// pin, updates the sequential detector, mounts (growing/faulting as
  /// needed) and pins — all under the pager's structural latch.
  void Seek(uint64_t page_index, bool grow);
  /// Acquires the shared data latch on the current frame (lazy, idempotent).
  void LatchData();
  /// Releases it if held. Must precede any structural-latch acquisition.
  void UnlatchData();
  /// Slot-exact counters plus a once-per-page-visit distinct-page record —
  /// the single place the cursor's accounting rule lives. Slot counts
  /// accumulate cursor-locally and merge into the pager's shared atomics at
  /// drain time (FlushCounts: page change, Release, or the end of a range
  /// op) — one fetch-add per page visit instead of one per slot access, so
  /// N morsel workers don't contend on the counters mid-scan and a
  /// PagerStats snapshot never observes a half-counted page. The distinct-
  /// page epoch record stays immediate (first access per page visit).
  void CountRead(uint64_t count = 1);
  void CountWrite(uint64_t count = 1);
  /// Merges pending slot counts into the pager's atomics.
  void FlushCounts();

  Pager* pager_;
  FileId file_;
  Pager::FileChain* chain_;  // resolved once; stable across rehash (node-based)
  ValuePage* page_ = nullptr;
  uint64_t page_index_ = 0;
  uint64_t base_ = 0;  // page_index_ * kSlotsPerPage
  PageId frame_ = 0;   // the pinned page's frame (stable while pinned)
  // The frame's data latch, resolved under the structural latch in Seek —
  // deque *elements* are address-stable, but indexing the deque races with
  // its growth, so the lookup must not happen lock-free in LatchData.
  std::shared_mutex* frame_latch_ = nullptr;
  std::shared_mutex* latch_ = nullptr;  // held shared iff non-null
  Pager::SeqDetector seq_;  // per-cursor sequential detector
  // Epoch accounting latches: one distinct-page record per page visit.
  bool counted_read_ = false;
  bool counted_write_ = false;
  // Slot counts accumulated since the last FlushCounts (always zero while
  // no page is pinned — Release drains them).
  uint64_t pending_reads_ = 0;
  uint64_t pending_writes_ = 0;
};

}  // namespace storage
}  // namespace dataspread

#endif  // DATASPREAD_STORAGE_PAGE_CURSOR_H_
