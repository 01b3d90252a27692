#include "storage/pager.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "storage/value_codec.h"

// API-misuse checks stay on in release builds: the pager recycles frames, so
// an out-of-range access or a freed-while-pinned page would otherwise corrupt
// another file's data silently. One predictable branch per call.
#define DS_PAGER_CHECK(cond, msg)                                  \
  do {                                                             \
    if (!(cond)) {                                                 \
      std::fprintf(stderr, "storage::Pager check failed: %s\n",    \
                   (msg));                                         \
      std::abort();                                                \
    }                                                              \
  } while (0)

namespace dataspread {
namespace storage {

namespace {

/// One thread→context binding pushed by BeginStatement and popped by the
/// matching EndStatement. Keyed by a process-unique pager uid so a binding
/// can never alias a different (e.g. later-constructed) pager.
struct TxnBindEntry {
  uint64_t pager_uid;
  TxnId txn;
};

thread_local std::vector<TxnBindEntry> tls_txn_binds;

std::atomic<uint64_t> g_next_pager_uid{1};

}  // namespace

Pager::Pager(PagerConfig config)
    : config_(std::move(config)),
      pager_uid_(g_next_pager_uid.fetch_add(1, std::memory_order_relaxed)) {
  if (!config_.wal_path.empty()) {
    // The durable pair: the WAL is the redo half, the named persistent
    // spill file the data half — both or neither.
    DS_PAGER_CHECK(config_.durable_spill && !config_.spill_path.empty(),
                   "wal_path requires durable_spill and a named spill_path");
    wal_ = std::make_unique<Wal>(config_.wal_path);
    Recover();
  } else {
    DS_PAGER_CHECK(!config_.durable_spill,
                   "durable_spill without a wal_path cannot be recovered");
  }
}

Pager::~Pager() {
  // A clean shutdown of a durable pager ends on a checkpoint: the next open
  // restores the snapshot and replays an (empty) log tail.
  if (wal_ != nullptr && !crashed_) CheckpointInternal();
}

PagerStats Pager::stats() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PagerStats s = stats_;
  s.slot_reads = slot_reads_.load(std::memory_order_relaxed);
  s.slot_writes = slot_writes_.load(std::memory_order_relaxed);
  s.pins = pins_.load(std::memory_order_relaxed);
  if (spill_ != nullptr) s.spill_dead_bytes = spill_->dead_bytes();
  if (wal_ != nullptr) {
    s.wal_records = wal_->records_appended();
    s.wal_bytes = wal_->bytes_appended();
    s.wal_syncs = wal_->syncs();
  }
  return s;
}

void Pager::SyncWal() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (wal_ == nullptr || crashed_) return;
  wal_->Sync();
  DrainDeferredFrees();
}

void Pager::SyncWalThrough(uint64_t lsn) {
  {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    if (wal_ == nullptr || crashed_ || lsn == 0) return;
  }
  // The barrier itself runs without the structural latch: that is the whole
  // point — concurrent committers park inside Wal::SyncThrough and share one
  // fsync while readers keep faulting pages through the pager.
  wal_->SyncThrough(lsn);
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!crashed_) DrainDeferredFrees();
}

void Pager::CrashForTesting() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (wal_ != nullptr) wal_->CrashForTesting(/*keep_os_buffered=*/true);
  if (spill_ != nullptr) spill_->Sync();  // what the page cache would hold
  crashed_ = true;
  // Brackets mid-crash simply never commit; their contexts stay alive (the
  // scratch afterlife still brackets statements, just without a log) and
  // their parked spill frees are dropped — nothing recycles post-crash.
  for (auto& [id, ctx] : txns_) {
    ctx.open = false;
    ctx.deferred_slots.clear();
  }
  open_brackets_ = 0;
  min_open_begin_lsn_ = 0;
}

FileId Pager::CreateFile() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FileId id = next_file_id_++;
  files_.emplace(id, FileChain{});
  if (wal_ != nullptr && !replaying_ && !crashed_) {
    wal_payload_.clear();
    AppendU64(&wal_payload_, id);
    LogStructural(WalRecordType::kCreateFile, wal_payload_);
  }
  return id;
}

Pager::FileChain& Pager::ChainOrDie(FileId file) {
  auto it = files_.find(file);
  DS_PAGER_CHECK(it != files_.end(), "unknown storage file");
  return it->second;
}

const Pager::FileChain& Pager::ChainOrDie(FileId file) const {
  auto it = files_.find(file);
  DS_PAGER_CHECK(it != files_.end(), "unknown storage file");
  return it->second;
}

size_t Pager::FilePages(FileId file) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return ChainOrDie(file).pages.size();
}

uint64_t Pager::FileSize(FileId file) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return ChainOrDie(file).size;
}

bool Pager::IsResident(FileId file, uint64_t page_index) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const FileChain& chain = ChainOrDie(file);
  return page_index < chain.pages.size() && chain.pages[page_index].resident();
}

bool Pager::IsScanClass(FileId file, uint64_t page_index) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const FileChain& chain = ChainOrDie(file);
  if (page_index >= chain.pages.size()) return false;
  const PageRef& ref = chain.pages[page_index];
  return ref.resident() && page_table_[ref.frame]->scan_;
}

SpillFile& Pager::EnsureSpill() {
  if (spill_ == nullptr) {
    spill_ =
        std::make_unique<SpillFile>(config_.spill_path, config_.durable_spill);
  }
  return *spill_;
}

void Pager::WriteBack(ValuePage& page, PageRef& ref) {
  // No-steal: a page dirtied inside an open statement bracket must never
  // reach the spill file — if the bracket is discarded at recovery, the
  // records that would rebuild this page's pre-statement image are inside
  // the bracket too. Victim selection already skips such pages; this is the
  // backstop.
  DS_PAGER_CHECK(!StatementDirty(page),
                 "write-back of a page dirtied by an uncommitted statement");
  // The WAL rule, enforced at the single spot every page write funnels
  // through: the redo records producing this image must be durable before
  // the image can overwrite the on-disk copy (flushed-LSN >= page_lsn).
  // During replay everything in the log is durable by definition.
  if (wal_ != nullptr && !replaying_ && !crashed_) {
    wal_->EnsureDurable(page.page_lsn_);
    // Parked slots whose freeing record is now durable become reusable just
    // in time for the allocation below.
    DrainDeferredFrees();
  }
  SpillFile& spill = EnsureSpill();
  if (ref.spill_slot == SpillFile::kNoSlot) {
    ref.spill_slot = spill.AllocateSlot();
  }
  stats_.spill_bytes_written += spill.WritePage(ref.spill_slot, page);
}

void Pager::ReleaseFrame(PageId id) {
  ValuePage& page = *page_table_[id];
  for (Value& v : page.slots_) v = Value::Null();  // release heap payloads
  if (page.scan_) {
    page.scan_ = false;
    scan_resident_ -= 1;  // any lingering ring entry goes stale and is dropped
  }
  page.file_ = 0;
  page.index_in_file_ = 0;
  page.page_lsn_ = 0;
  page.dirty_ = false;
  page.referenced_ = false;
  free_frames_.push_back(id);
  resident_pages_ -= 1;
}

void Pager::EvictPage(ValuePage& page) {
  DS_PAGER_CHECK(!page.is_free() && page.pin_count_ == 0,
                 "evicting a free or pinned page");
  FileChain& chain = ChainOrDie(page.file_);
  PageRef& ref = chain.pages[page.index_in_file_];
  // A dirty page needs write-back; a clean page only needs one if it has
  // never been spilled (the spill copy is the authoritative one once gone).
  if (page.dirty_ || ref.spill_slot == SpillFile::kNoSlot) {
    WriteBack(page, ref);
    page.dirty_ = false;
  }
  if (page.scan_) stats_.scan_evictions += 1;
  PageId frame = ref.frame;
  ref.frame = PageRef::kNoFrame;
  ReleaseFrame(frame);
  stats_.evictions += 1;
}

bool Pager::ScanEntryValid(const ScanEntry& e) const {
  if (e.frame >= page_table_.size()) return false;
  const ValuePage* page = page_table_[e.frame].get();
  return page != nullptr && page->scan_ && page->file_ == e.file &&
         page->index_in_file_ == e.page;
}

size_t Pager::scan_ring_size() const {
  if (config_.scan_ring_pages > 0) return config_.scan_ring_pages;
  size_t cap = config_.max_resident_pages;
  return std::max(kMinScanRing, cap / 8);
}

ValuePage* Pager::SelectVictim() {
  // Oldest scan-ring page first: a sequential stream recycles its own
  // frames, leaving the clock-managed hot set untouched. Entries are
  // validated lazily; each is considered at most once per call.
  size_t budget = scan_fifo_.size();
  while (budget-- > 0 && !scan_fifo_.empty()) {
    ScanEntry e = scan_fifo_.front();
    scan_fifo_.pop_front();
    if (!ScanEntryValid(e)) continue;  // promoted/evicted/freed: stale
    ValuePage* page = page_table_[e.frame].get();
    if (page->pin_count_ > 0 || StatementDirty(*page)) {
      scan_fifo_.push_back(e);  // still scan-class, just unevictable now
      continue;
    }
    return page;
  }
  return ClockVictim();
}

void Pager::EvictDownTo(size_t target) {
  while (resident_pages_ > target) {
    ValuePage* victim = SelectVictim();
    if (victim == nullptr) break;  // everything left is pinned: overshoot
    EvictPage(*victim);
  }
}

void Pager::EnforceScanRing(PageId keep) {
  size_t ring = scan_ring_size();
  size_t budget = scan_fifo_.size();
  while (scan_resident_ > ring && budget-- > 0 && !scan_fifo_.empty()) {
    ScanEntry e = scan_fifo_.front();
    scan_fifo_.pop_front();
    if (!ScanEntryValid(e)) continue;
    ValuePage* page = page_table_[e.frame].get();
    if (e.frame == keep || page->pin_count_ > 0 || StatementDirty(*page)) {
      scan_fifo_.push_back(e);
      continue;
    }
    EvictPage(*page);
  }
}

void Pager::ClassifyMount(ValuePage& page, PageId frame) {
  if (!mount_sequential_ || !config_.scan_resistant ||
      config_.max_resident_pages == 0) {
    return;  // hot mount: managed by the second-chance clock
  }
  page.scan_ = true;
  scan_resident_ += 1;
  scan_fifo_.push_back(ScanEntry{frame, page.file_, page.index_in_file_});
  // The stream pays for its own footprint immediately: once the ring is
  // full, mounting one more scan page retires the oldest one, keeping the
  // rest of the pool free for the hot set even before the cap binds.
  EnforceScanRing(frame);
}

void Pager::MaybePromote(ValuePage& page) {
  if (page.scan_ && !mount_sequential_) {
    // A point access re-used a scan page: it is hot after all. Its ring
    // entry goes stale; from here the clock governs it.
    page.scan_ = false;
    scan_resident_ -= 1;
  }
}

void Pager::NoteSlotAccess(FileChain& chain, uint64_t page_index) {
  mount_sequential_ = chain.seq.Note(page_index);
}

PageId Pager::AcquireFrame() {
  if (config_.max_resident_pages > 0 &&
      resident_pages_ >= config_.max_resident_pages) {
    // Make room so the pool stays at its cap after the new page mounts.
    EvictDownTo(config_.max_resident_pages - 1);
  }
  if (!free_frames_.empty()) {
    PageId id = free_frames_.back();
    free_frames_.pop_back();
    // A shell released by a runtime cap shrink is rebuilt on reuse.
    if (page_table_[id] == nullptr) {
      page_table_[id] = std::make_unique<ValuePage>();
    }
    return id;
  }
  page_table_.push_back(std::make_unique<ValuePage>());
  EnsureFrameLatches();
  return page_table_.size() - 1;
}

void Pager::EnsureFrameLatches() {
  // Grow-only, and a deque so existing latches never move: a cursor may be
  // blocked on frame i's latch while frame i+1 is being created.
  while (frame_latches_.size() < page_table_.size()) {
    frame_latches_.emplace_back();
  }
}

void Pager::FaultIn(FileId file, FileChain& chain, uint64_t page_index) {
  PageRef& ref = chain.pages[page_index];
  DS_PAGER_CHECK(!ref.resident(), "faulting a resident page");
  PageId frame = AcquireFrame();  // may evict; `ref` stays valid (no resize)
  ValuePage& page = *page_table_[frame];
  page.file_ = file;
  page.index_in_file_ = page_index;
  page.referenced_ = true;
  ref.frame = frame;
  resident_pages_ += 1;
  if (ref.spill_slot != SpillFile::kNoSlot) {
    stats_.spill_bytes_read += spill_->ReadPage(ref.spill_slot, &page);
  }
  // else: a never-written page known only from recovery metadata — the
  // frame is already all-NULL (frames are scrubbed on release).
  if (in_readahead_) {
    stats_.readaheads += 1;  // speculative load, not a demand stall
  } else {
    stats_.faults += 1;
  }
  ClassifyMount(page, frame);
  // Sequential readahead: the stream will want the next chain page in a
  // moment — load it now, turning two demand stalls into one batched pass
  // over the spill file. The demand page is pinned across the recursive
  // fault so making room can never take the frame just mounted.
  if (mount_sequential_ && config_.readahead && !in_readahead_ &&
      config_.max_resident_pages > 0 && page_index + 1 < chain.pages.size()) {
    const PageRef& next = chain.pages[page_index + 1];
    if (!next.resident() && next.spill_slot != SpillFile::kNoSlot) {
      in_readahead_ = true;
      page.pin_count_ += 1;
      FaultIn(file, chain, page_index + 1);
      page.pin_count_ -= 1;
      in_readahead_ = false;
    }
  }
}

void Pager::FreePage(PageRef& ref, std::vector<uint64_t>* deferred_slots) {
  if (ref.resident()) {
    ValuePage& page = *page_table_[ref.frame];
    DS_PAGER_CHECK(page.pin_count_ == 0, "freeing a pinned page");
    ReleaseFrame(ref.frame);
    ref.frame = PageRef::kNoFrame;
  }
  if (ref.spill_slot != SpillFile::kNoSlot) {
    if (deferred_slots != nullptr) {
      deferred_slots->push_back(ref.spill_slot);
    } else {
      spill_->FreeSlot(ref.spill_slot);
    }
    ref.spill_slot = SpillFile::kNoSlot;
  }
  stats_.pages_freed += 1;
}

void Pager::DeferSpillFrees(const std::vector<uint64_t>& slots, uint64_t lsn) {
  if (slots.empty()) return;
  // Freed spill slots may be recycled by the very next eviction, overwriting
  // bases a replay without the freeing record would still need. PR 4 closed
  // that window with an fsync per structural op; now the slots are simply
  // parked until durability catches up on its own (next sync/checkpoint) —
  // structural ops pay no barrier at all. `lsn` is the start offset of a
  // record the caller appended this very call, so it is never durable yet
  // (durable_lsn is the synced *end* boundary): always park.
  for (uint64_t slot : slots) {
    deferred_frees_.push_back(DeferredFree{slot, lsn});
  }
}

void Pager::DrainDeferredFrees() {
  if (deferred_frees_.empty()) return;
  uint64_t durable = wal_->durable_lsn();
  while (!deferred_frees_.empty() && deferred_frees_.front().lsn < durable) {
    spill_->FreeSlot(deferred_frees_.front().spill_slot);
    deferred_frees_.pop_front();
  }
}

void Pager::DropFile(FileId file) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FileChain& chain = ChainOrDie(file);
  bool defer = wal_ != nullptr && !replaying_ && !crashed_;
  std::vector<uint64_t> freed;
  for (PageRef& ref : chain.pages) {
    FreePage(ref, defer ? &freed : nullptr);
  }
  files_.erase(file);
  if (defer) {
    wal_payload_.clear();
    AppendU64(&wal_payload_, file);
    uint64_t lsn = AppendRecord(WalRecordType::kDropFile, wal_payload_);
    // Inside an open bracket the freed slots park on the context until its
    // closing record has an LSN (CloseCtx); a discarded bracket must never
    // have recycled a base it still referenced.
    TxnContext* ctx = CurrentCtxLocked();
    if (ctx != nullptr && ctx->open) {
      ctx->deferred_slots.insert(ctx->deferred_slots.end(), freed.begin(),
                                 freed.end());
    } else {
      DeferSpillFrees(freed, lsn);
    }
    MaybeAutoCheckpoint();
  }
}

void Pager::EnsureCapacity(FileId file, FileChain& chain, uint64_t slot) {
  size_t pages_before = chain.pages.size();
  while (chain.pages.size() * kSlotsPerPage <= slot) {
    PageId frame = AcquireFrame();
    ValuePage& page = *page_table_[frame];
    page.file_ = file;
    page.index_in_file_ = chain.pages.size();
    PageRef ref;
    ref.frame = frame;
    chain.pages.push_back(ref);
    resident_pages_ += 1;
    stats_.pages_allocated += 1;
    ClassifyMount(page, frame);
  }
  if (chain.pages.size() != pages_before && wal_ != nullptr && !replaying_ && !crashed_) {
    // Capacity is durable state (FilePages/addressability): replay regrows
    // the chain before the update records that write into it.
    wal_payload_.clear();
    AppendU64(&wal_payload_, file);
    AppendU64(&wal_payload_, chain.pages.size());
    LogStructural(WalRecordType::kGrow, wal_payload_);
  }
}

void Pager::RecordRead(FileId file, uint64_t slot, ValuePage& page) {
  page.referenced_ = true;
  if (!accounting_.load(std::memory_order_relaxed)) return;
  slot_reads_.fetch_add(1, std::memory_order_relaxed);
  NoteEpochRead(file, slot / kSlotsPerPage);
}

void Pager::RecordWrite(FileId file, uint64_t slot, ValuePage& page) {
  page.referenced_ = true;
  page.dirty_ = true;
  if (!accounting_.load(std::memory_order_relaxed)) return;
  slot_writes_.fetch_add(1, std::memory_order_relaxed);
  NoteEpochWrite(file, slot / kSlotsPerPage);
}

void Pager::NoteEpochRead(FileId file, uint64_t page_index) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  epoch_read_.insert(PageKey{file, page_index});
}

void Pager::NoteEpochWrite(FileId file, uint64_t page_index) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  epoch_written_.insert(PageKey{file, page_index});
}

Value Pager::Read(FileId file, uint64_t slot) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FileChain& chain = ChainOrDie(file);
  DS_PAGER_CHECK(slot < chain.pages.size() * kSlotsPerPage,
                 "read past file end");
  NoteSlotAccess(chain, slot / kSlotsPerPage);
  ValuePage& page = PageForSlot(file, chain, slot);
  MaybePromote(page);
  RecordRead(file, slot, page);
  return page.slot(slot % kSlotsPerPage);
}

void Pager::ReadRange(FileId file, uint64_t start, uint64_t count, Row* out) {
  if (count == 0) return;
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FileChain& chain = ChainOrDie(file);
  DS_PAGER_CHECK(start + count <= chain.pages.size() * kSlotsPerPage,
                 "read range past file end");
  out->reserve(out->size() + count);
  // Page by page: each page is faulted in (possibly evicting an earlier one
  // of this very range — its values are already copied out) and drained
  // before the next, so a range wider than the pool still works.
  uint64_t s = start;
  const uint64_t end = start + count;
  while (s < end) {
    uint64_t page_index = s / kSlotsPerPage;
    uint64_t page_end = std::min(end, (page_index + 1) * kSlotsPerPage);
    NoteSlotAccess(chain, page_index);
    ValuePage& page = PageAt(file, chain, page_index);
    MaybePromote(page);
    page.referenced_ = true;
    if (accounting_.load(std::memory_order_relaxed)) {
      NoteEpochRead(file, page_index);
    }
    {
      std::shared_lock<std::shared_mutex> data(
          frame_latches_[chain.pages[page_index].frame]);
      for (; s < page_end; ++s) {
        out->push_back(page.slot(s % kSlotsPerPage));
      }
    }
  }
  if (accounting_.load(std::memory_order_relaxed)) {
    slot_reads_.fetch_add(count, std::memory_order_relaxed);
  }
}

void Pager::Write(FileId file, uint64_t slot, Value v) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FileChain& chain = ChainOrDie(file);
  NoteSlotAccess(chain, slot / kSlotsPerPage);
  EnsureCapacity(file, chain, slot);
  if (slot >= chain.size) chain.size = slot + 1;
  ValuePage& page = PageForSlot(file, chain, slot);
  MaybePromote(page);
  RecordWrite(file, slot, page);
  {
    // Latch order mu_ -> frame latch: cursor readers hold only the data
    // latch, so the mutation itself must take it exclusively.
    std::unique_lock<std::shared_mutex> data(
        frame_latches_[chain.pages[slot / kSlotsPerPage].frame]);
    page.slot(slot % kSlotsPerPage) = std::move(v);
  }
  LogPageMutation(file, chain, slot / kSlotsPerPage, slot % kSlotsPerPage, 1);
}

void Pager::WriteRange(FileId file, uint64_t start, const Value* values,
                       uint64_t count) {
  if (count == 0) return;
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FileChain& chain = ChainOrDie(file);
  uint64_t s = start;
  const uint64_t end = start + count;
  while (s < end) {
    uint64_t page_index = s / kSlotsPerPage;
    uint64_t page_end = std::min(end, (page_index + 1) * kSlotsPerPage);
    NoteSlotAccess(chain, page_index);
    EnsureCapacity(file, chain, page_end - 1);
    ValuePage& page = PageAt(file, chain, page_index);
    MaybePromote(page);
    page.referenced_ = true;
    page.dirty_ = true;
    if (accounting_.load(std::memory_order_relaxed)) {
      NoteEpochWrite(file, page_index);
    }
    uint64_t seg_start = s;
    {
      std::unique_lock<std::shared_mutex> data(
          frame_latches_[chain.pages[page_index].frame]);
      for (; s < page_end; ++s) {
        page.slot(s % kSlotsPerPage) = values[s - start];
      }
    }
    // Size advances with the covered prefix, so each per-page redo record
    // is a self-consistent state (a torn log replays to a clean prefix).
    if (s > chain.size) chain.size = s;
    LogPageMutation(file, chain, page_index, seg_start % kSlotsPerPage,
                    s - seg_start);
  }
  if (accounting_.load(std::memory_order_relaxed)) {
    slot_writes_.fetch_add(count, std::memory_order_relaxed);
  }
}

Value Pager::Take(FileId file, uint64_t slot) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FileChain& chain = ChainOrDie(file);
  DS_PAGER_CHECK(slot < chain.pages.size() * kSlotsPerPage,
                 "take past file end");
  NoteSlotAccess(chain, slot / kSlotsPerPage);
  ValuePage& page = PageForSlot(file, chain, slot);
  MaybePromote(page);
  RecordRead(file, slot, page);
  // Nulling the slot mutates the page: without the dirty bit an eviction
  // could skip write-back and resurrect the taken value from a stale spill
  // copy. Accounting-wise Take still counts as a read (unchanged).
  page.dirty_ = true;
  Value out;
  {
    std::unique_lock<std::shared_mutex> data(
        frame_latches_[chain.pages[slot / kSlotsPerPage].frame]);
    out = std::exchange(page.slot(slot % kSlotsPerPage), Value::Null());
  }
  LogPageMutation(file, chain, slot / kSlotsPerPage, slot % kSlotsPerPage, 1);
  return out;
}

void Pager::Truncate(FileId file, uint64_t slot_count) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FileChain& chain = ChainOrDie(file);
  if (slot_count >= chain.size) return;
  mount_sequential_ = false;  // a boundary-page fault-in is a hot mount
  // Clear vacated slots on the surviving boundary page, so Value payloads
  // (strings) are released even without a page free. An evicted boundary
  // page is faulted in and re-marked dirty so the clearing reaches its spill
  // copy on the next write-back.
  size_t keep_pages =
      static_cast<size_t>((slot_count + kSlotsPerPage - 1) / kSlotsPerPage);
  ValuePage* boundary = nullptr;
  if (slot_count < keep_pages * kSlotsPerPage) {
    ValuePage& page = PageAt(file, chain, keep_pages - 1);
    // Torn-page defense for the boundary page: its *pre-truncate* image is
    // logged when it has none this checkpoint epoch, so replay restores the
    // base and re-runs the clearing from the kTruncate record — recovery
    // never depends on the (possibly torn) spill copy of a page this very
    // call is about to dirty. Auto-checkpointing is suppressed here: a
    // checkpoint between this image and the kTruncate record would discard
    // the image while the clearing below stays unlogged (it checkpoints at
    // the tail of this call instead, once the pair has landed).
    if (wal_ != nullptr && !replaying_ && !crashed_ &&
        chain.pages[keep_pages - 1].fpi_lsn <= last_checkpoint_lsn_) {
      LogPageMutation(file, chain, keep_pages - 1, 0, kSlotsPerPage,
                      /*allow_auto_checkpoint=*/false);
    }
    {
      std::unique_lock<std::shared_mutex> data(
          frame_latches_[chain.pages[keep_pages - 1].frame]);
      for (uint64_t s = slot_count;
           s < chain.size && s < keep_pages * kSlotsPerPage; ++s) {
        page.slot(s % kSlotsPerPage) = Value::Null();
      }
    }
    page.dirty_ = true;  // not accounted: truncation is not a page write
    boundary = &page;
  }
  bool defer = wal_ != nullptr && !replaying_ && !crashed_;
  std::vector<uint64_t> freed;
  while (chain.pages.size() > keep_pages) {
    FreePage(chain.pages.back(), defer ? &freed : nullptr);
    chain.pages.pop_back();
  }
  chain.size = slot_count;
  if (chain.seq.last_page != kNoPageIndex &&
      chain.seq.last_page >= keep_pages) {
    chain.seq = SeqDetector{};  // the detector must not span freed pages
  }
  if (defer) {
    wal_payload_.clear();
    AppendU64(&wal_payload_, file);
    AppendU64(&wal_payload_, slot_count);
    uint64_t lsn = AppendRecord(WalRecordType::kTruncate, wal_payload_);
    // The clearing above is redone by replaying Truncate itself; the
    // boundary page's newest redo is therefore this record.
    if (boundary != nullptr) boundary->page_lsn_ = lsn;
    // Same reuse hazard as DropFile: freed tail slots stay parked until the
    // truncate record that frees them is durable (DeferSpillFrees). Inside
    // an open bracket they park on the owning context instead — CloseCtx
    // re-parks them at the closing record's LSN, so a discarded bracket
    // can never have recycled a base it still referenced.
    TxnContext* ctx = CurrentCtxLocked();
    if (ctx != nullptr && ctx->open) {
      ctx->deferred_slots.insert(ctx->deferred_slots.end(), freed.begin(),
                                 freed.end());
    } else {
      DeferSpillFrees(freed, lsn);
    }
    MaybeAutoCheckpoint();
  }
}

ValuePage* Pager::Pin(FileId file, uint64_t page_index) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FileChain& chain = ChainOrDie(file);
  mount_sequential_ = false;  // explicit pins are hot accesses
  EnsureCapacity(file, chain, page_index * kSlotsPerPage);
  ValuePage& page = PageAt(file, chain, page_index);
  MaybePromote(page);
  page.pin_count_ += 1;
  page.referenced_ = true;
  pins_.fetch_add(1, std::memory_order_relaxed);
  if (accounting_.load(std::memory_order_relaxed)) {
    NoteEpochRead(file, page_index);
    slot_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  return &page;
}

void Pager::Unpin(ValuePage* page, bool dirtied) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  DS_PAGER_CHECK(page != nullptr && page->pin_count_ > 0, "unbalanced Unpin");
  page->pin_count_ -= 1;
  if (dirtied) {
    page->dirty_ = true;
    if (accounting_.load(std::memory_order_relaxed)) {
      NoteEpochWrite(page->file_, page->index_in_file_);
      slot_writes_.fetch_add(1, std::memory_order_relaxed);
    }
    // Pin hands out raw slot access, so which slots changed is unknown:
    // the redo record is a full-page image.
    if (wal_ != nullptr && !replaying_ && !crashed_) {
      FileChain& chain = ChainOrDie(page->file_);
      LogPageMutation(page->file_, chain, page->index_in_file_, 0,
                      kSlotsPerPage);
    }
  }
}

size_t Pager::pinned_pages() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  size_t n = 0;
  for (const auto& page : page_table_) {
    if (page != nullptr && !page->is_free() && page->pin_count_ > 0) ++n;
  }
  return n;
}

ValuePage* Pager::ClockVictim() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (resident_pages_ == 0 || page_table_.empty()) return nullptr;
  // Bounded sweep — two revolutions: the first may only clear reference
  // bits, the second must then find any unpinned page. Termination does not
  // depend on pin state, so an all-pinned (or all-statement-dirty: no-steal)
  // pool yields nullptr, never a hang or an unevictable frame.
  size_t limit = page_table_.size() * 2;
  for (size_t step = 0; step < limit; ++step) {
    ValuePage* candidate = page_table_[clock_hand_].get();
    clock_hand_ = (clock_hand_ + 1) % page_table_.size();
    if (candidate == nullptr) continue;  // released shell (cap shrink)
    ValuePage& page = *candidate;
    if (page.is_free() || page.pin_count_ > 0 || StatementDirty(page)) {
      continue;
    }
    if (page.referenced_) {
      page.referenced_ = false;  // second chance
      continue;
    }
    return &page;
  }
  return nullptr;  // every resident page is pinned (or no-steal protected)
}

size_t Pager::FlushAll() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (wal_ != nullptr) {
    // A checkpoint snapshot must not split an open bracket (of any
    // transaction) across the log rewrite. The Database layer rolls back
    // its open transactions before Close()/Checkpoint(); if a caller still
    // gets here mid-bracket, skip rather than abort — the last bracket
    // close runs any deferred auto-checkpoint.
    if (open_brackets_ > 0) return 0;
    return CheckpointInternal();
  }
  size_t flushed = 0;
  for (const auto& page : page_table_) {
    if (page == nullptr || page->is_free() || !page->dirty_) continue;
    FileChain& chain = ChainOrDie(page->file_);
    WriteBack(*page, chain.pages[page->index_in_file_]);
    page->dirty_ = false;
    ++flushed;
  }
  stats_.pages_flushed += flushed;
  return flushed;
}

void Pager::set_max_resident_pages(size_t cap) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  config_.max_resident_pages = cap;
  if (cap == 0) return;
  EvictDownTo(cap);
  // A shrink must actually release memory, not just move pages to disk:
  // drop the ValuePage shells of every free frame (each holds a 256-slot
  // array) and compact trailing holes so clock sweeps stay proportional to
  // the new pool size. Interior holes are kept as ids (frames are addressed
  // by stable index) and rebuilt on reuse.
  for (PageId id : free_frames_) page_table_[id].reset();
  while (!page_table_.empty() && page_table_.back() == nullptr) {
    page_table_.pop_back();
  }
  free_frames_.erase(
      std::remove_if(free_frames_.begin(), free_frames_.end(),
                     [&](PageId id) { return id >= page_table_.size(); }),
      free_frames_.end());
  if (clock_hand_ >= page_table_.size()) clock_hand_ = 0;
}

void Pager::BeginEpoch() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  epoch_read_.clear();
  epoch_written_.clear();
}

// ---------------------------------------------------------------------------
// Durability: redo logging, fuzzy checkpoints, recovery (DESIGN.md §6)
// ---------------------------------------------------------------------------

void Pager::LogPageMutation(FileId file, FileChain& chain, uint64_t page_index,
                            uint64_t first, uint64_t count,
                            bool allow_auto_checkpoint) {
  if (wal_ == nullptr || replaying_ || crashed_) return;
  PageRef& ref = chain.pages[page_index];
  ValuePage& page = *page_table_[ref.frame];
  // First mutation of the page since the checkpoint? Upgrade to a full-page
  // image: replay then never needs this page's spill base, which a torn
  // post-checkpoint write-back may have destroyed. A range already spanning
  // the page is an image by construction.
  bool image = count == kSlotsPerPage ||
               ref.fpi_lsn <= last_checkpoint_lsn_;
  if (image) {
    first = 0;
    count = kSlotsPerPage;
  }
  wal_payload_.clear();
  AppendU64(&wal_payload_, file);
  AppendU64(&wal_payload_, page_index);
  AppendU16(&wal_payload_, static_cast<uint16_t>(first));
  AppendU16(&wal_payload_, static_cast<uint16_t>(count));
  AppendU64(&wal_payload_, chain.size);
  for (uint64_t i = first; i < first + count; ++i) {
    EncodeValue(page.slot(i), &wal_payload_);
  }
  uint64_t lsn = AppendRecord(WalRecordType::kUpdate, wal_payload_);
  page.page_lsn_ = lsn;
  if (image) ref.fpi_lsn = lsn;
  if (allow_auto_checkpoint) MaybeAutoCheckpoint();
}

void Pager::LogStructural(WalRecordType type, const std::string& payload) {
  AppendRecord(type, payload);
  MaybeAutoCheckpoint();
}

uint64_t Pager::AppendRecord(WalRecordType type, const std::string& payload) {
  TxnId txn = CurrentBoundTxnLocked();
  if (txn == 0) return wal_->Append(type, payload);
  TxnContext& ctx = txns_.at(txn);
  // Lazy bracket open: the first record a bracketed statement logs is
  // preceded by kTxnBegin(txn), so a statement that logs nothing leaves no
  // trace in the log at all.
  if (!ctx.open) {
    wal_wrap_.clear();
    AppendU64(&wal_wrap_, txn);
    ctx.begin_lsn = wal_->Append(WalRecordType::kTxnBegin, wal_wrap_);
    ctx.open = true;
    open_brackets_ += 1;
    // Begin LSNs are monotone, so a new bracket can only *set* the min.
    if (open_brackets_ == 1) min_open_begin_lsn_ = ctx.begin_lsn;
  }
  // Envelope: txn id + inner type + inner payload, so records of
  // concurrently open brackets can interleave in one log.
  wal_wrap_.clear();
  wal_wrap_.reserve(9 + payload.size());
  AppendU64(&wal_wrap_, txn);
  wal_wrap_.push_back(static_cast<char>(type));
  wal_wrap_.append(payload);
  return wal_->Append(WalRecordType::kTxnData, wal_wrap_);
}

Pager::TxnContext* Pager::CurrentCtxLocked() {
  auto& binds = tls_txn_binds;
  for (size_t i = binds.size(); i-- > 0;) {
    if (binds[i].pager_uid != pager_uid_) continue;
    auto it = txns_.find(binds[i].txn);
    if (it == txns_.end()) {
      // Stale binding (context force-closed); prune lazily.
      binds.erase(binds.begin() + static_cast<ptrdiff_t>(i));
      continue;
    }
    return &it->second;
  }
  return nullptr;
}

TxnId Pager::CurrentBoundTxnLocked() {
  auto& binds = tls_txn_binds;
  for (size_t i = binds.size(); i-- > 0;) {
    if (binds[i].pager_uid != pager_uid_) continue;
    if (txns_.count(binds[i].txn) == 0) {
      binds.erase(binds.begin() + static_cast<ptrdiff_t>(i));
      continue;
    }
    return binds[i].txn;
  }
  return 0;
}

TxnId Pager::BeginStatement(TxnId txn) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (txn == 0) txn = CurrentBoundTxnLocked();
  if (txn == 0) {
    txn = next_txn_id_++;
    TxnContext ctx;
    ctx.autocommit = true;
    txns_.emplace(txn, std::move(ctx));
  }
  auto it = txns_.find(txn);
  DS_PAGER_CHECK(it != txns_.end(),
                 "BeginStatement under an unknown transaction");
  it->second.depth += 1;
  tls_txn_binds.push_back(TxnBindEntry{pager_uid_, txn});
  return txn;
}

uint64_t Pager::EndStatement(bool commit) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Pop this thread's innermost binding for this pager (statements nest
  // LIFO per thread).
  auto& binds = tls_txn_binds;
  TxnId txn = 0;
  for (size_t i = binds.size(); i-- > 0;) {
    if (binds[i].pager_uid != pager_uid_) continue;
    txn = binds[i].txn;
    binds.erase(binds.begin() + static_cast<ptrdiff_t>(i));
    break;
  }
  DS_PAGER_CHECK(txn != 0, "EndStatement without BeginStatement");
  auto it = txns_.find(txn);
  DS_PAGER_CHECK(it != txns_.end(), "EndStatement on a closed transaction");
  DS_PAGER_CHECK(it->second.depth > 0, "unbalanced EndStatement");
  it->second.depth -= 1;
  if (it->second.depth > 0 || !it->second.autocommit) return 0;
  return CloseCtx(txn, commit);
}

TxnId Pager::BeginTxn() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  TxnId txn = next_txn_id_++;
  TxnContext ctx;
  ctx.depth = 1;  // held by the transaction itself until Commit/AbortTxn
  txns_.emplace(txn, std::move(ctx));
  return txn;
}

uint64_t Pager::CommitTxn(TxnId txn) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = txns_.find(txn);
  DS_PAGER_CHECK(it != txns_.end(), "CommitTxn on an unknown transaction");
  DS_PAGER_CHECK(it->second.depth == 1 && !it->second.autocommit,
                 "CommitTxn with statements still open");
  it->second.depth = 0;
  return CloseCtx(txn, /*commit=*/true);
}

uint64_t Pager::AbortTxn(TxnId txn) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = txns_.find(txn);
  DS_PAGER_CHECK(it != txns_.end(), "AbortTxn on an unknown transaction");
  DS_PAGER_CHECK(it->second.depth == 1 && !it->second.autocommit,
                 "AbortTxn with statements still open");
  it->second.depth = 0;
  return CloseCtx(txn, /*commit=*/false);
}

void Pager::RecomputeMinOpenBeginLsn() {
  if (open_brackets_ == 0) {
    min_open_begin_lsn_ = 0;
    return;
  }
  min_open_begin_lsn_ = ~0ull;
  for (const auto& [id, ctx] : txns_) {
    if (ctx.open && ctx.begin_lsn < min_open_begin_lsn_) {
      min_open_begin_lsn_ = ctx.begin_lsn;
    }
  }
}

uint64_t Pager::CloseCtx(TxnId txn, bool commit) {
  auto it = txns_.find(txn);
  TxnContext ctx = std::move(it->second);
  txns_.erase(it);
  uint64_t end = 0;
  if (ctx.open) {
    // Close the bracket. An abort closes it too: by now the caller's
    // logged rollback compensations sit inside the bracket, so replaying
    // it is a net no-op — what matters for recovery is only that the
    // bracket is *closed* (an open one is discarded wholesale).
    open_brackets_ -= 1;
    RecomputeMinOpenBeginLsn();
    if (wal_ != nullptr && !crashed_) {
      wal_wrap_.clear();
      AppendU64(&wal_wrap_, txn);
      uint64_t lsn = wal_->Append(
          commit ? WalRecordType::kTxnCommit : WalRecordType::kTxnAbort,
          wal_wrap_);
      // Spill slots freed inside the bracket recycle once the *bracket* is
      // durable, i.e. past the closing record.
      DeferSpillFrees(ctx.deferred_slots, lsn);
      // The record's *end* boundary: what SyncWalThrough must reach for
      // the commit to be durable.
      end = lsn + Wal::kRecordHeaderBytes + 1 + wal_wrap_.size();
    }
  }
  // An auto-checkpoint that triggered mid-bracket was held back (a snapshot
  // must not split a bracket across the log rewrite); run it once the last
  // bracket closes.
  if (open_brackets_ == 0 && checkpoint_pending_ &&
      checkpoint_defer_depth_ == 0 && wal_ != nullptr && !crashed_) {
    checkpoint_pending_ = false;
    MaybeAutoCheckpoint();
  }
  return end;
}

void Pager::MaybeAutoCheckpoint() {
  if (config_.wal_auto_checkpoint_bytes == 0 || in_checkpoint_) return;
  if (wal_->bytes_since_checkpoint() < config_.wal_auto_checkpoint_bytes) {
    return;
  }
  if (checkpoint_defer_depth_ > 0 || open_brackets_ > 0) {
    // Mid-operation (see CheckpointDeferral) or mid-bracket: latch and
    // run at scope exit / last bracket close, so a snapshot can never
    // capture a half-applied logical change or split a bracket.
    checkpoint_pending_ = true;
    return;
  }
  CheckpointInternal();
}

size_t Pager::CheckpointInternal() {
  DS_PAGER_CHECK(wal_ != nullptr && !in_checkpoint_,
                 "checkpoint without a WAL or re-entered");
  DS_PAGER_CHECK(open_brackets_ == 0,
                 "checkpoint inside an open statement bracket");
  in_checkpoint_ = true;
  // Begin record: the dirty-page table as of checkpoint start. Redo-only
  // replay does not need it (it replays everything since the snapshot), but
  // it brackets the fuzzy checkpoint in the old log for offline tooling and
  // makes a crash mid-checkpoint diagnosable.
  wal_payload_.clear();
  std::vector<const ValuePage*> dirty;
  for (const auto& page : page_table_) {
    if (page != nullptr && !page->is_free() && page->dirty_) {
      dirty.push_back(page.get());
    }
  }
  AppendU32(&wal_payload_, static_cast<uint32_t>(dirty.size()));
  for (const ValuePage* page : dirty) {
    AppendU64(&wal_payload_, page->file_);
    AppendU64(&wal_payload_, page->index_in_file_);
  }
  wal_->Append(WalRecordType::kCheckpointBegin, wal_payload_);
  // The WAL rule wholesale: every record producing the images about to be
  // written is made durable by one sync instead of per-page EnsureDurable.
  wal_->Sync();
  // Everything parked is durable now; release it so the snapshot's spill
  // directory lists those slots as free.
  DrainDeferredFrees();

  size_t flushed = 0;
  for (const auto& page : page_table_) {
    if (page == nullptr || page->is_free() || !page->dirty_) continue;
    FileChain& chain = ChainOrDie(page->file_);
    WriteBack(*page, chain.pages[page->index_in_file_]);
    page->dirty_ = false;
    ++flushed;
  }
  if (spill_ != nullptr) spill_->Sync();

  // Atomic log swap: the new log is just the metadata snapshot (plus the
  // checkpoint-end bracket). Every page image the snapshot's directory
  // points at is on disk and fsynced, so replay-from-here is complete; the
  // old log — if a crash preserves it instead — replays idempotently over
  // the newer spill state thanks to full-page images.
  std::string snapshot;
  BuildSnapshot(&snapshot);
  last_checkpoint_lsn_ = wal_->RewriteWithCheckpoint(snapshot);
  stats_.pages_flushed += flushed;
  in_checkpoint_ = false;
  return flushed;
}

void Pager::BuildSnapshot(std::string* out) const {
  out->clear();
  AppendU64(out, next_file_id_);
  AppendU32(out, static_cast<uint32_t>(files_.size()));
  for (const auto& [id, chain] : files_) {
    AppendU64(out, id);
    AppendU64(out, chain.size);
    AppendU64(out, chain.pages.size());
    for (const PageRef& ref : chain.pages) {
      AppendU64(out, ref.spill_slot);
    }
  }
  SpillFile::DirectorySnapshot dir;
  if (spill_ != nullptr) dir = spill_->ExportDirectory();
  AppendU64(out, dir.slots.size());
  for (const SpillFile::Record& rec : dir.slots) {
    AppendU64(out, rec.offset);
    AppendU32(out, rec.capacity);
    AppendU32(out, rec.length);
  }
  AppendU32(out, static_cast<uint32_t>(dir.free_slots.size()));
  for (uint64_t slot : dir.free_slots) AppendU64(out, slot);
  AppendU64(out, dir.end_offset);
  AppendU64(out, dir.dead_bytes);
  // Catalog section. With a live provider the blob is serialized fresh and
  // subsumes any earlier DDL records; without one (recovery-time checkpoint,
  // plain-pager users) the recovered blob and DDL list are carried forward
  // verbatim so a checkpoint can never lose catalog state the pager does
  // not understand. Absent entirely in pre-catalog (PR 4) snapshots, which
  // RestoreSnapshot treats as an empty section.
  if (catalog_provider_) {
    std::string blob;
    catalog_provider_(&blob);
    AppendU64(out, blob.size());
    out->append(blob);
    AppendU32(out, 0);
  } else {
    AppendU64(out, catalog_blob_.size());
    out->append(catalog_blob_);
    AppendU32(out, static_cast<uint32_t>(catalog_ddl_.size()));
    for (const CatalogRecord& rec : catalog_ddl_) {
      out->push_back(static_cast<char>(rec.type));
      AppendU64(out, rec.payload.size());
      out->append(rec.payload);
    }
  }
}

void Pager::RestoreSnapshot(const std::string& payload) {
  // The payload survived a CRC check; a parse failure here is corruption of
  // a kind the CRC cannot produce (or a version skew) — abort loudly.
  size_t pos = 0;
  uint32_t n_files = 0;
  bool ok = ReadU64(payload, &pos, &next_file_id_) &&
            ReadU32(payload, &pos, &n_files);
  for (uint32_t i = 0; ok && i < n_files; ++i) {
    uint64_t id = 0, size = 0, n_pages = 0;
    ok = ReadU64(payload, &pos, &id) && ReadU64(payload, &pos, &size) &&
         ReadU64(payload, &pos, &n_pages);
    if (!ok) break;
    FileChain chain;
    chain.size = size;
    chain.pages.resize(static_cast<size_t>(n_pages));
    for (uint64_t p = 0; ok && p < n_pages; ++p) {
      ok = ReadU64(payload, &pos, &chain.pages[p].spill_slot);
    }
    files_.emplace(id, std::move(chain));
  }
  SpillFile::DirectorySnapshot dir;
  uint64_t n_slots = 0;
  ok = ok && ReadU64(payload, &pos, &n_slots);
  dir.slots.resize(static_cast<size_t>(n_slots));
  for (uint64_t i = 0; ok && i < n_slots; ++i) {
    ok = ReadU64(payload, &pos, &dir.slots[i].offset) &&
         ReadU32(payload, &pos, &dir.slots[i].capacity) &&
         ReadU32(payload, &pos, &dir.slots[i].length);
  }
  uint32_t n_free = 0;
  ok = ok && ReadU32(payload, &pos, &n_free);
  dir.free_slots.resize(n_free);
  for (uint32_t i = 0; ok && i < n_free; ++i) {
    ok = ReadU64(payload, &pos, &dir.free_slots[i]);
  }
  ok = ok && ReadU64(payload, &pos, &dir.end_offset) &&
       ReadU64(payload, &pos, &dir.dead_bytes);
  // Catalog section (absent in pre-catalog snapshots: those end right here).
  catalog_blob_.clear();
  catalog_ddl_.clear();
  if (ok && pos < payload.size()) {
    uint64_t blob_len = 0;
    ok = ReadU64(payload, &pos, &blob_len) &&
         pos + blob_len <= payload.size();
    if (ok) {
      catalog_blob_.assign(payload, pos, static_cast<size_t>(blob_len));
      pos += static_cast<size_t>(blob_len);
    }
    uint32_t n_ddl = 0;
    ok = ok && ReadU32(payload, &pos, &n_ddl);
    for (uint32_t i = 0; ok && i < n_ddl; ++i) {
      CatalogRecord rec;
      uint64_t len = 0;
      ok = pos < payload.size();
      if (ok) {
        rec.type = static_cast<WalRecordType>(
            static_cast<unsigned char>(payload[pos]));
        pos += 1;
      }
      ok = ok && ReadU64(payload, &pos, &len) && pos + len <= payload.size();
      if (ok) {
        rec.payload.assign(payload, pos, static_cast<size_t>(len));
        pos += static_cast<size_t>(len);
        catalog_ddl_.push_back(std::move(rec));
      }
    }
  }
  ok = ok && pos == payload.size();
  DS_PAGER_CHECK(ok, "malformed WAL checkpoint snapshot");
  if (!dir.slots.empty() || dir.end_offset > 0) {
    EnsureSpill().RestoreDirectory(dir);
  }
}

ValuePage& Pager::MountEmpty(FileId file, FileChain& chain,
                             uint64_t page_index) {
  mount_sequential_ = false;  // replay mounts are hot
  PageId frame = AcquireFrame();  // may evict; frames come back scrubbed
  ValuePage& page = *page_table_[frame];
  page.file_ = file;
  page.index_in_file_ = page_index;
  page.referenced_ = true;
  chain.pages[page_index].frame = frame;
  resident_pages_ += 1;
  return page;
}

void Pager::ApplyUpdateRecord(const Wal::Record& rec) {
  size_t pos = 0;
  uint64_t file = 0, page_index = 0, size = 0;
  uint16_t first = 0, count = 0;
  bool ok = ReadU64(rec.payload, &pos, &file) &&
            ReadU64(rec.payload, &pos, &page_index) &&
            ReadU16(rec.payload, &pos, &first) &&
            ReadU16(rec.payload, &pos, &count) &&
            ReadU64(rec.payload, &pos, &size);
  DS_PAGER_CHECK(ok && count > 0 && first + count <= kSlotsPerPage,
                 "malformed WAL update record");
  FileChain& chain = ChainOrDie(file);
  mount_sequential_ = false;
  EnsureCapacity(file, chain,
                 page_index * kSlotsPerPage + first + count - 1);
  PageRef& ref = chain.pages[page_index];
  ValuePage* page;
  if (count == kSlotsPerPage) {
    // Full-page image: never read the spill base — it may be the very torn
    // write this record exists to repair.
    page = ref.resident() ? page_table_[ref.frame].get()
                          : &MountEmpty(file, chain, page_index);
    ref.fpi_lsn = rec.lsn;
  } else {
    page = &PageAt(file, chain, page_index);
  }
  for (uint64_t i = first; i < static_cast<uint64_t>(first) + count; ++i) {
    Value v;
    DS_PAGER_CHECK(DecodeValue(rec.payload, &pos, &v),
                   "malformed WAL update values");
    page->slot(i) = std::move(v);
  }
  DS_PAGER_CHECK(pos == rec.payload.size(), "trailing WAL update bytes");
  page->dirty_ = true;
  page->referenced_ = true;
  page->page_lsn_ = rec.lsn;
  chain.size = size;
}

void Pager::ReplayRecord(const Wal::Record& rec) {
  size_t pos = 0;
  switch (rec.type) {
    case WalRecordType::kCheckpoint:
      RestoreSnapshot(rec.payload);
      return;
    case WalRecordType::kCheckpointBegin:
    case WalRecordType::kCheckpointEnd:
      return;  // brackets only; redo replay carries the state
    case WalRecordType::kTxnBegin:
    case WalRecordType::kTxnCommit:
    case WalRecordType::kTxnAbort:
      // Bracket markers carry no state of their own; Recover() already
      // used them to buffer-and-filter torn brackets before replay.
      return;
    case WalRecordType::kTxnData:
      // Envelopes are unwrapped by Recover() before dispatch; one reaching
      // this switch would mean a bracket buffer leaked an undecoded record.
      DS_PAGER_CHECK(false, "kTxnData envelope reached ReplayRecord");
      return;
    case WalRecordType::kCreateFile: {
      uint64_t id = 0;
      DS_PAGER_CHECK(ReadU64(rec.payload, &pos, &id),
                     "malformed WAL create record");
      files_.emplace(id, FileChain{});
      if (id >= next_file_id_) next_file_id_ = id + 1;
      return;
    }
    case WalRecordType::kDropFile: {
      uint64_t id = 0;
      DS_PAGER_CHECK(ReadU64(rec.payload, &pos, &id),
                     "malformed WAL drop record");
      DropFile(id);
      return;
    }
    case WalRecordType::kTruncate: {
      uint64_t id = 0, slots = 0;
      DS_PAGER_CHECK(ReadU64(rec.payload, &pos, &id) &&
                         ReadU64(rec.payload, &pos, &slots),
                     "malformed WAL truncate record");
      Truncate(id, slots);
      return;
    }
    case WalRecordType::kGrow: {
      uint64_t id = 0, pages = 0;
      DS_PAGER_CHECK(ReadU64(rec.payload, &pos, &id) &&
                         ReadU64(rec.payload, &pos, &pages) && pages > 0,
                     "malformed WAL grow record");
      FileChain& chain = ChainOrDie(id);
      mount_sequential_ = false;
      if (chain.pages.size() < pages) {
        EnsureCapacity(id, chain, pages * kSlotsPerPage - 1);
      }
      return;
    }
    case WalRecordType::kUpdate:
      ApplyUpdateRecord(rec);
      return;
    case WalRecordType::kCreateTable:
    case WalRecordType::kDropTable:
    case WalRecordType::kAddColumn:
    case WalRecordType::kDropColumn:
    case WalRecordType::kRenameColumn:
    case WalRecordType::kReorganize:
      // Opaque catalog DDL: collected in log order for the catalog layer,
      // which applies them over the recovered blob after page redo is done
      // (the records carry full descriptors, so order relative to page
      // records does not matter — only their order among themselves).
      catalog_ddl_.push_back(CatalogRecord{rec.type, rec.payload});
      return;
  }
  DS_PAGER_CHECK(false, "unknown WAL record type");
}

uint64_t Pager::LogCatalogRecord(WalRecordType type,
                                 const std::string& payload) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  DS_PAGER_CHECK(IsCatalogRecordType(type),
                 "LogCatalogRecord with a non-catalog record type");
  if (wal_ == nullptr || replaying_ || crashed_) return 0;
  // DDL never rides a statement bracket (it is its own commit point, synced
  // right below): the *calling thread* must not be inside an open bracket.
  // Other transactions' open brackets are fine — this record is appended
  // untagged, so recovery replays it immediately rather than routing it
  // into any bracket buffer. BeginStatement depth alone is fine — a
  // bracket only opens with its first AppendRecord.
  {
    TxnContext* ctx = CurrentCtxLocked();
    DS_PAGER_CHECK(ctx == nullptr || !ctx->open,
                   "catalog DDL inside an open statement bracket");
  }
  uint64_t lsn = wal_->Append(type, payload);
  // DDL is a commit point: the schema change (and, by WAL order, every page
  // record before it) survives any crash once this returns.
  wal_->Sync();
  DrainDeferredFrees();
  MaybeAutoCheckpoint();
  return lsn;
}

void Pager::set_catalog_snapshot_provider(
    std::function<void(std::string*)> provider) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  catalog_provider_ = std::move(provider);
  // The live catalog now owns this state; the recovered copies are spent.
  catalog_blob_.clear();
  catalog_blob_.shrink_to_fit();
  catalog_ddl_.clear();
}

void Pager::DetachCatalogProvider() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!catalog_provider_) return;
  // Capture one last blob so the checkpoints that outlive the catalog layer
  // (notably the destructor's) keep carrying the full catalog forward.
  catalog_blob_.clear();
  catalog_provider_(&catalog_blob_);
  catalog_ddl_.clear();
  catalog_provider_ = nullptr;
}

std::vector<FileId> Pager::FileIds() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::vector<FileId> ids;
  ids.reserve(files_.size());
  for (const auto& [id, chain] : files_) {
    (void)chain;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void Pager::Recover() {
  replaying_ = true;
  bool accounting_was = accounting_;
  accounting_ = false;  // replay is physical redo, not workload I/O
  uint64_t records = 0;
  uint64_t first_lsn = 0, last_lsn = 0, last_bytes = 0;
  // Bracket atomicity at replay time: records inside a kTxnBegin..close
  // bracket are buffered — per transaction id, since several brackets may
  // be open at once — and applied only when the closing record is seen, in
  // bracket-close order (concurrent transactions touch disjoint pages and
  // close before releasing their latches, so per-page order is preserved).
  // A bracket the (already torn-tail-truncated) log ends inside never
  // committed — it is dropped wholesale, which is the whole contract: a
  // crash at any byte offset yields exactly the committed-bracket set.
  // Empty-payload markers are the legacy single-bracket format (pre-tagged
  // logs); untagged records outside any bracket replay immediately. No
  // physical truncation is needed; recovery ends on a checkpoint that
  // rewrites the log anyway.
  std::unordered_map<uint64_t, std::vector<Wal::Record>> brackets;
  std::vector<Wal::Record> legacy_bracket;
  bool legacy_in_bracket = false;
  bool opened = wal_->Open([&](const Wal::Record& rec) {
    if (records == 0) first_lsn = rec.lsn;
    last_lsn = rec.lsn;
    last_bytes = Wal::kRecordHeaderBytes + 1 + rec.payload.size();
    records += 1;
    switch (rec.type) {
      case WalRecordType::kTxnBegin: {
        if (rec.payload.empty()) {  // legacy single-bracket log
          legacy_bracket.clear();
          legacy_in_bracket = true;
          return;
        }
        size_t pos = 0;
        uint64_t id = 0;
        DS_PAGER_CHECK(ReadU64(rec.payload, &pos, &id),
                       "malformed WAL txn-begin record");
        brackets[id].clear();
        return;
      }
      case WalRecordType::kTxnData: {
        size_t pos = 0;
        uint64_t id = 0;
        bool data_ok =
            ReadU64(rec.payload, &pos, &id) && pos < rec.payload.size();
        DS_PAGER_CHECK(data_ok, "malformed WAL txn-data record");
        auto it = brackets.find(id);
        DS_PAGER_CHECK(it != brackets.end(),
                       "WAL txn-data outside its bracket");
        Wal::Record inner;
        inner.lsn = rec.lsn;
        inner.type = static_cast<WalRecordType>(
            static_cast<unsigned char>(rec.payload[pos]));
        inner.payload.assign(rec.payload, pos + 1,
                             rec.payload.size() - pos - 1);
        it->second.push_back(std::move(inner));
        return;
      }
      case WalRecordType::kTxnCommit:
      case WalRecordType::kTxnAbort: {
        if (rec.payload.empty()) {  // legacy close
          for (const Wal::Record& r : legacy_bracket) ReplayRecord(r);
          legacy_bracket.clear();
          legacy_in_bracket = false;
          return;
        }
        size_t pos = 0;
        uint64_t id = 0;
        DS_PAGER_CHECK(ReadU64(rec.payload, &pos, &id),
                       "malformed WAL txn-close record");
        auto it = brackets.find(id);
        DS_PAGER_CHECK(it != brackets.end(), "WAL txn-close without begin");
        for (const Wal::Record& r : it->second) ReplayRecord(r);
        brackets.erase(it);
        return;
      }
      default:
        break;
    }
    if (legacy_in_bracket) {
      legacy_bracket.push_back(rec);
    } else {
      ReplayRecord(rec);
    }
  });
  // Unterminated brackets: the torn transactions, dropped wholesale.
  brackets.clear();
  legacy_bracket.clear();
  accounting_ = accounting_was;
  replaying_ = false;
  if (!opened) {
    // Fresh database: write checkpoint zero so "a WAL always starts with a
    // snapshot" holds from birth.
    std::string snapshot;
    BuildSnapshot(&snapshot);
    last_checkpoint_lsn_ = wal_->RewriteWithCheckpoint(snapshot);
    return;
  }
  recovered_ = true;
  recovery_records_ = records;
  recovery_bytes_ = last_lsn + last_bytes - first_lsn;
  last_checkpoint_lsn_ = wal_->checkpoint_lsn();
  // Recovery ends on a checkpoint: the replayed state is flushed, the log
  // truncated, and any spill space a crashed run leaked past the old
  // snapshot is reclaimed by the fresh directory. Restartable at any point:
  // until the rewrite lands, the old log simply replays again.
  CheckpointInternal();
}

}  // namespace storage
}  // namespace dataspread
