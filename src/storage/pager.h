#ifndef DATASPREAD_STORAGE_PAGER_H_
#define DATASPREAD_STORAGE_PAGER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/spill_file.h"
#include "storage/wal.h"
#include "types/value.h"

namespace dataspread {
namespace storage {

/// Identifies one storage file (page chain) inside a Pager. Ids start at 1 and
/// are never reused; 0 is "no file".
using FileId = uint64_t;

/// Index of a page frame inside the pager's page table. Frames are recycled
/// through a free list when files shrink, are dropped, or pages are evicted.
using PageId = uint64_t;

/// Identifies one transaction context of a Pager (see "Statement &
/// transaction brackets"). Ids are monotone per pager and never reused, so
/// they double as transaction ages for wait-die deadlock resolution
/// (smaller id == older transaction); 0 is "no transaction".
using TxnId = uint64_t;

/// Distinct-page identity (file, index in file) — the unit of the epoch
/// accounting. A genuine two-field key: unlike the former packed-uint64
/// scheme ((file << 24) ^ page), no two distinct (file, page) pairs ever
/// alias, no matter how long a chain grows or how many files exist.
struct PageKey {
  FileId file = 0;
  uint64_t page = 0;
  bool operator==(const PageKey& o) const {
    return file == o.file && page == o.page;
  }
};

struct PageKeyHash {
  size_t operator()(const PageKey& k) const {
    // splitmix64-style finalization over both fields; collisions here only
    // cost hash-bucket sharing, never identity (equality compares both).
    uint64_t h = k.file + 0x9E3779B97F4A7C15ull;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h ^= k.page + 0x9E3779B97F4A7C15ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    return static_cast<size_t>(h ^ (h >> 31));
  }
};

/// One fixed-size page of the unified storage pool.
///
/// A page holds 256 value slots — 4 KiB at the simulated 16 bytes/slot budget
/// (see DESIGN.md §2, substitution table) — plus the buffer-pool header every
/// real pager carries: owning file, position in that file's chain, pin count,
/// dirty bit, the clock reference bit used for second-chance eviction, and
/// the scan-class bit that routes sequential-stream pages through the scan
/// ring instead of the clock.
class ValuePage {
 public:
  static constexpr size_t kSlotCount = 256;

  Value& slot(size_t i) { return slots_[i]; }
  const Value& slot(size_t i) const { return slots_[i]; }

  /// Owning file, or 0 while the frame sits on the free list.
  FileId file() const { return file_; }
  /// Position of this page in its owner's chain.
  uint64_t index_in_file() const { return index_in_file_; }

  uint32_t pin_count() const { return pin_count_; }
  bool dirty() const { return dirty_; }
  bool referenced() const { return referenced_; }
  /// LSN of the newest WAL record describing a mutation of this page; 0 when
  /// the pager has no WAL or the page is unmutated since it was mounted. The
  /// WAL rule: this page may not be written to the spill file until the log
  /// is durable through page_lsn() (DESIGN.md §6).
  uint64_t page_lsn() const { return page_lsn_; }
  /// True while the page is classified as part of a sequential scan stream
  /// (evicted FIFO through the scan ring, not by the clock).
  bool scan_class() const { return scan_; }
  bool is_free() const { return file_ == 0; }

 private:
  friend class Pager;
  friend class PageCursor;

  std::array<Value, kSlotCount> slots_;
  FileId file_ = 0;
  uint64_t index_in_file_ = 0;
  uint64_t page_lsn_ = 0;
  uint32_t pin_count_ = 0;
  bool dirty_ = false;
  bool referenced_ = false;
  bool scan_ = false;
};

/// Construction-time (and runtime-adjustable) buffer-pool policy.
struct PagerConfig {
  /// Maximum page frames held in memory; 0 = unbounded (no eviction). When
  /// the cap binds, a frame for a new or faulted page is obtained by evicting
  /// a victim to the spill file first. Pinned pages are never evicted,
  /// so a pool whose every frame is pinned overshoots the cap rather than
  /// deadlock — the overshoot drains as soon as pins are released.
  size_t max_resident_pages = 0;
  /// Backing file for evicted/checkpointed pages. Empty = an anonymous
  /// temp file (OS-deleted on close, never visible in the filesystem);
  /// a named path is removed when the pager is destroyed.
  std::string spill_path;
  /// Scan-resistant eviction: pages mounted by a detected sequential stream
  /// are scan-class — they recycle FIFO through a small dedicated ring and
  /// are preferred as victims, so a full scan cannot flush the clock-managed
  /// hot set. Off = pure second-chance clock (the PR 2 baseline policy).
  bool scan_resistant = true;
  /// Resident scan-class pages allowed before the ring starts evicting its
  /// own tail; 0 = auto (max(4, max_resident_pages / 8)). Only meaningful
  /// for a bounded pool with scan_resistant on.
  size_t scan_ring_pages = 0;
  /// When a sequential stream faults a page in, also fault the next chain
  /// page (one page of readahead), turning two demand stalls into one
  /// batched spill read. Only applies to bounded pools.
  bool readahead = true;
  /// Write-ahead log path. Empty (the default) = scratch mode: nothing
  /// survives the pager. Non-empty = durable mode: every page mutation is
  /// logged as a physical redo record before any page image can reach the
  /// spill file, `FlushAll()` becomes a fuzzy checkpoint that truncates the
  /// log, and constructing a Pager over an existing WAL+spill pair replays
  /// the log tail to reconstruct exactly the durable state (DESIGN.md §6).
  /// Requires `durable_spill` and a named `spill_path`.
  std::string wal_path;
  /// Keep the named spill file across runs (it is the data half of the
  /// durable pair; the WAL is the redo half). Only meaningful — and
  /// required — together with `wal_path`.
  bool durable_spill = false;
  /// Auto-checkpoint: when the log grows past this many bytes of redo since
  /// the last checkpoint, the next append triggers one (bounding both log
  /// size and recovery time). 0 = manual checkpoints only (FlushAll()).
  uint64_t wal_auto_checkpoint_bytes = 0;
};

/// Lifetime counters of a Pager. Epoch (distinct-page) figures live on the
/// Pager itself because they reset per measurement window.
struct PagerStats {
  uint64_t slot_reads = 0;       ///< Slot-level reads (not distinct).
  uint64_t slot_writes = 0;      ///< Slot-level writes (not distinct).
  uint64_t pages_allocated = 0;  ///< Pages handed to files (incl. reuse).
  uint64_t pages_freed = 0;      ///< Pages returned by truncate/drop.
  uint64_t pages_flushed = 0;    ///< Dirty pages checkpointed by FlushAll().
  uint64_t pins = 0;             ///< Pin() calls (incl. cursor page pins).
  uint64_t faults = 0;           ///< Demand loads of evicted pages.
  uint64_t readaheads = 0;       ///< Speculative loads ahead of a scan.
  uint64_t evictions = 0;        ///< Resident pages pushed out of the pool.
  uint64_t scan_evictions = 0;   ///< Evictions that took a scan-class page.
  uint64_t spill_bytes_written = 0;  ///< Bytes serialized to the spill file.
  uint64_t spill_bytes_read = 0;     ///< Bytes deserialized from it.
  uint64_t spill_dead_bytes = 0;  ///< Spill heap bytes no live record uses
                                  ///< (relocation + free-slot reserve) — the
                                  ///< compaction signal (DESIGN.md §6).
  uint64_t wal_records = 0;  ///< Redo/checkpoint records appended to the WAL.
  uint64_t wal_bytes = 0;    ///< Framed bytes appended to the WAL.
  uint64_t wal_syncs = 0;    ///< fsync barriers taken on the WAL.
};

/// The unified paged storage engine behind every TableStorage model.
///
/// All cell data of a database lives in fixed-size ValuePages owned by one
/// Pager: each column/heap/attribute-group allocates a *file* (a page chain)
/// and addresses values by dense slot number. The pager provides
///   - slot-granular Read/Write/Take that grow files on demand,
///   - bulk ReadRange/WriteRange that resolve the file once and account once
///     per spanned page, and a PageCursor (page_cursor.h) that pins each page
///     once and serves slot accesses with no hash lookups at all,
///   - page-granular Pin/Unpin with dirty tracking for batch access,
///   - a genuinely bounded buffer pool: with `max_resident_pages` set, cold
///     pages are evicted — written back to a SpillFile when dirty — and
///     faulted back in transparently on the next access,
///   - scan-resistant victim selection: sequential streams (detected per
///     file for the slot APIs, per cursor for PageCursor) mount their pages
///     scan-class; victims come from the scan ring FIFO first and only then
///     from the second-chance clock, so scans evict their own pages instead
///     of the hot set (see DESIGN.md §5a "Scan resistance & cursors"),
///   - FlushAll() as a real checkpoint: every dirty page's contents are
///     written to the spill file before its dirty bit clears — and, under a
///     WAL, a *fuzzy checkpoint* that snapshots the pager's metadata and
///     truncates the log,
///   - durability (PagerConfig{wal_path, durable_spill}): a redo-only
///     write-ahead log records every page mutation (full-page image on the
///     first post-checkpoint touch, slot-range deltas after), the WAL rule
///     (flushed-LSN >= page_lsn before any write-back) is enforced at the
///     single WriteBack choke point, and reopening the pager replays the
///     log tail over the persistent spill file to reconstruct exactly the
///     durable state — see DESIGN.md §6 "Durability & recovery",
///   - built-in I/O accounting: distinct pages read/written per epoch, the
///     quantity the paper's Relational Storage Manager argues about, plus
///     fault/eviction/spill-byte counters for the physical layer.
///
/// Page state machine: a page of a file's chain is either *resident* (owns a
/// frame in the page table; its spill copy, if any, may be stale) or
/// *evicted* (no frame; the spill file holds the authoritative copy — dirty
/// pages are written back during eviction, so an evicted page is always clean
/// on disk). Fault-in moves evicted → resident; eviction the reverse, and
/// only ever for unpinned frames.
///
/// Accounting can be disabled for timing-focused benchmarks; physical state
/// (page contents, dirty bits, reference bits, eviction) is maintained
/// regardless.
///
/// Threading (DESIGN.md §7 "Transactions & concurrency"): the pager is safe
/// under concurrent *readers* (PageCursor scans / slot-API reads) plus one
/// *writer* thread. A structural latch serializes every operation that
/// touches pager metadata (chains, the page table, eviction, the WAL append
/// path); per-frame reader/writer latches protect slot *data*, so cursor
/// reads proceed without the structural latch while the writer holds a
/// frame's exclusive latch only for the instants it mutates that page.
/// Latch order: the structural latch is always taken before a frame latch;
/// cursors never acquire the structural latch while holding a frame latch
/// (they release data latches before re-entering the pager). Raw page
/// access through Pin() bypasses the frame latches and remains
/// writer-thread-only.
///
/// Statements (the transaction manager): BeginStatement()/EndStatement()
/// — or the StatementScope guard — bracket every record a statement logs
/// between kTxnBegin and kTxnCommit/kTxnAbort. Several transactions may
/// hold brackets open concurrently: each bracket is tagged with its
/// transaction id (records inside ride kTxnData envelopes) and recovery
/// applies a bracket only when its closing record survived, so a crash at
/// any byte offset yields exactly the committed-bracket set; pages dirtied
/// inside any open bracket are exempt from eviction (no-steal) so the spill
/// file never absorbs uncommitted effects. Callers guarantee concurrently
/// open transactions touch disjoint pages (the Database layer's per-table
/// write latches); bracket close records are appended before those latches
/// release, so per-page record order in the log always matches bracket
/// close order.
class Pager {
 public:
  static constexpr uint64_t kPageBytes = 4096;
  static constexpr uint64_t kSlotBytes = 16;  // simulated on-disk slot size
  static constexpr uint64_t kSlotsPerPage = ValuePage::kSlotCount;
  static_assert(kSlotsPerPage == kPageBytes / kSlotBytes,
                "page geometry out of sync");

  /// Scratch mode (no `wal_path`): an empty engine. Durable mode: recovery
  /// runs right here — the WAL's checkpoint snapshot is restored and the
  /// log tail replayed (under the configured pool cap), so the constructed
  /// pager holds exactly the durable state; a fresh checkpoint is then
  /// written, truncating the log — unless the log held nothing but its
  /// snapshot, which already is that checkpoint.
  explicit Pager(PagerConfig config = {});
  /// A durable pager checkpoints on destruction (unless CrashForTesting()
  /// was called), so a clean shutdown reopens with an empty log.
  ~Pager();
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  // ---- Files ----------------------------------------------------------------

  /// Allocates a new empty file (page chain). Files never alias pages.
  FileId CreateFile();
  /// Frees every page of `file`. Deallocation is not counted as page writes.
  void DropFile(FileId file);
  bool HasFile(FileId file) const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return files_.count(file) > 0;
  }
  /// Pages currently backing `file` (resident or evicted).
  size_t FilePages(FileId file) const;
  /// Logical size of `file` in slots (highest written slot + 1, after
  /// truncation: the truncation point).
  uint64_t FileSize(FileId file) const;

  // ---- Slot access ----------------------------------------------------------

  /// Reads slot `slot` of `file`; the slot must be below the file's capacity
  /// (pages * kSlotsPerPage). Never-written slots read as NULL. Returns a
  /// copy taken under the structural latch: the page is not pinned, so with
  /// concurrent sessions another thread's fault-in may evict and recycle its
  /// frame as soon as the latch drops (a returned reference would race).
  Value Read(FileId file, uint64_t slot);
  /// Appends slots [start, start+count) to `out`. Equivalent to `count`
  /// Read() calls but resolves the file once and records one read per
  /// spanned page — the bulk path for contiguous tuple reads.
  void ReadRange(FileId file, uint64_t start, uint64_t count, Row* out);
  /// Writes slot `slot`, growing the file's chain as needed.
  void Write(FileId file, uint64_t slot, Value v);
  /// Writes slots [start, start+count) from `values`, growing the chain as
  /// needed: one file resolution, one dirty/accounting record per spanned
  /// page — the bulk path for contiguous tuple writes (appends).
  void WriteRange(FileId file, uint64_t start, const Value* values,
                  uint64_t count);
  /// Moves the value out of `slot` (leaves NULL behind); counts as a read
  /// in the epoch accounting but dirties the page (the slot changed).
  Value Take(FileId file, uint64_t slot);
  /// Shrinks `file` to `slot_count` slots: whole pages past the end return to
  /// the free list (their spill space is recycled), vacated slots are
  /// cleared. Not counted as page writes. Pages past the truncation point
  /// must be unpinned (checked).
  void Truncate(FileId file, uint64_t slot_count);

  // ---- Page-granular buffer-pool interface ----------------------------------

  /// Pins page `page_index` of `file` (growing the chain or faulting the page
  /// in as needed) and returns it. Pinned pages are never evicted. The raw
  /// slot access a pin hands out bypasses the per-frame data latches:
  /// writer-thread-only under the concurrent-reader contract (readers go
  /// through PageCursor, whose accesses are latch-protected).
  ValuePage* Pin(FileId file, uint64_t page_index);
  /// Releases a pin; `dirtied` marks the page dirty and records the write.
  void Unpin(ValuePage* page, bool dirtied);

  /// Pages currently holding a frame in memory. At most max_resident_pages()
  /// whenever that cap is set and at least one unpinned frame exists.
  size_t resident_pages() const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return resident_pages_;
  }
  /// Resident pages with a non-zero pin count.
  size_t pinned_pages() const;
  /// Resident pages currently classified scan-class (in the scan ring).
  size_t scan_resident_pages() const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return scan_resident_;
  }
  /// True when page `page_index` of `file` currently holds a frame.
  bool IsResident(FileId file, uint64_t page_index) const;
  /// True when that page is resident and scan-class (for tests).
  bool IsScanClass(FileId file, uint64_t page_index) const;

  /// Second-chance (clock) victim selection: returns the next unpinned,
  /// unreferenced resident page, clearing reference bits it sweeps past.
  /// Returns nullptr — never a pinned frame, after a bounded sweep — when
  /// every resident page is pinned or there are none. Selection only; the
  /// bounded pool evicts victims internally when the cap binds (preferring
  /// the scan ring, see SelectVictim).
  ValuePage* ClockVictim();

  /// Checkpoint: writes every dirty resident page to the spill file, then
  /// clears its dirty bit; returns how many pages were written. After
  /// FlushAll() the spill file holds an up-to-date copy of every page that
  /// was ever dirty, so subsequent evictions of clean pages write nothing.
  ///
  /// Under a WAL this is a *fuzzy checkpoint* (DESIGN.md §6): a begin
  /// record carrying the dirty-page table is appended and fsynced, the
  /// dirty pages are flushed and the spill fsynced, and the log is then
  /// atomically replaced by a fresh one holding only the metadata snapshot
  /// — recovery work is bounded by the redo appended since this call.
  size_t FlushAll();

  // ---- Durability (WAL) -----------------------------------------------------

  /// Fsyncs the WAL: everything logged so far survives any crash. The
  /// durability barrier for callers that need "commit" semantics between
  /// checkpoints. Also drains the deferred spill-slot free list (slots whose
  /// freeing record just became durable return to circulation). No-op
  /// without a WAL.
  void SyncWal();
  /// Group-commit barrier: returns once the WAL is durable through `lsn`
  /// (an *end* boundary, e.g. the value EndStatement returned). Unlike
  /// SyncWal() this does not hold the structural latch across the fsync, so
  /// concurrent committers batch onto one barrier (Wal::SyncThrough) while
  /// readers keep faulting pages. No-op without a WAL or with lsn == 0.
  void SyncWalThrough(uint64_t lsn);

  // ---- Statement & transaction brackets (DESIGN.md §7) ----------------------
  //
  // A bracket makes everything logged inside it atomic across crashes: the
  // first record appended under an open statement is preceded by
  // kTxnBegin(txn-id), every further record rides a kTxnData envelope
  // tagged with that id, and the close appends kTxnCommit/kTxnAbort(id).
  // Recovery buffers each open bracket independently and discards brackets
  // whose closing record the log lost. An abort closes the bracket too —
  // by then the caller's logged compensations sit inside it, so replaying
  // it is a net no-op.
  //
  // Transaction contexts: every bracket belongs to a context identified by
  // a TxnId. BeginTxn() opens a long-lived context (closed by
  // CommitTxn/AbortTxn); BeginStatement(txn) opens a statement under an
  // explicit context, under the thread's innermost bound context (txn ==
  // 0, nested call), or — when neither exists — under a fresh *autocommit*
  // context that closes when the statement ends. Nesting is flat per
  // context: only the context close emits the closing record, so a Table
  // DML inside a Database statement rides the statement's bracket, and
  // every statement of an open transaction rides the transaction's.
  // BeginStatement binds the calling thread to the context until the
  // matching EndStatement, so the pager can attribute every record logged
  // in between; BeginTxn() binds nothing — its statements name the id.
  //
  // Several contexts may hold brackets open at once (multi-writer); ids
  // are monotone per pager and double as transaction ages for the caller's
  // wait-die deadlock policy (smaller id == older txn). A statement that
  // logs nothing emits no bracket at all. Context bookkeeping runs even on
  // non-durable/crashed pagers (ids stay meaningful); only WAL appends are
  // skipped there. Prefer StatementScope.

  /// Opens a statement under `txn` (0 = thread's innermost binding, else a
  /// fresh autocommit context). Returns the owning context id.
  TxnId BeginStatement(TxnId txn = 0);
  /// Ends the thread's innermost statement. If it closes an autocommit
  /// context, closes the bracket with kTxnCommit (`commit`) or kTxnAbort
  /// and returns the WAL end boundary to pass to SyncWalThrough for durable
  /// commit semantics; 0 otherwise (nothing to sync).
  uint64_t EndStatement(bool commit);

  /// Opens a long-lived transaction context (depth 1, no thread binding).
  TxnId BeginTxn();
  /// Closes context `txn` (no statements may be open under it). Returns the
  /// WAL end boundary for SyncWalThrough (0 if nothing was logged).
  uint64_t CommitTxn(TxnId txn);
  uint64_t AbortTxn(TxnId txn);

  /// True when this pager runs in durable mode (a WAL is configured). The
  /// catalog layer keys its own persistence on this: the rid side file,
  /// DDL and display-order records, and file retention only exist for
  /// durable pools.
  bool durable() const { return wal_ != nullptr; }
  /// The write-ahead log, when configured (null in scratch mode).
  const Wal* wal() const { return wal_.get(); }
  /// True when construction found an existing WAL and replayed it.
  bool recovered() const { return recovered_; }
  /// Records / framed bytes replayed by that recovery (0 on a fresh start).
  uint64_t recovery_records() const { return recovery_records_; }
  uint64_t recovery_bytes() const { return recovery_bytes_; }

  /// Crash simulation for tests and benches: drains buffers to the OS the
  /// way a SIGKILL would leave them, closes the WAL handle, and disables
  /// the destructor's checkpoint — the on-disk pair is left exactly as a
  /// killed process would leave it, ready for a new Pager to recover.
  /// Afterwards the pager keeps working as a scratch pool (so storages over
  /// it can still destruct), but nothing further is logged or durable.
  void CrashForTesting();
  /// Leaves the durable pair exactly as it stands: nothing further is
  /// logged and the destructor skips its closing checkpoint, as after
  /// CrashForTesting() but without dropping anything already buffered. For
  /// an open refused after the pager recovered (Database::TryOpen), so a
  /// refused open does not rewrite the files it refused.
  void StandDown();

  // ---- Catalog metadata channel (DESIGN.md §6 "Catalog recovery") -----------
  //
  // The pager persists page *data*; the catalog layer (schemas, tables, the
  // table→file bindings) persists itself *through* the pager with two
  // primitives it never interprets:
  //   1. an opaque blob embedded in every checkpoint snapshot, produced on
  //      demand by a provider callback (the catalog serializes its current
  //      state, display orders included), and
  //   2. opaque records appended between checkpoints: DDL
  //      (WalRecordType::kCreateTable..kReorganize) via LogCatalogRecord,
  //      each its own commit point, and display-order operations
  //      (kOrderInsert/kOrderErase) via LogOrderRecord, inside the
  //      statement bracket like page redo.
  // Recovery replays page redo as usual and *collects* the blob + records
  // for the catalog layer to consume after construction — DDL as it is
  // read, order records when their bracket closes — so the list is in the
  // order the changes took effect. Until a provider is installed,
  // checkpoints carry the recovered blob and record list forward verbatim,
  // so a recovery-time checkpoint can never lose catalog state it does not
  // understand.

  /// One recovered catalog record (DDL or display order), in replay order.
  struct CatalogRecord {
    WalRecordType type = WalRecordType::kCreateTable;
    std::string payload;
  };

  /// Appends one opaque catalog DDL record and fsyncs: every DDL statement
  /// is a commit point (they are rare; one barrier each keeps the schema's
  /// durability horizon ahead of the data's). Returns the record's LSN, or
  /// 0 when the pager is not durable / is replaying / has crashed — callers
  /// log unconditionally and let the pager sort out the mode.
  uint64_t LogCatalogRecord(WalRecordType type, const std::string& payload);

  /// Appends one opaque display-order record (kOrderInsert/kOrderErase)
  /// under the calling thread's open statement, without a sync: it commits
  /// or vanishes with the statement's bracket. No-op when not durable.
  void LogOrderRecord(WalRecordType type, const std::string& payload);

  /// Installs the checkpoint blob provider. From now on every snapshot
  /// embeds a freshly serialized blob (and no DDL carry-forward — the blob
  /// subsumes it); the recovered_catalog_* accessors are cleared. The
  /// provider must stay callable until DetachCatalogProvider() or pager
  /// destruction, and must serialize a *statement-consistent* catalog —
  /// wrap multi-step schema changes in a CheckpointDeferral so an
  /// auto-checkpoint cannot observe a half-applied DDL.
  void set_catalog_snapshot_provider(std::function<void(std::string*)> provider);

  /// Uninstalls the provider, capturing one final blob that subsequent
  /// checkpoints (including the destructor's) carry forward. Call this
  /// before the catalog layer is destroyed; the pager outlives it.
  void DetachCatalogProvider();

  /// The catalog blob of the recovered checkpoint snapshot and the catalog
  /// records logged after it, in replay order. Valid after construction
  /// until set_catalog_snapshot_provider() clears them; empty on a fresh
  /// start.
  const std::string& recovered_catalog_blob() const { return catalog_blob_; }
  const std::vector<CatalogRecord>& recovered_catalog_records() const {
    return catalog_records_;
  }

  /// All live file ids, ascending — the catalog layer's orphan sweep
  /// (files created by a DDL whose record never became durable) diffs this
  /// against the recovered descriptors.
  std::vector<FileId> FileIds() const;

  // ---- Buffer-pool policy ---------------------------------------------------

  size_t max_resident_pages() const { return config_.max_resident_pages; }
  /// Adjusts the cap at runtime; shrinking below the current residency
  /// evicts victims immediately until the pool fits (pinned pages
  /// can keep it above the cap until they are unpinned).
  void set_max_resident_pages(size_t cap);
  bool scan_resistant() const { return config_.scan_resistant; }
  /// Scan-class pages allowed in memory before the ring recycles its tail.
  size_t scan_ring_size() const;
  const std::string& spill_path() const { return config_.spill_path; }
  /// The spill backend, if any eviction/checkpoint has created it.
  const SpillFile* spill() const { return spill_.get(); }

  // ---- I/O accounting -------------------------------------------------------

  /// Starts a fresh measurement window for the distinct-page counters.
  void BeginEpoch();
  /// Distinct pages read/written since BeginEpoch().
  size_t EpochPagesRead() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return epoch_read_.size();
  }
  size_t EpochPagesWritten() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return epoch_written_.size();
  }

  /// Lifetime counters, including the spill/WAL-derived fields
  /// (spill_dead_bytes, wal_*) assembled from the backends at call time —
  /// hence by value; for hot loops snapshot once and diff.
  PagerStats stats() const;

  /// Accounting costs a hash insert per access; timing-focused benchmarks
  /// disable it. Page contents, dirty/reference bits, and eviction are
  /// unaffected (faults/evictions/spill bytes are physical events and are
  /// always counted).
  void set_accounting_enabled(bool enabled) {
    accounting_.store(enabled, std::memory_order_relaxed);
  }
  bool accounting_enabled() const {
    return accounting_.load(std::memory_order_relaxed);
  }

 private:
  friend class PageCursor;

  /// One page of a file's chain: resident (frame != kNoFrame) or evicted
  /// (frame == kNoFrame; spill_slot holds the authoritative copy, or is
  /// kNoSlot for a never-written all-NULL page known only from recovery
  /// metadata — faulting such a page mounts a fresh empty frame).
  struct PageRef {
    static constexpr PageId kNoFrame = ~0ull;
    PageId frame = kNoFrame;
    uint64_t spill_slot = SpillFile::kNoSlot;
    /// LSN of this page's newest full-page image in the WAL. When it does
    /// not postdate the current checkpoint, the next mutation logs a full
    /// image instead of a slot-range delta — the torn-page defense: no
    /// in-place spill rewrite ever destroys a base that recovery still
    /// needs (DESIGN.md §6).
    uint64_t fpi_lsn = 0;
    bool resident() const { return frame != kNoFrame; }
  };

  static constexpr uint64_t kNoPageIndex = ~0ull;
  /// +1 page transitions before an access stream counts as sequential.
  static constexpr uint32_t kSeqThreshold = 2;
  /// Floor of the auto-sized scan ring.
  static constexpr size_t kMinScanRing = 4;

  /// The sequential-access detector shared by the slot APIs (one per file)
  /// and PageCursor (one per cursor — so interleaved point lookups never
  /// break a cursor scan's streak, and vice versa). Repeated hits on one
  /// page are neutral, a +1 transition builds the streak, anything else
  /// resets it.
  struct SeqDetector {
    uint64_t last_page = kNoPageIndex;
    uint32_t streak = 0;
    /// Records an access to `page_index`; returns whether the stream is now
    /// sequential.
    bool Note(uint64_t page_index) {
      if (page_index == last_page) {
        // same page: no evidence either way
      } else if (last_page != kNoPageIndex && page_index == last_page + 1) {
        if (streak < kSeqThreshold) streak += 1;
      } else {
        streak = 0;
      }
      last_page = page_index;
      return streak >= kSeqThreshold;
    }
  };

  struct FileChain {
    std::vector<PageRef> pages;
    uint64_t size = 0;  // logical slots; capacity is pages.size()*kSlotsPerPage
    SeqDetector seq;    // detector for the slot-granular APIs
  };

  /// A scan-ring entry; validated lazily on pop (the page may have been
  /// promoted, evicted, or freed since it was queued — stale entries are
  /// simply dropped).
  struct ScanEntry {
    PageId frame;
    FileId file;
    uint64_t page;
  };

  /// A spill slot freed by Truncate/DropFile whose freeing WAL record is not
  /// yet durable. The slot must not be recycled before `lsn` is fsynced —
  /// otherwise a crash could replay the free against a base the reuse
  /// already overwrote. Parking the slot here (instead of fsyncing at free
  /// time, the PR 4 behavior) lets structural ops proceed without a barrier;
  /// DrainDeferredFrees() releases slots as durability catches up.
  struct DeferredFree {
    uint64_t spill_slot = 0;
    uint64_t lsn = 0;
  };

  FileChain& ChainOrDie(FileId file);
  const FileChain& ChainOrDie(FileId file) const;
  /// Grows `chain` until `slot` is addressable.
  void EnsureCapacity(FileId file, FileChain& chain, uint64_t slot);
  /// The page holding `slot`, faulted in if evicted.
  ValuePage& PageForSlot(FileId file, FileChain& chain, uint64_t slot) {
    return PageAt(file, chain, slot / kSlotsPerPage);
  }
  /// The page at `page_index` of the chain, faulted in if evicted.
  ValuePage& PageAt(FileId file, FileChain& chain, uint64_t page_index) {
    PageRef& ref = chain.pages[page_index];
    if (!ref.resident()) FaultIn(file, chain, page_index);
    return *page_table_[ref.frame];
  }
  /// Loads an evicted page back into a frame (evicting others if the cap
  /// binds); readahead of the next chain page when the mount is sequential.
  void FaultIn(FileId file, FileChain& chain, uint64_t page_index);
  /// Obtains a frame, evicting victims first while the pool is at its
  /// cap. The frame is on neither the free list nor any chain on return.
  PageId AcquireFrame();
  /// Writes `page` back to spill if needed and releases its frame. The page
  /// must be unpinned.
  void EvictPage(ValuePage& page);
  /// Returns the frame of a truncated/dropped resident page to the free list.
  void ReleaseFrame(PageId id);
  /// Drops one chain page entirely (frame and/or spill space). When
  /// `deferred_slots` is non-null the spill slot is *not* freed but appended
  /// there — the caller parks the batch on the deferred-free list once the
  /// structural record that frees them has an LSN.
  void FreePage(PageRef& ref, std::vector<uint64_t>* deferred_slots = nullptr);
  /// Parks `slots` until `lsn` is durable (or frees them immediately if it
  /// already is).
  void DeferSpillFrees(const std::vector<uint64_t>& slots, uint64_t lsn);
  /// Frees every parked slot whose freeing record has become durable.
  void DrainDeferredFrees();
  /// Evicts victims until residency is at most `target` (or all pinned).
  void EvictDownTo(size_t target);
  /// Next eviction victim: oldest valid unpinned scan-ring page, else the
  /// clock. Consumes the returned page's ring entry.
  ValuePage* SelectVictim();
  SpillFile& EnsureSpill();
  /// Writes `page`'s contents to its spill slot (allocating one on first
  /// spill); leaves the dirty bit untouched.
  void WriteBack(ValuePage& page, PageRef& ref);

  /// Updates the per-file sequential detector for a slot-API access to
  /// `page_index` and latches mount_sequential_ for any mounts it causes.
  void NoteSlotAccess(FileChain& chain, uint64_t page_index);
  /// Classifies a just-mounted page: scan-class (queued on the ring, which
  /// may recycle its tail) when the triggering access was sequential and the
  /// pool is bounded with scan resistance on; hot otherwise.
  void ClassifyMount(ValuePage& page, PageId frame);
  /// Evicts ring pages (skipping `keep` and pinned frames) until the ring
  /// fits scan_ring_size().
  void EnforceScanRing(PageId keep);
  /// A non-sequential access touched `page`: a scan-class page is promoted
  /// into the hot (clock) set.
  void MaybePromote(ValuePage& page);
  /// True when `e` still describes a resident scan-class page.
  bool ScanEntryValid(const ScanEntry& e) const;

  void RecordRead(FileId file, uint64_t slot, ValuePage& page);
  void RecordWrite(FileId file, uint64_t slot, ValuePage& page);
  /// Records one distinct-page epoch hit (guarded by stats_mu_).
  void NoteEpochRead(FileId file, uint64_t page_index);
  void NoteEpochWrite(FileId file, uint64_t page_index);

  /// True when `page` may have been dirtied inside a currently open
  /// bracket. Such pages are no-steal: evicting one would write uncommitted
  /// effects over a spill base that recovery may still need if the bracket
  /// is discarded (its first post-checkpoint image lives inside the
  /// bracket). Conservative across concurrent brackets: any dirty page
  /// whose newest redo postdates the *oldest* open bracket's begin is
  /// protected. Victim selection skips them; the pool overshoots like the
  /// all-pinned case until the brackets close.
  bool StatementDirty(const ValuePage& page) const {
    return open_brackets_ > 0 && page.dirty_ &&
           page.page_lsn_ >= min_open_begin_lsn_;
  }
  /// Grows frame_latches_ alongside page_table_ (grow-only: latches of
  /// released shells stay allocated so no reader ever holds a dead latch).
  void EnsureFrameLatches();

  // ---- WAL integration (all no-ops in scratch mode) -------------------------

  /// The logging choke point every mutation path funnels through (slot
  /// APIs, bulk ranges, cursors, Unpin-dirty): appends a physical redo
  /// record for slots [first, first+count) of the given resident page,
  /// *after* the slots were mutated. Upgrades itself to a full-page image
  /// when the page has none since the last checkpoint (or when the range
  /// already spans the page), stamps page_lsn/fpi_lsn, and may trigger an
  /// auto-checkpoint — unless the caller is mid-operation with a mutation
  /// still unlogged (Truncate's pre-image) and passes
  /// `allow_auto_checkpoint = false`, so a checkpoint can never slip
  /// between a page's full image and the record that relies on it.
  void LogPageMutation(FileId file, FileChain& chain, uint64_t page_index,
                       uint64_t first, uint64_t count,
                       bool allow_auto_checkpoint = true);
  /// Appends a structural record (create/drop/truncate/grow).
  void LogStructural(WalRecordType type, const std::string& payload);
  /// The one append path for every record that belongs to the current
  /// statement (page redo + structural). Lazily opens the statement bracket
  /// (kTxnBegin) before the first such record; checkpoint records and
  /// catalog DDL bypass this on purpose — they are their own commit points.
  uint64_t AppendRecord(WalRecordType type, const std::string& payload);
  void MaybeAutoCheckpoint();
  /// The fuzzy checkpoint behind FlushAll()/destruction in durable mode.
  size_t CheckpointInternal();
  /// Serializes the durable metadata (file chains, spill directory, next
  /// file id) into a kCheckpoint payload / restores it during recovery.
  void BuildSnapshot(std::string* out) const;
  void RestoreSnapshot(const std::string& payload);
  /// Constructor-time recovery: replays the WAL (or writes the first
  /// checkpoint of a fresh log).
  void Recover();
  void ReplayRecord(const Wal::Record& rec);
  void ApplyUpdateRecord(const Wal::Record& rec);
  /// Mounts a fresh all-NULL frame for a non-resident page without touching
  /// the spill file — the full-page-image replay path and the fault path
  /// for pages that never reached the spill.
  ValuePage& MountEmpty(FileId file, FileChain& chain, uint64_t page_index);

  /// One transaction context (see the public bracket section). Spill slots
  /// freed inside the context's open bracket park in `deferred_slots` until
  /// the close record has an LSN (a discarded bracket must leave every base
  /// it referenced untouched), then move to the deferred-free list.
  struct TxnContext {
    int depth = 0;         ///< Open statements under this context.
    bool open = false;     ///< kTxnBegin appended, closing record pending.
    bool autocommit = false;  ///< Created by BeginStatement; closes at depth 0.
    uint64_t begin_lsn = 0;   ///< LSN of the open bracket's kTxnBegin.
    std::vector<uint64_t> deferred_slots;
  };

  /// The context the calling thread is bound to via BeginStatement, or
  /// nullptr/0. Prunes stale bindings of this pager lazily. Caller holds mu_.
  TxnContext* CurrentCtxLocked();
  TxnId CurrentBoundTxnLocked();
  /// Closes `txn`'s bracket (if open), parks its deferred spill frees at the
  /// close LSN, erases the context, and runs a held-back auto-checkpoint
  /// once no bracket remains open. Returns the close record's WAL end
  /// boundary (0 when nothing was logged). Caller holds mu_.
  uint64_t CloseCtx(TxnId txn, bool commit);
  void RecomputeMinOpenBeginLsn();

  PagerConfig config_;
  uint64_t next_file_id_ = 1;
  std::unordered_map<FileId, FileChain> files_;
  std::vector<std::unique_ptr<ValuePage>> page_table_;
  std::vector<PageId> free_frames_;
  /// The structural latch: serializes every metadata operation (see the
  /// class comment). Recursive because replay and internal paths re-enter
  /// public operations (DropFile/Truncate from ReplayRecord, checkpoint
  /// from mutation paths).
  mutable std::recursive_mutex mu_;
  /// Leaf lock for the epoch sets (cursors record distinct-page hits
  /// without the structural latch). Never held while acquiring any other
  /// lock.
  mutable std::mutex stats_mu_;
  /// Per-frame data latches, parallel to page_table_. A deque for stable
  /// addresses; grow-only (never shrunk on cap shrink) so an index is
  /// always valid. Readers hold shared, the writer exclusive — only while
  /// holding the structural latch, so reader-held latches are the only
  /// thing a writer ever waits on.
  mutable std::deque<std::shared_mutex> frame_latches_;
  // Transaction-context state (all under mu_). Thread→context bindings live
  // in a thread_local keyed by pager_uid_ (pager.cc), so bindings of a
  // destroyed pager can never alias a new one.
  std::unordered_map<TxnId, TxnContext> txns_;
  TxnId next_txn_id_ = 1;
  size_t open_brackets_ = 0;          // contexts with an open bracket
  uint64_t min_open_begin_lsn_ = 0;   // min begin_lsn over open brackets
  const uint64_t pager_uid_;          // process-unique, set in the ctor
  std::unique_ptr<SpillFile> spill_;  // created on first eviction/checkpoint
  std::unique_ptr<Wal> wal_;          // durable mode only
  uint64_t last_checkpoint_lsn_ = 0;
  bool replaying_ = false;      // inside recovery: mutations are not re-logged
  bool in_checkpoint_ = false;  // guards auto-checkpoint reentrancy
  bool crashed_ = false;        // CrashForTesting/StandDown: nothing is
                                // logged, destructor stands down
  bool recovered_ = false;
  // Catalog metadata channel: provider (live) or carried-forward state
  // (recovered, pre-provider); see the public section.
  std::function<void(std::string*)> catalog_provider_;
  std::string catalog_blob_;
  std::vector<CatalogRecord> catalog_records_;
  // Deferred spill-slot frees, FIFO by freeing-record LSN.
  std::deque<DeferredFree> deferred_frees_;
  // Auto-checkpoint deferral (see CheckpointDeferral): while > 0, an
  // auto-checkpoint trigger latches checkpoint_pending_ instead of running.
  int checkpoint_defer_depth_ = 0;
  bool checkpoint_pending_ = false;
  friend class CheckpointDeferral;
  uint64_t recovery_records_ = 0;
  uint64_t recovery_bytes_ = 0;
  std::string wal_payload_;  // record build buffer, reused across appends
  std::string wal_wrap_;     // kTxnData envelope buffer (may not alias the
                             // payload being wrapped, hence separate)
  size_t resident_pages_ = 0;
  size_t clock_hand_ = 0;

  // Scan-resistance state. mount_sequential_ is latched by every access-path
  // entry (slot APIs via NoteSlotAccess, cursors via their own streak,
  // Pin/Truncate force it false) and consumed by FaultIn/EnsureCapacity when
  // they mount pages; every access path holds the structural latch end to
  // end, so the flag never crosses a latch release.
  bool mount_sequential_ = false;
  bool in_readahead_ = false;
  std::deque<ScanEntry> scan_fifo_;
  size_t scan_resident_ = 0;

  std::atomic<bool> accounting_{true};
  /// Counters cursors bump without the structural latch; everything else in
  /// stats_ is mutated under mu_ only. stats() assembles the full picture.
  std::atomic<uint64_t> slot_reads_{0};
  std::atomic<uint64_t> slot_writes_{0};
  std::atomic<uint64_t> pins_{0};
  PagerStats stats_;
  std::unordered_set<PageKey, PageKeyHash> epoch_read_;    // under stats_mu_
  std::unordered_set<PageKey, PageKeyHash> epoch_written_;  // under stats_mu_
};

/// Scope guard that holds off auto-checkpoints while a multi-record logical
/// operation is in flight. A fuzzy checkpoint snapshots the catalog blob via
/// the provider; if one fired *between* the page mutations of a DDL and its
/// catalog record — or between a schema edit and the storage rewrite it
/// describes — the snapshot could capture a half-applied schema change. The
/// catalog layer wraps every DDL body in one of these; a trigger that fires
/// inside the scope is latched and runs at scope exit, once the operation's
/// records (page redo + DDL) have all been appended. Re-entrant; a no-op on
/// non-durable pagers.
class CheckpointDeferral {
 public:
  explicit CheckpointDeferral(Pager& pager) : pager_(pager) {
    std::lock_guard<std::recursive_mutex> lock(pager_.mu_);
    pager_.checkpoint_defer_depth_ += 1;
  }
  ~CheckpointDeferral() {
    std::lock_guard<std::recursive_mutex> lock(pager_.mu_);
    pager_.checkpoint_defer_depth_ -= 1;
    if (pager_.checkpoint_defer_depth_ == 0 && pager_.checkpoint_pending_) {
      pager_.checkpoint_pending_ = false;
      if (pager_.wal_ != nullptr && !pager_.crashed_) {
        pager_.MaybeAutoCheckpoint();
      }
    }
  }
  CheckpointDeferral(const CheckpointDeferral&) = delete;
  CheckpointDeferral& operator=(const CheckpointDeferral&) = delete;

 private:
  Pager& pager_;
};

/// RAII statement bracket (see Pager::BeginStatement). `txn` routes the
/// statement into an explicit transaction context; 0 joins the thread's
/// innermost bound context or opens a fresh autocommit one. Destruction
/// without an explicit Commit() ends the statement abort-wise — the safe
/// default on every error path, because by then the caller's rollback
/// compensations are inside the bracket and replaying it is a net no-op.
/// Commit() ends it commit-wise and returns the WAL end boundary for
/// SyncWalThrough (0 when no bracket closed). Cheap on non-durable pagers.
class StatementScope {
 public:
  explicit StatementScope(Pager& pager, TxnId txn = 0) : pager_(&pager) {
    txn_ = pager_->BeginStatement(txn);
  }
  ~StatementScope() {
    if (pager_ != nullptr) pager_->EndStatement(/*commit=*/false);
  }
  uint64_t Commit() {
    uint64_t end = pager_->EndStatement(/*commit=*/true);
    pager_ = nullptr;
    return end;
  }
  /// The context this statement runs under (an autocommit statement's
  /// fresh id is the age callers hand to the write-latch table).
  TxnId txn() const { return txn_; }
  StatementScope(const StatementScope&) = delete;
  StatementScope& operator=(const StatementScope&) = delete;

 private:
  Pager* pager_;
  TxnId txn_ = 0;
};

}  // namespace storage
}  // namespace dataspread

#endif  // DATASPREAD_STORAGE_PAGER_H_
