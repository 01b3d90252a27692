#ifndef DATASPREAD_STORAGE_WAL_H_
#define DATASPREAD_STORAGE_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>

namespace dataspread {
namespace storage {

/// WAL record types. The numeric values are part of the on-disk format.
enum class WalRecordType : uint8_t {
  /// Snapshot of the pager's durable metadata (file chains, spill directory,
  /// next file id). Always — and only — the first record of a WAL file;
  /// written by the atomic checkpoint rewrite. Replay starts from it.
  kCheckpoint = 1,
  /// Physical redo of a slot-range mutation: {file, page, first_slot, count,
  /// post-op file size, encoded values}. A record whose range covers the
  /// whole page is a *full-page image* (FPI) — the first mutation of any
  /// page after a checkpoint is logged as one, so recovery never depends on
  /// a spill-file base that a post-checkpoint write-back may have torn.
  kUpdate = 2,
  /// Chain capacity growth without a size change (e.g. Pin past the end).
  kGrow = 3,
  /// File truncation to a slot count (boundary-page clearing replays
  /// through Pager::Truncate itself).
  kTruncate = 4,
  kCreateFile = 5,
  kDropFile = 6,
  /// Fuzzy-checkpoint begin: carries the dirty-page table (list of
  /// (file, page) dirty when the checkpoint started). Informational under
  /// replay-everything redo — it documents the checkpoint protocol and lets
  /// offline tooling reason about a crash mid-checkpoint.
  kCheckpointBegin = 7,
  /// Fuzzy-checkpoint end; follows the kCheckpoint snapshot in the rewritten
  /// log, closing the begin/end bracket.
  kCheckpointEnd = 8,

  // ---- Catalog DDL records (opaque to the Pager) ---------------------------
  //
  // The catalog layer logs schema changes through Pager::LogCatalogRecord
  // with these types. Their payloads are serialized TableDescriptors
  // (catalog/catalog_codec.h) that the pager neither parses nor applies: on
  // replay they are collected in order and handed to the catalog layer
  // after page redo completes (Pager::recovered_catalog_records). Every one
  // of them is a commit point — LogCatalogRecord fsyncs, so an acknowledged
  // DDL statement survives any crash. DESIGN.md §6 "Catalog recovery".

  /// Full descriptor of a newly created table.
  kCreateTable = 9,
  /// Name (string payload) of a dropped table. The table's page files are
  /// dropped through ordinary kDropFile records by the storage layer.
  kDropTable = 10,
  /// Full post-change descriptor of a table that gained a column.
  kAddColumn = 11,
  /// Full post-change descriptor of a table that lost a column.
  kDropColumn = 12,
  /// Full post-change descriptor after a column rename.
  kRenameColumn = 13,
  /// Full post-change descriptor after a hybrid table's attribute groups
  /// were merged (the group→file bindings changed wholesale).
  kReorganize = 14,

  // ---- Statement transaction brackets (DESIGN.md §7) -----------------------
  //
  // The pager wraps every logged statement/transaction in a begin/commit
  // bracket (Pager::BeginStatement/EndStatement, BeginTxn/CommitTxn).
  // Several brackets may be open at once (one per concurrent transaction),
  // so each marker carries the owning transaction id (u64 payload) and every
  // record logged inside a bracket is wrapped in a kTxnData envelope tagged
  // with that id. Recovery buffers each bracket's records independently and
  // applies a bracket only when its closing record is reached: a log that
  // ends inside a bracket replays to the state *before* that transaction.
  // Records outside any bracket (checkpoints, DDL) replay immediately.

  /// Opens a statement/transaction bracket. Payload: owning txn id (u64).
  /// Appended lazily before the first record a bracketed statement logs.
  kTxnBegin = 15,
  /// Closes a bracket: the transaction committed; replay applies its
  /// records. Payload: txn id (u64).
  kTxnCommit = 16,
  /// Closes a bracket after a rollback. The bracket contains the
  /// transaction's mutations *and* their logged compensations, so replay
  /// applies it like a commit (net no-op) — and a bracket torn before this
  /// record is discarded, which reaches the same state. Payload: txn id
  /// (u64).
  kTxnAbort = 17,
  /// One record logged inside a bracket. Payload: owning txn id (u64) +
  /// inner record type (u8) + the inner record's payload. The envelope lets
  /// records of concurrently open brackets interleave in one log while
  /// recovery routes each to its own bracket buffer.
  kTxnData = 18,

  // ---- Catalog display-order records (opaque to the Pager) -----------------
  //
  // A durable table's display order lives in its in-memory PositionalIndex;
  // these records make it durable one positional operation at a time
  // (catalog/catalog_codec.h has the payloads, keyed by the table's rid
  // file id). Unlike DDL they are ordinary statement records: logged inside
  // the statement bracket, never synced on their own, and collected on
  // replay when their bracket closes, in close order, into the same list
  // as the DDL records (Pager::recovered_catalog_records). The checkpoint
  // snapshot's catalog blob carries each table's full order, so only the
  // records since the last checkpoint ever replay.

  /// A row id entered the display order: table id, position, row id.
  kOrderInsert = 19,
  /// The row at a display position left the order: table id, position.
  kOrderErase = 20,
};

/// True for the record types the pager treats as opaque catalog DDL.
inline bool IsCatalogRecordType(WalRecordType t) {
  return t >= WalRecordType::kCreateTable && t <= WalRecordType::kReorganize;
}

/// True for the opaque catalog display-order records.
inline bool IsOrderRecordType(WalRecordType t) {
  return t == WalRecordType::kOrderInsert || t == WalRecordType::kOrderErase;
}

/// The redo-only write-ahead log of a durable Pager (ARIES-lite; see
/// DESIGN.md §6 "Durability & recovery").
///
/// This class owns the *file format and framing* only — what the records
/// mean is the Pager's business. On disk:
///
///   file   := header record*
///   header := magic:u64 ("DSWAL001") base_lsn:u64 crc:u32(base_lsn)
///   record := body_len:u32 crc:u32(lsn||body) lsn:u64 body
///   body   := type:u8 payload
///
/// LSNs are logical stream positions: they start at 0 at the first
/// checkpoint ever and keep growing monotonically across checkpoint rewrites
/// (the header's base_lsn anchors the file's first record), so a page's
/// `page_lsn` can always be compared with `durable_lsn()` no matter how many
/// times the log has been truncated. A record's LSN equals base_lsn plus its
/// byte offset past the header — stored explicitly, validated on scan, and
/// covered by the record CRC.
///
/// Append path: records accumulate in a process-level buffer, drain to the
/// OS in record-aligned chunks, and become durable only at Sync() (fsync).
/// `EnsureDurable(lsn)` is the WAL rule's hook: the pager calls it before
/// any page write-back, so the spill file never holds the effects of a
/// record that could still be lost (flushed-LSN >= page_lsn).
///
/// Checkpoint rewrite: `RewriteWithCheckpoint()` builds a brand-new log —
/// header, kCheckpoint snapshot, kCheckpointEnd — in a temp file, fsyncs it,
/// and renames it over the old log (then fsyncs the directory). The swap is
/// atomic: a crash leaves either the old log (whose records replay
/// idempotently over the newer spill state, thanks to full-page images) or
/// the new one. This is also how the first log of a fresh pager is born.
///
/// Recovery scan: `Open()` reads the header, replays every record whose
/// length, LSN, and CRC check out, and stops at the first torn or corrupt
/// record — the tail is physically truncated away and appending resumes at
/// the valid end.
///
/// Threading: Append/Sync/SyncThrough/EnsureDurable are safe to call from
/// any thread. Sync is *group commit*: concurrent committers park on a
/// condition variable while one leader drains the buffer and fsyncs once
/// for the whole group — the fsync runs outside the mutex, so appends (and
/// later committers) proceed while the leader's barrier is in flight.
/// Open() and RewriteWithCheckpoint() still assume a single caller (the
/// pager runs them under its structural latch); RewriteWithCheckpoint
/// waits out any in-flight leader fsync before swapping files.
class Wal {
 public:
  /// One decoded log record as handed to Open()'s replay callback. `lsn` is
  /// the record's logical stream position (monotone across checkpoint
  /// rewrites); `payload` starts *after* the type byte.
  struct Record {
    uint64_t lsn = 0;
    WalRecordType type = WalRecordType::kCheckpoint;
    std::string payload;
  };

  /// On-disk framing sizes: magic + base_lsn + header CRC, and per record
  /// body_len + record CRC + lsn. Part of the file format.
  static constexpr size_t kFileHeaderBytes = 8 + 8 + 4;
  static constexpr size_t kRecordHeaderBytes = 4 + 4 + 8;

  /// Binds to `path` without touching the file; call Open() to read an
  /// existing log (or RewriteWithCheckpoint() to create one).
  explicit Wal(std::string path);
  /// Closes the append handle. Buffered-but-undrained records are lost —
  /// exactly what durability promises: only Sync()'d state survives.
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens an existing log and replays it: `replay` is called for every
  /// intact record in order (the first is always the kCheckpoint snapshot).
  /// The torn/corrupt tail, if any, is truncated off and append state is
  /// positioned at the valid end. Returns false when no log exists yet (the
  /// caller then writes the first checkpoint via RewriteWithCheckpoint).
  /// Aborts on a log whose header is unreadable — that is corruption of
  /// state we cannot silently discard, not a torn tail.
  bool Open(const std::function<void(const Record&)>& replay);

  /// Appends one record; returns its LSN. The record is buffered — call
  /// Sync() (or let EnsureDurable do it) to make it crash-proof.
  uint64_t Append(WalRecordType type, const std::string& payload);

  /// Drains the buffer and fsyncs: everything appended so far is durable.
  void Sync();
  /// Group-commit barrier: returns once `durable_lsn() >= lsn` (an *end*
  /// boundary — pass next_lsn() as of the last record to cover). If a
  /// leader's fsync is already in flight, parks on the condition variable
  /// and re-checks on wake; otherwise becomes the leader, drains everything
  /// appended so far, and fsyncs once for every parked committer.
  void SyncThrough(uint64_t lsn);
  /// The WAL rule choke point: no-op when `lsn` is already durable,
  /// otherwise Sync(). Called by the pager before every page write-back.
  void EnsureDurable(uint64_t lsn);

  /// Atomically replaces the log with header + kCheckpoint(snapshot) +
  /// kCheckpointEnd, all fsynced. Returns the LSN of the snapshot record;
  /// every LSN at or below it is durable afterwards.
  uint64_t RewriteWithCheckpoint(const std::string& snapshot_payload);

  /// Next LSN to be assigned (== logical end of the stream).
  uint64_t next_lsn() const { return next_lsn_.load(std::memory_order_acquire); }
  /// Highest LSN guaranteed on stable storage (fsynced).
  uint64_t durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }
  /// LSN of the current checkpoint snapshot record (start of the live log).
  uint64_t checkpoint_lsn() const {
    return checkpoint_lsn_.load(std::memory_order_acquire);
  }
  /// Bytes of redo currently in the log past the checkpoint snapshot and
  /// its end bracket — the quantity auto-checkpointing triggers on, and the
  /// bound on replay work. Excludes the snapshot records themselves: a
  /// snapshot that outgrows the auto-checkpoint threshold must not make
  /// every subsequent append re-checkpoint (checkpoint storm).
  uint64_t bytes_since_checkpoint() const {
    return next_lsn() - redo_start_lsn_.load(std::memory_order_acquire);
  }

  const std::string& path() const { return path_; }
  uint64_t records_appended() const {
    return records_appended_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_appended() const {
    return bytes_appended_.load(std::memory_order_relaxed);
  }
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }

  /// Crash simulation: throws away the not-yet-drained buffer tail and
  /// closes the file handle without flushing anything further — exactly
  /// what dies with a SIGKILL'd process. The Wal is unusable afterwards.
  /// `keep_os_buffered` drains (but does not fsync) first, modeling a kill
  /// where the OS survives and the page cache reaches disk.
  void CrashForTesting(bool keep_os_buffered);

 private:
  std::FILE* EnsureAppendHandle();
  /// fwrite+fflush the pending buffer (record-aligned) without fsync.
  /// Caller holds mu_.
  void Drain();
  /// Blocks until no leader fsync is in flight. Caller holds `lock`.
  void WaitForSyncIdle(std::unique_lock<std::mutex>& lock);
  static void FsyncDirOf(const std::string& path);

  std::string path_;
  std::FILE* file_ = nullptr;  // append handle ("ab"); null until first use
  std::string pending_;        // whole records not yet handed to the OS
  uint64_t base_lsn_ = 0;      // LSN of the first record in the file

  /// Guards file_/pending_/crashed_ and writes to the LSN counters. The
  /// counters themselves are atomics so hot accessors (durable_lsn, the
  /// pager's deferred-free drain) read them without taking the mutex.
  std::mutex mu_;
  /// Group commit: followers park here while `sync_active_` (one leader's
  /// fsync runs outside mu_); the leader broadcasts on completion.
  std::condition_variable cv_;
  bool sync_active_ = false;

  std::atomic<uint64_t> next_lsn_{0};
  std::atomic<uint64_t> durable_lsn_{0};
  std::atomic<uint64_t> checkpoint_lsn_{0};
  std::atomic<uint64_t> redo_start_lsn_{0};  // first LSN past the checkpoint
  bool crashed_ = false;

  std::atomic<uint64_t> records_appended_{0};
  std::atomic<uint64_t> bytes_appended_{0};
  std::atomic<uint64_t> syncs_{0};

  /// Pending buffer drains to the OS past this size even without a Sync —
  /// keeps memory bounded while preserving record alignment of file writes.
  static constexpr size_t kDrainThresholdBytes = 1u << 20;
};

}  // namespace storage
}  // namespace dataspread

#endif  // DATASPREAD_STORAGE_WAL_H_
