#ifndef DATASPREAD_CATALOG_TABLE_H_
#define DATASPREAD_CATALOG_TABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog_codec.h"
#include "catalog/schema.h"
#include "catalog/undo_journal.h"
#include "common/result.h"
#include "index/positional_index.h"
#include "storage/table_storage.h"
#include "types/value.h"

namespace dataspread {

/// A change event emitted after every table mutation. The Interface Manager
/// subscribes to these to keep bound sheet regions in sync (paper §3,
/// "two-way synchronization").
struct TableChange {
  enum class Kind {
    kInsert,   ///< one row inserted at `position`
    kDelete,   ///< one row removed from `position`
    kUpdate,   ///< cell (`position`, `column`) changed
    kSchema,   ///< columns added/dropped/renamed
    kBulk,     ///< many rows changed at once (bulk load / SQL DML)
  };
  Kind kind;
  size_t position = 0;
  size_t column = 0;
};

/// A relational table that is *interface-aware*: besides schema + storage it
/// maintains
///   - a display order over rows through a PositionalIndex (the N-th row of
///     the table as presented on a sheet is O(log n) away),
///   - an optional primary-key hash index (the key↔position machinery),
///   - a monotonically increasing version and change listeners.
///
/// Rows are identified internally by stable row ids; the positional index
/// stores row ids in display order, and an id→slot table absorbs the storage
/// layer's swap-on-delete renumbering.
///
/// On a *durable* pager (PagerConfig{wal_path}) the table also owns two side
/// files inside the pager — `order_file` (display position → row id) and
/// `rid_file` (storage slot → row id) — updated alongside every DML so the
/// page-level WAL makes the display order and id maps exactly as durable as
/// the data, and schema changes append catalog DDL records
/// (storage::WalRecordType::kAddColumn etc.). Scratch tables skip all of it:
/// zero extra writes, unchanged accounting. DESIGN.md §6 "Catalog recovery".
class Table {
 public:
  /// Creates an empty table. `model` selects the physical layout; the paper's
  /// design is StorageModel::kHybrid. `pager` is the paged storage engine the
  /// table's heaps live in (shared across a database's tables so all I/O is
  /// accounted in one pool); null gives the table a private pager shaped by
  /// `pager_config` (buffer-pool cap + spill path).
  static Result<std::unique_ptr<Table>> Create(
      std::string name, Schema schema,
      StorageModel model = StorageModel::kHybrid,
      storage::Pager* pager = nullptr,
      const storage::PagerConfig& pager_config = {});

  /// Rebinds a table to its recovered pager files — the reopen path. The
  /// storage is attached to the manifest's files, the display order and id
  /// maps are read back from the descriptor's side files, and the pk index
  /// is rebuilt from data. WAL statement brackets make recovery itself
  /// discard any statement torn by a crash (DESIGN.md §7), so this normally
  /// sees a committed boundary; the legacy torn-statement reconciliation
  /// (DESIGN.md §6) is retained as a fallback for pre-bracket logs.
  /// Anything beyond that is corruption and fails.
  static Result<std::unique_ptr<Table>> Attach(const TableDescriptor& desc,
                                               storage::Pager* pager);

  /// This table's durable identity: everything Attach needs. Valid at any
  /// statement boundary; the catalog serializes it into checkpoint
  /// snapshots and DDL records.
  TableDescriptor Describe() const;

  /// Durable tables leave their pager files alive on destruction (the files
  /// are the persistent data); DROP TABLE clears this before destroying so
  /// an explicit drop still deallocates. No-op for scratch tables.
  void set_retain_files(bool retain);

  ~Table();

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return order_.size(); }
  uint64_t version() const { return version_; }
  TableStorage& storage() { return *storage_; }

  // ---- Ordered (display-position) access ------------------------------------

  /// Whole tuple at display position `pos`.
  Result<Row> GetRowAt(size_t pos) const;
  /// One attribute at display position `pos`.
  Result<Value> GetAt(size_t pos, size_t col) const;
  /// Updates one attribute; enforces column type and PK uniqueness.
  Status UpdateAt(size_t pos, size_t col, Value v);
  /// Inserts a tuple so it displays at `pos` (0..num_rows()).
  Status InsertRowAt(size_t pos, Row row);
  /// Appends a tuple at the end of the display order.
  Status AppendRow(Row row);
  /// Deletes the tuple at display position `pos`.
  Status DeleteRowAt(size_t pos);

  /// The pane read path: tuples at positions [start, start+count) clipped to
  /// the table size. O(log n + count·cols).
  std::vector<Row> GetWindow(size_t start, size_t count) const;

  /// Visits all tuples in display order; `fn` returns false to stop early.
  void Scan(const std::function<bool(size_t pos, const Row&)>& fn) const;

  /// The batch read path under the executor's table scan: for every i,
  /// appends column `columns[i]` of the tuples at display positions
  /// [start, start+count) (clipped to the table) to `*out[i]`, in display
  /// order. The window's row ids are read one positional-index leaf span at
  /// a time, mapped to storage slots, and handed to one
  /// TableStorage::GatherRows call — one page-cursor sweep per touched file,
  /// whatever the display order — so only the listed columns are read.
  Status GatherWindow(size_t start, size_t count,
                      const std::vector<size_t>& columns,
                      std::vector<Value>* const* out) const;

  /// The slot-run structure of a window, for morsel partitioning
  /// (src/exec/morsel.h): resolves display positions
  /// [start, start+count) (clipped) to storage slots and reports each
  /// maximal run of consecutive slots as `fn(pos, slot, len)` — tuples at
  /// display positions [pos, pos+len) live at storage slots
  /// [slot, slot+len). Runs arrive in display order and tile the window
  /// exactly, so cutting morsels at run boundaries keeps every morsel a
  /// bulk-path sweep.
  void VisitSlotRuns(
      size_t start, size_t count,
      const std::function<void(size_t pos, size_t slot, size_t len)>& fn)
      const;

  // ---- Primary key ----------------------------------------------------------

  // The key accessors below find a row through the primary-key hash index,
  // which holds each key as stored (coerced to the column type). A lookup
  // finds exactly the rows SQL `=` matches only for a `key` of the column's
  // type or its exact numeric equivalent; beyond 2^53 `Value::Hash` and
  // `Value::Compare` disagree across INTEGER/REAL. SQL callers go through
  // MatchKeyEquality (src/exec/key_match.h), which only hands out such keys.
  // All three return NotFound for a missing key and InvalidArgument for a
  // table without a PRIMARY KEY.

  /// Display position of the row with primary key `key`. A miss costs one
  /// hash probe; a hit then walks the whole order index to recover the
  /// position (rows do not track their position, since a middle insert
  /// would shift all of them): O(n).
  Result<size_t> FindByKey(const Value& key) const;

  /// Whole tuple with primary key `key`: one hash probe plus one storage
  /// read per column. O(1) expected, independent of the table size.
  Result<Row> GetRowByKey(const Value& key) const;

  /// Updates one attribute of the row with PK `key` without resolving its
  /// display position — the key↔tuple half of the paper's key↔location
  /// mapping. Emits a kBulk change (the position is not computed).
  Status UpdateByKey(const Value& key, size_t col, Value v);

  // ---- Schema changes (the paper's "as efficient as tuple updates") ---------

  Status AddColumn(ColumnDef def, const Value& default_value);
  Status DropColumn(std::string_view column_name);
  Status RenameColumn(std::string_view from, std::string_view to);

  /// Merges a hybrid table's attribute groups back into one row-major group
  /// (HybridStore::Reorganize) and logs the rebinding as a kReorganize DDL
  /// record, so the new group→file structure survives a reopen. Durable
  /// hybrid tables must reorganize through here, not the storage directly
  /// — a bare HybridStore::Reorganize() would leave the logged catalog
  /// pointing at dropped files. No-op for other models.
  Status Reorganize();

  // ---- Transaction undo (src/db/database.cc, DESIGN.md §7) ------------------

  /// Installs (or clears, with nullptr) a transaction undo journal: while
  /// one is installed, every successful DML mutator appends its before-image
  /// entry. The Database layer installs the owning session's journal when a
  /// transaction acquires this table's write latch and clears it again when
  /// the transaction ends.
  void set_undo_journal(UndoJournal* journal) { undo_ = journal; }

  /// The transaction context that owns this table's write latch (0 = none).
  /// While set, every DML helper's statement bracket joins that context —
  /// regardless of calling thread — so a transaction's table mutations and
  /// their rollback compensations all ride the transaction's WAL bracket.
  /// Set/cleared by the Database layer together with the undo journal.
  void set_write_txn(storage::TxnId txn) { write_txn_ = txn; }
  storage::TxnId write_txn() const { return write_txn_; }

  /// Reverses an insert recorded as (pos, rid): deletes the row and hands
  /// the row id back (`next_rid_` steps straight down — every later insert
  /// has already been undone). Capture is suspended inside.
  Status UndoInsertRow(size_t pos, uint64_t rid);
  /// Reverses a delete: re-inserts `row` at `pos` under its original `rid`.
  Status UndoDeleteRow(size_t pos, Row row, uint64_t rid);
  /// Reverses a cell update on row `rid` (rid-addressed so UpdateByKey is
  /// undoable without recovering a display position).
  Status UndoUpdateCell(uint64_t rid, size_t col, Value old_value);

  // ---- Change notification ---------------------------------------------------

  using Listener = std::function<void(const Table&, const TableChange&)>;
  /// Registers a listener; returns a token for RemoveListener.
  int AddListener(Listener listener);
  void RemoveListener(int token);

 private:
  Table(std::string name, Schema schema, std::unique_ptr<TableStorage> storage);

  Status ValidateRow(const Row& row) const;
  /// The primary-key constraint for giving row `rid` the (coerced) key
  /// `key`: not NULL, not NaN, and not held by another row.
  Status CheckKey(const Value& key, uint64_t rid) const;
  Result<Value> CoerceForColumn(Value v, size_t col) const;
  /// InsertRowAt with the row id chosen by the caller — the undo-delete
  /// path re-inserts under the original rid; the public path passes
  /// `next_rid_`.
  Status InsertRowAtWithRid(size_t pos, Row row, uint64_t rid);
  size_t SlotOf(uint64_t rid) const { return rid_to_slot_[rid]; }
  /// Storage slots of display positions [start, start+count) (clipped), in
  /// display order.
  std::vector<size_t> WindowSlots(size_t start, size_t count) const;
  void Notify(const TableChange& change);
  /// Rebuilds pk index; used after schema changes that affect the PK column.
  void RebuildPkIndex();

  /// True when this table persists its catalog state (durable pager).
  bool durable() const { return order_file_ != 0; }
  /// Rewrites order-file slots [from, order_.size()) from the in-memory
  /// order — the shifted tail after a positional insert/delete. O(1) for
  /// appends, O(n - from) for middle edits.
  void PersistOrderTail(size_t from);
  /// Appends a catalog DDL record carrying this table's full descriptor.
  void LogDdl(storage::WalRecordType type);
  /// Installs recovered order/rid maps (Attach's last step).
  void AdoptRowMaps(const std::vector<uint64_t>& order_rids,
                    const std::vector<uint64_t>& slot_rids,
                    uint64_t next_rid_floor);

  std::string name_;
  Schema schema_;
  std::unique_ptr<TableStorage> storage_;
  PositionalIndex order_;                 // display position -> row id
  std::vector<size_t> rid_to_slot_;       // row id -> storage slot
  std::vector<uint64_t> slot_to_rid_;     // storage slot -> row id
  std::unordered_map<Value, uint64_t, ValueHash> pk_to_rid_;
  uint64_t next_rid_ = 0;
  uint64_t version_ = 0;
  int next_listener_token_ = 1;
  std::vector<std::pair<int, Listener>> listeners_;
  // Durable catalog state (0 = scratch table): see the class comment.
  storage::FileId order_file_ = 0;
  storage::FileId rid_file_ = 0;
  bool retain_files_ = false;
  UndoJournal* undo_ = nullptr;  // non-null while a txn holds the write latch
  storage::TxnId write_txn_ = 0;  // owning txn context (see set_write_txn)

};

}  // namespace dataspread

#endif  // DATASPREAD_CATALOG_TABLE_H_
