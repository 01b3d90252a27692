#ifndef DATASPREAD_STORAGE_TABLE_STORAGE_H_
#define DATASPREAD_STORAGE_TABLE_STORAGE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/page.h"
#include "storage/pager.h"
#include "types/value.h"

namespace dataspread {

/// Physical layout of a table. The paper's Relational Storage Manager is the
/// hybrid attribute-group layout; the others are baselines for the storage
/// ablation (DESIGN.md experiment A1) and the schema-change experiment (C2).
enum class StorageModel {
  kRow,     ///< ROM: one heap of whole tuples ("today's database" baseline).
  kColumn,  ///< COM: one file per attribute.
  kRcv,     ///< Row-Column-Value triples, column-major (schema-less baseline).
  kHybrid,  ///< Attribute groups (the paper's design).
};

const char* StorageModelName(StorageModel model);

/// Durable description of a table storage's physical layout: which pager
/// files hold its data and how logical columns map onto them. Serialized
/// into the catalog blob / DDL records (catalog/catalog_codec.h) so a
/// durable database can rebind a storage object to its recovered pager
/// files instead of creating fresh ones.
///
/// Per model:
///   kRow:    files = {tuple heap}
///   kColumn: files[c] = column c's heap
///   kRcv:    files[2c] = column c's value heap, files[2c+1] = its row
///            back-pointer file (present only on durable pagers)
///   kHybrid: groups[] carries the attribute-group structure; `files` unused
///
/// Row counts are deliberately absent: they are derived from recovered file
/// sizes at attach time (a checkpoint-stale count would undercount rows the
/// WAL replayed after the snapshot).
struct StorageManifest {
  StorageModel model = StorageModel::kHybrid;
  uint32_t num_columns = 0;
  std::vector<uint64_t> files;
  struct Group {
    uint64_t file = 0;
    uint32_t width = 0;
    /// Logical column index per group offset (columns[o] sits at offset o).
    std::vector<uint32_t> columns;
  };
  std::vector<Group> groups;
};

/// Storage-model-agnostic interface over a table's physical data.
///
/// Rows are addressed by dense *slots* in [0, num_rows()). Slots are storage
/// order, not display order: the catalog layer maintains display order with a
/// positional index on top. DeleteRow uses swap-with-last, so exactly one
/// surviving slot (the previous last one) is renumbered per delete; the caller
/// is told which.
///
/// Every model allocates its cell heaps from a storage::Pager — one file
/// (page chain) per heap/column/attribute-group — so all I/O is visible to
/// the pager's block-level accounting. A pager can be shared across tables
/// (the Database wires one pool through its Catalog); a storage constructed
/// without one owns a private pager built from the supplied PagerConfig
/// (pool cap + spill path), so even standalone tables can run bounded.
///
/// Cell type discipline is enforced by the catalog (schema) layer; storage
/// accepts any Value except errors.
class TableStorage {
 public:
  virtual ~TableStorage() = default;

  virtual StorageModel model() const = 0;
  virtual size_t num_rows() const = 0;
  virtual size_t num_columns() const = 0;

  /// Reads one cell. Fails with OutOfRange for bad coordinates.
  virtual Result<Value> Get(size_t row, size_t col) const = 0;
  /// Writes one cell.
  virtual Status Set(size_t row, size_t col, Value v) = 0;
  /// Reads a whole tuple.
  virtual Result<Row> GetRow(size_t row) const = 0;
  /// The one bulk read: for every i, appends logical column `columns[i]` of
  /// the tuples at storage slots `slots[0..n)` — in that order, which may be
  /// any order — to `*out[i]` (distinct vectors, one per listed column).
  /// Columns may be listed in any order and need not cover the schema, so a
  /// query reads only the attributes it references (column pruning).
  ///
  /// Every model serves this column by column with one PageCursor per file
  /// it touches: one page pin per data page visited instead of a chain hash
  /// lookup per cell, which also classifies the traversal as a scan for the
  /// pager's scan-resistant eviction. Row-major files (row store, hybrid
  /// attribute groups) copy the listed offsets out of one ReadSpan per tuple
  /// and fall back to per-slot reads for a tuple that straddles a page.
  /// A file holding no listed column is never touched. A slot >=
  /// num_rows() or a column >= num_columns() fails the whole call with
  /// OutOfRange before anything is appended.
  virtual Status GatherRows(const size_t* slots, size_t n,
                            const std::vector<size_t>& columns,
                            std::vector<Value>* const* out) const = 0;

  /// Appends a tuple; `row.size()` must equal num_columns(). Returns the slot.
  virtual Result<size_t> AppendRow(const Row& row) = 0;
  /// Removes slot `row` by moving the last slot into it. Returns the slot that
  /// was moved (== previous last slot), or `row` itself when it was last.
  virtual Result<size_t> DeleteRow(size_t row) = 0;

  /// Schema change: appends a column filled with `default_value`.
  /// For the hybrid model this allocates a fresh attribute group and leaves
  /// existing pages untouched — the paper's headline storage property.
  virtual Status AddColumn(const Value& default_value) = 0;
  /// Schema change: drops column `col`; higher columns shift down by one.
  virtual Status DropColumn(size_t col) = 0;

  /// The current physical layout (file bindings) of this storage — always
  /// live-accurate, so a checkpoint snapshot taken at any statement boundary
  /// describes exactly the files a reopen must rebind.
  virtual StorageManifest Manifest() const = 0;

  /// When set, the destructor leaves this storage's pager files alive
  /// instead of dropping them — the durable mode: the files *are* the
  /// persistent table data and must outlive the in-memory object. DROP
  /// TABLE clears the flag before destroying the table so an explicit drop
  /// still deallocates. Defaults to off (scratch tables free their pages).
  void set_retain_files(bool retain) { retain_files_ = retain; }
  bool retain_files() const { return retain_files_; }

  /// Durable DDL is copy-on-write: on a durable pager, schema-changing ops
  /// that would rewrite or drop existing files instead build fresh files
  /// (reading the old ones non-destructively) and *retire* the replaced
  /// ones here rather than dropping them. The catalog layer logs the DDL
  /// record — the commit point — and only then drops the retired files, so
  /// a crash-reopen binds either the old files (record lost) or the new
  /// ones (record durable), never a half-rewritten mixture. Scratch pagers
  /// keep the cheaper in-place rewrites and this list stays empty.
  std::vector<storage::FileId> TakeRetiredFiles() {
    return std::move(retired_files_);
  }

  /// Block-level accounting for this table's files (compatibility facade).
  PageAccountant& accountant() { return accountant_; }
  const PageAccountant& accountant() const { return accountant_; }

  /// The paged storage engine this table's heaps live in.
  storage::Pager& pager() { return *pager_; }
  const storage::Pager& pager() const { return *pager_; }

 protected:
  /// `config` shapes the private pager when `pager` is null; ignored for a
  /// shared pool (whose owner configured it).
  TableStorage(storage::Pager* pager, const storage::PagerConfig& config);

  /// Bounds guard of GatherRows: every slot and every listed column must
  /// exist.
  Status CheckGather(const size_t* slots, size_t n,
                     const std::vector<size_t>& columns) const;

  /// GatherRows over one row-major file of `width`-slot tuples (the row
  /// store's heap, a hybrid attribute group): appends tuple offset
  /// `offsets[j]` of every listed slot to `*out[j]`, for j in [0, k).
  static void GatherRowMajor(storage::Pager& pager, storage::FileId file,
                             size_t width, const size_t* slots, size_t n,
                             const size_t* offsets,
                             std::vector<Value>* const* out, size_t k);

  Status CheckCell(size_t row, size_t col) const {
    if (row >= num_rows()) {
      return Status::OutOfRange("row " + std::to_string(row) + " >= " +
                                std::to_string(num_rows()));
    }
    if (col >= num_columns()) {
      return Status::OutOfRange("column " + std::to_string(col) + " >= " +
                                std::to_string(num_columns()));
    }
    return Status::OK();
  }

  std::unique_ptr<storage::Pager> owned_pager_;
  storage::Pager* pager_;
  PageAccountant accountant_;
  bool retain_files_ = false;
  std::vector<storage::FileId> retired_files_;  // durable DDL (see above)
};

/// Creates an empty table with `num_columns` attributes in the given layout.
/// If `pager` is null the storage owns a private one built from `config`.
std::unique_ptr<TableStorage> CreateStorage(
    StorageModel model, size_t num_columns, storage::Pager* pager = nullptr,
    const storage::PagerConfig& config = {});

/// Row count recoverable from a manifest's file sizes alone: every model
/// keeps its files at exactly `rows × width` slots, so the floor of the
/// smallest file/width ratio is the last fully persisted row count. Returns
/// UINT64_MAX for layouts whose files cannot bound the row count (kRcv
/// materializes only non-NULL cells; zero-column tables) — the caller then
/// relies on the catalog's order file. Fails on a manifest referencing
/// unknown files.
Result<uint64_t> ManifestRows(const StorageManifest& manifest,
                              const storage::Pager& pager);

/// Rebinds a storage object to the recovered pager files named by
/// `manifest`, with exactly `num_rows` rows (the catalog layer derives the
/// count from its order file and ManifestRows). Files holding more than
/// `num_rows` rows are truncated down — the remnant of a statement in
/// flight at the crash; files holding fewer make the attach fail. The
/// result has retain_files() set: recovered files are persistent data.
Result<std::unique_ptr<TableStorage>> AttachStorage(
    const StorageManifest& manifest, uint64_t num_rows,
    storage::Pager* pager);

}  // namespace dataspread

#endif  // DATASPREAD_STORAGE_TABLE_STORAGE_H_
