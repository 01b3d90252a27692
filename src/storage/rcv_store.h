#ifndef DATASPREAD_STORAGE_RCV_STORE_H_
#define DATASPREAD_STORAGE_RCV_STORE_H_

#include <unordered_map>
#include <vector>

#include "storage/table_storage.h"

namespace dataspread {

/// RCV: row-column-value triple store, clustered by column.
///
/// The schema-less baseline: only non-NULL cells are materialized, so it
/// excels on sparse data and NULL-default schema changes, and degrades on
/// dense scans. Each logical column owns a pager file holding its
/// materialized values as a dense heap, plus a row→slot point index;
/// columns are identified by their file, so DropColumn never renumbers
/// surviving triples. Reads of unmaterialized cells resolve entirely in the
/// in-memory index and touch no data page.
///
/// Durable pagers add one *back-pointer file* per column (slot → row as an
/// INT value, mirroring the in-memory slot_to_row vector) so the point
/// index can be rebuilt when a reopened database rebinds to the recovered
/// heaps — the only per-cell metadata any model needs beyond its data
/// pages. Scratch pagers skip it entirely (zero accounting change).
class RcvStore : public TableStorage {
 public:
  RcvStore(size_t num_columns, storage::Pager* pager,
           const storage::PagerConfig& config = {});
  ~RcvStore() override;

  /// Rebinds to recovered heaps + back-pointer files (manifest.files =
  /// {heap0, backptr0, heap1, backptr1, ...}); rebuilds the point indexes
  /// from the back-pointer files and erases triples of rows past `num_rows`
  /// (remnants of a statement in flight at the crash).
  static Result<std::unique_ptr<RcvStore>> Attach(
      const StorageManifest& manifest, uint64_t num_rows,
      storage::Pager* pager);

  StorageManifest Manifest() const override;

  StorageModel model() const override { return StorageModel::kRcv; }
  size_t num_rows() const override { return num_rows_; }
  size_t num_columns() const override { return columns_.size(); }

  Result<Value> Get(size_t row, size_t col) const override;
  Status Set(size_t row, size_t col, Value v) override;
  Result<Row> GetRow(size_t row) const override;
  Status GatherRows(const size_t* slots, size_t n,
                    const std::vector<size_t>& columns,
                    std::vector<Value>* const* out) const override;
  Result<size_t> AppendRow(const Row& row) override;
  Result<size_t> DeleteRow(size_t row) override;
  Status AddColumn(const Value& default_value) override;
  Status DropColumn(size_t col) override;

  /// Number of materialized (non-NULL) triples; exposed for sparsity tests.
  size_t num_triples() const;

 private:
  struct InternalColumn {
    storage::FileId file = 0;
    /// Durable mirror of slot_to_row (slot → row as INT); 0 on scratch
    /// pagers, where the index never needs to survive the process.
    storage::FileId backptr = 0;
    std::unordered_map<uint64_t, uint64_t> row_to_slot;  // triple point index
    std::vector<uint64_t> slot_to_row;                   // heap back-pointers
  };

  /// Attach path: adopts an existing column layout instead of creating one.
  RcvStore(storage::Pager* pager, size_t num_rows);

  /// Materializes (or overwrites) the triple (column, row) = v.
  void SetTriple(InternalColumn& ic, uint64_t row, Value v);
  /// Unmaterializes the triple, compacting the column heap swap-with-last.
  void EraseTriple(InternalColumn& ic, uint64_t row);
  /// Reads the triple's value, or null when unmaterialized.
  Value ReadTriple(const InternalColumn& ic, uint64_t row) const;
  /// Attach repair: drops the triple at `slot` (phantom row or torn-erase
  /// duplicate) by moving the last triple into it, maps included.
  void RemoveSlotForAttach(InternalColumn& ic, uint64_t slot);

  size_t num_rows_ = 0;
  std::vector<InternalColumn> columns_;  // logical col -> column heap
};

}  // namespace dataspread

#endif  // DATASPREAD_STORAGE_RCV_STORE_H_
