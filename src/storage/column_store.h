#ifndef DATASPREAD_STORAGE_COLUMN_STORE_H_
#define DATASPREAD_STORAGE_COLUMN_STORE_H_

#include <vector>

#include "storage/table_storage.h"

namespace dataspread {

/// COM: decomposed column store — one pager file per attribute, slot = row.
///
/// Schema changes touch only the affected attribute's file, but whole-tuple
/// reads fan out to one page per attribute. The hybrid store interpolates
/// between this and RowStore via attribute groups.
class ColumnStore : public TableStorage {
 public:
  ColumnStore(size_t num_columns, storage::Pager* pager,
           const storage::PagerConfig& config = {});
  ~ColumnStore() override;

  /// Rebinds to recovered per-column heaps (manifest.files[c] = column c);
  /// see AttachStorage for the num_rows / truncation contract.
  static Result<std::unique_ptr<ColumnStore>> Attach(
      const StorageManifest& manifest, uint64_t num_rows,
      storage::Pager* pager);

  StorageManifest Manifest() const override;

  StorageModel model() const override { return StorageModel::kColumn; }
  size_t num_rows() const override { return num_rows_; }
  size_t num_columns() const override { return files_.size(); }

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

 private:
  /// Attach path: adopts existing column files instead of creating them.
  ColumnStore(storage::Pager* pager, std::vector<storage::FileId> files,
              size_t num_rows);

  size_t num_rows_ = 0;
  std::vector<storage::FileId> files_;  // one page chain per attribute
};

}  // namespace dataspread

#endif  // DATASPREAD_STORAGE_COLUMN_STORE_H_
