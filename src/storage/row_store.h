#ifndef DATASPREAD_STORAGE_ROW_STORE_H_
#define DATASPREAD_STORAGE_ROW_STORE_H_

#include "storage/table_storage.h"

namespace dataspread {

/// ROM: classic N-ary row store — one pager file of whole tuples, laid out
/// row-major with stride num_columns().
///
/// This is the "today's databases" baseline from the paper's §2.2: a schema
/// change (add/drop column) changes the tuple stride and therefore rewrites
/// every tuple in place, dirtying essentially every page of the file. Point
/// tuple reads touch a single page.
class RowStore : public TableStorage {
 public:
  RowStore(size_t num_columns, storage::Pager* pager,
           const storage::PagerConfig& config = {});
  ~RowStore() override;

  /// Rebinds to a recovered tuple heap (manifest.files = {heap}); see
  /// AttachStorage for the num_rows / truncation contract.
  static Result<std::unique_ptr<RowStore>> Attach(const StorageManifest& manifest,
                                                  uint64_t num_rows,
                                                  storage::Pager* pager);

  StorageManifest Manifest() const override;

  StorageModel model() const override { return StorageModel::kRow; }
  size_t num_rows() const override { return num_rows_; }
  size_t num_columns() const override { return num_columns_; }

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
  /// Attach path: adopts an existing heap file instead of creating one.
  RowStore(storage::Pager* pager, storage::FileId file, size_t num_columns,
           size_t num_rows);

  uint64_t Entry(size_t row, size_t col) const {
    return row * num_columns_ + col;
  }

  size_t num_columns_;
  size_t num_rows_ = 0;
  storage::FileId file_;
};

}  // namespace dataspread

#endif  // DATASPREAD_STORAGE_ROW_STORE_H_
