#ifndef DATASPREAD_STORAGE_HYBRID_STORE_H_
#define DATASPREAD_STORAGE_HYBRID_STORE_H_

#include <vector>

#include "storage/table_storage.h"

namespace dataspread {

/// The paper's Relational Storage Manager: a hybrid of row- and column-store
/// organized as **attribute groups** (§3).
///
/// Tuples are decomposed along groups of attributes; each group is one pager
/// file, row-major within the group (row-store locality) and independent
/// across groups (column-store independence). The initial schema forms one
/// group; every ALTER TABLE ADD COLUMN allocates a *fresh single-attribute
/// group*, so a schema change writes only the new group's pages — "radically
/// reducing the disk blocks that need an update during a schema change".
///
/// Reorganize() merges all groups back into one for scan locality after a
/// burst of schema changes (an offline maintenance step; listed as a design
/// extension in DESIGN.md).
class HybridStore : public TableStorage {
 public:
  HybridStore(size_t num_columns, storage::Pager* pager,
           const storage::PagerConfig& config = {});
  ~HybridStore() override;

  /// Rebinds to recovered attribute-group files (manifest.groups carries the
  /// group→file structure and each group's column list); see AttachStorage
  /// for the num_rows / truncation contract.
  static Result<std::unique_ptr<HybridStore>> Attach(
      const StorageManifest& manifest, uint64_t num_rows,
      storage::Pager* pager);

  StorageManifest Manifest() const override;

  StorageModel model() const override { return StorageModel::kHybrid; }
  size_t num_rows() const override { return num_rows_; }
  size_t num_columns() const override { return col_map_.size(); }

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

  /// Number of attribute groups currently backing the table.
  size_t num_groups() const { return groups_.size(); }

  /// Merges every attribute group into a single row-major group, restoring
  /// whole-tuple page locality. Rewrites the table (dirty ≈ all pages).
  Status Reorganize();

 private:
  /// Attach path: adopts an existing group structure instead of creating it.
  HybridStore(storage::Pager* pager, size_t num_rows);

  struct Group {
    size_t width = 0;            // attributes in this group
    storage::FileId file = 0;    // row-major page chain: row * width + offset
  };
  struct ColumnLoc {
    size_t group;
    size_t offset;
  };

  uint64_t Entry(const Group& g, size_t row, size_t offset) const {
    return row * g.width + offset;
  }
  /// Removes `offset` from group `g`, compacting in place (group rewrite).
  void CompactGroupWithoutOffset(size_t group_index, size_t offset);

  size_t num_rows_ = 0;
  std::vector<Group> groups_;
  std::vector<ColumnLoc> col_map_;  // logical column -> (group, offset)
};

}  // namespace dataspread

#endif  // DATASPREAD_STORAGE_HYBRID_STORE_H_
