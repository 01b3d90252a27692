#include "storage/table_storage.h"

#include <algorithm>
#include <utility>

#include "storage/hybrid_store.h"
#include "storage/rcv_store.h"

namespace dataspread {

const char* StorageModelName(StorageModel model) {
  switch (model) {
    case StorageModel::kRow:
      return "row";
    case StorageModel::kColumn:
      return "column";
    case StorageModel::kRcv:
      return "rcv";
    case StorageModel::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

Status TableStorage::CheckGather(const size_t* slots, size_t n,
                                 const std::vector<size_t>& columns) const {
  for (size_t c : columns) {
    if (c >= num_columns()) {
      return Status::OutOfRange("column " + std::to_string(c) + " >= " +
                                std::to_string(num_columns()));
    }
  }
  size_t rows = num_rows();
  for (size_t i = 0; i < n; ++i) {
    if (slots[i] >= rows) {
      return Status::OutOfRange("slot " + std::to_string(slots[i]) + " >= " +
                                std::to_string(rows));
    }
  }
  return Status::OK();
}

Status TableStorage::CheckStorable(const Value& v) {
  if (v.is_error()) {
    return Status::TypeError("error value " + v.error_code() +
                             " cannot enter relational storage");
  }
  return Status::OK();
}

TableStorage::TableStorage(storage::Pager* pager,
                           const storage::PagerConfig& config)
    : owned_pager_(pager == nullptr ? std::make_unique<storage::Pager>(config)
                                    : nullptr),
      pager_(pager == nullptr ? owned_pager_.get() : pager) {}

std::unique_ptr<TableStorage> CreateStorage(StorageModel model,
                                            size_t num_columns,
                                            storage::Pager* pager,
                                            const storage::PagerConfig& config) {
  if (model == StorageModel::kRcv) {
    return std::make_unique<RcvStore>(num_columns, pager, config);
  }
  return std::make_unique<HybridStore>(model, num_columns, pager, config);
}

Result<uint64_t> ManifestRows(const StorageManifest& manifest,
                              const storage::Pager& pager) {
  constexpr uint64_t kUnbounded = ~uint64_t{0};
  // RCV materializes only non-NULL cells: file sizes cannot bound the row
  // count. The catalog's display order is the authority.
  if (manifest.model == StorageModel::kRcv) return kUnbounded;
  DS_ASSIGN_OR_RETURN(std::vector<StorageManifest::Group> groups,
                      HybridStore::ManifestGroups(manifest));
  // Every group holds exactly `width` slots per row; the shortest one bounds
  // the fully persisted row count (a statement torn mid-append leaves a
  // ragged edge, and partial rows do not count).
  uint64_t rows = kUnbounded;
  for (const StorageManifest::Group& g : groups) {
    if (!pager.HasFile(g.file)) {
      return Status::Internal("storage manifest names a dead pager file");
    }
    // A row heap whose every column was dropped bounds nothing.
    if (g.width > 0) rows = std::min(rows, pager.FileSize(g.file) / g.width);
  }
  return rows;
}

Result<std::unique_ptr<TableStorage>> AttachStorage(
    const StorageManifest& manifest, uint64_t num_rows,
    storage::Pager* pager) {
  if (manifest.model == StorageModel::kRcv) {
    DS_ASSIGN_OR_RETURN(std::unique_ptr<RcvStore> s,
                        RcvStore::Attach(manifest, num_rows, pager));
    return std::unique_ptr<TableStorage>(std::move(s));
  }
  DS_ASSIGN_OR_RETURN(std::unique_ptr<HybridStore> s,
                      HybridStore::Attach(manifest, num_rows, pager));
  return std::unique_ptr<TableStorage>(std::move(s));
}

}  // namespace dataspread
