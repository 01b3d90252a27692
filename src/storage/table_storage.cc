#include "storage/table_storage.h"

#include <algorithm>
#include <utility>

#include "storage/column_store.h"
#include "storage/hybrid_store.h"
#include "storage/page_cursor.h"
#include "storage/rcv_store.h"
#include "storage/row_store.h"

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

void TableStorage::GatherRowMajor(storage::Pager& pager, storage::FileId file,
                                  size_t width, const size_t* slots, size_t n,
                                  const size_t* offsets,
                                  ColumnVector* const* out, size_t k) {
  if (k == 0 || n == 0) return;
  // The listed offsets span [lo, hi] of each tuple: one ReadSpan per run of
  // consecutive slots on a page, accounting the [lo, hi] sub-tuple of each
  // slot (what a per-slot read would count), then a value copy per listed
  // column and slot.
  size_t lo = offsets[0], hi = offsets[0];
  for (size_t j = 0; j < k; ++j) {
    lo = std::min(lo, offsets[j]);
    hi = std::max(hi, offsets[j]);
    out[j]->Reserve(out[j]->size() + n);
  }
  const uint64_t span = hi - lo + 1;
  constexpr uint64_t kSlotsPerPage = storage::Pager::kSlotsPerPage;
  storage::PageCursor cursor(pager, file);
  for (size_t i = 0; i < n;) {
    uint64_t first = static_cast<uint64_t>(slots[i]) * width + lo;
    uint64_t page = first / kSlotsPerPage;
    if (page == (first + span - 1) / kSlotsPerPage) {
      // A run of consecutive slots whose sub-tuples share the page: one
      // span read for the run, accounted as the sub-tuples it copies.
      size_t end = i + 1;
      while (end < n && slots[end] == slots[end - 1] + 1 &&
             (static_cast<uint64_t>(slots[end]) * width + hi) / kSlotsPerPage ==
                 page) {
        ++end;
      }
      const uint64_t tuples = end - i;
      const Value* run =
          cursor.ReadSpan(first, (tuples - 1) * width + span, tuples * span);
      for (size_t j = 0; j < k; ++j) {
        out[j]->AppendStrided(run + (offsets[j] - lo), width, tuples);
      }
      i = end;
    } else {
      // The sub-tuple straddles a page boundary: per-slot reads.
      for (size_t j = 0; j < k; ++j) {
        out[j]->Append(cursor.Read(first + (offsets[j] - lo)));
      }
      ++i;
    }
  }
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
  switch (model) {
    case StorageModel::kRow:
      return std::make_unique<RowStore>(num_columns, pager, config);
    case StorageModel::kColumn:
      return std::make_unique<ColumnStore>(num_columns, pager, config);
    case StorageModel::kRcv:
      return std::make_unique<RcvStore>(num_columns, pager, config);
    case StorageModel::kHybrid:
      return std::make_unique<HybridStore>(num_columns, pager, config);
  }
  return nullptr;
}

Result<uint64_t> ManifestRows(const StorageManifest& manifest,
                              const storage::Pager& pager) {
  constexpr uint64_t kUnbounded = ~uint64_t{0};
  auto file_rows = [&pager](uint64_t file,
                            uint64_t width) -> Result<uint64_t> {
    if (!pager.HasFile(file)) {
      return Status::Internal("storage manifest names a dead pager file");
    }
    return pager.FileSize(file) / width;  // floor: partial rows do not count
  };
  switch (manifest.model) {
    case StorageModel::kRow: {
      if (manifest.files.size() != 1) {
        return Status::Internal("row-store manifest must name one heap");
      }
      if (manifest.num_columns == 0) return kUnbounded;
      return file_rows(manifest.files[0], manifest.num_columns);
    }
    case StorageModel::kColumn: {
      // Every column file holds exactly one slot per row; the shortest one
      // bounds the fully persisted row count (a statement torn mid-append
      // leaves a ragged edge).
      uint64_t rows = kUnbounded;
      for (uint64_t f : manifest.files) {
        DS_ASSIGN_OR_RETURN(uint64_t r, file_rows(f, 1));
        rows = std::min(rows, r);
      }
      return rows;
    }
    case StorageModel::kRcv:
      // Only non-NULL cells materialize: file sizes cannot bound the row
      // count. The catalog's display order is the authority.
      return kUnbounded;
    case StorageModel::kHybrid: {
      uint64_t rows = kUnbounded;
      for (const StorageManifest::Group& g : manifest.groups) {
        if (g.width == 0) {
          return Status::Internal("hybrid manifest group of width zero");
        }
        DS_ASSIGN_OR_RETURN(uint64_t r, file_rows(g.file, g.width));
        rows = std::min(rows, r);
      }
      return rows;
    }
  }
  return Status::Internal("unknown storage model in manifest");
}

Result<std::unique_ptr<TableStorage>> AttachStorage(
    const StorageManifest& manifest, uint64_t num_rows,
    storage::Pager* pager) {
  switch (manifest.model) {
    case StorageModel::kRow: {
      DS_ASSIGN_OR_RETURN(std::unique_ptr<RowStore> s,
                          RowStore::Attach(manifest, num_rows, pager));
      return std::unique_ptr<TableStorage>(std::move(s));
    }
    case StorageModel::kColumn: {
      DS_ASSIGN_OR_RETURN(std::unique_ptr<ColumnStore> s,
                          ColumnStore::Attach(manifest, num_rows, pager));
      return std::unique_ptr<TableStorage>(std::move(s));
    }
    case StorageModel::kRcv: {
      DS_ASSIGN_OR_RETURN(std::unique_ptr<RcvStore> s,
                          RcvStore::Attach(manifest, num_rows, pager));
      return std::unique_ptr<TableStorage>(std::move(s));
    }
    case StorageModel::kHybrid: {
      DS_ASSIGN_OR_RETURN(std::unique_ptr<HybridStore> s,
                          HybridStore::Attach(manifest, num_rows, pager));
      return std::unique_ptr<TableStorage>(std::move(s));
    }
  }
  return Status::Internal("unknown storage model in manifest");
}

}  // namespace dataspread
