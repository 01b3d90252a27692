#include "storage/row_store.h"

#include "storage/page_cursor.h"

namespace dataspread {

namespace {
Status CheckStorable(const Value& v) {
  if (v.is_error()) {
    return Status::TypeError("error value " + v.error_code() +
                             " cannot enter relational storage");
  }
  return Status::OK();
}
}  // namespace

RowStore::RowStore(size_t num_columns, storage::Pager* pager,
                   const storage::PagerConfig& config)
    : TableStorage(pager, config), num_columns_(num_columns) {
  file_ = pager_->CreateFile();
}

RowStore::RowStore(storage::Pager* pager, storage::FileId file,
                   size_t num_columns, size_t num_rows)
    : TableStorage(pager, {}),
      num_columns_(num_columns),
      num_rows_(num_rows),
      file_(file) {
  set_retain_files(true);
}

RowStore::~RowStore() {
  if (!retain_files()) pager_->DropFile(file_);
}

Result<std::unique_ptr<RowStore>> RowStore::Attach(
    const StorageManifest& manifest, uint64_t num_rows,
    storage::Pager* pager) {
  if (manifest.files.size() != 1 || !pager->HasFile(manifest.files[0])) {
    return Status::Internal("row-store manifest does not name one live heap");
  }
  storage::FileId heap = manifest.files[0];
  // WAL brackets discard a torn statement whole, so a committed log leaves
  // the heap at exactly the catalog's row count; anything else is
  // corruption, reported and never repaired.
  uint64_t want = num_rows * manifest.num_columns;
  if (pager->FileSize(heap) != want) {
    return Status::Corruption("recovered row heap holds " +
                              std::to_string(pager->FileSize(heap)) +
                              " slots, the catalog's row count " +
                              std::to_string(want));
  }
  return std::unique_ptr<RowStore>(new RowStore(
      pager, heap, manifest.num_columns, static_cast<size_t>(num_rows)));
}

StorageManifest RowStore::Manifest() const {
  StorageManifest m;
  m.model = StorageModel::kRow;
  m.num_columns = static_cast<uint32_t>(num_columns_);
  m.files.push_back(file_);
  return m;
}

Result<Value> RowStore::Get(size_t row, size_t col) const {
  DS_RETURN_IF_ERROR(CheckCell(row, col));
  return pager_->Read(file_, Entry(row, col));
}

Status RowStore::Set(size_t row, size_t col, Value v) {
  DS_RETURN_IF_ERROR(CheckCell(row, col));
  DS_RETURN_IF_ERROR(CheckStorable(v));
  pager_->Write(file_, Entry(row, col), std::move(v));
  return Status::OK();
}

Result<Row> RowStore::GetRow(size_t row) const {
  if (row >= num_rows_) {
    return Status::OutOfRange("row " + std::to_string(row));
  }
  // A whole tuple is contiguous: one bulk read spanning at most two pages.
  Row out;
  pager_->ReadRange(file_, Entry(row, 0), num_columns_, &out);
  return out;
}

Status RowStore::GatherRows(const size_t* slots, size_t n,
                            const std::vector<size_t>& columns,
                            ColumnVector* const* out) const {
  DS_RETURN_IF_ERROR(CheckGather(slots, n, columns));
  // Logical column == tuple offset in the single heap.
  GatherRowMajor(*pager_, file_, num_columns_, slots, n, columns.data(), out,
                 columns.size());
  return Status::OK();
}

Result<size_t> RowStore::AppendRow(const Row& row) {
  if (row.size() != num_columns_) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != " +
        std::to_string(num_columns_));
  }
  for (const Value& v : row) DS_RETURN_IF_ERROR(CheckStorable(v));
  size_t slot = num_rows_;
  // The tuple is contiguous: one batched write, one dirty record per page.
  pager_->WriteRange(file_, Entry(slot, 0), row.data(), num_columns_);
  num_rows_ += 1;
  return slot;
}

Result<size_t> RowStore::DeleteRow(size_t row) {
  if (row >= num_rows_) {
    return Status::OutOfRange("row " + std::to_string(row));
  }
  size_t last = num_rows_ - 1;
  // The last tuple is copied, not taken: Truncate clears its slots in the
  // same statement, so nulling them first would only log a redundant record.
  if (row != last) {
    for (size_t c = 0; c < num_columns_; ++c) {
      pager_->Write(file_, Entry(row, c), pager_->Read(file_, Entry(last, c)));
    }
  }
  pager_->Truncate(file_, last * num_columns_);
  num_rows_ -= 1;
  return last;
}

Status RowStore::AddColumn(const Value& default_value) {
  DS_RETURN_IF_ERROR(CheckStorable(default_value));
  size_t old_cols = num_columns_;
  size_t new_cols = old_cols + 1;
  if (pager_->durable()) {
    // Copy-on-write restride (durable DDL): the new layout is built in a
    // fresh file with non-destructive reads, the old heap stays intact
    // until the catalog's DDL record commits, and a crash-reopen binds one
    // complete layout or the other — never a half-restrided heap.
    storage::FileId fresh = pager_->CreateFile();
    {
      storage::PageCursor src(*pager_, file_);
      storage::PageCursor dst(*pager_, fresh);
      for (size_t r = 0; r < num_rows_; ++r) {
        for (size_t c = 0; c < old_cols; ++c) {
          dst.Write(r * new_cols + c, src.Read(r * old_cols + c));
        }
        dst.Write(r * new_cols + old_cols, default_value);
      }
    }
    retired_files_.push_back(file_);
    file_ = fresh;
    num_columns_ = new_cols;
    return Status::OK();
  }
  // The tuple stride grows, so every tuple is rewritten in the new layout.
  // Restriding runs highest-slot-first: each destination slot r*(n+1)+c is >=
  // its source slot r*n+c, and sources still pending are strictly below every
  // slot written so far, so the move is safe in place. Two cursors (source
  // reads, destination writes) keep the rewrite at one pin per page visited
  // per side; both may sit on the same page, which simply pins it twice.
  {
    storage::PageCursor src(*pager_, file_);
    storage::PageCursor dst(*pager_, file_);
    for (size_t r = num_rows_; r-- > 0;) {
      dst.Write(r * new_cols + old_cols, default_value);
      for (size_t c = old_cols; c-- > 0;) {
        dst.Write(r * new_cols + c, src.Take(r * old_cols + c));
      }
    }
  }
  num_columns_ = new_cols;
  return Status::OK();
}

Status RowStore::DropColumn(size_t col) {
  if (col >= num_columns_) {
    return Status::OutOfRange("column " + std::to_string(col));
  }
  size_t old_cols = num_columns_;
  size_t new_cols = old_cols - 1;
  if (pager_->durable()) {
    // Copy-on-write, as in AddColumn: crash-atomicity over in-place thrift.
    storage::FileId fresh = pager_->CreateFile();
    {
      storage::PageCursor src(*pager_, file_);
      storage::PageCursor dst(*pager_, fresh);
      uint64_t dst_slot = 0;
      for (size_t r = 0; r < num_rows_; ++r) {
        for (size_t c = 0; c < old_cols; ++c) {
          if (c == col) continue;
          dst.Write(dst_slot++, src.Read(r * old_cols + c));
        }
      }
    }
    retired_files_.push_back(file_);
    file_ = fresh;
    num_columns_ = new_cols;
    return Status::OK();
  }
  // Compact forward in place: destinations never pass their sources. The
  // cursors are released (scope exit) before Truncate frees tail pages.
  {
    storage::PageCursor src(*pager_, file_);
    storage::PageCursor dst(*pager_, file_);
    uint64_t dst_slot = 0;
    for (size_t r = 0; r < num_rows_; ++r) {
      for (size_t c = 0; c < old_cols; ++c) {
        if (c == col) continue;
        dst.Write(dst_slot++, src.Take(r * old_cols + c));
      }
    }
  }
  pager_->Truncate(file_, num_rows_ * new_cols);
  num_columns_ = new_cols;
  return Status::OK();
}

}  // namespace dataspread
