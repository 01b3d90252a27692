#include "storage/column_store.h"

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

ColumnStore::ColumnStore(size_t num_columns, storage::Pager* pager,
                   const storage::PagerConfig& config)
    : TableStorage(pager, config) {
  files_.reserve(num_columns);
  for (size_t i = 0; i < num_columns; ++i) {
    files_.push_back(pager_->CreateFile());
  }
}

ColumnStore::ColumnStore(storage::Pager* pager,
                         std::vector<storage::FileId> files, size_t num_rows)
    : TableStorage(pager, {}), num_rows_(num_rows), files_(std::move(files)) {
  set_retain_files(true);
}

ColumnStore::~ColumnStore() {
  if (retain_files()) return;
  for (storage::FileId f : files_) pager_->DropFile(f);
}

Result<std::unique_ptr<ColumnStore>> ColumnStore::Attach(
    const StorageManifest& manifest, uint64_t num_rows,
    storage::Pager* pager) {
  if (manifest.files.size() != manifest.num_columns) {
    return Status::Internal("column-store manifest arity mismatch");
  }
  for (storage::FileId f : manifest.files) {
    if (!pager->HasFile(f)) {
      return Status::Internal("column-store manifest names a dead file");
    }
    if (pager->FileSize(f) < num_rows) {
      return Status::Internal("recovered column heap is shorter than the "
                              "catalog's row count — durability hole");
    }
    if (pager->FileSize(f) > num_rows) pager->Truncate(f, num_rows);
  }
  return std::unique_ptr<ColumnStore>(new ColumnStore(
      pager, manifest.files, static_cast<size_t>(num_rows)));
}

StorageManifest ColumnStore::Manifest() const {
  StorageManifest m;
  m.model = StorageModel::kColumn;
  m.num_columns = static_cast<uint32_t>(files_.size());
  m.files = files_;
  return m;
}

Result<Value> ColumnStore::Get(size_t row, size_t col) const {
  DS_RETURN_IF_ERROR(CheckCell(row, col));
  return pager_->Read(files_[col], row);
}

Status ColumnStore::Set(size_t row, size_t col, Value v) {
  DS_RETURN_IF_ERROR(CheckCell(row, col));
  DS_RETURN_IF_ERROR(CheckStorable(v));
  pager_->Write(files_[col], row, std::move(v));
  return Status::OK();
}

Result<Row> ColumnStore::GetRow(size_t row) const {
  if (row >= num_rows_) return Status::OutOfRange("row " + std::to_string(row));
  Row out;
  out.reserve(files_.size());
  for (storage::FileId f : files_) {
    out.push_back(pager_->Read(f, row));
  }
  return out;
}

Status ColumnStore::GatherRows(const size_t* slots, size_t n,
                               const std::vector<size_t>& columns,
                               std::vector<Value>* const* out) const {
  DS_RETURN_IF_ERROR(CheckGather(slots, n, columns));
  // One cursor per listed attribute file, swept over the slot list; an
  // unlisted attribute's pages are never touched.
  for (size_t j = 0; j < columns.size(); ++j) {
    storage::PageCursor cursor(*pager_, files_[columns[j]]);
    std::vector<Value>& dst = *out[j];
    dst.reserve(dst.size() + n);
    for (size_t i = 0; i < n; ++i) dst.push_back(cursor.Read(slots[i]));
  }
  return Status::OK();
}

Result<size_t> ColumnStore::AppendRow(const Row& row) {
  if (row.size() != files_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != " +
        std::to_string(files_.size()));
  }
  for (const Value& v : row) DS_RETURN_IF_ERROR(CheckStorable(v));
  size_t slot = num_rows_;
  for (size_t c = 0; c < files_.size(); ++c) {
    pager_->Write(files_[c], slot, row[c]);
  }
  num_rows_ += 1;
  return slot;
}

Result<size_t> ColumnStore::DeleteRow(size_t row) {
  if (row >= num_rows_) return Status::OutOfRange("row " + std::to_string(row));
  size_t last = num_rows_ - 1;
  if (pager_->durable()) {
    // Two strict phases — copy everything, then truncate everything — with
    // non-destructive reads: a crash mid-copy leaves every file at its old
    // size (so Table::Attach redoes the whole delete from the intact last
    // row), and any file truncated implies every copy completed. The
    // interleaved Take version below would let a torn delete corrupt the
    // moved row.
    if (row != last) {
      for (storage::FileId f : files_) {
        pager_->Write(f, row, pager_->Read(f, last));
      }
    }
    for (storage::FileId f : files_) pager_->Truncate(f, last);
    num_rows_ -= 1;
    return last;
  }
  for (storage::FileId f : files_) {
    if (row != last) {
      pager_->Write(f, row, pager_->Take(f, last));
    }
    pager_->Truncate(f, last);
  }
  num_rows_ -= 1;
  return last;
}

Status ColumnStore::AddColumn(const Value& default_value) {
  DS_RETURN_IF_ERROR(CheckStorable(default_value));
  storage::FileId f = pager_->CreateFile();
  // Bulk fill through a cursor: one pin + one dirty record per fresh page.
  storage::PageCursor(*pager_, f).Fill(0, num_rows_, default_value);
  files_.push_back(f);
  return Status::OK();
}

Status ColumnStore::DropColumn(size_t col) {
  if (col >= files_.size()) {
    return Status::OutOfRange("column " + std::to_string(col));
  }
  // Dropping a column deallocates its file; no surviving page is written.
  // Durable DDL retires it instead: the file must outlive the catalog's
  // DDL record so a crash-reopen of the pre-record state still binds it.
  if (pager_->durable()) {
    retired_files_.push_back(files_[col]);
  } else {
    pager_->DropFile(files_[col]);
  }
  files_.erase(files_.begin() + static_cast<ptrdiff_t>(col));
  return Status::OK();
}

}  // namespace dataspread
