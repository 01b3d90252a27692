#include "storage/rcv_store.h"

#include <algorithm>
#include <utility>

#include "storage/page_cursor.h"

namespace dataspread {

RcvStore::RcvStore(size_t num_columns, storage::Pager* pager,
                   const storage::PagerConfig& config)
    : TableStorage(pager, config) {
  columns_.resize(num_columns);
  for (InternalColumn& ic : columns_) {
    ic.file = pager_->CreateFile();
    if (pager_->durable()) ic.backptr = pager_->CreateFile();
  }
}

RcvStore::RcvStore(storage::Pager* pager, size_t num_rows)
    : TableStorage(pager, {}), num_rows_(num_rows) {
  set_retain_files(true);
}

RcvStore::~RcvStore() {
  if (retain_files()) return;
  for (InternalColumn& ic : columns_) {
    pager_->DropFile(ic.file);
    if (ic.backptr != 0) pager_->DropFile(ic.backptr);
  }
}

Result<std::unique_ptr<RcvStore>> RcvStore::Attach(
    const StorageManifest& manifest, uint64_t num_rows,
    storage::Pager* pager) {
  if (manifest.files.size() != size_t{manifest.num_columns} * 2) {
    return Status::Internal("rcv manifest must carry a heap + back-pointer "
                            "file pair per column");
  }
  auto store = std::unique_ptr<RcvStore>(
      new RcvStore(pager, static_cast<size_t>(num_rows)));
  store->columns_.resize(manifest.num_columns);
  for (size_t c = 0; c < manifest.num_columns; ++c) {
    InternalColumn& ic = store->columns_[c];
    ic.file = manifest.files[2 * c];
    ic.backptr = manifest.files[2 * c + 1];
    if (!pager->HasFile(ic.file) || !pager->HasFile(ic.backptr)) {
      return Status::Internal("rcv manifest names a dead file");
    }
    // WAL brackets discard a torn statement whole, so a committed log
    // leaves the value and back-pointer files of equal length, every
    // back-pointer naming a distinct row below the row count; anything else
    // is corruption, reported and never repaired.
    uint64_t triples = pager->FileSize(ic.file);
    if (pager->FileSize(ic.backptr) != triples) {
      return Status::Corruption(
          "rcv column " + std::to_string(c) + " holds " +
          std::to_string(triples) + " values but " +
          std::to_string(pager->FileSize(ic.backptr)) + " back-pointers");
    }
    ic.slot_to_row.reserve(triples);
    for (uint64_t s = 0; s < triples; ++s) {
      Value v = pager->Read(ic.backptr, s);
      if (v.type() != DataType::kInt || v.int_value() < 0 ||
          static_cast<uint64_t>(v.int_value()) >= num_rows) {
        return Status::Corruption("rcv back-pointer " + v.ToSqlLiteral() +
                                  " is not a row below " +
                                  std::to_string(num_rows));
      }
      uint64_t row = static_cast<uint64_t>(v.int_value());
      ic.slot_to_row.push_back(row);
      if (!ic.row_to_slot.emplace(row, s).second) {
        return Status::Corruption("rcv column " + std::to_string(c) +
                                  " holds two triples for row " +
                                  std::to_string(row));
      }
    }
  }
  return store;
}

StorageManifest RcvStore::Manifest() const {
  StorageManifest m;
  m.model = StorageModel::kRcv;
  m.num_columns = static_cast<uint32_t>(columns_.size());
  m.files.reserve(columns_.size() * 2);
  for (const InternalColumn& ic : columns_) {
    m.files.push_back(ic.file);
    m.files.push_back(ic.backptr);
  }
  return m;
}

size_t RcvStore::num_triples() const {
  size_t n = 0;
  for (const InternalColumn& ic : columns_) n += ic.row_to_slot.size();
  return n;
}

void RcvStore::SetTriple(InternalColumn& ic, uint64_t row, Value v) {
  auto it = ic.row_to_slot.find(row);
  if (it != ic.row_to_slot.end()) {
    pager_->Write(ic.file, it->second, std::move(v));
    return;
  }
  uint64_t slot = ic.slot_to_row.size();
  pager_->Write(ic.file, slot, std::move(v));
  // Durable index mirror: the back-pointer, in the same statement.
  if (ic.backptr != 0) {
    pager_->Write(ic.backptr, slot, Value::Int(static_cast<int64_t>(row)));
  }
  ic.row_to_slot.emplace(row, slot);
  ic.slot_to_row.push_back(row);
}

void RcvStore::EraseTriple(InternalColumn& ic, uint64_t row) {
  auto it = ic.row_to_slot.find(row);
  if (it == ic.row_to_slot.end()) return;
  uint64_t slot = it->second;
  uint64_t last_slot = ic.slot_to_row.size() - 1;
  ic.row_to_slot.erase(it);
  if (slot != last_slot) {
    // Keep the column heap dense: the last triple's value moves into the hole.
    uint64_t moved_row = ic.slot_to_row[last_slot];
    if (ic.backptr != 0) {
      pager_->Write(ic.backptr, slot,
                    Value::Int(static_cast<int64_t>(moved_row)));
    }
    // Copied, not taken: the truncation below clears the last slot.
    pager_->Write(ic.file, slot, pager_->Read(ic.file, last_slot));
    ic.row_to_slot[moved_row] = slot;
    ic.slot_to_row[slot] = moved_row;
  }
  ic.slot_to_row.pop_back();
  pager_->Truncate(ic.file, last_slot);
  if (ic.backptr != 0) pager_->Truncate(ic.backptr, last_slot);
}

Value RcvStore::ReadTriple(const InternalColumn& ic, uint64_t row) const {
  auto it = ic.row_to_slot.find(row);
  if (it == ic.row_to_slot.end()) return Value::Null();
  return pager_->Read(ic.file, it->second);
}

Result<Value> RcvStore::Get(size_t row, size_t col) const {
  DS_RETURN_IF_ERROR(CheckCell(row, col));
  return ReadTriple(columns_[col], row);
}

Status RcvStore::Set(size_t row, size_t col, Value v) {
  DS_RETURN_IF_ERROR(CheckCell(row, col));
  DS_RETURN_IF_ERROR(CheckStorable(v));
  InternalColumn& ic = columns_[col];
  if (v.is_null()) {
    EraseTriple(ic, row);
  } else {
    SetTriple(ic, row, std::move(v));
  }
  return Status::OK();
}

Result<Row> RcvStore::GetRow(size_t row) const {
  if (row >= num_rows_) return Status::OutOfRange("row " + std::to_string(row));
  Row out;
  out.reserve(columns_.size());
  for (const InternalColumn& ic : columns_) {
    out.push_back(ReadTriple(ic, row));
  }
  return out;
}

Status RcvStore::GatherRows(const size_t* slots, size_t n,
                            const std::vector<size_t>& columns,
                            ColumnVector* const* out) const {
  DS_RETURN_IF_ERROR(CheckGather(slots, n, columns));
  // One cursor per listed column heap. Triple slots are not row-ordered (the
  // heap is kept dense by swap-with-last), so this is not a sequential
  // stream — but the cursor still removes the per-triple chain hash lookup,
  // and consecutive rows of a mostly-append table usually share heap pages.
  // Unmaterialized cells resolve in the point index and read no page.
  for (size_t j = 0; j < columns.size(); ++j) {
    const InternalColumn& ic = columns_[columns[j]];
    storage::PageCursor cursor(*pager_, ic.file);
    ColumnVector& dst = *out[j];
    dst.Reserve(dst.size() + n);
    for (size_t i = 0; i < n; ++i) {
      auto it = ic.row_to_slot.find(slots[i]);
      if (it == ic.row_to_slot.end()) {
        dst.AppendNull();
      } else {
        dst.Append(cursor.Read(it->second));
      }
    }
  }
  return Status::OK();
}

Result<size_t> RcvStore::AppendRow(const Row& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != " +
        std::to_string(columns_.size()));
  }
  for (const Value& v : row) DS_RETURN_IF_ERROR(CheckStorable(v));
  size_t slot = num_rows_;
  for (size_t c = 0; c < row.size(); ++c) {
    if (row[c].is_null()) continue;  // NULLs are unmaterialized.
    SetTriple(columns_[c], slot, row[c]);
  }
  num_rows_ += 1;
  return slot;
}

Result<size_t> RcvStore::DeleteRow(size_t row) {
  if (row >= num_rows_) return Status::OutOfRange("row " + std::to_string(row));
  size_t last = num_rows_ - 1;
  for (InternalColumn& ic : columns_) {
    if (row == last) {
      EraseTriple(ic, last);
      continue;
    }
    auto last_it = ic.row_to_slot.find(last);
    if (last_it != ic.row_to_slot.end()) {
      Value moved = pager_->Read(ic.file, last_it->second);
      EraseTriple(ic, last);
      SetTriple(ic, row, std::move(moved));
    } else {
      EraseTriple(ic, row);
    }
  }
  num_rows_ -= 1;
  return last;
}

Status RcvStore::AddColumn(const Value& default_value) {
  DS_RETURN_IF_ERROR(CheckStorable(default_value));
  InternalColumn ic;
  ic.file = pager_->CreateFile();
  if (pager_->durable()) ic.backptr = pager_->CreateFile();
  columns_.push_back(std::move(ic));
  if (!default_value.is_null()) {
    // A non-NULL default must materialize a triple per row; only NULL-default
    // schema changes are free in RCV. The fresh heap is filled through a
    // cursor (slot == row for a brand-new column), one dirty record per
    // page, and the point index is built alongside.
    InternalColumn& added = columns_.back();
    storage::PageCursor(*pager_, added.file)
        .Fill(0, num_rows_, default_value);
    if (added.backptr != 0) {
      storage::PageCursor bp(*pager_, added.backptr);
      for (size_t r = 0; r < num_rows_; ++r) {
        bp.Write(r, Value::Int(static_cast<int64_t>(r)));
      }
    }
    added.row_to_slot.reserve(num_rows_);
    added.slot_to_row.reserve(num_rows_);
    for (size_t r = 0; r < num_rows_; ++r) {
      added.row_to_slot.emplace(r, r);
      added.slot_to_row.push_back(r);
    }
  }
  return Status::OK();
}

Status RcvStore::DropColumn(size_t col) {
  if (col >= columns_.size()) {
    return Status::OutOfRange("column " + std::to_string(col));
  }
  // The column's heap is its own file: dropping deallocates it wholesale and
  // never touches (or renumbers) surviving columns' triples. Durable DDL
  // retires the pair instead — the files must outlive the DDL record.
  if (pager_->durable()) {
    retired_files_.push_back(columns_[col].file);
    retired_files_.push_back(columns_[col].backptr);
  } else {
    pager_->DropFile(columns_[col].file);
    if (columns_[col].backptr != 0) pager_->DropFile(columns_[col].backptr);
  }
  columns_.erase(columns_.begin() + static_cast<ptrdiff_t>(col));
  return Status::OK();
}

}  // namespace dataspread
