#include "storage/rcv_store.h"

#include <algorithm>
#include <utility>

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

void RcvStore::RemoveSlotForAttach(InternalColumn& ic, uint64_t slot) {
  uint64_t last = ic.slot_to_row.size() - 1;
  if (slot != last) {
    pager_->Write(ic.file, slot, pager_->Take(ic.file, last));
    uint64_t moved_row = ic.slot_to_row[last];
    pager_->Write(ic.backptr, slot, Value::Int(static_cast<int64_t>(moved_row)));
    ic.row_to_slot[moved_row] = slot;
    ic.slot_to_row[slot] = moved_row;
  }
  ic.slot_to_row.pop_back();
  pager_->Truncate(ic.file, last);
  pager_->Truncate(ic.backptr, last);
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
    // A triple is durable once both its value and its back-pointer are on
    // disk; a statement torn between the two leaves one file longer — trim
    // to the shorter (= fully persisted) prefix.
    uint64_t triples =
        std::min(pager->FileSize(ic.file), pager->FileSize(ic.backptr));
    if (pager->FileSize(ic.file) > triples) pager->Truncate(ic.file, triples);
    if (pager->FileSize(ic.backptr) > triples) {
      pager->Truncate(ic.backptr, triples);
    }
    // Rebuild the point index; phantom triples (rows past the recovered row
    // count) and torn-erase duplicates are repaired afterwards. On a
    // duplicate, keep the *later* slot: EraseTriple moves the back-pointer
    // before the value, so the earlier (overwritten) slot may still hold
    // the erased row's stale value while the later one is always intact.
    ic.slot_to_row.reserve(triples);
    std::vector<uint64_t> doomed;
    for (uint64_t s = 0; s < triples; ++s) {
      Value v = pager->Read(ic.backptr, s);
      if (v.type() != DataType::kInt) {
        return Status::Internal("rcv back-pointer file holds a non-INT");
      }
      uint64_t row = static_cast<uint64_t>(v.int_value());
      ic.slot_to_row.push_back(row);
      if (row >= num_rows) {
        doomed.push_back(s);
        continue;
      }
      auto [it, inserted] = ic.row_to_slot.emplace(row, s);
      if (!inserted) {
        doomed.push_back(it->second);  // earlier duplicate loses
        it->second = s;
      }
    }
    // Remove doomed slots highest-first so each removal's swap source is a
    // live triple (or the doomed slot itself, which then just truncates).
    std::sort(doomed.begin(), doomed.end());
    for (size_t i = doomed.size(); i-- > 0;) {
      store->RemoveSlotForAttach(ic, doomed[i]);
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
  // Durable index mirror: the value first, then its back-pointer — a crash
  // between the two leaves a longer heap, which Attach trims.
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
      // Durable ordering is load-bearing: the back-pointer moves *first*
      // and the value is copied (not taken), so at every record boundary
      // the kept mapping (Attach keeps the later duplicate slot) points at
      // an intact value, and the erased row's mapping dies before any
      // heap byte changes — no torn state can read another row's value.
      pager_->Write(ic.backptr, slot,
                    Value::Int(static_cast<int64_t>(moved_row)));
      pager_->Write(ic.file, slot, Value(pager_->Read(ic.file, last_slot)));
    } else {
      pager_->Write(ic.file, slot, pager_->Take(ic.file, last_slot));
    }
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
                            std::vector<Value>* const* out) const {
  DS_RETURN_IF_ERROR(CheckGather(slots, n, columns));
  // One cursor per listed column heap. Triple slots are not row-ordered (the
  // heap is kept dense by swap-with-last), so this is not a sequential
  // stream — but the cursor still removes the per-triple chain hash lookup,
  // and consecutive rows of a mostly-append table usually share heap pages.
  // Unmaterialized cells resolve in the point index and read no page.
  for (size_t j = 0; j < columns.size(); ++j) {
    const InternalColumn& ic = columns_[columns[j]];
    storage::PageCursor cursor(*pager_, ic.file);
    std::vector<Value>& dst = *out[j];
    dst.reserve(dst.size() + n);
    for (size_t i = 0; i < n; ++i) {
      auto it = ic.row_to_slot.find(slots[i]);
      dst.push_back(it == ic.row_to_slot.end() ? Value::Null()
                                               : cursor.Read(it->second));
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
  if (pager_->durable() && row != last) {
    // Three strict phases so a crash-torn delete stays mostly redoable
    // (Table::Attach re-copies from the intact last row): erase the
    // target's triples where the moved row has none, copy the moved row's
    // triples over the target, and only then unmaterialize the last row.
    // The interleaved version below erases sources before all copies are
    // done, which a redo could no longer read.
    for (InternalColumn& ic : columns_) {
      if (ic.row_to_slot.count(last) == 0) EraseTriple(ic, row);
    }
    for (InternalColumn& ic : columns_) {
      auto last_it = ic.row_to_slot.find(last);
      if (last_it != ic.row_to_slot.end()) {
        SetTriple(ic, row, Value(pager_->Read(ic.file, last_it->second)));
      }
    }
    for (InternalColumn& ic : columns_) EraseTriple(ic, last);
    num_rows_ -= 1;
    return last;
  }
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
