#include "catalog/table.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/str_util.h"
#include "storage/hybrid_store.h"

namespace dataspread {

Result<std::unique_ptr<Table>> Table::Create(
    std::string name, Schema schema, StorageModel model, storage::Pager* pager,
    const storage::PagerConfig& pager_config) {
  DS_RETURN_IF_ERROR(schema.Validate());
  if (name.empty()) {
    return Status::InvalidArgument("table name may not be empty");
  }
  auto storage = CreateStorage(model, schema.num_columns(), pager,
                               pager_config);
  auto table = std::unique_ptr<Table>(
      new Table(std::move(name), std::move(schema), std::move(storage)));
  if (table->storage_->pager().durable()) {
    // The catalog side files: display order and slot→rid, persisted through
    // the same pager (and therefore the same WAL) as the data.
    table->order_file_ = table->storage_->pager().CreateFile();
    table->rid_file_ = table->storage_->pager().CreateFile();
    table->set_retain_files(true);
  }
  return table;
}

Table::Table(std::string name, Schema schema,
             std::unique_ptr<TableStorage> storage)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      storage_(std::move(storage)) {}

Table::~Table() {
  if (durable() && !retain_files_) {
    storage_->pager().DropFile(order_file_);
    storage_->pager().DropFile(rid_file_);
  }
}

void Table::set_retain_files(bool retain) {
  retain_files_ = retain;
  storage_->set_retain_files(retain);
}

TableDescriptor Table::Describe() const {
  TableDescriptor desc;
  desc.name = name_;
  desc.schema = schema_;
  desc.manifest = storage_->Manifest();
  desc.order_file = order_file_;
  desc.rid_file = rid_file_;
  desc.next_rid = next_rid_;
  return desc;
}

void Table::LogDdl(storage::WalRecordType type) {
  storage::Pager& pager = storage_->pager();
  if (!pager.durable()) return;
  std::string payload;
  EncodeTableDescriptor(Describe(), &payload);
  pager.LogCatalogRecord(type, payload);
  // The record is durable (LogCatalogRecord syncs): the files the DDL
  // replaced can go. Dropping them earlier would let a crash-reopen of the
  // pre-record state bind files that no longer exist; dropping them later
  // costs nothing (kDropFile replays idempotently, orphans are swept).
  for (storage::FileId f : storage_->TakeRetiredFiles()) {
    pager.DropFile(f);
  }
}

namespace {

/// Writes `rids` as INT values into file slots [start, start+count) — the
/// one encoding of the order/rid side files; every durable writer below
/// goes through here so Attach's repairs always read back what DML wrote.
void WriteRidSpan(storage::Pager& pager, storage::FileId file, uint64_t start,
                  const uint64_t* rids, size_t count) {
  if (count == 0) return;
  Row values;
  values.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    values.push_back(Value::Int(static_cast<int64_t>(rids[i])));
  }
  pager.WriteRange(file, start, values.data(), values.size());
}

}  // namespace

void Table::PersistOrderTail(size_t from) {
  size_t n = order_.size();
  if (from >= n) return;
  std::vector<uint64_t> rids = order_.GetRange(from, n - from);
  WriteRidSpan(storage_->pager(), order_file_, from, rids.data(),
               rids.size());
}

void Table::AdoptRowMaps(const std::vector<uint64_t>& order_rids,
                         const std::vector<uint64_t>& slot_rids,
                         uint64_t next_rid_floor) {
  order_.Build(order_rids);
  slot_to_rid_ = slot_rids;
  uint64_t max_rid = 0;
  for (uint64_t rid : slot_rids) max_rid = std::max(max_rid, rid + 1);
  rid_to_slot_.assign(max_rid, 0);
  for (size_t slot = 0; slot < slot_rids.size(); ++slot) {
    rid_to_slot_[slot_rids[slot]] = slot;
  }
  next_rid_ = std::max(next_rid_floor, max_rid);
  RebuildPkIndex();
}

namespace {

/// Reads file slots [0, count) as row ids; fails on any non-INT slot.
Result<std::vector<uint64_t>> ReadRidFile(storage::Pager& pager,
                                          storage::FileId file,
                                          uint64_t count) {
  std::vector<uint64_t> rids;
  rids.reserve(static_cast<size_t>(count));
  Row values;
  pager.ReadRange(file, 0, count, &values);
  for (const Value& v : values) {
    if (v.type() != DataType::kInt || v.int_value() < 0) {
      return Status::Internal("catalog side file holds a non-INT row id");
    }
    rids.push_back(static_cast<uint64_t>(v.int_value()));
  }
  return rids;
}

/// Index of the first value appearing twice in `rids`, or rids.size().
size_t FirstDuplicateIndex(const std::vector<uint64_t>& rids) {
  std::unordered_set<uint64_t> seen;
  for (size_t i = 0; i < rids.size(); ++i) {
    if (!seen.insert(rids[i]).second) {
      // Return the *earlier* occurrence: the completed half of a torn
      // delete's rid move (the stale copy sits at the tail).
      for (size_t j = 0; j < i; ++j) {
        if (rids[j] == rids[i]) return j;
      }
    }
  }
  return rids.size();
}

bool SameRidSets(const std::vector<uint64_t>& a,
                 const std::vector<uint64_t>& b) {
  if (a.size() != b.size()) return false;
  std::unordered_set<uint64_t> sa(a.begin(), a.end());
  if (sa.size() != a.size()) return false;  // duplicates disqualify...
  std::unordered_set<uint64_t> sb(b.begin(), b.end());
  if (sb.size() != b.size()) return false;  // ...on either side
  for (uint64_t rid : b) {
    if (sa.count(rid) == 0) return false;
  }
  return true;
}

/// The single element of set(a) − set(b), or nullopt if not exactly one.
std::optional<uint64_t> LoneExtra(const std::vector<uint64_t>& a,
                                  const std::vector<uint64_t>& b) {
  std::unordered_set<uint64_t> sb(b.begin(), b.end());
  std::optional<uint64_t> extra;
  for (uint64_t rid : a) {
    if (sb.count(rid) == 0) {
      if (extra.has_value()) return std::nullopt;
      extra = rid;
    }
  }
  return extra;
}

}  // namespace

Result<std::unique_ptr<Table>> Table::Attach(const TableDescriptor& desc,
                                             storage::Pager* pager) {
  DS_RETURN_IF_ERROR(desc.schema.Validate());
  if (!pager->durable() || !pager->HasFile(desc.order_file) ||
      !pager->HasFile(desc.rid_file)) {
    return Status::Internal("table descriptor names dead catalog side files");
  }
  if (desc.manifest.num_columns != desc.schema.num_columns()) {
    return Status::Internal("catalog schema/manifest arity mismatch");
  }
  uint64_t o = pager->FileSize(desc.order_file);
  uint64_t r = pager->FileSize(desc.rid_file);
  DS_ASSIGN_OR_RETURN(uint64_t h, ManifestRows(desc.manifest, *pager));
  constexpr uint64_t kUnknown = ~uint64_t{0};
  DS_ASSIGN_OR_RETURN(std::vector<uint64_t> order_rids,
                      ReadRidFile(*pager, desc.order_file, o));
  DS_ASSIGN_OR_RETURN(std::vector<uint64_t> slot_rids,
                      ReadRidFile(*pager, desc.rid_file, r));

  // Reconcile the (at most one) statement torn by the crash. Since WAL
  // statement brackets (DESIGN.md §7), recovery itself discards the torn
  // statement's records wholesale, so logs written by this engine always
  // land here at a committed boundary (o == r == h, clean rid sets) and
  // the reconciliation below is a *fallback* for pre-bracket logs, not the
  // contract. For those, DML writes in a fixed order — insert: order, rid,
  // data; delete: rid overwrite, order, data, rid truncate — so the
  // file-size signature identifies the torn phase (DESIGN.md §6 "Catalog
  // recovery" walks the cases). Anything the cases below cannot prove
  // consistent falls back to a deterministic rebuild: display order
  // degrades to storage order for the torn tail — never for state behind a
  // durability barrier.
  std::unique_ptr<TableStorage> storage;
  bool rebuilt = false;
  bool rewrite_order = false;  // a repair touched mid-file order slots

  // Pre-pass: an *adjacent duplicate* in the order file can only be a torn
  // delete cut between its order-shift record(s) and the order truncate —
  // the shift writes old[j+1] into slot j, so the un-truncated (or not yet
  // shifted) neighbor repeats it. Splicing out the later copy completes the
  // shift exactly (nothing is lost in a shift-down) and re-joins the
  // delete's normal torn-phase handling below.
  for (size_t i = 0; i + 1 < order_rids.size(); ++i) {
    if (order_rids[i] != order_rids[i + 1]) continue;
    std::unordered_set<uint64_t> s(order_rids.begin(), order_rids.end());
    if (s.size() == order_rids.size() - 1) {  // exactly this one duplicate
      order_rids.erase(order_rids.begin() + static_cast<ptrdiff_t>(i) + 1);
      pager->Truncate(desc.order_file, order_rids.size());
      o = order_rids.size();
      rewrite_order = true;
    }
    break;
  }

  size_t dup = FirstDuplicateIndex(slot_rids);

  if (o == r + 1 && (h == kUnknown || h == r)) {
    // Torn insert, order write only: drop the order entry whose rid the rid
    // file never learned. The on-disk order file still holds the shifted
    // tail, so it is rewritten from the repaired order below.
    std::optional<uint64_t> extra = LoneExtra(order_rids, slot_rids);
    if (extra.has_value()) {
      order_rids.erase(
          std::find(order_rids.begin(), order_rids.end(), *extra));
      pager->Truncate(desc.order_file, r);
      o = r;
      rewrite_order = true;
    }
  } else if (o == r && h != kUnknown && h + 1 == o && o > 0 &&
             dup == slot_rids.size()) {
    // Torn insert, order + rid written, data row incomplete: the phantom
    // rid is the rid file's append (its last slot); undo both (and rewrite
    // the order file's shifted tail below).
    uint64_t phantom = slot_rids.back();
    auto it = std::find(order_rids.begin(), order_rids.end(), phantom);
    if (it != order_rids.end()) {
      order_rids.erase(it);
      slot_rids.pop_back();
      pager->Truncate(desc.rid_file, h);
      pager->Truncate(desc.order_file, h);
      o = r = h;
      rewrite_order = true;
    }
  } else if (o == r && dup < slot_rids.size() && o > 0) {
    // Torn delete, rid overwrite only (order/data untouched): restore the
    // overwritten rid from the order file and the delete never happened.
    std::optional<uint64_t> missing = LoneExtra(order_rids, slot_rids);
    if (missing.has_value()) {
      slot_rids[dup] = *missing;
      pager->Write(desc.rid_file, dup,
                   Value::Int(static_cast<int64_t>(*missing)));
    }
  } else if (o + 1 == r && r > 0) {
    // Torn delete past the order update: the rid file still carries its
    // stale tail entry. Finish the job. The stores' durable DeleteRow runs
    // copy-all-then-truncate-all phases, so h == r means no file was
    // truncated yet and the whole delete can be redone from the intact
    // last row; h < r means every copy landed and trimming suffices.
    size_t vacated = dup < slot_rids.size() ? dup : slot_rids.size() - 1;
    if (desc.manifest.model == StorageModel::kRcv) {
      // RCV (h unknowable): rebind with the last row intact, re-copy its
      // still-materialized cells over the vacated row (phases are strictly
      // ordered, so an already-erased cell was already copied), then erase
      // the last row's remnants.
      DS_ASSIGN_OR_RETURN(storage, AttachStorage(desc.manifest, r, pager));
      if (vacated != static_cast<size_t>(r) - 1) {
        for (size_t c = 0; c < storage->num_columns(); ++c) {
          DS_ASSIGN_OR_RETURN(Value v, storage->Get(r - 1, c));
          if (!v.is_null()) {
            DS_RETURN_IF_ERROR(storage->Set(vacated, c, std::move(v)));
          }
        }
      }
      DS_RETURN_IF_ERROR(storage->DeleteRow(r - 1).status());
    } else if (h == r) {
      DS_ASSIGN_OR_RETURN(storage, AttachStorage(desc.manifest, r, pager));
      DS_RETURN_IF_ERROR(storage->DeleteRow(vacated).status());
    }
    slot_rids.pop_back();
    pager->Truncate(desc.rid_file, o);
    r = o;
  }

  // The authoritative recovered row count: the order file, cross-checked
  // against the others.
  uint64_t n = std::min(o, r);
  if (h != kUnknown) n = std::min(n, h);
  if (o == n && r == n && !SameRidSets(order_rids, slot_rids)) {
    // One rid extra in the order and one missing, sizes agreeing: a crash
    // inside a *multi-page* order shift of an unacknowledged middle insert
    // (the shift-up overwrites one shifted-out rid before its new slot's
    // page record lands). The phantom's position is exact; the overwritten
    // rid's original position is unrecoverable, so it takes the phantom's
    // slot — at worst one unacknowledged-window row displaced, never a
    // wholesale order loss.
    std::optional<uint64_t> extra = LoneExtra(order_rids, slot_rids);
    std::optional<uint64_t> missing = LoneExtra(slot_rids, order_rids);
    std::unordered_set<uint64_t> so(order_rids.begin(), order_rids.end());
    if (extra.has_value() && missing.has_value() &&
        so.size() == order_rids.size()) {
      *std::find(order_rids.begin(), order_rids.end(), *extra) = *missing;
      rewrite_order = true;
    }
  }
  // Any residual disagreement → deterministic rebuild.
  if (o != n || r != n || !SameRidSets(order_rids, slot_rids)) {
    rebuilt = true;
    slot_rids.resize(static_cast<size_t>(n));
    std::unordered_set<uint64_t> unique(slot_rids.begin(), slot_rids.end());
    if (unique.size() != slot_rids.size()) {
      for (size_t s = 0; s < slot_rids.size(); ++s) slot_rids[s] = s;
    }
    order_rids = slot_rids;
  }

  if (storage == nullptr) {
    DS_ASSIGN_OR_RETURN(storage, AttachStorage(desc.manifest, n, pager));
  }

  auto table = std::unique_ptr<Table>(
      new Table(desc.name, desc.schema, std::move(storage)));
  table->order_file_ = desc.order_file;
  table->rid_file_ = desc.rid_file;
  table->set_retain_files(true);
  table->AdoptRowMaps(order_rids, slot_rids, desc.next_rid);
  // Make any repair durable so the next reopen starts clean: a repaired
  // order must reach its file (the torn-insert cases leave a shifted tail
  // on disk), and a full rebuild rewrites both side files.
  if (rebuilt || rewrite_order) {
    pager->Truncate(desc.order_file, n);
    table->PersistOrderTail(0);
  }
  if (rebuilt) {
    pager->Truncate(desc.rid_file, n);
    WriteRidSpan(*pager, desc.rid_file, 0, slot_rids.data(),
                 slot_rids.size());
  }
  return table;
}

Result<Row> Table::GetRowAt(size_t pos) const {
  DS_ASSIGN_OR_RETURN(uint64_t rid, order_.Get(pos));
  return storage_->GetRow(SlotOf(rid));
}

Result<Value> Table::GetAt(size_t pos, size_t col) const {
  DS_ASSIGN_OR_RETURN(uint64_t rid, order_.Get(pos));
  return storage_->Get(SlotOf(rid), col);
}

Result<Value> Table::CoerceForColumn(Value v, size_t col) const {
  if (v.is_error()) {
    return Status::TypeError("error value " + v.error_code() +
                             " cannot be stored in table " + name_);
  }
  return v.CastTo(schema_.column(col).type);
}

Status Table::CheckKey(const Value& key, uint64_t rid) const {
  // NaN compares equal to every number (Value::Compare), so it can neither
  // be told apart from other keys nor found by a hash lookup.
  if (key.is_null() ||
      (key.type() == DataType::kReal && std::isnan(key.real_value()))) {
    return Status::ConstraintViolation("PRIMARY KEY of " + name_ +
                                       " may not be " +
                                       (key.is_null() ? "NULL" : "NaN"));
  }
  auto it = pk_to_rid_.find(key);
  if (it != pk_to_rid_.end() && it->second != rid) {
    return Status::ConstraintViolation("duplicate PRIMARY KEY " +
                                       key.ToSqlLiteral() + " in " + name_);
  }
  return Status::OK();
}

Status Table::ValidateRow(const Row& row) const {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(row.size()) + " does not match " +
        name_ + "(" + std::to_string(schema_.num_columns()) + " columns)");
  }
  return Status::OK();
}

Status Table::UpdateAt(size_t pos, size_t col, Value v) {
  if (col >= schema_.num_columns()) {
    return Status::OutOfRange("column " + std::to_string(col));
  }
  DS_ASSIGN_OR_RETURN(uint64_t rid, order_.Get(pos));
  DS_ASSIGN_OR_RETURN(Value coerced, CoerceForColumn(std::move(v), col));
  Value before;
  if (undo_ != nullptr) {
    DS_ASSIGN_OR_RETURN(before, storage_->Get(SlotOf(rid), col));
  }
  // Statement bracket: everything this update logs is all-or-nothing across
  // crashes (DESIGN.md §7). Nested inside a Database-level statement it
  // rides the outer bracket.
  storage::StatementScope txn(storage_->pager(), write_txn_);
  auto pk = schema_.primary_key_index();
  if (pk && *pk == col) {
    DS_RETURN_IF_ERROR(CheckKey(coerced, rid));
    DS_ASSIGN_OR_RETURN(Value old_key, storage_->Get(SlotOf(rid), col));
    pk_to_rid_.erase(old_key);
    pk_to_rid_[coerced] = rid;
  }
  DS_RETURN_IF_ERROR(storage_->Set(SlotOf(rid), col, std::move(coerced)));
  txn.Commit();
  if (undo_ != nullptr) {
    undo_->entries.push_back({UndoJournal::Entry::Kind::kUpdate, this, 0, col,
                              rid, {}, std::move(before)});
  }
  Notify(TableChange{TableChange::Kind::kUpdate, pos, col});
  return Status::OK();
}

Status Table::InsertRowAt(size_t pos, Row row) {
  return InsertRowAtWithRid(pos, std::move(row), next_rid_);
}

Status Table::InsertRowAtWithRid(size_t pos, Row row, uint64_t rid) {
  DS_RETURN_IF_ERROR(ValidateRow(row));
  for (size_t c = 0; c < row.size(); ++c) {
    DS_ASSIGN_OR_RETURN(row[c], CoerceForColumn(std::move(row[c]), c));
  }
  auto pk = schema_.primary_key_index();
  if (pk) DS_RETURN_IF_ERROR(CheckKey(row[*pk], rid));
  // Statement bracket: recovery applies the records below only if the
  // closing kTxnCommit survived, so a crash mid-insert rolls the whole row
  // away — Attach's torn-statement reconciliation is now a fallback for
  // pre-bracket logs, not the contract (DESIGN.md §7).
  storage::StatementScope txn(storage_->pager(), write_txn_);
  if (durable()) {
    // Durable write order — order tail, rid append, then the data row — is
    // load-bearing: a crash can tear the statement at any record boundary,
    // and Attach identifies the torn phase from the three file sizes
    // (DESIGN.md §6 "Catalog recovery"). The order file gets the shifted
    // tail [pos, n]: one slot for an append, O(n − pos) for a middle insert.
    storage::Pager& pager = storage_->pager();
    size_t n = order_.size();
    std::vector<uint64_t> tail;
    tail.reserve(n - pos + 1);
    tail.push_back(rid);
    std::vector<uint64_t> shifted = order_.GetRange(pos, n - pos);
    tail.insert(tail.end(), shifted.begin(), shifted.end());
    WriteRidSpan(pager, order_file_, pos, tail.data(), tail.size());
    pager.Write(rid_file_, n, Value::Int(static_cast<int64_t>(rid)));
  }
  auto slot_or = storage_->AppendRow(row);
  if (!slot_or.ok()) {
    if (durable()) {
      // Roll the side files back so they never acknowledge a row the
      // storage refused (cannot fail after the validation above, but the
      // files must not drift if it ever does).
      size_t n = order_.size();
      PersistOrderTail(pos);
      storage_->pager().Truncate(order_file_, n);
      storage_->pager().Truncate(rid_file_, n);
    }
    return slot_or.status();
  }
  size_t slot = slot_or.ValueOrDie();
  if (rid >= next_rid_) next_rid_ = rid + 1;
  if (rid_to_slot_.size() <= rid) rid_to_slot_.resize(rid + 1);
  rid_to_slot_[rid] = slot;
  if (slot_to_rid_.size() <= slot) slot_to_rid_.resize(slot + 1);
  slot_to_rid_[slot] = rid;
  DS_RETURN_IF_ERROR(order_.InsertAt(pos, rid));
  if (pk) pk_to_rid_[row[*pk]] = rid;
  txn.Commit();
  if (undo_ != nullptr) {
    undo_->entries.push_back(
        {UndoJournal::Entry::Kind::kInsert, this, pos, 0, rid, {}, {}});
  }
  Notify(TableChange{TableChange::Kind::kInsert, pos, 0});
  return Status::OK();
}

Status Table::AppendRow(Row row) {
  return InsertRowAt(order_.size(), std::move(row));
}

Status Table::DeleteRowAt(size_t pos) {
  DS_ASSIGN_OR_RETURN(uint64_t rid, order_.Get(pos));
  size_t slot = SlotOf(rid);
  Row before;
  if (undo_ != nullptr) {
    // Capture the full tuple before any mutation — the RCV pre-step below
    // nulls cells in place, so this read cannot wait.
    DS_ASSIGN_OR_RETURN(before, storage_->GetRow(slot));
  }
  // Statement bracket: the rid move, order rewrite, data swap, and
  // truncations below commit or vanish together (DESIGN.md §7).
  storage::StatementScope txn(storage_->pager(), write_txn_);
  auto pk = schema_.primary_key_index();
  if (pk) {
    DS_ASSIGN_OR_RETURN(Value key, storage_->Get(slot, *pk));
    pk_to_rid_.erase(key);
  }
  size_t n = order_.size();
  if (durable() && storage_->model() == StorageModel::kRcv && slot != n - 1) {
    // RCV pre-step: erase the vacated row's cells wherever the moved (last)
    // row holds NULL, *before* any repair-visible marker lands. The
    // torn-delete repair copies the moved row's materialized cells but can
    // never safely erase (a NULL read is ambiguous between "genuinely NULL"
    // and "already erased by the delete"); clearing these cells up front
    // removes the ambiguity — a crash in this window merely leaves the
    // un-deleted row with some cells nulled, the documented RCV partial
    // window (docs/DURABILITY.md).
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      DS_ASSIGN_OR_RETURN(Value moved_cell, storage_->Get(n - 1, c));
      if (moved_cell.is_null()) {
        DS_RETURN_IF_ERROR(storage_->Set(slot, c, Value::Null()));
      }
    }
  }
  if (durable()) {
    // Durable write order — rid overwrite, shifted order tail + truncate,
    // data swap, rid truncate — mirrors the insert path's recoverability
    // contract (DESIGN.md §6): storage deletion is deterministic
    // swap-with-last, so the rid move can be logged *before* the data moves.
    storage::Pager& pager = storage_->pager();
    if (slot != n - 1) {
      uint64_t moved = slot_to_rid_[n - 1];
      pager.Write(rid_file_, slot, Value::Int(static_cast<int64_t>(moved)));
    }
    std::vector<uint64_t> tail = order_.GetRange(pos + 1, n - pos - 1);
    WriteRidSpan(pager, order_file_, pos, tail.data(), tail.size());
    pager.Truncate(order_file_, n - 1);
  }
  DS_ASSIGN_OR_RETURN(size_t moved_slot, storage_->DeleteRow(slot));
  // The storage layer moved the tuple from `moved_slot` into `slot`; repoint
  // its row id.
  if (moved_slot != slot) {
    uint64_t moved_rid = slot_to_rid_[moved_slot];
    rid_to_slot_[moved_rid] = slot;
    slot_to_rid_[slot] = moved_rid;
  }
  slot_to_rid_.pop_back();
  if (durable()) storage_->pager().Truncate(rid_file_, n - 1);
  (void)order_.EraseAt(pos);
  txn.Commit();
  if (undo_ != nullptr) {
    undo_->entries.push_back({UndoJournal::Entry::Kind::kDelete, this, pos, 0,
                              rid, std::move(before), {}});
  }
  Notify(TableChange{TableChange::Kind::kDelete, pos, 0});
  return Status::OK();
}

std::vector<Row> Table::GetWindow(size_t start, size_t count) const {
  std::vector<Row> out;
  order_.Visit(start, count, [&](size_t, uint64_t rid) {
    auto row = storage_->GetRow(SlotOf(rid));
    if (row.ok()) out.push_back(std::move(row).value());
  });
  return out;
}

std::vector<size_t> Table::WindowSlots(size_t start, size_t count) const {
  std::vector<size_t> slots;
  slots.reserve(std::min(count, order_.size() - std::min(start, order_.size())));
  order_.VisitSpans(start, count,
                    [&](size_t, const uint64_t* rids, size_t n) {
                      for (size_t k = 0; k < n; ++k) {
                        slots.push_back(SlotOf(rids[k]));
                      }
                    });
  return slots;
}

Status Table::GatherWindow(size_t start, size_t count,
                           const std::vector<size_t>& columns,
                           std::vector<Value>* const* out) const {
  std::vector<size_t> slots = WindowSlots(start, count);
  return storage_->GatherRows(slots.data(), slots.size(), columns, out);
}

void Table::VisitSlotRuns(
    size_t start, size_t count,
    const std::function<void(size_t pos, size_t slot, size_t len)>& fn) const {
  std::vector<size_t> slots = WindowSlots(start, count);
  size_t i = 0;
  while (i < slots.size()) {
    size_t j = i + 1;
    while (j < slots.size() && slots[j] == slots[j - 1] + 1) ++j;
    fn(start + i, slots[i], j - i);
    i = j;
  }
}

void Table::Scan(const std::function<bool(size_t, const Row&)>& fn) const {
  bool stopped = false;
  order_.Visit(0, order_.size(), [&](size_t pos, uint64_t rid) {
    if (stopped) return;
    auto row = storage_->GetRow(SlotOf(rid));
    if (row.ok() && !fn(pos, row.value())) stopped = true;
  });
}

Result<size_t> Table::FindByKey(const Value& key) const {
  auto pk = schema_.primary_key_index();
  if (!pk) {
    return Status::InvalidArgument("table " + name_ + " has no PRIMARY KEY");
  }
  auto it = pk_to_rid_.find(key);
  if (it == pk_to_rid_.end()) {
    return Status::NotFound("no row with key " + key.ToSqlLiteral() + " in " +
                            name_);
  }
  // Recover the display position by scanning the order index (positions are
  // not tracked per-row because middle inserts would shift all of them).
  uint64_t target = it->second;
  size_t found = order_.size();
  order_.Visit(0, order_.size(), [&](size_t pos, uint64_t rid) {
    if (rid == target && found == order_.size()) found = pos;
  });
  if (found == order_.size()) {
    return Status::Internal("pk index points at a row missing from the order");
  }
  return found;
}

Result<Row> Table::GetRowByKey(const Value& key) const {
  auto pk = schema_.primary_key_index();
  if (!pk) {
    return Status::InvalidArgument("table " + name_ + " has no PRIMARY KEY");
  }
  auto it = pk_to_rid_.find(key);
  if (it == pk_to_rid_.end()) {
    return Status::NotFound("no row with key " + key.ToSqlLiteral() + " in " +
                            name_);
  }
  return storage_->GetRow(SlotOf(it->second));
}

Status Table::UpdateByKey(const Value& key, size_t col, Value v) {
  auto pk = schema_.primary_key_index();
  if (!pk) {
    return Status::InvalidArgument("table " + name_ + " has no PRIMARY KEY");
  }
  if (col >= schema_.num_columns()) {
    return Status::OutOfRange("column " + std::to_string(col));
  }
  auto it = pk_to_rid_.find(key);
  if (it == pk_to_rid_.end()) {
    return Status::NotFound("no row with key " + key.ToSqlLiteral() + " in " +
                            name_);
  }
  uint64_t rid = it->second;
  DS_ASSIGN_OR_RETURN(Value coerced, CoerceForColumn(std::move(v), col));
  Value before;
  if (undo_ != nullptr) {
    DS_ASSIGN_OR_RETURN(before, storage_->Get(SlotOf(rid), col));
  }
  storage::StatementScope txn(storage_->pager(), write_txn_);
  if (col == *pk) {
    DS_RETURN_IF_ERROR(CheckKey(coerced, rid));
    pk_to_rid_.erase(key);
    pk_to_rid_[coerced] = rid;
  }
  DS_RETURN_IF_ERROR(storage_->Set(SlotOf(rid), col, std::move(coerced)));
  txn.Commit();
  if (undo_ != nullptr) {
    undo_->entries.push_back({UndoJournal::Entry::Kind::kUpdate, this, 0, col,
                              rid, {}, std::move(before)});
  }
  Notify(TableChange{TableChange::Kind::kBulk, 0, col});
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Transaction undo (DESIGN.md §7): each UndoX reverses one journal entry.
// Undo runs in exact reverse journal order, so the state each entry sees is
// precisely the state its forward op left behind — recorded positions and
// rids are valid again by induction. Capture is suspended (undo_ cleared)
// while an undo executes; the WAL still logs the undo's page mutations as
// compensations inside the open abort bracket.
// ---------------------------------------------------------------------------

Status Table::UndoInsertRow(size_t pos, uint64_t rid) {
  UndoJournal* saved = undo_;
  undo_ = nullptr;
  Status s = DeleteRowAt(pos);
  undo_ = saved;
  DS_RETURN_IF_ERROR(s);
  // Hand the id back: the insert consumed next_rid_, and every later insert
  // has already been undone, so the counter steps straight down.
  if (rid + 1 == next_rid_) next_rid_ = rid;
  return Status::OK();
}

Status Table::UndoDeleteRow(size_t pos, Row row, uint64_t rid) {
  UndoJournal* saved = undo_;
  undo_ = nullptr;
  Status s = InsertRowAtWithRid(pos, std::move(row), rid);
  undo_ = saved;
  return s;
}

Status Table::UndoUpdateCell(uint64_t rid, size_t col, Value old_value) {
  size_t slot = SlotOf(rid);
  storage::StatementScope txn(storage_->pager(), write_txn_);
  auto pk = schema_.primary_key_index();
  if (pk && *pk == col) {
    DS_ASSIGN_OR_RETURN(Value current, storage_->Get(slot, col));
    pk_to_rid_.erase(current);
    if (!old_value.is_null()) pk_to_rid_[old_value] = rid;
  }
  DS_RETURN_IF_ERROR(storage_->Set(slot, col, std::move(old_value)));
  txn.Commit();
  Notify(TableChange{TableChange::Kind::kBulk, 0, col});
  return Status::OK();
}

Status Table::AddColumn(ColumnDef def, const Value& default_value) {
  if (def.primary_key && num_rows() > 0) {
    return Status::InvalidArgument(
        "cannot add a PRIMARY KEY column to non-empty table " + name_);
  }
  DS_RETURN_IF_ERROR(schema_.AddColumn(def));
  Value coerced = default_value;
  if (!default_value.is_null()) {
    auto r = default_value.CastTo(def.type);
    if (!r.ok()) {
      (void)schema_.RemoveColumn(schema_.num_columns() - 1);
      return r.status();
    }
    coerced = std::move(r).value();
  }
  // Hold auto-checkpoints off until the schema edit, the storage rewrite,
  // and the DDL record have all landed: a snapshot between them would
  // capture a half-applied schema change.
  storage::CheckpointDeferral no_checkpoint(storage_->pager());
  Status s = storage_->AddColumn(coerced);
  if (!s.ok()) {
    (void)schema_.RemoveColumn(schema_.num_columns() - 1);
    return s;
  }
  LogDdl(storage::WalRecordType::kAddColumn);
  Notify(TableChange{TableChange::Kind::kSchema, 0, schema_.num_columns() - 1});
  return Status::OK();
}

Status Table::DropColumn(std::string_view column_name) {
  auto idx = schema_.FindColumn(column_name);
  if (!idx) {
    return Status::NotFound("column '" + std::string(column_name) +
                            "' does not exist in " + name_);
  }
  bool was_pk = schema_.column(*idx).primary_key;
  storage::CheckpointDeferral no_checkpoint(storage_->pager());
  DS_RETURN_IF_ERROR(storage_->DropColumn(*idx));
  DS_RETURN_IF_ERROR(schema_.RemoveColumn(*idx));
  if (was_pk) pk_to_rid_.clear();
  LogDdl(storage::WalRecordType::kDropColumn);
  Notify(TableChange{TableChange::Kind::kSchema, 0, *idx});
  return Status::OK();
}

Status Table::RenameColumn(std::string_view from, std::string_view to) {
  auto idx = schema_.FindColumn(from);
  if (!idx) {
    return Status::NotFound("column '" + std::string(from) +
                            "' does not exist in " + name_);
  }
  DS_RETURN_IF_ERROR(schema_.RenameColumn(*idx, std::string(to)));
  LogDdl(storage::WalRecordType::kRenameColumn);
  Notify(TableChange{TableChange::Kind::kSchema, 0, *idx});
  return Status::OK();
}

Status Table::Reorganize() {
  if (storage_->model() != StorageModel::kHybrid) return Status::OK();
  storage::CheckpointDeferral no_checkpoint(storage_->pager());
  DS_RETURN_IF_ERROR(static_cast<HybridStore*>(storage_.get())->Reorganize());
  LogDdl(storage::WalRecordType::kReorganize);
  Notify(TableChange{TableChange::Kind::kBulk, 0, 0});
  return Status::OK();
}

int Table::AddListener(Listener listener) {
  int token = next_listener_token_++;
  listeners_.emplace_back(token, std::move(listener));
  return token;
}

void Table::RemoveListener(int token) {
  for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
    if (it->first == token) {
      listeners_.erase(it);
      return;
    }
  }
}

void Table::Notify(const TableChange& change) {
  version_ += 1;
  for (const auto& [token, fn] : listeners_) {
    (void)token;
    fn(*this, change);
  }
}

void Table::RebuildPkIndex() {
  pk_to_rid_.clear();
  auto pk = schema_.primary_key_index();
  if (!pk) return;
  order_.Visit(0, order_.size(), [&](size_t, uint64_t rid) {
    auto v = storage_->Get(SlotOf(rid), *pk);
    if (v.ok()) pk_to_rid_[v.value()] = rid;
  });
}

}  // namespace dataspread
