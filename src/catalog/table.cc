#include "catalog/table.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "common/str_util.h"
#include "storage/hybrid_store.h"

namespace dataspread {

namespace {

/// The one source of table versions (Table::version): a new table starts at
/// a fresh value and every change draws the next one.
uint64_t NextTableVersion() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

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
    // The catalog side file slot→rid, persisted through the same pager (and
    // therefore the same WAL) as the data. Display order is logged instead
    // (LogOrderOp).
    table->rid_file_ = table->storage_->pager().CreateFile();
    table->set_retain_files(true);
  }
  return table;
}

Table::Table(std::string name, Schema schema,
             std::unique_ptr<TableStorage> storage)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      storage_(std::move(storage)),
      version_(NextTableVersion()) {}

Table::~Table() {
  if (durable() && !retain_files_) storage_->pager().DropFile(rid_file_);
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

void Table::LogOrderOp(const OrderOp& op) {
  std::string payload;
  EncodeOrderOp(op, &payload);
  storage_->pager().LogOrderRecord(op.insert
                                       ? storage::WalRecordType::kOrderInsert
                                       : storage::WalRecordType::kOrderErase,
                                   payload);
}

Result<std::unique_ptr<Table>> Table::Attach(const RecoveredTable& rec,
                                             storage::Pager* pager) {
  const TableDescriptor& desc = rec.desc;
  DS_RETURN_IF_ERROR(desc.schema.Validate());
  if (!pager->durable() || !pager->HasFile(desc.rid_file)) {
    return Status::Corruption("table " + desc.name +
                              " names a dead rid side file");
  }
  if (desc.manifest.num_columns != desc.schema.num_columns()) {
    return Status::Corruption("catalog schema/manifest arity mismatch");
  }
  // The display order: the snapshot's, bulk-loaded, then every order
  // operation logged since, in replay order.
  PositionalIndex order;
  order.Build(rec.order);
  for (const OrderOp& op : rec.order_ops) {
    Status s = op.insert ? order.InsertAt(op.pos, op.rid)
                         : order.EraseAt(op.pos).status();
    if (!s.ok()) {
      return Status::Corruption("order record for table " + desc.name +
                                ": " + s.message());
    }
  }
  // The one invariant: order, rid file and heap agree on the row count, and
  // the order and the rid file hold the same row ids. WAL brackets discard
  // a torn statement whole (DESIGN.md §7), so a committed log always meets
  // it; anything else is corruption, never repaired here.
  const uint64_t n = order.size();
  const uint64_t r = pager->FileSize(desc.rid_file);
  DS_ASSIGN_OR_RETURN(uint64_t h, ManifestRows(desc.manifest, *pager));
  constexpr uint64_t kUnknown = ~uint64_t{0};  // RCV: no heap row count
  if (r != n || (h != kUnknown && h != n)) {
    return Status::Corruption(
        "table " + desc.name + ": order holds " + std::to_string(n) +
        " rows, rid file " + std::to_string(r) + ", heap " +
        (h == kUnknown ? std::string("n/a") : std::to_string(h)));
  }
  Row values;
  pager->ReadRange(desc.rid_file, 0, r, &values);
  std::vector<uint64_t> slot_rids;
  slot_rids.reserve(values.size());
  for (const Value& v : values) {
    if (v.type() != DataType::kInt || v.int_value() < 0) {
      return Status::Corruption("rid side file of " + desc.name +
                                " holds a non-INT row id");
    }
    slot_rids.push_back(static_cast<uint64_t>(v.int_value()));
  }
  std::vector<uint64_t> sorted_order = order.GetRange(0, n);
  std::vector<uint64_t> sorted_slots = slot_rids;
  std::sort(sorted_order.begin(), sorted_order.end());
  std::sort(sorted_slots.begin(), sorted_slots.end());
  if (sorted_order != sorted_slots ||
      std::adjacent_find(sorted_slots.begin(), sorted_slots.end()) !=
          sorted_slots.end()) {
    return Status::Corruption("table " + desc.name +
                              ": display order and rid file disagree");
  }

  DS_ASSIGN_OR_RETURN(std::unique_ptr<TableStorage> storage,
                      AttachStorage(desc.manifest, n, pager));
  auto table = std::unique_ptr<Table>(
      new Table(desc.name, desc.schema, std::move(storage)));
  table->rid_file_ = desc.rid_file;
  table->set_retain_files(true);
  table->order_ = std::move(order);
  uint64_t max_rid = sorted_slots.empty() ? 0 : sorted_slots.back() + 1;
  table->rid_to_slot_.assign(max_rid, 0);
  for (size_t slot = 0; slot < slot_rids.size(); ++slot) {
    table->rid_to_slot_[slot_rids[slot]] = slot;
  }
  table->slot_to_rid_ = std::move(slot_rids);
  table->next_rid_ = std::max(desc.next_rid, max_rid);
  table->RebuildPkIndex();
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

Result<Value> Table::GetByRid(uint64_t rid, size_t col) const {
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
  return SetCell(rid, pos, col, std::move(coerced));
}

Status Table::SetCell(uint64_t rid, size_t pos, size_t col, Value coerced) {
  // The before-image: the change delta and, in a transaction, the undo
  // entry.
  DS_ASSIGN_OR_RETURN(Value before, storage_->Get(SlotOf(rid), col));
  // Statement bracket: everything this update logs is all-or-nothing across
  // crashes (DESIGN.md §7). Nested inside a Database-level statement it
  // rides the outer bracket.
  storage::StatementScope txn(storage_->pager(), write_txn_);
  auto pk = schema_.primary_key_index();
  if (pk && *pk == col) {
    DS_RETURN_IF_ERROR(CheckKey(coerced, rid));
    pk_to_rid_.erase(before);
    pk_to_rid_[coerced] = rid;
  }
  DS_RETURN_IF_ERROR(storage_->Set(SlotOf(rid), col, coerced));
  txn.Commit();
  TableChange change{TableChange::Kind::kUpdate, pos, col, rid};
  change.old_value = &before;
  change.new_value = &coerced;
  Notify(change);
  if (undo_ != nullptr) {
    undo_->entries.push_back({UndoJournal::Entry::Kind::kUpdate, this, 0, col,
                              rid, {}, std::move(before)});
  }
  return Status::OK();
}

Status Table::InsertRowAt(size_t pos, Row row) {
  return InsertRowAtWithRid(pos, std::move(row), next_rid_);
}

Status Table::InsertRowAtWithRid(size_t pos, Row row, uint64_t rid) {
  if (pos > order_.size()) {
    return Status::OutOfRange("insert position " + std::to_string(pos));
  }
  DS_RETURN_IF_ERROR(ValidateRow(row));
  for (size_t c = 0; c < row.size(); ++c) {
    DS_ASSIGN_OR_RETURN(row[c], CoerceForColumn(std::move(row[c]), c));
  }
  auto pk = schema_.primary_key_index();
  if (pk) DS_RETURN_IF_ERROR(CheckKey(row[*pk], rid));
  // Statement bracket: recovery applies the records below only if the
  // closing kTxnCommit survived, so a crash mid-insert rolls the whole row
  // away (DESIGN.md §7).
  storage::StatementScope txn(storage_->pager(), write_txn_);
  DS_ASSIGN_OR_RETURN(size_t slot, storage_->AppendRow(row));
  if (durable()) {
    // One order record and one rid slot, whatever `pos` is.
    LogOrderOp(OrderOp{/*insert=*/true, rid_file_, pos, rid});
    storage_->pager().Write(rid_file_, slot,
                            Value::Int(static_cast<int64_t>(rid)));
  }
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
  TableChange change{TableChange::Kind::kInsert, pos, 0, rid};
  change.row = &row;
  Notify(change);
  return Status::OK();
}

Status Table::AppendRow(Row row) {
  return InsertRowAt(order_.size(), std::move(row));
}

Status Table::DeleteRowAt(size_t pos) {
  DS_ASSIGN_OR_RETURN(uint64_t rid, order_.Get(pos));
  size_t slot = SlotOf(rid);
  // The before-image: the change delta and, in a transaction, the undo
  // entry.
  DS_ASSIGN_OR_RETURN(Row before, storage_->GetRow(slot));
  // Statement bracket: the data swap, rid move and order record below
  // commit or vanish together (DESIGN.md §7).
  storage::StatementScope txn(storage_->pager(), write_txn_);
  auto pk = schema_.primary_key_index();
  if (pk) pk_to_rid_.erase(before[*pk]);
  DS_ASSIGN_OR_RETURN(size_t moved_slot, storage_->DeleteRow(slot));
  // The storage layer moved the tuple from `moved_slot` into `slot`; repoint
  // its row id.
  if (moved_slot != slot) {
    uint64_t moved_rid = slot_to_rid_[moved_slot];
    rid_to_slot_[moved_rid] = slot;
    slot_to_rid_[slot] = moved_rid;
    if (durable()) {
      storage_->pager().Write(rid_file_, slot,
                              Value::Int(static_cast<int64_t>(moved_rid)));
    }
  }
  slot_to_rid_.pop_back();
  if (durable()) {
    storage_->pager().Truncate(rid_file_, slot_to_rid_.size());
    LogOrderOp(OrderOp{/*insert=*/false, rid_file_, pos, 0});
  }
  (void)order_.EraseAt(pos);
  txn.Commit();
  TableChange change{TableChange::Kind::kDelete, pos, 0, rid};
  change.row = &before;
  Notify(change);
  if (undo_ != nullptr) {
    undo_->entries.push_back({UndoJournal::Entry::Kind::kDelete, this, pos, 0,
                              rid, std::move(before), {}});
  }
  return Status::OK();
}

std::vector<Row> Table::GetWindow(size_t start, size_t count,
                                  std::vector<uint64_t>* rids) const {
  std::vector<Row> out;
  order_.Visit(start, count, [&](size_t, uint64_t rid) {
    auto row = storage_->GetRow(SlotOf(rid));
    if (!row.ok()) return;
    out.push_back(std::move(row).value());
    if (rids != nullptr) rids->push_back(rid);
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
                           ColumnVector* const* out) const {
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
  DS_ASSIGN_OR_RETURN(Value coerced, CoerceForColumn(std::move(v), col));
  return SetCell(it->second, TableChange::kNoPosition, col, std::move(coerced));
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
  // Capture is suspended by the caller (undo_ is null), and the restored
  // key was this row's before the update, so SetCell's key check passes.
  return SetCell(rid, TableChange::kNoPosition, col, std::move(old_value));
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

void Table::Notify(TableChange change) {
  change.table = this;
  change.prior_version = version_;
  version_ = NextTableVersion();
  change.version = version_;
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
