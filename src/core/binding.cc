#include "core/binding.h"

#include <algorithm>

namespace dataspread {

namespace {

constexpr uint64_t kNoRid = UINT64_MAX;  // a position whose row was not read

/// Calls `fn(lo, hi)` for each of the (at most two) pieces of [lo, hi) that
/// lie outside [other_lo, other_hi).
template <typename Fn>
Status ForEachPieceOutside(size_t lo, size_t hi, size_t other_lo,
                           size_t other_hi, Fn fn) {
  if (lo < std::min(hi, other_lo)) {
    DS_RETURN_IF_ERROR(fn(lo, std::min(hi, other_lo)));
  }
  size_t from = std::max(lo, other_hi);
  if (from < hi) DS_RETURN_IF_ERROR(fn(from, hi));
  return Status::OK();
}

}  // namespace

TableBinding::TableBinding(int id, Sheet* sheet, int64_t anchor_row,
                           int64_t anchor_col, Table* table, Database* db,
                           size_t default_window)
    : id_(id),
      sheet_(sheet),
      anchor_row_(anchor_row),
      anchor_col_(anchor_col),
      table_(table),
      db_(db),
      default_window_(default_window) {}

bool TableBinding::ContainsCell(const Sheet* sheet, int64_t row,
                                int64_t col) const {
  if (sheet != sheet_) return false;
  if (col < anchor_col_ ||
      col >= anchor_col_ + static_cast<int64_t>(table_->schema().num_columns())) {
    return false;
  }
  int64_t last_data_row = data_row() + static_cast<int64_t>(table_->num_rows());
  return row >= anchor_row_ && row < last_data_row;
}

Status TableBinding::WriteHeader() {
  const Schema& schema = table_->schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    int64_t col = anchor_col_ + static_cast<int64_t>(c);
    if (col == anchor_col_) continue;  // anchor cell carries the formula
    DS_RETURN_IF_ERROR(
        sheet_->SetValue(anchor_row_, col, Value::Text(schema.column(c).name)));
    WroteCell(anchor_row_, col);
  }
  return Status::OK();
}

Status TableBinding::WriteRows(size_t start, size_t count) {
  std::vector<uint64_t> rids;
  std::vector<Row> rows = table_->GetWindow(start, count, &rids);
  for (size_t i = 0; i < rows.size(); ++i) {
    int64_t sheet_row = data_row() + static_cast<int64_t>(start + i);
    for (size_t c = 0; c < rows[i].size(); ++c) {
      int64_t sheet_col = anchor_col_ + static_cast<int64_t>(c);
      DS_RETURN_IF_ERROR(
          sheet_->SetValue(sheet_row, sheet_col, std::move(rows[i][c])));
      WroteCell(sheet_row, sheet_col);
      cells_written_ += 1;
    }
  }
  std::copy(rids.begin(), rids.end(),
            rids_.begin() + static_cast<std::ptrdiff_t>(start - window_start_));
  // Clear any trailing rows the table could not supply.
  if (rows.size() < count) {
    DS_RETURN_IF_ERROR(ClearRows(start + rows.size(), count - rows.size()));
  }
  return Status::OK();
}

Status TableBinding::ClearRows(size_t start, size_t count) {
  size_t width = table_->schema().num_columns();
  for (size_t i = 0; i < count; ++i) {
    int64_t sheet_row = data_row() + static_cast<int64_t>(start + i);
    for (size_t c = 0; c < width; ++c) {
      int64_t sheet_col = anchor_col_ + static_cast<int64_t>(c);
      DS_RETURN_IF_ERROR(sheet_->ClearCell(sheet_row, sheet_col));
      WroteCell(sheet_row, sheet_col);
      cells_cleared_ += 1;
    }
  }
  return Status::OK();
}

Status TableBinding::SetWindow(size_t start, size_t count) {
  if (count == 0) count = default_window_;
  requested_count_ = count;
  size_t n = table_->num_rows();
  start = std::min(start, n);
  count = std::min(count, n - start);
  size_t old_lo = window_start_, old_hi = window_start_ + window_count_;
  size_t new_lo = start, new_hi = start + count;
  DS_RETURN_IF_ERROR(ForEachPieceOutside(
      old_lo, old_hi, new_lo, new_hi,
      [&](size_t lo, size_t hi) { return ClearRows(lo, hi - lo); }));
  // The overlap keeps its cells and row ids; only entering rows are read.
  std::vector<uint64_t> rids(count, kNoRid);
  for (size_t p = std::max(old_lo, new_lo); p < std::min(old_hi, new_hi); ++p) {
    rids[p - new_lo] = rids_[p - old_lo];
  }
  rids_.swap(rids);
  window_start_ = start;
  window_count_ = count;
  refreshes_ += 1;
  return ForEachPieceOutside(
      new_lo, new_hi, old_lo, old_hi,
      [&](size_t lo, size_t hi) { return WriteRows(lo, hi - lo); });
}

Status TableBinding::RefreshWindow() {
  full_refresh_queued_ = false;
  queued_updates_.clear();
  size_t n = table_->num_rows();
  size_t start = std::min(window_start_, n);
  // Refresh the *configured* span, not the previously materialized one, so
  // the window grows when back-end inserts extend the table into it.
  size_t count = requested_count_ > 0 ? requested_count_ : default_window_;
  size_t old_hi = window_start_ + window_count_;
  refreshes_ += 1;
  window_start_ = start;
  window_count_ = std::min(count, n - start);
  rids_.assign(window_count_, kNoRid);
  DS_RETURN_IF_ERROR(WriteRows(window_start_, window_count_));
  // Clear rows that fell off the end (table shrank).
  if (old_hi > window_start_ + window_count_) {
    size_t from = window_start_ + window_count_;
    DS_RETURN_IF_ERROR(ClearRows(from, old_hi - from));
  }
  return Status::OK();
}

void TableBinding::QueueChange(const TableChange& change) {
  if (change.kind != TableChange::Kind::kUpdate) {
    full_refresh_queued_ = true;
    queued_updates_.clear();
  } else if (!full_refresh_queued_) {
    queued_updates_.emplace_back(change.rid, change.column);
  }
}

Status TableBinding::ApplyQueuedChanges() {
  if (full_refresh_queued_) return RefreshWindow();
  if (queued_updates_.empty()) return Status::OK();
  std::vector<std::pair<uint64_t, size_t>> updates;
  updates.swap(queued_updates_);
  refreshes_ += 1;
  for (const auto& [rid, column] : updates) {
    auto it = std::find(rids_.begin(), rids_.end(), rid);
    if (it == rids_.end()) continue;  // not materialized
    DS_ASSIGN_OR_RETURN(Value v, table_->GetByRid(rid, column));
    int64_t sheet_row = data_row() + static_cast<int64_t>(window_start_) +
                        (it - rids_.begin());
    int64_t sheet_col = anchor_col_ + static_cast<int64_t>(column);
    DS_RETURN_IF_ERROR(sheet_->SetValue(sheet_row, sheet_col, std::move(v)));
    WroteCell(sheet_row, sheet_col);
    cells_written_ += 1;
  }
  return Status::OK();
}

Status TableBinding::ClearMaterialized() {
  const Schema& schema = table_->schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    int64_t col = anchor_col_ + static_cast<int64_t>(c);
    if (col != anchor_col_) {
      DS_RETURN_IF_ERROR(sheet_->ClearCell(anchor_row_, col));
    }
  }
  DS_RETURN_IF_ERROR(ClearRows(window_start_, window_count_));
  window_count_ = 0;
  rids_.clear();
  return Status::OK();
}

Status TableBinding::ApplyFrontEndEdit(int64_t row, int64_t col,
                                       const Value& v) {
  size_t c = static_cast<size_t>(col - anchor_col_);
  if (row == anchor_row_) {
    // Header edit = column rename (dynamic schema, paper §2.2).
    if (v.type() != DataType::kText || v.text_value().empty()) {
      return Status::InvalidArgument("column name must be non-empty text");
    }
    return table_->RenameColumn(table_->schema().column(c).name,
                                v.text_value());
  }
  size_t position = static_cast<size_t>(row - data_row());
  if (position >= table_->num_rows()) {
    return Status::OutOfRange("edit beyond the bound table");
  }
  auto pk = table_->schema().primary_key_index();
  if (pk.has_value() && *pk != c) {
    // The paper's key↔location translation: find the tuple's key at this
    // position, then update through the database by key.
    DS_ASSIGN_OR_RETURN(Value key, table_->GetAt(position, *pk));
    std::string sql = "UPDATE " + table_->name() + " SET " +
                      table_->schema().column(c).name + " = " +
                      v.ToSqlLiteral() + " WHERE " +
                      table_->schema().column(*pk).name + " = " +
                      key.ToSqlLiteral();
    DS_ASSIGN_OR_RETURN(ResultSet rs, db_->Execute(sql));
    if (rs.affected_rows != 1) {
      return Status::Internal("keyed update affected " +
                              std::to_string(rs.affected_rows) + " rows");
    }
    return Status::OK();
  }
  // No usable key: positional update (the interface-aware path).
  return table_->UpdateAt(position, c, v);
}

}  // namespace dataspread
