#include "exec/operators.h"

#include <algorithm>

#include "exec/expr_eval.h"

namespace dataspread {

namespace {

/// Appends one row-major tuple plus `right` (or NULL padding) to `out`
/// column-wise — the join emit path.
void AppendJoined(RowBatch* out, const Row& left, const Row* right,
                  size_t right_width) {
  size_t lw = left.size();
  for (size_t c = 0; c < lw; ++c) out->column(c).push_back(left[c]);
  if (right != nullptr) {
    for (size_t c = 0; c < right_width; ++c) {
      out->column(lw + c).push_back((*right)[c]);
    }
  } else {
    for (size_t c = 0; c < right_width; ++c) {
      out->column(lw + c).push_back(Value::Null());
    }
  }
  out->set_size(out->size() + 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// TableScanOp
// ---------------------------------------------------------------------------

TableScanOp::TableScanOp(const Table* table, size_t start, size_t count,
                         size_t row_batch_hint)
    : table_(table),
      start_(start),
      remaining_(count),
      row_batch_hint_(row_batch_hint == 0 ? kDefaultExecBatchSize
                                          : row_batch_hint) {
  std::vector<size_t> all(table->schema().num_columns());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  SetColumns(std::move(all));
}

Status TableScanOp::Open() {
  next_pos_ = start_;
  batch_.clear();
  batch_index_ = 0;
  return Status::OK();
}

void TableScanOp::SetWindow(size_t start, size_t count) {
  start_ = start;
  remaining_ = count;
  next_pos_ = start;
  batch_.clear();
  batch_index_ = 0;
}

void TableScanOp::SetColumns(std::vector<size_t> columns) {
  columns_ = std::move(columns);
  column_out_.assign(columns_.size(), nullptr);
}

Result<bool> TableScanOp::Next(Row* out) {
  if (batch_index_ >= batch_.size()) {
    if (remaining_ == 0 || next_pos_ >= table_->num_rows()) return false;
    size_t want = std::min(row_batch_hint_, remaining_);
    batch_ = table_->GetWindow(next_pos_, want);
    if (batch_.empty()) return false;
    next_pos_ += batch_.size();
    remaining_ -= batch_.size();
    batch_index_ = 0;
  }
  *out = std::move(batch_[batch_index_++]);
  return true;
}

Result<bool> TableScanOp::Next(RowBatch* out) {
  size_t ncols = table_->schema().num_columns();
  out->Reset(ncols);
  if (remaining_ == 0 || next_pos_ >= table_->num_rows()) return false;
  size_t want = std::min({out->capacity(), remaining_,
                          table_->num_rows() - next_pos_});
  for (size_t j = 0; j < columns_.size(); ++j) {
    column_out_[j] = &out->column(columns_[j]);
  }
  DS_RETURN_IF_ERROR(
      table_->GatherWindow(next_pos_, want, columns_, column_out_.data()));
  // Pruned columns read as NULL at every position of the batch.
  for (size_t c = 0; c < ncols; ++c) out->column(c).resize(want);
  out->set_size(want);
  next_pos_ += want;
  remaining_ -= want;
  return want > 0;
}

// ---------------------------------------------------------------------------
// KeyLookupOp
// ---------------------------------------------------------------------------

Status KeyLookupOp::Open() {
  auto row = table_->GetRowByKey(key_);
  pending_ = row.ok();
  if (pending_) {
    row_ = std::move(row).value();
  } else if (row.status().code() != StatusCode::kNotFound) {
    return row.status();
  }
  return Status::OK();
}

Result<bool> KeyLookupOp::Next(Row* out) {
  if (!pending_) return false;
  pending_ = false;
  *out = std::move(row_);
  return true;
}

Result<bool> KeyLookupOp::Next(RowBatch* out) {
  out->Reset(table_->schema().num_columns());
  if (!pending_) return false;
  pending_ = false;
  out->AppendRowMove(std::move(row_));
  return true;
}

// ---------------------------------------------------------------------------
// RowsScanOp
// ---------------------------------------------------------------------------

Result<bool> RowsScanOp::Next(RowBatch* out) {
  if (index_ >= rows_->size()) {
    out->Reset(0);
    return false;
  }
  out->Reset((*rows_)[index_].size());
  while (index_ < rows_->size() && !out->full()) {
    out->AppendRowMove(std::move((*rows_)[index_++]));
  }
  return out->size() > 0;
}

// ---------------------------------------------------------------------------
// FilterOp / ProjectOp
// ---------------------------------------------------------------------------

Result<bool> FilterOp::Next(Row* out) {
  while (true) {
    DS_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    DS_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*predicate_, out));
    if (pass) return true;
  }
}

Result<bool> FilterOp::Next(RowBatch* out) {
  while (true) {
    DS_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    const std::vector<uint32_t>& active =
        out->ActivePositions(&scratch_positions_);
    std::vector<uint32_t> passing;
    DS_RETURN_IF_ERROR(EvalPredicateBatch(*predicate_, *out, active, &passing));
    out->SetSelection(std::move(passing));
    if (out->ActiveSize() > 0) return true;
  }
}

Result<bool> ProjectOp::Next(Row* out) {
  Row input;
  DS_ASSIGN_OR_RETURN(bool more, child_->Next(&input));
  if (!more) return false;
  out->clear();
  out->reserve(exprs_.size());
  for (const sql::Expr* e : exprs_) {
    DS_ASSIGN_OR_RETURN(Value v, EvalScalar(*e, &input));
    out->push_back(std::move(v));
  }
  return true;
}

Result<bool> ProjectOp::Next(RowBatch* out) {
  input_.set_capacity(out->capacity());
  DS_ASSIGN_OR_RETURN(bool more, child_->Next(&input_));
  if (!more) return false;
  const std::vector<uint32_t>& active =
      input_.ActivePositions(&scratch_positions_);
  out->Reset(exprs_.size());
  for (size_t c = 0; c < exprs_.size(); ++c) {
    DS_RETURN_IF_ERROR(EvalScalarBatch(*exprs_[c], input_, active,
                                       &out->column(c)));
  }
  out->set_size(input_.size());
  if (input_.has_selection()) out->SetSelection(input_.selection());
  return true;
}

// ---------------------------------------------------------------------------
// NestedLoopJoinOp
// ---------------------------------------------------------------------------

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   const sql::Expr* on, bool left_outer,
                                   size_t right_width)
    : left_(std::move(left)),
      right_(std::move(right)),
      on_(on),
      left_outer_(left_outer),
      right_width_(right_width) {}

Status NestedLoopJoinOp::Open() {
  DS_RETURN_IF_ERROR(left_->Open());
  DS_RETURN_IF_ERROR(right_->Open());
  right_built_ = false;
  right_rows_.clear();
  have_left_ = false;
  left_positions_.clear();
  left_cursor_ = 0;
  return Status::OK();
}

Status NestedLoopJoinOp::BuildRightRows() {
  Row r;
  while (true) {
    auto more = right_->Next(&r);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    right_rows_.push_back(r);
  }
  return Status::OK();
}

Status NestedLoopJoinOp::BuildRightBatched(size_t batch_size) {
  RowBatch b(batch_size);
  std::vector<uint32_t> scratch;
  while (true) {
    auto more = right_->Next(&b);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    const std::vector<uint32_t>& active = b.ActivePositions(&scratch);
    for (uint32_t p : active) right_rows_.push_back(b.MoveRow(p));
  }
  return Status::OK();
}

Result<bool> NestedLoopJoinOp::Next(Row* out) {
  if (!right_built_) {
    DS_RETURN_IF_ERROR(BuildRightRows());
    right_built_ = true;
  }
  while (true) {
    if (!have_left_) {
      DS_ASSIGN_OR_RETURN(bool more, left_->Next(&left_row_));
      if (!more) return false;
      have_left_ = true;
      left_matched_ = false;
      right_index_ = 0;
    }
    while (right_index_ < right_rows_.size()) {
      const Row& r = right_rows_[right_index_++];
      Row combined = left_row_;
      combined.insert(combined.end(), r.begin(), r.end());
      if (on_ != nullptr) {
        DS_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*on_, &combined));
        if (!pass) continue;
      }
      left_matched_ = true;
      *out = std::move(combined);
      return true;
    }
    // Right side exhausted for this left row.
    have_left_ = false;
    if (left_outer_ && !left_matched_) {
      *out = left_row_;
      out->resize(out->size() + right_width_, Value::Null());
      return true;
    }
  }
}

Result<bool> NestedLoopJoinOp::AdvanceLeftBatched() {
  while (left_cursor_ >= left_positions_.size()) {
    DS_ASSIGN_OR_RETURN(bool more, left_->Next(&left_batch_));
    if (!more) return false;
    std::vector<uint32_t> scratch;
    const std::vector<uint32_t>& active = left_batch_.ActivePositions(&scratch);
    left_positions_.assign(active.begin(), active.end());
    left_cursor_ = 0;
  }
  left_row_ = left_batch_.MaterializeRow(left_positions_[left_cursor_++]);
  have_left_ = true;
  left_matched_ = false;
  right_index_ = 0;
  return true;
}

Result<bool> NestedLoopJoinOp::Next(RowBatch* out) {
  if (!right_built_) {
    left_batch_.set_capacity(out->capacity());
    DS_RETURN_IF_ERROR(BuildRightBatched(out->capacity()));
    right_built_ = true;
  }
  bool shaped = false;
  if (have_left_) {  // resuming mid-left-row from a previous full batch
    out->Reset(left_row_.size() + right_width_);
    shaped = true;
  }
  while (true) {
    if (!have_left_) {
      DS_ASSIGN_OR_RETURN(bool more, AdvanceLeftBatched());
      if (!more) break;
      if (!shaped) {
        out->Reset(left_row_.size() + right_width_);
        shaped = true;
      }
    }
    size_t lw = left_row_.size();
    while (right_index_ < right_rows_.size()) {
      // A previous left row may have left the batch partially (or exactly)
      // full — size the chunk to the space that remains, never the whole
      // capacity, so the batch cannot overshoot mid-match-list.
      if (out->full()) return true;
      size_t chunk = std::min(right_rows_.size() - right_index_,
                              std::max<size_t>(out->capacity() - out->size(), 1));
      if (on_ != nullptr) {
        // Broadcast the left tuple against a chunk of right tuples and
        // filter the combined batch with one vectorized predicate pass.
        combined_.set_capacity(chunk);
        combined_.Reset(lw + right_width_);
        for (size_t i = 0; i < chunk; ++i) {
          const Row& r = right_rows_[right_index_ + i];
          for (size_t c = 0; c < lw; ++c) {
            combined_.column(c).push_back(left_row_[c]);
          }
          for (size_t c = 0; c < right_width_; ++c) {
            combined_.column(lw + c).push_back(r[c]);
          }
        }
        combined_.set_size(chunk);
        combined_positions_.resize(chunk);
        for (size_t i = 0; i < chunk; ++i) {
          combined_positions_[i] = static_cast<uint32_t>(i);
        }
        passing_.clear();
        DS_RETURN_IF_ERROR(EvalPredicateBatch(*on_, combined_,
                                              combined_positions_, &passing_));
        for (uint32_t p : passing_) {
          left_matched_ = true;
          for (size_t c = 0; c < lw + right_width_; ++c) {
            out->column(c).push_back(std::move(combined_.column(c)[p]));
          }
          out->set_size(out->size() + 1);
        }
      } else {
        for (size_t i = 0; i < chunk; ++i) {
          left_matched_ = true;
          AppendJoined(out, left_row_, &right_rows_[right_index_ + i],
                       right_width_);
        }
      }
      right_index_ += chunk;
      if (out->full()) return true;
    }
    have_left_ = false;
    if (left_outer_ && !left_matched_) {
      AppendJoined(out, left_row_, nullptr, right_width_);
      if (out->full()) return true;
    }
  }
  if (!shaped) out->Reset(0);
  return out->size() > 0;
}

// ---------------------------------------------------------------------------
// HashJoinOp
// ---------------------------------------------------------------------------

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::vector<int> left_keys, std::vector<int> right_keys,
                       bool left_outer, size_t right_width)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      left_outer_(left_outer),
      right_width_(right_width) {}

Status HashJoinOp::Open() {
  DS_RETURN_IF_ERROR(left_->Open());
  DS_RETURN_IF_ERROR(right_->Open());
  built_ = false;
  build_.clear();
  have_left_ = false;
  matches_ = nullptr;
  left_positions_.clear();
  left_cursor_ = 0;
  return Status::OK();
}

namespace {

/// Extracts the key tuple at `offsets` from `row`; false if any key is NULL
/// (NULL keys never join).
bool ExtractKey(const Row& row, const std::vector<int>& offsets, Row* key) {
  key->clear();
  key->reserve(offsets.size());
  for (int k : offsets) {
    const Value& v = row[static_cast<size_t>(k)];
    if (v.is_null()) return false;
    key->push_back(v);
  }
  return true;
}

}  // namespace

Status HashJoinOp::BuildRows() {
  Row r, key;
  while (true) {
    auto more = right_->Next(&r);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    if (!ExtractKey(r, right_keys_, &key)) continue;
    build_[key].push_back(r);
  }
  return Status::OK();
}

Status HashJoinOp::BuildBatched(size_t batch_size) {
  RowBatch b(batch_size);
  std::vector<uint32_t> scratch;
  Row key;
  while (true) {
    auto more = right_->Next(&b);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    const std::vector<uint32_t>& active = b.ActivePositions(&scratch);
    for (uint32_t p : active) {
      Row r = b.MoveRow(p);
      if (!ExtractKey(r, right_keys_, &key)) continue;
      build_[key].push_back(std::move(r));
    }
  }
  return Status::OK();
}

Result<bool> HashJoinOp::Next(Row* out) {
  if (!built_) {
    DS_RETURN_IF_ERROR(BuildRows());
    built_ = true;
  }
  while (true) {
    if (!have_left_) {
      DS_ASSIGN_OR_RETURN(bool more, left_->Next(&left_row_));
      if (!more) return false;
      have_left_ = true;
      left_matched_ = false;
      match_index_ = 0;
      Row key;
      if (!ExtractKey(left_row_, left_keys_, &key)) {
        matches_ = nullptr;
      } else {
        auto it = build_.find(key);
        matches_ = it == build_.end() ? nullptr : &it->second;
      }
    }
    if (matches_ != nullptr && match_index_ < matches_->size()) {
      const Row& r = (*matches_)[match_index_++];
      *out = left_row_;
      out->insert(out->end(), r.begin(), r.end());
      left_matched_ = true;
      return true;
    }
    have_left_ = false;
    if (left_outer_ && !left_matched_) {
      *out = left_row_;
      out->resize(out->size() + right_width_, Value::Null());
      return true;
    }
  }
}

Result<bool> HashJoinOp::AdvanceLeftBatched() {
  while (left_cursor_ >= left_positions_.size()) {
    DS_ASSIGN_OR_RETURN(bool more, left_->Next(&left_batch_));
    if (!more) return false;
    std::vector<uint32_t> scratch;
    const std::vector<uint32_t>& active = left_batch_.ActivePositions(&scratch);
    left_positions_.assign(active.begin(), active.end());
    left_cursor_ = 0;
  }
  left_row_ = left_batch_.MaterializeRow(left_positions_[left_cursor_++]);
  have_left_ = true;
  left_matched_ = false;
  match_index_ = 0;
  Row key;
  if (!ExtractKey(left_row_, left_keys_, &key)) {
    matches_ = nullptr;
  } else {
    auto it = build_.find(key);
    matches_ = it == build_.end() ? nullptr : &it->second;
  }
  return true;
}

Result<bool> HashJoinOp::Next(RowBatch* out) {
  if (!built_) {
    left_batch_.set_capacity(out->capacity());
    DS_RETURN_IF_ERROR(BuildBatched(out->capacity()));
    built_ = true;
  }
  bool shaped = false;
  if (have_left_) {
    out->Reset(left_row_.size() + right_width_);
    shaped = true;
  }
  while (true) {
    if (!have_left_) {
      DS_ASSIGN_OR_RETURN(bool more, AdvanceLeftBatched());
      if (!more) break;
      if (!shaped) {
        out->Reset(left_row_.size() + right_width_);
        shaped = true;
      }
    }
    while (matches_ != nullptr && match_index_ < matches_->size()) {
      AppendJoined(out, left_row_, &(*matches_)[match_index_++], right_width_);
      left_matched_ = true;
      if (out->full()) return true;
    }
    have_left_ = false;
    if (left_outer_ && !left_matched_) {
      AppendJoined(out, left_row_, nullptr, right_width_);
      if (out->full()) return true;
    }
  }
  if (!shaped) out->Reset(0);
  return out->size() > 0;
}

// ---------------------------------------------------------------------------
// HashAggregateOp
// ---------------------------------------------------------------------------

HashAggregateOp::HashAggregateOp(OperatorPtr child,
                                 std::vector<const sql::Expr*> group_exprs,
                                 std::vector<sql::Expr*> agg_calls,
                                 std::vector<const sql::Expr*> output_exprs,
                                 const sql::Expr* having)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      agg_calls_(std::move(agg_calls)),
      output_exprs_(std::move(output_exprs)),
      having_(having) {}

Status HashAggregateOp::Open() {
  DS_RETURN_IF_ERROR(child_->Open());
  built_ = false;
  results_.clear();
  index_ = 0;
  return Status::OK();
}

Status HashAggregateOp::BuildRows() {
  std::vector<AggGroup> groups;  // deterministic output: first-seen order
  std::unordered_map<Row, size_t, RowHash, RowEq> ids;

  Row input;
  while (true) {
    auto more = child_->Next(&input);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    Row key;
    key.reserve(group_exprs_.size());
    for (const sql::Expr* g : group_exprs_) {
      auto v = EvalScalar(*g, &input);
      if (!v.ok()) return v.status();
      key.push_back(std::move(v).value());
    }
    auto it = ids.find(key);
    if (it == ids.end()) {
      AggGroup g = MakeAggGroup(agg_calls_);
      g.first_row = input;
      it = ids.emplace(std::move(key), groups.size()).first;
      groups.push_back(std::move(g));
    }
    for (AggState& s : groups[it->second].states) {
      DS_RETURN_IF_ERROR(s.Update(input));
    }
  }
  // Global aggregate over empty input still yields one group.
  if (groups.empty() && group_exprs_.empty()) {
    groups.push_back(MakeAggGroup(agg_calls_));
  }
  return FinalizeAggregateGroups(output_exprs_, having_, groups, &results_);
}

Status HashAggregateOp::BuildBatched(size_t batch_size) {
  AggregateFold fold(group_exprs_, agg_calls_);
  input_.set_capacity(batch_size);
  uint64_t seq = 0;
  while (true) {
    DS_ASSIGN_OR_RETURN(bool more, child_->Next(&input_));
    if (!more) break;
    DS_RETURN_IF_ERROR(fold.Fold(input_, &seq));
  }
  std::vector<AggGroup> groups = fold.TakeGroups();
  return FinalizeAggregateGroups(output_exprs_, having_, groups, &results_);
}

Status FinalizeAggregateGroups(
    const std::vector<const sql::Expr*>& output_exprs, const sql::Expr* having,
    const std::vector<AggGroup>& groups, std::vector<Row>* results) {
  for (const AggGroup& g : groups) {
    std::vector<Value> agg_values;
    agg_values.reserve(g.states.size());
    for (const AggState& s : g.states) agg_values.push_back(s.Finalize());
    const Row* first = g.first_row.empty() ? nullptr : &g.first_row;
    if (having != nullptr) {
      auto pass = EvalPredicate(*having, first, &agg_values);
      if (!pass.ok()) return pass.status();
      if (!pass.value()) continue;
    }
    Row out;
    out.reserve(output_exprs.size());
    for (const sql::Expr* e : output_exprs) {
      auto v = EvalScalar(*e, first, &agg_values);
      if (!v.ok()) return v.status();
      out.push_back(std::move(v).value());
    }
    results->push_back(std::move(out));
  }
  return Status::OK();
}

Result<bool> HashAggregateOp::Next(Row* out) {
  if (!built_) {
    DS_RETURN_IF_ERROR(BuildRows());
    built_ = true;
  }
  if (index_ >= results_.size()) return false;
  *out = std::move(results_[index_++]);
  return true;
}

Result<bool> HashAggregateOp::Next(RowBatch* out) {
  if (!built_) {
    DS_RETURN_IF_ERROR(BuildBatched(out->capacity()));
    built_ = true;
  }
  out->Reset(output_exprs_.size());
  while (index_ < results_.size() && !out->full()) {
    out->AppendRowMove(std::move(results_[index_++]));
  }
  return out->size() > 0;
}

// ---------------------------------------------------------------------------
// SortOp
// ---------------------------------------------------------------------------

Status SortOp::Open() {
  DS_RETURN_IF_ERROR(child_->Open());
  built_ = false;
  rows_.clear();
  index_ = 0;
  return Status::OK();
}

Status SortOp::BuildRows() {
  Row r;
  while (true) {
    auto more = child_->Next(&r);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    rows_.push_back(std::move(r));
  }
  std::vector<Row> keys(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    keys[i].reserve(keys_.size());
    for (const Key& k : keys_) {
      auto v = EvalScalar(*k.expr, &rows_[i]);
      if (!v.ok()) return v.status();
      keys[i].push_back(std::move(v).value());
    }
  }
  return SortCollected(std::move(keys));
}

Status SortOp::BuildBatched(size_t batch_size) {
  input_.set_capacity(batch_size);
  std::vector<Row> keys;
  std::vector<uint32_t> scratch;
  std::vector<std::vector<Value>> key_vals(keys_.size());
  while (true) {
    auto more = child_->Next(&input_);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    const std::vector<uint32_t>& active = input_.ActivePositions(&scratch);
    for (size_t k = 0; k < keys_.size(); ++k) {
      DS_RETURN_IF_ERROR(EvalScalarBatch(*keys_[k].expr, input_, active,
                                         &key_vals[k]));
    }
    for (uint32_t p : active) {
      Row kt;
      kt.reserve(keys_.size());
      for (auto& kv : key_vals) kt.push_back(std::move(kv[p]));
      keys.push_back(std::move(kt));
      rows_.push_back(input_.MoveRow(p));
    }
  }
  return SortCollected(std::move(keys));
}

Status SortOp::SortCollected(std::vector<Row> keys) {
  // Sort indices for stability and cheap swaps, then apply the permutation.
  std::vector<size_t> order(rows_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < keys_.size(); ++k) {
      int c = Value::Compare(keys[a][k], keys[b][k]);
      if (c != 0) return keys_[k].descending ? c > 0 : c < 0;
    }
    return false;
  });
  std::vector<Row> sorted;
  sorted.reserve(rows_.size());
  for (size_t i : order) sorted.push_back(std::move(rows_[i]));
  rows_ = std::move(sorted);
  return Status::OK();
}

Result<bool> SortOp::Next(Row* out) {
  if (!built_) {
    DS_RETURN_IF_ERROR(BuildRows());
    built_ = true;
  }
  if (index_ >= rows_.size()) return false;
  *out = std::move(rows_[index_++]);
  return true;
}

Result<bool> SortOp::Next(RowBatch* out) {
  if (!built_) {
    DS_RETURN_IF_ERROR(BuildBatched(out->capacity()));
    built_ = true;
  }
  if (index_ >= rows_.size()) {
    out->Reset(0);
    return false;
  }
  out->Reset(rows_[index_].size());
  while (index_ < rows_.size() && !out->full()) {
    out->AppendRowMove(std::move(rows_[index_++]));
  }
  return out->size() > 0;
}

// ---------------------------------------------------------------------------
// LimitOp / DistinctOp
// ---------------------------------------------------------------------------

Status LimitOp::Open() {
  emitted_ = 0;
  to_skip_ = offset_;
  skipped_ = offset_ <= 0;
  return child_->Open();
}

Result<bool> LimitOp::Next(Row* out) {
  if (!skipped_) {
    skipped_ = true;
    Row scratch;
    for (int64_t i = 0; i < to_skip_; ++i) {
      DS_ASSIGN_OR_RETURN(bool more, child_->Next(&scratch));
      if (!more) break;
    }
    to_skip_ = 0;
  }
  if (limit_ >= 0 && emitted_ >= limit_) return false;
  DS_ASSIGN_OR_RETURN(bool more, child_->Next(out));
  if (!more) return false;
  ++emitted_;
  return true;
}

Result<bool> LimitOp::Next(RowBatch* out) {
  std::vector<uint32_t> scratch;
  while (true) {
    if (limit_ >= 0 && emitted_ >= limit_) {
      out->Reset(out->num_columns());
      return false;
    }
    DS_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    const std::vector<uint32_t>& active = out->ActivePositions(&scratch);
    size_t n = active.size();
    size_t drop = 0;
    if (!skipped_) {
      drop = std::min<size_t>(static_cast<size_t>(to_skip_), n);
      to_skip_ -= static_cast<int64_t>(drop);
      if (to_skip_ == 0) skipped_ = true;
    }
    size_t take = n - drop;
    if (limit_ >= 0) {
      take = std::min<size_t>(take, static_cast<size_t>(limit_ - emitted_));
    }
    if (take == 0) continue;  // whole batch consumed by the offset
    emitted_ += static_cast<int64_t>(take);
    if (drop == 0 && take == n) return true;  // pass through untouched
    std::vector<uint32_t> sel(active.begin() + static_cast<ptrdiff_t>(drop),
                              active.begin() + static_cast<ptrdiff_t>(drop) +
                                  static_cast<ptrdiff_t>(take));
    out->SetSelection(std::move(sel));
    return true;
  }
}

Result<bool> DistinctOp::Next(Row* out) {
  while (true) {
    DS_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    auto [it, inserted] = seen_.emplace(*out, true);
    (void)it;
    if (inserted) return true;
  }
}

Result<bool> DistinctOp::Next(RowBatch* out) {
  while (true) {
    DS_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    const std::vector<uint32_t>& active =
        out->ActivePositions(&scratch_positions_);
    std::vector<uint32_t> keep;
    for (uint32_t p : active) {
      auto [it, inserted] = seen_.emplace(out->MaterializeRow(p), true);
      (void)it;
      if (inserted) keep.push_back(p);
    }
    out->SetSelection(std::move(keep));
    if (out->ActiveSize() > 0) return true;
  }
}

// ---------------------------------------------------------------------------

Result<std::vector<Row>> Materialize(Operator* op) {
  DS_RETURN_IF_ERROR(op->Open());
  std::vector<Row> out;
  Row r;
  while (true) {
    DS_ASSIGN_OR_RETURN(bool more, op->Next(&r));
    if (!more) break;
    out.push_back(std::move(r));
  }
  return out;
}

Result<std::vector<Row>> MaterializeBatched(Operator* op, size_t batch_size) {
  DS_RETURN_IF_ERROR(op->Open());
  std::vector<Row> out;
  RowBatch batch(batch_size);
  std::vector<uint32_t> scratch;
  while (true) {
    DS_ASSIGN_OR_RETURN(bool more, op->Next(&batch));
    if (!more) break;
    const std::vector<uint32_t>& active = batch.ActivePositions(&scratch);
    for (uint32_t p : active) out.push_back(batch.MoveRow(p));
  }
  return out;
}

}  // namespace dataspread
