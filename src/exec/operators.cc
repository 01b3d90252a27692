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
  for (size_t c = 0; c < lw; ++c) out->column(c).Append(left[c]);
  for (size_t c = 0; c < right_width; ++c) {
    if (right != nullptr) {
      out->column(lw + c).Append((*right)[c]);
    } else {
      out->column(lw + c).AppendNull();
    }
  }
  out->set_size(out->size() + 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// TableScanOp
// ---------------------------------------------------------------------------

TableScanOp::TableScanOp(const Table* table, size_t start, size_t count)
    : table_(table), start_(start), remaining_(count) {
  std::vector<size_t> all(table->schema().num_columns());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  SetColumns(std::move(all));
}

Status TableScanOp::Open() {
  next_pos_ = start_;
  return Status::OK();
}

void TableScanOp::SetWindow(size_t start, size_t count) {
  start_ = start;
  remaining_ = count;
  next_pos_ = start;
}

void TableScanOp::SetColumns(std::vector<size_t> columns) {
  columns_ = std::move(columns);
  column_out_.assign(columns_.size(), nullptr);
}

Result<bool> TableScanOp::Next(RowBatch* out) {
  size_t ncols = table_->schema().num_columns();
  out->Reset(ncols);
  if (remaining_ == 0 || next_pos_ >= table_->num_rows()) return false;
  size_t want = std::min({out->capacity(), remaining_,
                          table_->num_rows() - next_pos_});
  // Read columns take their declared type's kind; pruned ones are absent.
  for (size_t c = 0; c < ncols; ++c) out->column(c).Reset(ColumnKind::kAbsent);
  for (size_t j = 0; j < columns_.size(); ++j) {
    ColumnVector& col = out->column(columns_[j]);
    col.Reset(KindForType(table_->schema().column(columns_[j]).type));
    column_out_[j] = &col;
  }
  DS_RETURN_IF_ERROR(
      table_->GatherWindow(next_pos_, want, columns_, column_out_.data()));
  for (size_t c = 0; c < ncols; ++c) {
    ColumnVector& col = out->column(c);
    if (col.kind() == ColumnKind::kAbsent) col.AppendNulls(want);
  }
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

Result<bool> ProjectOp::Next(RowBatch* out) {
  input_.set_capacity(out->capacity());
  DS_ASSIGN_OR_RETURN(bool more, child_->Next(&input_));
  if (!more) return false;
  const std::vector<uint32_t>& active =
      input_.ActivePositions(&scratch_positions_);
  out->Reset(exprs_.size());
  for (size_t c = 0; c < exprs_.size(); ++c) {
    DS_RETURN_IF_ERROR(EvalScalarBatch(*exprs_[c], input_, active,
                                       out->column(c).MutableValues()));
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

Status NestedLoopJoinOp::BuildRight(size_t batch_size) {
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

Result<bool> NestedLoopJoinOp::AdvanceLeft() {
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
    DS_RETURN_IF_ERROR(BuildRight(out->capacity()));
    right_built_ = true;
  }
  bool shaped = false;
  if (have_left_) {  // resuming mid-left-row from a previous full batch
    out->Reset(left_row_.size() + right_width_);
    shaped = true;
  }
  while (true) {
    if (!have_left_) {
      DS_ASSIGN_OR_RETURN(bool more, AdvanceLeft());
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
            combined_.column(c).Append(left_row_[c]);
          }
          for (size_t c = 0; c < right_width_; ++c) {
            combined_.column(lw + c).Append(r[c]);
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
            out->column(c).AppendTake(combined_.column(c), p);
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
                       bool left_outer, size_t right_width,
                       JoinBuildCache* cache, const Table* right_table)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      left_outer_(left_outer),
      right_width_(right_width),
      cache_(cache),
      right_table_(right_table) {}

void HashJoinOp::SetColumns(std::vector<bool> left_live,
                            std::vector<bool> right_live) {
  left_live_ = std::move(left_live);
  right_live_ = std::move(right_live);
}

Status HashJoinOp::Open() {
  DS_RETURN_IF_ERROR(left_->Open());
  DS_RETURN_IF_ERROR(right_->Open());
  built_ = false;
  table_.reset();
  left_positions_.clear();
  left_cursor_ = 0;
  probed_ = false;
  pairs_.clear();
  return Status::OK();
}

Result<std::shared_ptr<JoinBuild>> HashJoinOp::Build(size_t batch_size) {
  auto build = std::make_shared<JoinBuild>();
  JoinBuild& t = *build;
  // Read the keys and the live columns; the others stay absent.
  std::vector<size_t> read_columns;
  t.columns.assign(right_width_, ColumnVector(ColumnKind::kAbsent));
  for (size_t c = 0; c < right_width_; ++c) {
    bool key = std::find(right_keys_.begin(), right_keys_.end(),
                         static_cast<int>(c)) != right_keys_.end();
    if (key || RightLive(c)) read_columns.push_back(c);
  }
  RowBatch b(batch_size);
  std::vector<uint32_t> scratch;
  uint32_t n = 0;
  bool shaped = false;
  while (true) {
    DS_ASSIGN_OR_RETURN(bool more, right_->Next(&b));
    if (!more) break;
    if (!shaped) {
      // The build columns take the right input's kinds; a table scan's row
      // count sizes them exactly.
      for (size_t c : read_columns) {
        t.columns[c].Reset(b.column(c).kind());
        if (right_table_ != nullptr) {
          t.columns[c].Reserve(right_table_->num_rows());
        }
      }
      shaped = true;
    }
    for (uint32_t p : b.ActivePositions(&scratch)) {
      bool null_key = false;
      for (int k : right_keys_) null_key |= b.column(k).IsNull(p);
      if (null_key) continue;  // NULL keys never join
      for (size_t c : read_columns) t.columns[c].AppendTake(b.column(c), p);
      ++n;
    }
  }
  // Link each key's chain in right-input order.
  t.next.assign(n, kNoMatch);
  auto link = [&t](JoinBuild::Chain* chain, bool inserted, uint32_t i) {
    if (!inserted) {
      t.next[chain->last] = i;
      chain->last = i;
    }
  };
  const ColumnVector& first_key = t.columns[right_keys_[0]];
  if (right_keys_.size() == 1 && first_key.kind() == ColumnKind::kInt) {
    t.int_chains.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      auto [it, inserted] =
          t.int_chains.try_emplace(first_key.int_at(i), JoinBuild::Chain{i, i});
      link(&it->second, inserted, i);
    }
  } else if (right_keys_.size() == 1) {
    t.value_chains.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      auto [it, inserted] = t.value_chains.try_emplace(first_key.GetValue(i),
                                                       JoinBuild::Chain{i, i});
      link(&it->second, inserted, i);
    }
  } else {
    t.row_chains.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      Row key;
      key.reserve(right_keys_.size());
      for (int k : right_keys_) key.push_back(t.columns[k].GetValue(i));
      auto [it, inserted] =
          t.row_chains.try_emplace(std::move(key), JoinBuild::Chain{i, i});
      link(&it->second, inserted, i);
    }
  }
  // Reserving for every build row over-sizes the maps when keys repeat:
  // resize them to the distinct keys the build retains, at a load factor
  // of about 2/3 so probe chains stay as short as the per-row sizing left
  // them.
  t.int_chains.rehash(t.int_chains.size() * 3 / 2);
  t.value_chains.rehash(t.value_chains.size() * 3 / 2);
  t.row_chains.rehash(t.row_chains.size() * 3 / 2);
  // A key column nobody reads above the join only served the chains.
  for (int k : right_keys_) {
    if (!RightLive(k)) t.columns[k] = ColumnVector(ColumnKind::kAbsent);
  }
  return build;
}

namespace {

/// The INTEGER a probe value equals under Value::Compare, when the value can
/// equal any: an INT itself, or an integral REAL that an int64 holds
/// exactly (as the Value-keyed map would match it against an INT key).
bool IntProbeKey(const Value& v, int64_t* key) {
  if (v.type() == DataType::kInt) {
    *key = v.int_value();
    return true;
  }
  if (v.type() != DataType::kReal) return false;
  double d = v.real_value();
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) return false;
  *key = static_cast<int64_t>(d);
  return static_cast<double>(*key) == d;
}

}  // namespace

uint32_t HashJoinOp::ProbeChain(uint32_t pos) {
  if (left_keys_.size() == 1) {
    const ColumnVector& col = left_batch_.column(left_keys_[0]);
    if (col.IsNull(pos)) return kNoMatch;
    if (!table_->int_chains.empty()) {
      int64_t key;
      if (col.kind() == ColumnKind::kInt) {
        key = col.int_at(pos);
      } else if (!IntProbeKey(col.GetValue(pos), &key)) {
        return kNoMatch;
      }
      auto it = table_->int_chains.find(key);
      return it == table_->int_chains.end() ? kNoMatch : it->second.first;
    }
    if (table_->value_chains.empty()) return kNoMatch;
    auto it = table_->value_chains.find(col.GetValue(pos));
    return it == table_->value_chains.end() ? kNoMatch : it->second.first;
  }
  probe_key_.clear();
  for (int k : left_keys_) {
    const ColumnVector& col = left_batch_.column(k);
    if (col.IsNull(pos)) return kNoMatch;
    probe_key_.push_back(col.GetValue(pos));
  }
  auto it = table_->row_chains.find(probe_key_);
  return it == table_->row_chains.end() ? kNoMatch : it->second.first;
}

void HashJoinOp::FlushPairs(RowBatch* out) {
  if (pairs_.empty()) return;
  size_t lw = left_batch_.num_columns();
  for (size_t c = 0; c < lw; ++c) {
    ColumnVector& to = out->column(c);
    if (to.kind() == ColumnKind::kAbsent) {
      to.AppendNulls(pairs_.size());
      continue;
    }
    ColumnVector& from = left_batch_.column(c);
    for (const Pair& pair : pairs_) {
      if (pair.last) {
        to.AppendTake(from, pair.left);
      } else {
        to.AppendFrom(from, pair.left);
      }
    }
  }
  for (size_t c = 0; c < right_width_; ++c) {
    ColumnVector& to = out->column(lw + c);
    if (to.kind() == ColumnKind::kAbsent) {
      to.AppendNulls(pairs_.size());
      continue;
    }
    const ColumnVector& from = table_->columns[c];
    for (const Pair& pair : pairs_) {
      if (pair.right == kNoMatch) {
        to.AppendNull();
      } else {
        to.AppendFrom(from, pair.right);
      }
    }
  }
  out->set_size(out->size() + pairs_.size());
  pairs_.clear();
}

Result<bool> HashJoinOp::Next(RowBatch* out) {
  if (!built_) {
    left_batch_.set_capacity(out->capacity());
    auto build = [&] { return Build(out->capacity()); };
    if (cache_ != nullptr) {
      JoinBuildShape shape{right_keys_, {}};
      for (size_t c = 0; c < right_width_; ++c) {
        if (RightLive(c)) shape.columns.push_back(c);
      }
      DS_ASSIGN_OR_RETURN(table_,
                          cache_->GetOrBuild(right_table_, shape, build));
    } else {
      DS_ASSIGN_OR_RETURN(table_, build());
    }
    built_ = true;
  }
  bool shaped = false;
  // Output columns take the kinds of the columns they copy; a column not
  // read above the join is absent.
  auto shape = [&] {
    if (shaped) return;
    size_t lw = left_batch_.num_columns();
    out->Reset(lw + right_width_);
    for (size_t c = 0; c < lw; ++c) {
      bool live = left_live_.empty() || left_live_[c];
      out->column(c).Reset(live ? left_batch_.column(c).kind()
                                : ColumnKind::kAbsent);
    }
    for (size_t c = 0; c < right_width_; ++c) {
      out->column(lw + c).Reset(RightLive(c) ? table_->columns[c].kind()
                                             : ColumnKind::kAbsent);
    }
    shaped = true;
  };
  // Resuming inside a left batch (possibly mid-chain) from a full batch.
  if (left_cursor_ < left_positions_.size()) shape();
  while (true) {
    if (left_cursor_ >= left_positions_.size()) {
      FlushPairs(out);  // pairs read the left batch; flush before refilling
      DS_ASSIGN_OR_RETURN(bool more, left_->Next(&left_batch_));
      if (!more) break;
      std::vector<uint32_t> scratch;
      const std::vector<uint32_t>& active =
          left_batch_.ActivePositions(&scratch);
      left_positions_.assign(active.begin(), active.end());
      left_cursor_ = 0;
      probed_ = false;
      shape();
      continue;
    }
    uint32_t pos = left_positions_[left_cursor_];
    if (!probed_) {
      chain_ = ProbeChain(pos);
      left_matched_ = false;
      probed_ = true;
    }
    // Every iteration starts with room for at least one more tuple.
    size_t room = out->capacity() - out->size() - pairs_.size();
    for (; chain_ != kNoMatch && room > 0;
         chain_ = table_->next[chain_], --room) {
      pairs_.push_back({pos, chain_, false});
      left_matched_ = true;
    }
    if (chain_ != kNoMatch) {  // full mid-chain: resume here next call
      FlushPairs(out);
      return true;
    }
    if (left_outer_ && !left_matched_) pairs_.push_back({pos, kNoMatch, false});
    if (!pairs_.empty() && pairs_.back().left == pos) pairs_.back().last = true;
    ++left_cursor_;
    probed_ = false;
    if (out->size() + pairs_.size() >= out->capacity()) {
      FlushPairs(out);
      return true;
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

Status HashAggregateOp::Build(size_t batch_size) {
  AggregateFold fold(group_exprs_, agg_calls_);
  input_.set_capacity(batch_size);
  uint64_t seq = 0;
  while (true) {
    DS_ASSIGN_OR_RETURN(bool more, child_->Next(&input_));
    if (!more) break;
    DS_RETURN_IF_ERROR(fold.Fold(input_, &seq));
  }
  std::vector<AggGroup> groups = fold.TakeGroups();
  DS_RETURN_IF_ERROR(
      FinalizeAggregateGroups(output_exprs_, having_, groups, &results_));
  if (group_sink_ != nullptr) *group_sink_ = std::move(groups);
  return Status::OK();
}

Status FinalizeAggregateGroups(
    const std::vector<const sql::Expr*>& output_exprs, const sql::Expr* having,
    const std::vector<AggGroup>& groups, std::vector<Row>* results) {
  for (const AggGroup& g : groups) {
    std::vector<Value> agg_values;
    agg_values.reserve(g.states.size());
    for (const AggState& s : g.states) {
      DS_ASSIGN_OR_RETURN(Value v, s.Finalize());
      agg_values.push_back(std::move(v));
    }
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

Result<bool> HashAggregateOp::Next(RowBatch* out) {
  if (!built_) {
    DS_RETURN_IF_ERROR(Build(out->capacity()));
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

Status SortOp::Build(size_t batch_size) {
  input_.set_capacity(batch_size);
  std::vector<uint32_t> scratch;
  // Per key, the column holding its values in the current batch: the input
  // column itself for a plain column reference (compared in place, in its
  // native kind), else the key's own scratch column.
  std::vector<ColumnVector> key_scratch(keys_.size());
  std::vector<const ColumnVector*> key_cols(keys_.size());
  // Full sort: every row and its key tuple, sorted at the end.
  std::vector<Row> keys;
  // Top-K: kept rows live in slots; heap orders slot ids worst-first by
  // (keys, arrival), so its front is the entry a better row replaces.
  std::vector<Row> slot_keys, slot_rows;
  std::vector<uint64_t> slot_seq;
  std::vector<uint32_t> heap;
  auto before = [&](uint32_t a, uint32_t b) {
    int c = CompareKeys(slot_keys[a], slot_keys[b]);
    return c != 0 ? c < 0 : slot_seq[a] < slot_seq[b];
  };
  uint64_t seq = 0;
  while (true) {
    DS_ASSIGN_OR_RETURN(bool more, child_->Next(&input_));
    if (!more) break;
    const std::vector<uint32_t>& active = input_.ActivePositions(&scratch);
    for (size_t k = 0; k < keys_.size(); ++k) {
      const sql::Expr& e = *keys_[k].expr;
      if (e.kind == sql::ExprKind::kColumnRef && e.bound_column >= 0 &&
          static_cast<size_t>(e.bound_column) < input_.num_columns()) {
        key_cols[k] = &input_.column(static_cast<size_t>(e.bound_column));
        continue;
      }
      DS_RETURN_IF_ERROR(EvalScalarBatch(e, input_, active,
                                         key_scratch[k].MutableValues()));
      key_cols[k] = &key_scratch[k];
    }
    // Materializes the key tuple at `p` (before the row moves out).
    auto take_key = [&](uint32_t p, Row* key) {
      key->clear();
      key->reserve(keys_.size());
      for (size_t k = 0; k < keys_.size(); ++k) {
        key->push_back(key_cols[k] == &key_scratch[k]
                           ? key_scratch[k].TakeValue(p)
                           : key_cols[k]->GetValue(p));
      }
    };
    for (uint32_t p : active) {
      if (keep_ == kKeepAll) {
        take_key(p, &keys.emplace_back());
        rows_.push_back(input_.MoveRow(p));
        continue;
      }
      uint64_t arrival = seq++;
      uint32_t slot;
      if (heap.size() < keep_) {
        slot = static_cast<uint32_t>(slot_rows.size());
        slot_keys.emplace_back();
        slot_rows.emplace_back();
        slot_seq.emplace_back();
      } else {
        if (heap.empty()) continue;  // keep == 0
        // The candidate arrived after every kept row, so it must sort
        // strictly before the worst one to displace it.
        const Row& worst = slot_keys[heap.front()];
        int c = 0;
        for (size_t k = 0; k < keys_.size() && c == 0; ++k) {
          c = key_cols[k]->CompareTo(p, worst[k]);
          if (keys_[k].descending) c = -c;
        }
        if (c >= 0) continue;
        std::pop_heap(heap.begin(), heap.end(), before);
        slot = heap.back();
        heap.pop_back();
      }
      take_key(p, &slot_keys[slot]);
      slot_rows[slot] = input_.MoveRow(p);
      slot_seq[slot] = arrival;
      heap.push_back(slot);
      std::push_heap(heap.begin(), heap.end(), before);
    }
  }
  if (keep_ == kKeepAll) return SortCollected(std::move(keys));
  std::sort_heap(heap.begin(), heap.end(), before);
  for (uint32_t slot : heap) rows_.push_back(std::move(slot_rows[slot]));
  return Status::OK();
}

int SortOp::CompareKeys(const Row& a, const Row& b) const {
  for (size_t k = 0; k < keys_.size(); ++k) {
    int c = Value::Compare(a[k], b[k]);
    if (c != 0) return keys_[k].descending ? -c : c;
  }
  return 0;
}

Status SortOp::SortCollected(std::vector<Row> keys) {
  // Sort indices for stability and cheap swaps, then apply the permutation.
  std::vector<size_t> order(rows_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return CompareKeys(keys[a], keys[b]) < 0;
  });
  std::vector<Row> sorted;
  sorted.reserve(rows_.size());
  for (size_t i : order) sorted.push_back(std::move(rows_[i]));
  rows_ = std::move(sorted);
  return Status::OK();
}

Result<bool> SortOp::Next(RowBatch* out) {
  if (!built_) {
    DS_RETURN_IF_ERROR(Build(out->capacity()));
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
  to_skip_ = std::max<int64_t>(offset_, 0);
  return child_->Open();
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
    size_t drop = std::min<size_t>(static_cast<size_t>(to_skip_), n);
    to_skip_ -= static_cast<int64_t>(drop);
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
