#include "exec/aggregates.h"

#include <limits>

#include "exec/expr_eval.h"

namespace dataspread {

void CollectAggregates(sql::Expr* e, std::vector<sql::Expr*>* calls) {
  if (e == nullptr) return;
  if (e->kind == sql::ExprKind::kFunction && sql::IsAggregateFunction(e->op)) {
    if (e->aggregate_index < 0) {
      e->aggregate_index = static_cast<int>(calls->size());
      calls->push_back(e);
    }
    return;  // aggregate arguments are evaluated per input row, not nested
  }
  for (sql::ExprPtr& a : e->args) CollectAggregates(a.get(), calls);
}

AggState::AggState(const sql::Expr* call) : call_(call), op_(Op::kUnknown) {
  const std::string& op = call->op;
  if (op == "COUNT") {
    op_ = call->star ? Op::kCountStar : Op::kCount;
  } else if (op == "SUM") {
    op_ = Op::kSum;
  } else if (op == "AVG") {
    op_ = Op::kAvg;
  } else if (op == "MIN") {
    op_ = Op::kMin;
  } else if (op == "MAX") {
    op_ = Op::kMax;
  }
}

bool AggState::Improves(const Value& v) const {
  int c = Value::Compare(v, extreme_);
  return op_ == Op::kMin ? c < 0 : c > 0;
}

Status AggState::UpdateValue(const Value& v) {
  if (v.is_null()) return Status::OK();  // SQL aggregates skip NULLs
  ++count_;
  switch (op_) {
    case Op::kCount:
    case Op::kCountStar:
      return Status::OK();
    case Op::kSum:
    case Op::kAvg:
      if (v.type() == DataType::kInt && !is_real_) {
        sum_int_ += v.int_value();
      } else {
        DS_ASSIGN_OR_RETURN(double d, v.AsReal());
        if (!is_real_) {
          sum_real_ = static_cast<double>(sum_int_);
          is_real_ = true;
        }
        sum_real_ += d;
      }
      return Status::OK();
    case Op::kMin:
    case Op::kMax:
      if (!has_extreme_) {
        extreme_ = v;
        has_extreme_ = true;
      } else if (Improves(v)) {
        extreme_ = v;
      }
      return Status::OK();
    case Op::kUnknown:
      break;
  }
  return Status::Internal("unknown aggregate " + call_->op);
}

bool AggState::Retract(const Value& v) {
  if (v.is_null()) return true;  // never folded in
  switch (op_) {
    case Op::kCount:
    case Op::kCountStar:
      break;
    case Op::kSum:
    case Op::kAvg:
      if (is_real_ || v.type() != DataType::kInt) return false;
      sum_int_ -= v.int_value();
      break;
    case Op::kMin:
    case Op::kMax:
      if (!has_extreme_ || Value::Compare(v, extreme_) == 0) return false;
      break;
    case Op::kUnknown:
      return false;
  }
  --count_;
  return true;
}

void AggState::Merge(const AggState& other) {
  count_ += other.count_;
  if (is_real_ || other.is_real_) {
    double incoming =
        other.is_real_ ? other.sum_real_ : static_cast<double>(other.sum_int_);
    if (!is_real_) {
      sum_real_ = static_cast<double>(sum_int_);
      is_real_ = true;
    }
    sum_real_ += incoming;
  } else {
    sum_int_ += other.sum_int_;
  }
  if (other.has_extreme_) {
    if (!has_extreme_) {
      extreme_ = other.extreme_;
      has_extreme_ = true;
    } else if (Improves(other.extreme_)) {
      // Strict comparison, like UpdateValue: the later partial only wins on a
      // genuine improvement, so compare-equal ties keep the earlier extreme.
      extreme_ = other.extreme_;
    }
  }
}

Result<Value> AggState::Finalize() const {
  switch (op_) {
    case Op::kCount:
    case Op::kCountStar:
      return Value::Int(count_);
    case Op::kSum:
      if (count_ == 0) return Value::Null();
      if (is_real_) return Value::Real(sum_real_);
      if (sum_int_ > std::numeric_limits<int64_t>::max() ||
          sum_int_ < std::numeric_limits<int64_t>::min()) {
        return Status::OutOfRange("SUM(" + call_->args[0]->ToString() +
                                  ") overflows INTEGER");
      }
      return Value::Int(static_cast<int64_t>(sum_int_));
    case Op::kAvg: {
      if (count_ == 0) return Value::Null();
      double total = is_real_ ? sum_real_ : static_cast<double>(sum_int_);
      return Value::Real(total / static_cast<double>(count_));
    }
    default:
      return count_ == 0 ? Value::Null() : extreme_;  // MIN / MAX
  }
}

AggGroup MakeAggGroup(const std::vector<sql::Expr*>& agg_calls) {
  AggGroup g;
  g.states.reserve(agg_calls.size());
  for (const sql::Expr* call : agg_calls) g.states.emplace_back(call);
  return g;
}

AggregateFold::AggregateFold(const std::vector<const sql::Expr*>& group_exprs,
                             const std::vector<sql::Expr*>& agg_calls)
    : group_exprs_(group_exprs),
      agg_calls_(agg_calls),
      key_cols_(group_exprs.size()),
      key_scratch_(group_exprs.size()),
      arg_scratch_(agg_calls.size()) {}

Result<const ColumnVector*> AggregateFold::Column(
    const sql::Expr& e, const RowBatch& batch,
    const std::vector<uint32_t>& active, ColumnVector* scratch) {
  if (e.kind == sql::ExprKind::kColumnRef && e.bound_column >= 0 &&
      static_cast<size_t>(e.bound_column) < batch.num_columns()) {
    return &batch.column(static_cast<size_t>(e.bound_column));
  }
  DS_RETURN_IF_ERROR(
      EvalScalarBatch(e, batch, active, scratch->MutableValues()));
  return scratch;
}

uint32_t AggregateFold::AddGroup(Row key, const RowBatch& batch, uint32_t p,
                                 uint64_t order_key) {
  AggGroup g = MakeAggGroup(agg_calls_);
  g.key = std::move(key);
  g.first_row = batch.MaterializeRow(p);
  g.order_key = order_key;
  groups_.push_back(std::move(g));
  return static_cast<uint32_t>(groups_.size() - 1);
}

void AggregateFold::SwitchToRowKeys() {
  row_keys_ = true;
  for (const auto& [key, id] : int_ids_) ids_.emplace(Row{Value::Int(key)}, id);
  if (null_group_ != kNoGroup) ids_.emplace(Row{Value::Null()}, null_group_);
  int_ids_.clear();
  null_group_ = kNoGroup;
}

Status AggregateFold::Fold(const RowBatch& batch, uint64_t* seq) {
  const std::vector<uint32_t>& active = batch.ActivePositions(&positions_);
  if (active.empty()) return Status::OK();
  const uint64_t base = *seq;
  *seq += active.size();

  // Route every live row to its group; with no GROUP BY every row is
  // group 0 and group_ids_ is not consulted.
  const bool single = group_exprs_.empty();
  if (single) {
    if (groups_.empty()) AddGroup(Row{}, batch, active[0], base);
    groups_[0].rows += static_cast<int64_t>(active.size());
  } else {
    for (size_t g = 0; g < group_exprs_.size(); ++g) {
      DS_ASSIGN_OR_RETURN(key_cols_[g], Column(*group_exprs_[g], batch, active,
                                               &key_scratch_[g]));
    }
    group_ids_.resize(active.size());
    if (!row_keys_ && (key_cols_.size() != 1 ||
                       key_cols_[0]->kind() != ColumnKind::kInt)) {
      SwitchToRowKeys();
    }
    if (!row_keys_) {
      const ColumnVector& col = *key_cols_[0];
      for (size_t i = 0; i < active.size(); ++i) {
        uint32_t p = active[i];
        uint32_t* id = &null_group_;
        if (!col.IsNull(p)) {
          id = &int_ids_.try_emplace(col.int_at(p), kNoGroup).first->second;
        }
        if (*id == kNoGroup) {
          *id = AddGroup(Row{col.GetValue(p)}, batch, p, base + i);
        }
        group_ids_[i] = *id;
      }
    } else {
      for (size_t i = 0; i < active.size(); ++i) {
        uint32_t p = active[i];
        key_.clear();
        for (const ColumnVector* col : key_cols_) {
          key_.push_back(col->GetValue(p));
        }
        auto it = ids_.find(key_);
        if (it == ids_.end()) {
          uint32_t id = AddGroup(key_, batch, p, base + i);
          it = ids_.emplace(key_, id).first;
        }
        group_ids_[i] = it->second;
      }
    }
    for (uint32_t id : group_ids_) ++groups_[id].rows;
  }

  // Fold each aggregate over its argument column.
  for (size_t a = 0; a < agg_calls_.size(); ++a) {
    auto state = [&](size_t i) -> AggState& {
      return groups_[single ? 0 : group_ids_[i]].states[a];
    };
    const AggState& proto = groups_[0].states[a];
    if (!proto.needs_arg()) {
      for (size_t i = 0; i < active.size(); ++i) state(i).UpdateStar();
      continue;
    }
    DS_ASSIGN_OR_RETURN(
        const ColumnVector* arg,
        Column(*agg_calls_[a]->args[0], batch, active, &arg_scratch_[a]));
    const ColumnKind kind = proto.known() ? arg->kind() : ColumnKind::kValue;
    if (kind == ColumnKind::kInt || kind == ColumnKind::kReal) {
      const bool nulls = !arg->no_nulls();
      for (size_t i = 0; i < active.size(); ++i) {
        uint32_t p = active[i];
        if (nulls && arg->IsNull(p)) continue;
        if (kind == ColumnKind::kInt) {
          state(i).UpdateInt(arg->int_at(p));
        } else {
          state(i).UpdateReal(arg->real_at(p));
        }
      }
      continue;
    }
    for (size_t i = 0; i < active.size(); ++i) {
      uint32_t p = active[i];
      if (arg->kind() == ColumnKind::kValue) {
        DS_RETURN_IF_ERROR(state(i).UpdateValue(arg->value_at(p)));
      } else {
        DS_RETURN_IF_ERROR(state(i).UpdateValue(arg->GetValue(p)));
      }
    }
  }
  return Status::OK();
}

std::vector<AggGroup> AggregateFold::TakeGroups() {
  if (groups_.empty() && group_exprs_.empty()) {
    groups_.push_back(MakeAggGroup(agg_calls_));
  }
  ids_.clear();
  int_ids_.clear();
  null_group_ = kNoGroup;
  return std::move(groups_);
}

}  // namespace dataspread
