#include "exec/planner.h"

#include <limits>

#include "common/str_util.h"
#include "exec/binder.h"
#include "exec/expr_eval.h"
#include "exec/key_match.h"
#include "exec/morsel.h"

namespace dataspread {

namespace {

using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;
using sql::JoinType;
using sql::SelectStmt;

constexpr size_t kScanAll = std::numeric_limits<size_t>::max();

/// Builds the scan operator for a bound source.
OperatorPtr MakeScan(const BoundSource& src, size_t start, size_t count,
                     size_t batch_size) {
  if (src.table != nullptr) {
    return std::make_unique<TableScanOp>(src.table, start, count, batch_size);
  }
  auto rows = std::make_shared<std::vector<Row>>(src.range->rows);
  // Window pushdown for ranges is handled by LimitOp upstream; ranges are
  // already materialized so there is nothing to save.
  (void)start;
  (void)count;
  return std::make_unique<RowsScanOp>(std::move(rows));
}

/// Collects `expr` conjuncts that are `col = col` equalities usable by a hash
/// join across the given boundary. Returns false if any conjunct is not such
/// an equality (caller falls back to a nested loop).
bool ExtractEquiKeys(const Expr& e, size_t left_width, std::vector<int>* lk,
                     std::vector<int>* rk) {
  if (e.kind == ExprKind::kBinary && e.op == "AND") {
    return ExtractEquiKeys(*e.args[0], left_width, lk, rk) &&
           ExtractEquiKeys(*e.args[1], left_width, lk, rk);
  }
  if (e.kind != ExprKind::kBinary || e.op != "=") return false;
  const Expr& a = *e.args[0];
  const Expr& b = *e.args[1];
  if (a.kind != ExprKind::kColumnRef || b.kind != ExprKind::kColumnRef) {
    return false;
  }
  size_t ai = static_cast<size_t>(a.bound_column);
  size_t bi = static_cast<size_t>(b.bound_column);
  if (ai < left_width && bi >= left_width) {
    lk->push_back(static_cast<int>(ai));
    rk->push_back(static_cast<int>(bi - left_width));
    return true;
  }
  if (bi < left_width && ai >= left_width) {
    lk->push_back(static_cast<int>(bi));
    rk->push_back(static_cast<int>(ai - left_width));
    return true;
  }
  return false;
}

/// Human-facing output column name for a select item.
std::string NameOfItem(const sql::SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ExprKind::kColumnRef) return item.expr->column_name;
  if (item.expr->kind == ExprKind::kFunction) return ToLower(item.expr->op);
  return item.expr->ToString();
}

/// Makes a pre-bound column reference (used for star expansion and
/// output-ordering keys).
ExprPtr MakeBoundColumn(std::string name, int index) {
  ExprPtr e = sql::MakeColumnRef("", std::move(name));
  e->bound_column = index;
  return e;
}

/// Marks every input column `e` reads (its bound column references).
void MarkColumns(const Expr* e, std::vector<bool>* used) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kColumnRef && e->bound_column >= 0 &&
      static_cast<size_t>(e->bound_column) < used->size()) {
    (*used)[static_cast<size_t>(e->bound_column)] = true;
  }
  for (const ExprPtr& a : e->args) MarkColumns(a.get(), used);
}

/// Plan-time constant folding over every expression the plan evaluates
/// except WHERE, which is folded as soon as it is bound (the key-direct
/// matcher needs its folded form). Runs once, after binding and ORDER BY
/// resolution; both execution modes then see the same folded AST.
void FoldStmtConstants(SelectStmt* stmt) {
  for (sql::JoinClause& join : stmt->joins) FoldConstants(join.on.get());
  for (sql::SelectItem& item : stmt->items) {
    if (!item.star) FoldConstants(item.expr.get());
  }
  for (ExprPtr& g : stmt->group_by) FoldConstants(g.get());
  FoldConstants(stmt->having.get());
  for (sql::OrderItem& item : stmt->order_by) FoldConstants(item.expr.get());
}

}  // namespace

Result<PlannedQuery> PlanSelect(SelectStmt* stmt, Catalog& catalog,
                                ExternalResolver* resolver,
                                const ExecOptions& exec) {
  size_t batch_size = EffectiveBatchSize(exec);
  PlannedQuery plan;
  Scope scope;
  OperatorPtr root;

  // Morsel-parallel leaf eligibility (DESIGN.md §6b): a single named table,
  // no joins, batch mode, and a thread count requested. Everything above the
  // scan→filter[→aggregate] leaf (sort, project, distinct, limit, join
  // shapes) stays serial; ineligible shapes fall back to the serial plan
  // unchanged.
  const Table* leaf_table = nullptr;
  size_t leaf_start = 0;
  size_t leaf_count = kScanAll;
  const Expr* leaf_where = nullptr;
  // The table of a single-table FROM (no joins): the key-direct leaf's
  // candidate.
  const Table* key_table = nullptr;
  // The scan leaf of a single-table FROM, serial or morsel-parallel (at most
  // one is set): column pruning narrows it to the referenced columns.
  TableScanOp* scan_leaf = nullptr;
  ParallelScanOp* parallel_scan = nullptr;
  ParallelAggregateOp* parallel_aggregate = nullptr;

  // ---- FROM clause: sources and joins ----
  if (stmt->from.has_value()) {
    DS_ASSIGN_OR_RETURN(BoundSource first,
                        BindTableRef(*stmt->from, catalog, resolver));
    AppendToScope(first, &scope);
    if (stmt->joins.empty()) key_table = first.table;
    if (exec.num_threads >= 1 && !exec.row_at_a_time && stmt->joins.empty()) {
      leaf_table = first.table;  // null for RANGETABLE sources → serial
    }

    // Interface-aware window pushdown (paper §2.2): push LIMIT/OFFSET into
    // the ordered positional-index scan when nothing else reorders or
    // filters rows.
    bool pushdown = stmt->joins.empty() && stmt->where == nullptr &&
                    stmt->group_by.empty() && stmt->having == nullptr &&
                    stmt->order_by.empty() && !stmt->distinct &&
                    first.table != nullptr &&
                    (stmt->limit.has_value() || stmt->offset.has_value());
    bool consumed_window = false;
    if (pushdown) {
      size_t start = static_cast<size_t>(stmt->offset.value_or(0));
      size_t count = stmt->limit.has_value()
                         ? static_cast<size_t>(*stmt->limit)
                         : kScanAll;
      root = MakeScan(first, start, count, batch_size);
      leaf_start = start;
      leaf_count = count;
      consumed_window = true;
    } else {
      root = MakeScan(first, 0, kScanAll, batch_size);
    }
    if (consumed_window) {
      stmt->limit.reset();
      stmt->offset.reset();
    }
    if (key_table != nullptr) {
      scan_leaf = static_cast<TableScanOp*>(root.get());
    }

    for (sql::JoinClause& join : stmt->joins) {
      size_t left_width = scope.columns.size();
      DS_ASSIGN_OR_RETURN(BoundSource right,
                          BindTableRef(join.table, catalog, resolver));
      size_t right_width = right.num_columns();
      OperatorPtr right_op = MakeScan(right, 0, kScanAll, batch_size);

      if (join.type == JoinType::kNatural) {
        // Shared visible column names become the hash-join keys; the
        // right-hand copies are hidden from unqualified/star resolution.
        std::vector<int> lk, rk;
        AppendToScope(right, &scope);
        for (size_t r = 0; r < right_width; ++r) {
          const std::string& rname = right.columns[r];
          for (size_t l = 0; l < left_width; ++l) {
            if (scope.columns[l].visible &&
                EqualsIgnoreCase(scope.columns[l].name, rname)) {
              lk.push_back(static_cast<int>(l));
              rk.push_back(static_cast<int>(r));
              scope.columns[left_width + r].visible = false;
              break;
            }
          }
        }
        if (lk.empty()) {
          // No shared attributes: NATURAL JOIN degenerates to a cross join.
          root = std::make_unique<NestedLoopJoinOp>(
              std::move(root), std::move(right_op), nullptr,
              /*left_outer=*/false, right_width);
        } else {
          root = std::make_unique<HashJoinOp>(std::move(root),
                                              std::move(right_op), lk, rk,
                                              /*left_outer=*/false, right_width);
        }
        continue;
      }

      AppendToScope(right, &scope);
      if (join.type == JoinType::kCross) {
        root = std::make_unique<NestedLoopJoinOp>(std::move(root),
                                                  std::move(right_op), nullptr,
                                                  /*left_outer=*/false,
                                                  right_width);
        continue;
      }
      DS_RETURN_IF_ERROR(BindExpr(join.on.get(), scope, resolver,
                                  /*allow_aggregates=*/false));
      bool left_outer = join.type == JoinType::kLeft;
      std::vector<int> lk, rk;
      if (ExtractEquiKeys(*join.on, left_width, &lk, &rk) && !lk.empty()) {
        root = std::make_unique<HashJoinOp>(std::move(root),
                                            std::move(right_op), lk, rk,
                                            left_outer, right_width);
      } else {
        root = std::make_unique<NestedLoopJoinOp>(std::move(root),
                                                  std::move(right_op),
                                                  join.on.get(), left_outer,
                                                  right_width);
      }
    }
  } else {
    // FROM-less SELECT: one empty input row.
    auto one = std::make_shared<std::vector<Row>>();
    one->push_back(Row{});
    root = std::make_unique<RowsScanOp>(std::move(one));
  }

  // ---- WHERE ----
  if (stmt->where != nullptr) {
    DS_RETURN_IF_ERROR(BindExpr(stmt->where.get(), scope, resolver,
                                /*allow_aggregates=*/false));
    FoldConstants(stmt->where.get());
    // Key-direct leaf (DESIGN.md §6a): `WHERE <pk> = <literal>` reads its 0
    // or 1 rows from the primary-key index instead of scanning. It takes
    // precedence over the morsel-parallel leaf (and a WHERE already rules
    // out the window pushdown); the FilterOp below still checks the row.
    if (key_table != nullptr) {
      if (auto key = MatchKeyEquality(stmt->where.get(), key_table->schema())) {
        root = std::make_unique<KeyLookupOp>(key_table, std::move(*key));
        scan_leaf = nullptr;
        leaf_table = nullptr;
      }
    }
    if (leaf_table != nullptr) {
      // The predicate rides inside the parallel leaf (each worker filters
      // its own morsels) instead of a FilterOp above the scan.
      leaf_where = stmt->where.get();
    } else {
      root = std::make_unique<FilterOp>(std::move(root), stmt->where.get());
    }
  }

  // ---- Star expansion & output naming ----
  std::vector<const Expr*> output_exprs;
  bool any_aggregate = !stmt->group_by.empty() || stmt->having != nullptr;
  for (sql::SelectItem& item : stmt->items) {
    if (!item.star && sql::ContainsAggregate(*item.expr)) any_aggregate = true;
  }
  for (sql::SelectItem& item : stmt->items) {
    if (item.star) {
      if (any_aggregate) {
        return Status::InvalidArgument(
            "SELECT * cannot be combined with aggregation");
      }
      bool matched = false;
      for (size_t i = 0; i < scope.columns.size(); ++i) {
        const Scope::Column& c = scope.columns[i];
        if (!item.star_qualifier.empty()) {
          if (!EqualsIgnoreCase(c.qualifier, item.star_qualifier)) continue;
        } else if (!c.visible) {
          continue;
        }
        plan.owned_exprs.push_back(MakeBoundColumn(c.name, static_cast<int>(i)));
        output_exprs.push_back(plan.owned_exprs.back().get());
        plan.columns.push_back(c.name);
        matched = true;
      }
      if (!matched) {
        return Status::NotFound("star qualifier '" + item.star_qualifier +
                                "' matches no source");
      }
      continue;
    }
    DS_RETURN_IF_ERROR(BindExpr(item.expr.get(), scope, resolver,
                                /*allow_aggregates=*/true));
    output_exprs.push_back(item.expr.get());
    plan.columns.push_back(NameOfItem(item));
  }

  // ---- Aggregation / projection ----
  if (any_aggregate) {
    for (ExprPtr& g : stmt->group_by) {
      DS_RETURN_IF_ERROR(BindExpr(g.get(), scope, resolver,
                                  /*allow_aggregates=*/false));
    }
    if (stmt->having != nullptr) {
      DS_RETURN_IF_ERROR(BindExpr(stmt->having.get(), scope, resolver,
                                  /*allow_aggregates=*/true));
    }
    std::vector<Expr*> agg_calls;
    for (sql::SelectItem& item : stmt->items) {
      CollectAggregates(item.expr.get(), &agg_calls);
    }
    CollectAggregates(stmt->having.get(), &agg_calls);
    std::vector<const Expr*> group_exprs;
    group_exprs.reserve(stmt->group_by.size());
    for (const ExprPtr& g : stmt->group_by) group_exprs.push_back(g.get());
    if (leaf_table != nullptr) {
      // The whole scan→filter→aggregate leaf goes morsel-parallel; the
      // serial scan built above is discarded.
      auto op = std::make_unique<ParallelAggregateOp>(
          leaf_table, leaf_start, leaf_count, leaf_where, group_exprs,
          std::move(agg_calls), output_exprs, stmt->having.get(), exec);
      parallel_aggregate = op.get();
      scan_leaf = nullptr;
      root = std::move(op);
    } else {
      root = std::make_unique<HashAggregateOp>(std::move(root), group_exprs,
                                               std::move(agg_calls),
                                               output_exprs,
                                               stmt->having.get());
    }
  } else if (leaf_table != nullptr) {
    // Non-aggregate parallel leaf: materialize the (filtered) window in
    // morsel order. With nothing above that reorders or dedups rows, a
    // LIMIT can stop dispensing once enough prefix rows exist.
    size_t limit_hint = kNoLimitHint;
    if (stmt->order_by.empty() && !stmt->distinct && stmt->limit.has_value() &&
        *stmt->limit >= 0) {
      limit_hint = static_cast<size_t>(*stmt->limit) +
                   static_cast<size_t>(stmt->offset.value_or(0));
    }
    auto op = std::make_unique<ParallelScanOp>(
        leaf_table, leaf_start, leaf_count, leaf_where, exec, limit_hint);
    parallel_scan = op.get();
    scan_leaf = nullptr;
    root = std::move(op);
  }

  // ---- ORDER BY ----
  if (!stmt->order_by.empty()) {
    std::vector<SortOp::Key> keys;
    for (sql::OrderItem& item : stmt->order_by) {
      Expr* e = item.expr.get();
      const Expr* key_expr = nullptr;
      // 1. Positional: ORDER BY 2.
      if (e->kind == ExprKind::kLiteral && e->literal.type() == DataType::kInt) {
        int64_t idx = e->literal.int_value();
        if (idx < 1 || static_cast<size_t>(idx) > output_exprs.size()) {
          return Status::InvalidArgument("ORDER BY position " +
                                         std::to_string(idx) + " out of range");
        }
        if (any_aggregate) {
          plan.owned_exprs.push_back(
              MakeBoundColumn(plan.columns[idx - 1], static_cast<int>(idx - 1)));
          key_expr = plan.owned_exprs.back().get();
        } else {
          key_expr = output_exprs[static_cast<size_t>(idx - 1)];
        }
      }
      // 2. Output alias / name.
      if (key_expr == nullptr && e->kind == ExprKind::kColumnRef &&
          e->qualifier.empty()) {
        for (size_t i = 0; i < plan.columns.size(); ++i) {
          if (EqualsIgnoreCase(plan.columns[i], e->column_name)) {
            if (any_aggregate) {
              plan.owned_exprs.push_back(
                  MakeBoundColumn(plan.columns[i], static_cast<int>(i)));
              key_expr = plan.owned_exprs.back().get();
            } else {
              key_expr = output_exprs[i];
            }
            break;
          }
        }
      }
      // 3. Textual match against a select item (e.g. ORDER BY AVG(g)).
      if (key_expr == nullptr && any_aggregate) {
        std::string text = e->ToString();
        for (size_t i = 0; i < stmt->items.size(); ++i) {
          if (!stmt->items[i].star && stmt->items[i].expr->ToString() == text) {
            plan.owned_exprs.push_back(
                MakeBoundColumn(plan.columns[i], static_cast<int>(i)));
            key_expr = plan.owned_exprs.back().get();
            break;
          }
        }
        if (key_expr == nullptr) {
          return Status::InvalidArgument(
              "ORDER BY over aggregation must reference an output column");
        }
      }
      // 4. Arbitrary expression over the input (non-aggregate queries sort
      //    before projection).
      if (key_expr == nullptr) {
        DS_RETURN_IF_ERROR(BindExpr(e, scope, resolver,
                                    /*allow_aggregates=*/false));
        key_expr = e;
      }
      keys.push_back(SortOp::Key{key_expr, item.descending});
    }
    if (any_aggregate) {
      // Sort runs over the aggregate's output rows.
      root = std::make_unique<SortOp>(std::move(root), std::move(keys));
    } else {
      // Sort over input rows, then project.
      root = std::make_unique<SortOp>(std::move(root), std::move(keys));
      root = std::make_unique<ProjectOp>(std::move(root), output_exprs);
    }
  } else if (!any_aggregate) {
    root = std::make_unique<ProjectOp>(std::move(root), output_exprs);
  }

  // ---- DISTINCT / LIMIT ----
  if (stmt->distinct) {
    root = std::make_unique<DistinctOp>(std::move(root));
  }
  if (stmt->limit.has_value() || stmt->offset.has_value()) {
    root = std::make_unique<LimitOp>(std::move(root),
                                     stmt->limit.value_or(-1),
                                     stmt->offset.value_or(0));
  }

  // ---- Column pruning ----
  // A single-table leaf reads only the columns some expression above it
  // references: select list (star expansions included), WHERE, GROUP BY,
  // HAVING, aggregate arguments (inside the first two), and — for
  // non-aggregate queries, which sort input rows — ORDER BY. Aggregate
  // queries sort their output rows, so their ORDER BY reads no input column.
  if (scan_leaf != nullptr || parallel_scan != nullptr ||
      parallel_aggregate != nullptr) {
    std::vector<bool> used(key_table->schema().num_columns(), false);
    for (const Expr* e : output_exprs) MarkColumns(e, &used);
    MarkColumns(stmt->where.get(), &used);
    for (const ExprPtr& g : stmt->group_by) MarkColumns(g.get(), &used);
    MarkColumns(stmt->having.get(), &used);
    if (!any_aggregate) {
      for (const sql::OrderItem& item : stmt->order_by) {
        MarkColumns(item.expr.get(), &used);
      }
    }
    std::vector<size_t> columns;
    for (size_t c = 0; c < used.size(); ++c) {
      if (used[c]) columns.push_back(c);
    }
    if (scan_leaf != nullptr) {
      scan_leaf->SetColumns(std::move(columns));
    } else if (parallel_scan != nullptr) {
      parallel_scan->SetColumns(std::move(columns));
    } else {
      parallel_aggregate->SetColumns(std::move(columns));
    }
  }

  // Constant folding last: ORDER BY's textual matching (case 3 above) must
  // see select items in their original spelling.
  FoldStmtConstants(stmt);

  plan.root = std::move(root);
  return plan;
}

Result<ResultSet> RunSelect(SelectStmt* stmt, Catalog& catalog,
                            ExternalResolver* resolver,
                            const ExecOptions& exec) {
  DS_ASSIGN_OR_RETURN(PlannedQuery plan,
                      PlanSelect(stmt, catalog, resolver, exec));
  std::vector<Row> rows;
  if (exec.row_at_a_time) {
    DS_ASSIGN_OR_RETURN(rows, Materialize(plan.root.get()));
  } else {
    DS_ASSIGN_OR_RETURN(rows, MaterializeBatched(plan.root.get(),
                                                 EffectiveBatchSize(exec)));
  }
  ResultSet rs;
  rs.columns = std::move(plan.columns);
  rs.rows = std::move(rows);
  return rs;
}

std::string ResultSet::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += "\t";
    out += columns[i];
  }
  if (!columns.empty()) out += "\n";
  size_t shown = 0;
  for (const Row& row : rows) {
    if (shown++ >= max_rows) {
      out += "... (" + std::to_string(rows.size() - max_rows) + " more rows)\n";
      break;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += "\t";
      out += row[i].ToDisplayString();
    }
    out += "\n";
  }
  if (columns.empty() && rows.empty()) {
    out = message.empty() ? std::to_string(affected_rows) + " rows affected"
                          : message;
    out += "\n";
  }
  return out;
}

}  // namespace dataspread
