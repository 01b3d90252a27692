#include "exec/planner.h"

#include <algorithm>
#include <limits>
#include <optional>

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
OperatorPtr MakeScan(const BoundSource& src, size_t start, size_t count) {
  if (src.table != nullptr) {
    return std::make_unique<TableScanOp>(src.table, start, count);
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

/// True when values of the two types can meet in a comparison that raises
/// (`CompareCode`: numeric against TEXT). Untyped columns never conflict at
/// plan time.
bool TypesClash(std::optional<DataType> a, std::optional<DataType> b) {
  if (!a || !b) return false;
  return (IsNumeric(*a) && *b == DataType::kText) ||
         (IsNumeric(*b) && *a == DataType::kText);
}

bool IsComparison(const std::string& op) {
  return op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
         op == ">=";
}

}  // namespace

void MarkColumns(const Expr* e, std::vector<bool>* used) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kColumnRef && e->bound_column >= 0 &&
      static_cast<size_t>(e->bound_column) < used->size()) {
    (*used)[static_cast<size_t>(e->bound_column)] = true;
  }
  for (const ExprPtr& a : e->args) MarkColumns(a.get(), used);
}

bool CannotRaise(const Expr& e, const Scope& scope) {
  auto typed_column = [&](const Expr& c) -> std::optional<DataType> {
    if (c.kind != ExprKind::kColumnRef || c.bound_column < 0) return {};
    return scope.columns[static_cast<size_t>(c.bound_column)].type;
  };
  if (e.kind == ExprKind::kIsNull) return typed_column(*e.args[0]).has_value();
  if (e.kind != ExprKind::kBinary) return false;
  if (e.op == "AND") {
    return CannotRaise(*e.args[0], scope) && CannotRaise(*e.args[1], scope);
  }
  if (!IsComparison(e.op)) return false;
  const Expr* column = e.args[0].get();
  const Expr* other = e.args[1].get();
  if (column->kind != ExprKind::kColumnRef) std::swap(column, other);
  std::optional<DataType> type = typed_column(*column);
  if (!type) return false;
  if (other->kind == ExprKind::kLiteral) {
    return !TypesClash(type, other->literal.type());
  }
  std::optional<DataType> other_type = typed_column(*other);
  return other_type.has_value() && !TypesClash(type, other_type);
}

namespace {

/// Appends the AND-conjuncts of `e` in evaluation order.
void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind == ExprKind::kBinary && e->op == "AND") {
    SplitConjuncts(e->args[0].get(), out);
    SplitConjuncts(e->args[1].get(), out);
  } else {
    out->push_back(e);
  }
}

/// Highest bound column offset `e` reads, or -1.
int MaxColumn(const Expr* e) {
  int max = e->kind == ExprKind::kColumnRef ? e->bound_column : -1;
  for (const ExprPtr& a : e->args) max = std::max(max, MaxColumn(a.get()));
  return max;
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
                                const ExecOptions& exec,
                                std::vector<AggGroup>* groups,
                                JoinBuildCache* join_builds) {
  PlannedQuery plan;
  Scope scope;
  OperatorPtr root;

  // Morsel-parallel leaf eligibility (DESIGN.md §6b): a single named table,
  // no joins, and a thread count requested. Everything above the
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
  // The scan of the first source, serial or morsel-parallel (at most one is
  // set): column pruning narrows it to the columns read above it.
  TableScanOp* scan_leaf = nullptr;
  ParallelScanOp* parallel_scan = nullptr;
  ParallelAggregateOp* parallel_aggregate = nullptr;

  // One step of the left-deep join chain. The steps are planned before
  // WHERE is bound, and their operators built after, so WHERE conjuncts can
  // sit between them.
  struct JoinStep {
    BoundSource right;
    std::vector<int> left_keys, right_keys;  // hash join; empty = nested loop
    const Expr* on = nullptr;                // nested-loop condition
    bool left_outer = false;
    // Built with the join chain; column pruning narrows them.
    HashJoinOp* hash = nullptr;
    TableScanOp* right_scan = nullptr;
  };
  std::vector<JoinStep> steps;

  // ---- FROM clause: sources and join specs ----
  if (stmt->from.has_value()) {
    DS_ASSIGN_OR_RETURN(BoundSource first,
                        BindTableRef(*stmt->from, catalog, resolver));
    AppendToScope(first, &scope);
    if (stmt->joins.empty()) key_table = first.table;
    if (exec.num_threads >= 1 && stmt->joins.empty()) {
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
    if (pushdown) {
      size_t start = static_cast<size_t>(stmt->offset.value_or(0));
      size_t count = stmt->limit.has_value()
                         ? static_cast<size_t>(*stmt->limit)
                         : kScanAll;
      root = MakeScan(first, start, count);
      leaf_start = start;
      leaf_count = count;
      stmt->limit.reset();
      stmt->offset.reset();
    } else {
      root = MakeScan(first, 0, kScanAll);
    }
    if (first.table != nullptr) {
      scan_leaf = static_cast<TableScanOp*>(root.get());
    }

    for (sql::JoinClause& join : stmt->joins) {
      size_t left_width = scope.columns.size();
      JoinStep step;
      DS_ASSIGN_OR_RETURN(step.right,
                          BindTableRef(join.table, catalog, resolver));
      AppendToScope(step.right, &scope);

      if (join.type == JoinType::kNatural) {
        // Shared visible column names become the hash-join keys (none: a
        // cross join); the right-hand copies are hidden from unqualified/star
        // resolution. A shared pair whose declared types cannot be compared
        // is a plan-time error, as for incompatible USING columns.
        for (size_t r = 0; r < step.right.num_columns(); ++r) {
          const std::string& rname = step.right.columns[r];
          for (size_t l = 0; l < left_width; ++l) {
            if (scope.columns[l].visible &&
                EqualsIgnoreCase(scope.columns[l].name, rname)) {
              std::optional<DataType> lt = scope.columns[l].type;
              std::optional<DataType> rt = scope.columns[left_width + r].type;
              if (TypesClash(lt, rt)) {
                return Status::TypeError("NATURAL JOIN column " + rname +
                                         ": cannot compare " +
                                         DataTypeName(*lt) + " with " +
                                         DataTypeName(*rt));
              }
              step.left_keys.push_back(static_cast<int>(l));
              step.right_keys.push_back(static_cast<int>(r));
              scope.columns[left_width + r].visible = false;
              break;
            }
          }
        }
      } else if (join.type != JoinType::kCross) {
        DS_RETURN_IF_ERROR(BindExpr(join.on.get(), scope, resolver,
                                    /*allow_aggregates=*/false));
        step.left_outer = join.type == JoinType::kLeft;
        // Hash only when no key pair can raise; otherwise the nested loop
        // evaluates the ON condition itself, errors included.
        std::vector<int> lk, rk;
        bool hash = ExtractEquiKeys(*join.on, left_width, &lk, &rk) &&
                    !lk.empty();
        for (size_t k = 0; hash && k < lk.size(); ++k) {
          hash = !TypesClash(
              scope.columns[static_cast<size_t>(lk[k])].type,
              scope.columns[left_width + static_cast<size_t>(rk[k])].type);
        }
        if (hash) {
          step.left_keys = std::move(lk);
          step.right_keys = std::move(rk);
        } else {
          step.on = join.on.get();
        }
      }
      steps.push_back(std::move(step));
    }
  } else {
    // FROM-less SELECT: one empty input row.
    auto one = std::make_shared<std::vector<Row>>();
    one->push_back(Row{});
    root = std::make_unique<RowsScanOp>(std::move(one));
  }

  // prefix_width[l]: the scope columns present at level l of the join chain
  // (level 0: the first source; level i: after the i-th join).
  std::vector<size_t> prefix_width(steps.size() + 1, scope.columns.size());
  for (size_t i = steps.size(); i-- > 0;) {
    prefix_width[i] = prefix_width[i + 1] - steps[i].right.num_columns();
  }

  // ---- WHERE ----
  // With joins, a WHERE none of whose conjuncts can raise is split on AND,
  // and each conjunct filters at the lowest level of the join chain whose
  // column prefix holds every column it reads (level 0: the first source;
  // level i: after the i-th join). Prefix offsets equal scope offsets, so no
  // expression is rebased. The split is all or nothing: it changes which
  // rows each conjunct sees, which only matters when one can raise.
  // Nothing moves below a nested-loop ON, which can raise too.
  std::vector<std::vector<const Expr*>> level_filters(steps.size() + 1);
  const Expr* top_where = nullptr;
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
    if (!steps.empty() && CannotRaise(*stmt->where, scope)) {
      size_t floor = 0;
      for (size_t i = 0; i < steps.size(); ++i) {
        if (steps[i].on != nullptr) floor = i + 1;
      }
      std::vector<const Expr*> conjuncts;
      SplitConjuncts(stmt->where.get(), &conjuncts);
      for (const Expr* c : conjuncts) {
        size_t level = floor;
        while (static_cast<size_t>(MaxColumn(c)) >= prefix_width[level]) {
          ++level;
        }
        level_filters[level].push_back(c);
      }
    } else if (leaf_table != nullptr) {
      // The predicate rides inside the parallel leaf (each worker filters
      // its own morsels) instead of a FilterOp above the scan.
      leaf_where = stmt->where.get();
    } else {
      top_where = stmt->where.get();
    }
  }

  // ---- Join chain ----
  auto add_filters = [&](size_t level) {
    for (const Expr* c : level_filters[level]) {
      root = std::make_unique<FilterOp>(std::move(root), c);
    }
  };
  add_filters(0);
  for (size_t i = 0; i < steps.size(); ++i) {
    JoinStep& step = steps[i];
    size_t right_width = step.right.num_columns();
    OperatorPtr right_op = MakeScan(step.right, 0, kScanAll);
    if (!step.left_keys.empty()) {
      // A catalog table's build may be reused across executions
      // (JoinBuildCache); a RANGETABLE's is built every time.
      if (step.right.table != nullptr) {
        step.right_scan = static_cast<TableScanOp*>(right_op.get());
      }
      auto op = std::make_unique<HashJoinOp>(
          std::move(root), std::move(right_op), step.left_keys,
          step.right_keys, step.left_outer, right_width, join_builds,
          step.right.table);
      step.hash = op.get();
      root = std::move(op);
    } else {
      root = std::make_unique<NestedLoopJoinOp>(std::move(root),
                                                std::move(right_op), step.on,
                                                step.left_outer, right_width);
    }
    add_filters(i + 1);
  }
  if (top_where != nullptr) {
    root = std::make_unique<FilterOp>(std::move(root), top_where);
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
      op->set_group_sink(groups);
      parallel_aggregate = op.get();
      scan_leaf = nullptr;
      root = std::move(op);
    } else {
      auto op = std::make_unique<HashAggregateOp>(std::move(root), group_exprs,
                                                  std::move(agg_calls),
                                                  output_exprs,
                                                  stmt->having.get());
      op->set_group_sink(groups);
      root = std::move(op);
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
    // Top-K: with a LIMIT above and no DISTINCT between, the sort keeps
    // only the rows the LIMIT can emit.
    size_t keep = SortOp::kKeepAll;
    if (!stmt->distinct && stmt->limit.has_value() && *stmt->limit >= 0) {
      int64_t offset = std::max<int64_t>(stmt->offset.value_or(0), 0);
      if (*stmt->limit <= std::numeric_limits<int64_t>::max() - offset) {
        keep = static_cast<size_t>(*stmt->limit + offset);
      }
    }
    // An aggregate query sorts the aggregate's output rows; any other sorts
    // its input rows, then projects.
    root = std::make_unique<SortOp>(std::move(root), std::move(keys), keep);
    if (!any_aggregate) {
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
  // Each operator reads only the columns some expression above it
  // references: select list (star expansions included), GROUP BY, HAVING,
  // aggregate arguments (inside the first two), and — for non-aggregate
  // queries, which sort input rows — ORDER BY. Aggregate queries sort their
  // output rows, so their ORDER BY reads no input column. Walking the join
  // chain down, each join passes on what is read above it plus its WHERE
  // conjuncts and its own keys (or ON); the first source's scan reads what
  // is left at the bottom.
  std::vector<bool> used(scope.columns.size(), false);
  for (const Expr* e : output_exprs) MarkColumns(e, &used);
  for (const ExprPtr& g : stmt->group_by) MarkColumns(g.get(), &used);
  MarkColumns(stmt->having.get(), &used);
  if (!any_aggregate) {
    for (const sql::OrderItem& item : stmt->order_by) {
      MarkColumns(item.expr.get(), &used);
    }
  }
  MarkColumns(top_where, &used);
  MarkColumns(leaf_where, &used);
  for (size_t i = steps.size(); i-- > 0;) {
    for (const Expr* c : level_filters[i + 1]) MarkColumns(c, &used);
    const JoinStep& step = steps[i];
    auto live = used.begin() + static_cast<ptrdiff_t>(prefix_width[i]);
    if (step.hash != nullptr) {
      std::vector<bool> right_live(live, live + static_cast<ptrdiff_t>(
                                                   step.right.num_columns()));
      if (step.right_scan != nullptr) {
        std::vector<size_t> columns;
        for (size_t c = 0; c < right_live.size(); ++c) {
          bool key = std::find(step.right_keys.begin(), step.right_keys.end(),
                               static_cast<int>(c)) != step.right_keys.end();
          if (right_live[c] || key) columns.push_back(c);
        }
        step.right_scan->SetColumns(std::move(columns));
      }
      step.hash->SetColumns(std::vector<bool>(used.begin(), live),
                            std::move(right_live));
      for (int k : step.left_keys) used[static_cast<size_t>(k)] = true;
    } else {
      MarkColumns(step.on, &used);
    }
  }
  for (const Expr* c : level_filters[0]) MarkColumns(c, &used);
  std::vector<size_t> columns;
  for (size_t c = 0; c < prefix_width[0]; ++c) {
    if (used[c]) columns.push_back(c);
  }
  if (scan_leaf != nullptr) {
    scan_leaf->SetColumns(std::move(columns));
  } else if (parallel_scan != nullptr) {
    parallel_scan->SetColumns(std::move(columns));
  } else if (parallel_aggregate != nullptr) {
    parallel_aggregate->SetColumns(std::move(columns));
  }

  // Constant folding last: ORDER BY's textual matching (case 3 above) must
  // see select items in their original spelling.
  FoldStmtConstants(stmt);

  plan.root = std::move(root);
  return plan;
}

Result<ResultSet> RunSelect(SelectStmt* stmt, Catalog& catalog,
                            ExternalResolver* resolver,
                            const ExecOptions& exec,
                            std::vector<AggGroup>* groups,
                            JoinBuildCache* join_builds) {
  DS_ASSIGN_OR_RETURN(PlannedQuery plan, PlanSelect(stmt, catalog, resolver,
                                                    exec, groups, join_builds));
  DS_ASSIGN_OR_RETURN(std::vector<Row> rows,
                      MaterializeBatched(plan.root.get(),
                                         EffectiveBatchSize(exec)));
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
