#include "exec/binder.h"

#include <unordered_set>

#include "common/str_util.h"

namespace dataspread {

namespace {

const std::unordered_set<std::string>& KnownScalarFunctions() {
  static const auto* kFns = new std::unordered_set<std::string>{
      "ABS",    "ROUND",  "FLOOR", "CEIL",   "LOWER",    "UPPER",
      "LENGTH", "SUBSTR", "TRIM",  "COALESCE", "NULLIF", "CONCAT",
  };
  return *kFns;
}

}  // namespace

Result<int> Scope::Resolve(std::string_view qualifier,
                           std::string_view name) const {
  int found = -1;
  for (size_t i = 0; i < columns.size(); ++i) {
    const Column& c = columns[i];
    if (!qualifier.empty()) {
      if (!EqualsIgnoreCase(c.qualifier, qualifier)) continue;
    } else if (!c.visible) {
      continue;
    }
    if (!EqualsIgnoreCase(c.name, name)) continue;
    if (found >= 0) {
      return Status::InvalidArgument("ambiguous column reference '" +
                                     std::string(name) + "'");
    }
    found = static_cast<int>(i);
  }
  if (found < 0) {
    std::string full = qualifier.empty()
                           ? std::string(name)
                           : std::string(qualifier) + "." + std::string(name);
    return Status::NotFound("unknown column '" + full + "'");
  }
  return found;
}

Result<BoundSource> BindTableRef(const sql::TableRef& ref, Catalog& catalog,
                                 ExternalResolver* resolver) {
  BoundSource out;
  out.display_name = ref.EffectiveName();
  if (ref.kind == sql::TableRef::Kind::kNamed) {
    DS_ASSIGN_OR_RETURN(Table * table, catalog.GetTable(ref.name));
    out.table = table;
    for (const ColumnDef& c : table->schema().columns()) {
      out.columns.push_back(c.name);
    }
    return out;
  }
  // RANGETABLE: materialize the sheet range through the interface layer.
  if (resolver == nullptr) {
    return Status::InvalidArgument(
        "RANGETABLE(" + ref.range_text +
        ") requires a spreadsheet context (issue the query through DataSpread)");
  }
  DS_ASSIGN_OR_RETURN(RangeTableData data,
                      resolver->ResolveRangeTable(ref.range_text));
  out.range = std::make_shared<RangeTableData>(std::move(data));
  out.columns = out.range->columns;
  if (out.display_name == ref.range_text) {
    // Give anonymous ranges a stable qualifier.
    out.display_name = "range";
  }
  return out;
}

void AppendToScope(const BoundSource& source, Scope* scope) {
  for (size_t c = 0; c < source.num_columns(); ++c) {
    std::optional<DataType> type;
    if (source.table != nullptr) type = source.table->schema().column(c).type;
    scope->columns.push_back(
        Scope::Column{source.display_name, source.columns[c], true, type});
  }
}

Scope TableScope(const Table& table) {
  Scope scope;
  for (const ColumnDef& c : table.schema().columns()) {
    scope.columns.push_back(Scope::Column{table.name(), c.name, true, c.type});
  }
  return scope;
}

Status BindExpr(sql::Expr* e, const Scope& scope, ExternalResolver* resolver,
                bool allow_aggregates) {
  if (e == nullptr) return Status::OK();
  switch (e->kind) {
    case sql::ExprKind::kLiteral:
      return Status::OK();
    case sql::ExprKind::kColumnRef: {
      DS_ASSIGN_OR_RETURN(e->bound_column,
                          scope.Resolve(e->qualifier, e->column_name));
      return Status::OK();
    }
    case sql::ExprKind::kRangeValue: {
      if (resolver == nullptr) {
        return Status::InvalidArgument(
            "RANGEVALUE(" + e->ref_text +
            ") requires a spreadsheet context (issue the query through "
            "DataSpread)");
      }
      DS_ASSIGN_OR_RETURN(Value v, resolver->ResolveRangeValue(e->ref_text));
      if (v.is_error()) {
        return Status::TypeError("referenced cell " + e->ref_text +
                                 " holds error value " + v.error_code());
      }
      // Snapshot semantics: the reference becomes a constant of this query.
      e->kind = sql::ExprKind::kLiteral;
      e->literal = std::move(v);
      return Status::OK();
    }
    case sql::ExprKind::kFunction: {
      if (sql::IsAggregateFunction(e->op)) {
        if (!allow_aggregates) {
          return Status::InvalidArgument("aggregate " + e->op +
                                         " is not allowed in this clause");
        }
        if (e->op == "COUNT" && e->star) {
          return Status::OK();  // COUNT(*) has no argument to bind
        }
        if (e->args.size() != 1) {
          return Status::InvalidArgument(e->op + " expects exactly 1 argument");
        }
        // Aggregate inputs may not nest aggregates.
        return BindExpr(e->args[0].get(), scope, resolver,
                        /*allow_aggregates=*/false);
      }
      if (KnownScalarFunctions().count(e->op) == 0) {
        return Status::NotFound("unknown function " + e->op);
      }
      for (sql::ExprPtr& a : e->args) {
        DS_RETURN_IF_ERROR(BindExpr(a.get(), scope, resolver, allow_aggregates));
      }
      return Status::OK();
    }
    case sql::ExprKind::kUnary:
    case sql::ExprKind::kBinary:
    case sql::ExprKind::kIsNull:
    case sql::ExprKind::kInList:
    case sql::ExprKind::kCase: {
      for (sql::ExprPtr& a : e->args) {
        DS_RETURN_IF_ERROR(BindExpr(a.get(), scope, resolver, allow_aggregates));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled expression kind in binder");
}

}  // namespace dataspread
