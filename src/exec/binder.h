#ifndef DATASPREAD_EXEC_BINDER_H_
#define DATASPREAD_EXEC_BINDER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "exec/resolver.h"
#include "sql/ast.h"

namespace dataspread {

/// One relation participating in a query after source resolution: either a
/// catalog table or a materialized sheet range (`RANGETABLE`).
struct BoundSource {
  std::string display_name;            // alias or table name, original case
  std::vector<std::string> columns;    // attribute names
  const Table* table = nullptr;        // catalog table, or
  std::shared_ptr<RangeTableData> range;  // materialized range
  size_t num_columns() const { return columns.size(); }
};

/// Name-resolution scope: the concatenated columns of all bound sources.
/// `visible` is cleared on the right-hand duplicates of NATURAL JOIN shared
/// columns so `SELECT *` emits each shared attribute once. `type` is a
/// catalog column's declared type, which every stored value has (or is
/// NULL); RANGETABLE columns are untyped.
struct Scope {
  struct Column {
    std::string qualifier;  // source display name
    std::string name;
    bool visible = true;
    std::optional<DataType> type;
  };
  std::vector<Column> columns;

  /// Resolves `[qualifier.]name` to a global column offset.
  /// Unqualified lookups consider only visible columns; ambiguity is an error.
  Result<int> Resolve(std::string_view qualifier, std::string_view name) const;
};

/// Resolves a FROM source against the catalog / the sheet resolver.
Result<BoundSource> BindTableRef(const sql::TableRef& ref, Catalog& catalog,
                                 ExternalResolver* resolver);

/// Appends `source`'s columns to `scope`.
void AppendToScope(const BoundSource& source, Scope* scope);

/// Name-resolution scope over a single table: DML binding, and the
/// single-table scope a query over `table` binds against.
Scope TableScope(const Table& table);

/// Binds expression `e` in place against `scope`:
///  - column refs get `bound_column` global offsets,
///  - RANGEVALUE nodes are resolved through `resolver` and replaced by
///    literals (a query sees a consistent snapshot of referenced cells),
///  - function names are validated.
/// `allow_aggregates` rejects aggregate calls when false (e.g. WHERE).
Status BindExpr(sql::Expr* e, const Scope& scope, ExternalResolver* resolver,
                bool allow_aggregates);

}  // namespace dataspread

#endif  // DATASPREAD_EXEC_BINDER_H_
