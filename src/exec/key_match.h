#ifndef DATASPREAD_EXEC_KEY_MATCH_H_
#define DATASPREAD_EXEC_KEY_MATCH_H_

#include <optional>

#include "catalog/schema.h"
#include "sql/ast.h"
#include "types/value.h"

namespace dataspread {

/// The key-direct access path's one matcher (DESIGN.md §6a), shared by the
/// SELECT planner and the UPDATE/DELETE executors.
///
/// `where` must be bound against a scope that is exactly `schema`'s columns
/// in order (a single table, no join) and constant-folded. Returns the key
/// to look up in the table's primary-key hash index when `where` is exactly
/// `<pk column> = <literal>` (either order) and a hash lookup of that key is
/// certain to find exactly the rows SQL `=` matches:
///   - the literal is non-NULL (and not NaN) and has the key column's type;
///   - or it is numeric and converts exactly to the one value
///     `Value::Compare` can call equal: an integral REAL of magnitude below
///     2^53 against an INTEGER key, an INTEGER of magnitude at most 2^53
///     against a REAL key.
/// Anything else — other shapes, NULL, a TEXT literal against a numeric key
/// (a TypeError on the scan), numbers beyond 2^53 (where `Value::Hash` and
/// `Value::Compare` disagree) — returns nullopt, and the caller scans.
std::optional<Value> MatchKeyEquality(const sql::Expr* where,
                                      const Schema& schema);

}  // namespace dataspread

#endif  // DATASPREAD_EXEC_KEY_MATCH_H_
